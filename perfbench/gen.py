"""Seeded input generator for the ffgenus benchmark.

Pure Python: this module never imports ffgenus. Every instance is valid by
construction and carries the values the benchmark checks the program's
output against:

* the ramified places are distinct monic irreducibles, either linear
  factors T + c or binomials (T + b)^t - a, which are irreducible by the
  binomial criterion (Lidl-Niederreiter, Thm 3.75): every prime l | t
  divides q - 1 but not log_g(a), and 4 | t only when q = 1 mod 4;
* the first place has exponent 1, so X^n - gamma*D is Eisenstein there and
  irreducible; every exponent is below n, and p does not divide n;
* ramification indices, c_P, e_inf and the degrees t of the infinite
  primes follow from integer arithmetic alone (the roots of X^d - gamma
  are located inside the cyclic group F_{q^B}^*).

The program receives only the generated text literals and argv.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, prod


def prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def mult_order(a, mod):
    """Smallest k >= 1 with a^k = 1 mod `mod` (a prime to mod)."""
    if mod == 1:
        return 1
    k, x = 1, a % mod
    while x != 1:
        x, k = (x * a) % mod, k + 1
    return k


class Field:
    """F_q as the benchmark sees it: literals for g^k and the --field text."""

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p ** m
        self.spec = f"{p}^{m}" if m > 1 else str(p)
        self.root = None
        if m == 1:
            self.root = next(r for r in range(1, p) if mult_order(r, p) == p - 1) if p > 2 else 1

    def lit(self, k):
        """Literal of the nonzero element g^k."""
        k %= self.q - 1
        if self.m == 1:
            return str(pow(self.root, k, self.p))
        return "1" if k == 0 else ("g" if k == 1 else f"g^{k}")

    def elem_lit(self, i):
        """Literal of the i-th element in 0, g^0, g^1, ..., g^(q-2)."""
        return "0" if i == 0 else self.lit(i - 1)

    def binomial_degrees(self, max_deg):
        return [t for t in range(2, max_deg + 1)
                if all((self.q - 1) % l == 0 for l in prime_factors(t))
                and (t % 4 or self.q % 4 == 1)]


def linear_place(field, i):
    c = field.elem_lit(i)
    return {"deg": 1, "text": "T" if c == "0" else f"(T + {c})", "key": ("lin", i)}


def binomial_place(rng, field, t):
    ls = prime_factors(t)
    j = rng.choice([j for j in range(1, field.q - 1) if all(j % l for l in ls)])
    i = rng.randrange(field.q)
    b = field.elem_lit(i)
    base = "T" if b == "0" else f"(T + {b})"
    return {"deg": t, "text": f"({base}^{t} - {field.lit(j)})", "key": ("bin", t, i, j)}


def random_places(rng, field, degs):
    """Distinct irreducible places with the requested degrees."""
    places, keys = [], set()
    lin = rng.sample(range(field.q), sum(1 for d in degs if d == 1))
    for d in degs:
        while True:
            pl = linear_place(field, lin.pop()) if d == 1 else binomial_place(rng, field, d)
            if pl["key"] not in keys:
                break
        keys.add(pl["key"])
        places.append(pl)
    return places


def poly_text(places, alphas):
    return "*".join(pl["text"] + (f"^{a}" if a > 1 else "") for pl, a in zip(places, alphas))


def infinity_degrees(q, j, d, s):
    """Sorted degrees t = s*f over F_q of the primes above infinity.

    They are s times the degrees over F_{q^s} of the irreducible factors
    of X^d - g^j, read off the orders of its roots in F_{q^B}^*.
    """
    a = (q - 1) // gcd(j, q - 1)
    N = q ** mult_order(q, d * a) - 1
    A = (j % (q - 1)) * (N // (q - 1))
    counts = {}
    for k in range(d):
        y = A // d + k * (N // d)
        f = mult_order(q ** s, N // gcd(y, N))
        counts[f] = counts.get(f, 0) + 1
    return sorted(s * f for f, c in counts.items() for _ in range(c // f))


def radical_instance(rng, field, n, degs, s=1, gamma_log=None, d_target=None,
                     coprime=False, max_lattice=1 << 10, max_t=1):
    """A valid tame radical instance with its expected ramification data.

    Instances whose infinite primes have degree above max_t are redrawn:
    their residue fields are towers, whose cost would dominate the class.
    """
    q = field.q
    assert n % field.p and n > 1
    for _ in range(10000):
        places = random_places(rng, field, degs)
        choices = [a for a in range(1, n) if not coprime or gcd(a, n) == 1]
        alphas = [1] + [rng.choice(choices) for _ in degs[1:]]
        deg_d = sum(pl["deg"] * a for pl, a in zip(places, alphas))
        d = gcd(deg_d, n)
        if d_target is not None and d != d_target:
            continue
        e_list = [n // gcd(a, n) for a in alphas]
        c_list = [gcd(e, q ** pl["deg"] - 1) for e, pl in zip(e_list, places)]
        j = rng.randrange(q - 1) if gamma_log is None else gamma_log
        t_list = infinity_degrees(q, j, d, s)
        if prod(c for c in c_list if c > 1) <= max_lattice and t_list[-1] <= max_t:
            break
    else:
        raise ValueError(f"no instance over F_{q} with n = {n}, places {degs}, d = {d_target}")
    return {
        "kind": "radical", "p": field.p, "m": field.m, "field": field.spec,
        "n": n, "gamma": field.lit(j), "poly": poly_text(places, alphas), "s": s,
        "expect": {
            "places": sorted((pl["deg"], e, c) for pl, e, c in zip(places, e_list, c_list)),
            "deg_D": deg_d, "e_inf": n // d, "t_list": t_list,
            "t0": reduce(gcd, t_list), "lattice": prod(c for c in c_list if c > 1),
        },
    }


# -- reports: the typical library call --
# (p, m, n, place degrees, s, max_t). Some n divide q - 1 and some do not.
REPORT_CLASSES = [
    (3, 1, 2, (1, 2), 1, 2),
    (3, 1, 10, (2, 1), 1, 4),
    (5, 1, 3, (1, 2), 2, 6),
    (7, 1, 6, (1, 1, 3), 1, 1),
    (3, 2, 4, (1, 2), 2, 4),
    (5, 2, 12, (1, 2, 1, 1), 1, 2),
    (3, 3, 13, (1, 2), 1, 1),
    (2, 6, 9, (1, 3, 1), 1, 1),
    (3, 5, 11, (1, 1), 1, 1),
    (2, 8, 5, (1, 1, 1), 1, 1),
    (2, 10, 3, (1, 3), 1, 1),
    (2, 10, 5, (1, 1), 1, 1),
    (2, 12, 7, (1, 1, 3), 1, 1),
    (2, 12, 11, (1, 1), 1, 1),
]

# -- lattice: n = q - 1, linear places with exponents prime to n, so every
# c_P = n and the subfield lattice has n^k elements --
# (q, places, d = gcd(deg D, n), log of gamma)
LATTICE_CLASSES = [
    (17, 3, 1, 1),
    (7, 5, 3, 1),
    (11, 4, 2, 3),
    (17, 4, 4, 1),
    (13, 4, 2, 1),
    (9, 5, 1, 1),
    (19, 4, 2, 1),
]


def report_round(rng):
    return [radical_instance(rng, Field(p, m), n, list(degs), s, max_t=max_t)
            for p, m, n, degs, s, max_t in REPORT_CLASSES]


def lattice_round(rng):
    return [radical_instance(rng, _field(q), q - 1, [1] * k, gamma_log=j, d_target=d,
                             coprime=True, max_lattice=1 << 20, max_t=q)
            for q, k, d, j in LATTICE_CLASSES]


def _field(q):
    p, m = prime_factors(q)[0], 0
    while q > 1:
        q, m = q // p, m + 1
    return Field(p, m)


def known_poly(rng, field, degs, mults, unit=True):
    """A product of known irreducibles, optionally times a random unit."""
    text = poly_text(random_places(rng, field, degs), mults)
    if unit and field.q > 2:
        text = f"{field.lit(rng.randrange(field.q - 1))}*{text}"
    return text


def _split_degrees(rng, field, total, max_part):
    """Random place degrees summing to total, each linear or a binomial degree."""
    allowed = [1] + field.binomial_degrees(max_part)
    degs = []
    while total:
        d = rng.choice([a for a in allowed if a <= total])
        degs.append(d)
        total -= d
    return degs


def _shape(rng, field, deg):
    """Place degrees and multiplicities of a random product of degree deg."""
    degs = _split_degrees(rng, field, deg, deg)
    while sum(1 for d in degs if d == 1) > field.q:
        degs = _split_degrees(rng, field, deg, deg)
    if len(degs) > 1 and degs[-1] == degs[0] and rng.random() < 0.5:
        # fold a repeated degree into a square
        return degs[:-1], [2] + [1] * (len(degs) - 2)
    return degs, [1] * len(degs)


def factor_check(rng, q, deg, shape=None):
    field = _field(q)
    degs, mults = (list(shape), [1] * len(shape)) if shape else _shape(rng, field, deg)
    text = known_poly(rng, field, degs, mults)
    return {"kind": "factor", "p": field.p, "m": field.m, "poly": text,
            "expect": {"degrees": sorted(d for d, k in zip(degs, mults) for _ in range(k))}}


def phi_check(rng, q, deg):
    field = _field(q)
    degs, mults = _shape(rng, field, deg)
    text = known_poly(rng, field, degs, mults, unit=False)
    phi = prod((q ** d - 1) * q ** (d * (k - 1)) for d, k in zip(degs, mults))
    return {"kind": "phi", "p": field.p, "m": field.m, "poly": text, "expect": {"phi": phi}}


def t0_check(rng, q, b):
    """gamma and d whose roots all lie in F_{q^b}, which t0_root_degrees scans."""
    field = _field(q)
    for _ in range(10000):
        d = rng.choice([d for d in range(2, 7) if d % field.p])
        j = rng.randrange(q - 1)
        if mult_order(q, d * ((q - 1) // gcd(j, q - 1))) == b:
            break
    else:
        raise ValueError(f"no d-th root problem over F_{q} splitting in degree {b}")
    return {"kind": "t0", "p": field.p, "m": field.m, "gamma": field.lit(j), "d": d,
            "expect": {"t0": reduce(gcd, infinity_degrees(q, j, d, 1))}}


def carlitz_check(rng, q, max_deg):
    field = _field(q)
    polys, degs = [], []
    for _ in range(2):
        deg = rng.randrange(1, max_deg + 1)
        degs.append(deg)
        coeffs = [field.elem_lit(rng.randrange(q)) for _ in range(deg)]
        lead = field.lit(rng.randrange(q - 1))
        text = f"{lead}*T^{deg}" + "".join(
            f" + {c}*T^{i}" for i, c in enumerate(coeffs) if c != "0")
        polys.append(text)
    return {"kind": "carlitz", "p": field.p, "m": field.m, "M": polys[0], "N": polys[1],
            "expect": {"deg_M": degs[0]}}


def splitting_check(rng, q, ramified, max_enum):
    """splitting_at_finite at a place of D (ramified) or at a fresh place."""
    field = _field(q)
    ns = [n for n in range(2, 7) if n % field.p]
    while True:
        n = rng.choice(ns)
        inst = radical_instance(rng, field, n, [1, rng.choice([1] + field.binomial_degrees(2))],
                                max_lattice=1 << 20, max_t=n)
        if ramified:
            break
        extra = random_places(rng, field, [1, 1, 1])
        used = inst["poly"]
        fresh = [pl for pl in extra if pl["text"] not in used]
        if fresh and q ** (n // 2) <= max_enum:
            break
    inst = dict(inst, kind="splitting")
    if ramified:
        # the first place of D has exponent 1 and so is totally ramified
        inst["P"] = inst["poly"].split("*")[0]
        inst["expect"] = dict(inst["expect"], P_e=n)
    else:
        inst["P"] = fresh[0]["text"]
        inst["expect"] = dict(inst["expect"], P_e=1)
    return inst


def oracle_round(rng):
    """One check of each kind per field; fields are fixed so rounds cost alike."""
    return [
        factor_check(rng, 3, 6),
        factor_check(rng, 4, 5),
        factor_check(rng, 9, 4),
        factor_check(rng, 25, 4, (1, 1, 2)),
        phi_check(rng, 3, 3),
        phi_check(rng, 5, 3),
        phi_check(rng, 7, 2),
        t0_check(rng, 5, 2),
        t0_check(rng, 7, 3),
        t0_check(rng, 9, 2),
        t0_check(rng, 13, 2),
        t0_check(rng, 25, 2),
        carlitz_check(rng, 3, 2),
        carlitz_check(rng, 4, 2),
        carlitz_check(rng, 9, 1),
        splitting_check(rng, 7, True, 1),
        splitting_check(rng, 5, False, 400),
        splitting_check(rng, 11, False, 400),
    ]


def _radical_argv(cmd, inst):
    argv = [cmd, "--field", inst["field"], "--n", str(inst["n"]),
            "--gamma", inst["gamma"], "--poly", inst["poly"]]
    if inst["s"] > 1:
        argv += ["--base-constants", str(inst["s"])]
    return argv


def cli_round(rng, profile_path):
    """One of each documented command, plus exit-1 and exit-2 inputs.

    Returns (requests, profile); the caller writes `profile` as JSON to
    `profile_path` before the requests run.
    """
    out = []

    def req(argv, code, kind, **expect):
        out.append({"argv": argv, "code": code, "kind": kind, "expect": expect})

    small = _field(rng.choice((3, 5, 7, 9)))
    phi = phi_check(rng, small.q, rng.choice((2, 3)))
    req(["phi", "--field", small.spec, "--poly", phi["poly"]], 0, "phi", **phi["expect"])

    medium = _field(rng.choice((243, 256)))
    fac = factor_check(rng, medium.q, 4)
    req(["factor", "--field", medium.spec, "--poly", fac["poly"], "--format", "json"],
        0, "factor", degrees=fac["expect"]["degrees"])

    mult = carlitz_check(rng, rng.choice((3, 4, 5)), 2)
    req(["carlitz", "--field", _field(mult["p"] ** mult["m"]).spec, "--poly", mult["M"]],
        0, "carlitz", lines=mult["expect"]["deg_M"] + 1)

    p, m, n, degs, s, max_t = rng.choice(REPORT_CLASSES[:8])
    inst = radical_instance(rng, Field(p, m), n, list(degs), s, max_t=max_t)
    req(_radical_argv("analyze", inst), 0, "analyze", **inst["expect"])
    p, m, n, degs, s, max_t = rng.choice(REPORT_CLASSES[:8])
    inst = radical_instance(rng, Field(p, m), n, list(degs), s, max_t=max_t)
    req(_radical_argv("genus", inst), 0, "genus_text", **inst["expect"])
    for p, m, n, degs, s, max_t in (REPORT_CLASSES[10], REPORT_CLASSES[12]):
        inst = radical_instance(rng, Field(p, m), n, list(degs), s, max_t=max_t)
        req(_radical_argv("genus", inst) + ["--format", "json"], 0, "genus_json",
            **inst["expect"])

    q = rng.choice((3, 4, 5, 7, 9))
    finite = [{"deg": rng.randrange(1, 4), "e": [rng.randrange(2, 7)]}
              for _ in range(rng.randrange(1, 4))]
    infinity = [{"e": rng.randrange(1, 5), "t": rng.randrange(1, 4)}
                for _ in range(rng.randrange(1, 3))]
    profile = {"q": q, "finite": finite, "infinity": infinity}
    req(["genus", "--profile", profile_path], 0, "genus_profile",
        t0=reduce(gcd, (x["t"] for x in infinity)))

    req(["oracle-verify", "--field", "3"], 0, "oracle_verify")

    wild = _field(rng.choice((3, 5, 7)))
    req(["genus", "--field", wild.spec, "--n", str(wild.p * rng.randrange(1, 4)),
         "--gamma", "1", "--poly", "T"], 1, "error")
    bad = rng.choice((
        ["genus", "--field", small.spec],
        ["factor", "--field", small.spec, "--poly", "T^"],
        ["phi", "--field", "6", "--poly", "T"],
    ))
    req(bad, 2, "error")
    return out, profile
