"""Base field and polynomial arithmetic: fixed values plus brute-force invariants."""

import itertools
import random
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ffgenus import ffpoly
from ffgenus.ffpoly import (
    MAX_Q,
    DomainError,
    FqPoly,
    ParseError,
    factor,
    factor_int,
    is_eth_power,
    is_irreducible,
    make_context,
    monic_polys,
    parse_element,
    parse_poly,
    poly_gcd,
    render_element,
    render_poly,
)


def P(ctx, text):
    return parse_poly(ctx, text)


# -- contexts --


def test_make_context_f3():
    ctx = make_context(3, 1)
    assert (ctx.p, ctx.m, ctx.q) == (3, 1, 3)
    assert ctx.generator == ctx.from_int(2)


def test_make_context_f25_has_cube_roots_of_unity():
    ctx = make_context(5, 2)
    assert ctx.q == 25
    zeta = ctx.generator ** 8
    assert zeta != ctx.one()
    assert zeta.multiplicative_order() == 3


def test_make_context_f9():
    ctx = make_context(3, 2)
    assert ctx.q == 9
    assert ctx.generator.multiplicative_order() == 8
    # canonical modulus is the smallest irreducible: X^2 + 1 over F_3
    assert ctx.modulus == (1, 0)


def test_make_context_rejects_bad_input():
    with pytest.raises(DomainError):
        make_context(4, 1)
    with pytest.raises(DomainError):
        make_context(3, 0)
    with pytest.raises(DomainError):
        make_context(2, 17)  # 2^17 over the q cap
    # the cap is checked before any power is taken or any prime tested
    for p, m in [(2, 10 ** 9), (10 ** 30 + 57, 1), (1, 1), (0, 1), (-3, 1)]:
        with pytest.raises(DomainError):
            make_context(p, m)


def test_factor_int_matches_sympy_up_to_2_16():
    for n in range(1, MAX_Q + 1):
        got = factor_int(n)
        assert got == sympy.factorint(n), n
        assert list(got) == sorted(got)


def test_factor_int_on_tower_orders():
    # q - 1 of every extension tower the suite and the benchmark build;
    # F_{17^4} and F_{3^16} lie above MAX_Q
    for q in [9, 25, 27, 81, 121, 169, 343, 625, 2197, 6561, 28561, 17 ** 4, 3 ** 16]:
        assert factor_int(q - 1) == sympy.factorint(q - 1), q


def test_factor_int_large_values():
    # a cofactor without small primes is certified prime below 65537^2
    assert factor_int(4294967291) == {4294967291: 1}  # largest prime below 2^32
    assert factor_int(3 * 4294967291) == {3: 1, 4294967291: 1}
    assert factor_int(2 ** 100) == {2: 100}
    # above that the remainder cannot be certified: refuse, in bounded time
    for n in (65537 * 65539, 2 ** 61 - 1, 3 * (2 ** 89 - 1), 10 ** 30 + 57):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            factor_int(n)
        assert time.perf_counter() - start < 1.0
    for bad in (0, -7):
        with pytest.raises(DomainError):
            factor_int(bad)


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        f = factor_int(q)
        if len(f) == 1:
            out.extend(f.items())
    return out


def _sympy_first_irreducible(p, m):
    # every monic candidate in lexicographic order of (c_0, ..., c_{m-1});
    # one with c_0 = 0 is divisible by X and needs no sympy call
    X = sympy.symbols("X")
    for tail in itertools.product(range(p), repeat=m):
        if tail[0] and sympy.Poly([1] + list(reversed(tail)), X, modulus=p).is_irreducible:
            return tail


def test_modulus_is_first_irreducible_in_full_order():
    for p, m in _prime_powers(1 << 12):
        if m > 1:
            assert make_context(p, m).modulus == _sympy_first_irreducible(p, m), (p, m)


# four of the fields with 2^12 < q <= 2^16 of degree 2 and four of higher degree
_LARGE = [(p, m) for p, m in _prime_powers(MAX_Q) if m > 1 and p ** m > 1 << 12]
LARGE_FIELDS = sorted(random.Random(16).sample([f for f in _LARGE if f[1] == 2], 4)
                      + random.Random(16).sample([f for f in _LARGE if f[1] > 2], 4))


@pytest.mark.parametrize("p,m", LARGE_FIELDS)
def test_large_field_modulus_and_generator(p, m):
    # the modulus search and the generator's order test run on every field build
    ctx = make_context(p, m)
    assert ctx.modulus == _sympy_first_irreducible(p, m)
    R = _PolyBasis(ctx)
    gen = next(i for i in range(1, ctx.q) if R.order(R.vec(ctx.from_int(i))) == ctx.q - 1)
    assert ctx.elem_to_int(ctx.generator) == gen


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10)])
def test_largest_contexts_build_within_budget(p, m):
    ffpoly._CTX_CACHE.pop((p, m), None)  # time a fresh build
    start = time.perf_counter()
    ctx = make_context(p, m)
    assert time.perf_counter() - start < 10.0
    assert ctx.generator.multiplicative_order() == ctx.q - 1
    tables = [t for t in (ctx._exp, ctx._log, ctx._zech) if t is not None]
    assert sum(sys.getsizeof(t) for t in tables) < 512 * 1024


class _PolyBasis:
    """Reference arithmetic: coefficient vectors reduced mod ctx.modulus.

    Scalars are ints mod p for a flat context and base-context elements
    (with their own operators) for a tower.
    """

    def __init__(self, ctx):
        self.ctx, self.m, self.mod = ctx, ctx.m, list(ctx.modulus)
        if ctx.base is None:
            p = ctx.p
            self.zero, self.one_s = 0, 1
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: a * b % p
            self.neg = lambda a: -a % p
            self.scalar = lambda d: d
        else:
            self.zero, self.one_s = ctx.base.zero(), ctx.base.one()
            self.add = lambda a, b: a + b
            self.mul = lambda a, b: a * b
            self.neg = lambda a: -a
            self.scalar = ctx.base.from_int

    def vec(self, a):
        i, out = self.ctx.elem_to_int(a), []
        for _ in range(self.m):
            i, d = divmod(i, self.ctx.qbase)
            out.append(self.scalar(d))
        return out

    def one(self):
        return [self.one_s] + [self.zero] * (self.m - 1)

    def vadd(self, x, y):
        return [self.add(a, b) for a, b in zip(x, y)]

    def vneg(self, x):
        return [self.neg(a) for a in x]

    def vmul(self, x, y):
        m = self.m
        raw = [self.zero] * (2 * m - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                raw[i + j] = self.add(raw[i + j], self.mul(a, b))
        for i in range(2 * m - 2, m - 1, -1):
            lead = raw[i]
            for j in range(m):
                raw[i - m + j] = self.add(raw[i - m + j], self.neg(self.mul(lead, self.mod[j])))
        return raw[:m]

    def vpow(self, x, e):
        out = self.one()
        for bit in bin(e)[2:]:
            out = self.vmul(out, out)
            if bit == "1":
                out = self.vmul(out, x)
        return out

    def order(self, x):
        n = self.ctx.q - 1
        for r in factor_int(n):
            while n % r == 0 and self.vpow(x, n // r) == self.one():
                n //= r
        return n


def _check_kernel(ctx):
    R = _PolyBasis(ctx)
    q, one = ctx.q, R.one()
    rng = random.Random(q)
    if q <= 16:
        els = list(ctx.elements())
        pairs = [(a, b) for a in els for b in els]
    else:
        els = [ctx.zero(), ctx.one()] + [ctx.from_int(rng.randrange(q)) for _ in range(40)]
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(200)]
    for a, b in pairs:
        va, vb = R.vec(a), R.vec(b)
        assert R.vec(a + b) == R.vadd(va, vb)
        assert R.vec(a - b) == R.vadd(va, R.vneg(vb))
        assert R.vec(-a) == R.vneg(va)
        assert R.vec(a * b) == R.vmul(va, vb)
        if not b.is_zero():
            assert R.vmul(R.vec(a / b), vb) == va
    flat = ctx.base is None
    if flat:
        gen = next(ctx.from_int(i) for i in range(1, q) if R.order(R.vec(ctx.from_int(i))) == q - 1)
        assert ctx.generator == gen
    for a in els:
        va = R.vec(a)
        if a.is_zero():
            assert a ** 0 == ctx.one() and a ** 7 == a
            for bad in (a.inverse, lambda: ctx.dlog(a), a.multiplicative_order,
                        lambda: a ** -1, lambda: ctx.one() / a):
                with pytest.raises(DomainError):
                    bad()
            continue
        assert R.vmul(R.vec(a.inverse()), va) == one
        for e in (rng.randrange(-3 * q, 3 * q), 10 ** 30 + rng.randrange(q)):
            assert R.vec(a ** e) == R.vpow(va, e % (q - 1))
        if flat:
            k = ctx.dlog(a)
            assert 0 <= k < q - 1 and R.vpow(R.vec(gen), k) == va
            assert a.multiplicative_order() == R.order(va)


@pytest.mark.parametrize("p,m", _prime_powers(256) + [(2, 12), (2, 16)])
def test_flat_kernel_matches_polynomial_basis(p, m):
    _check_kernel(make_context(p, m))


@pytest.mark.parametrize("p,m,r", [(2, 2, 3), (3, 2, 2), (17, 1, 4)])
def test_tower_kernel_matches_polynomial_basis(p, m, r):
    _check_kernel(make_context(p, m).extension(r))


def _count_calls(monkeypatch, cls, name):
    calls = []
    inner = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_tower_inverse_makes_no_tower_product(monkeypatch):
    ctx = make_context(17, 1).extension(4)
    rng = random.Random(4)
    els = [ctx.from_int(rng.randrange(1, ctx.q)) for _ in range(30)]
    invs = [a.inverse() for a in els]
    assert all(a * b == ctx.one() for a, b in zip(els, invs))
    products = _count_calls(monkeypatch, ffpoly._TowerElem, "__mul__")
    assert [a.inverse() for a in els] == invs
    assert products == []


def test_divrem_by_monic_divisor_inverts_nothing(monkeypatch):
    ctx = make_context(5, 2).extension(2)
    rng = random.Random(5)
    f = small_poly(ctx, rng, 8)
    g = FqPoly(ctx, tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(3)) + (ctx.one(),))
    inverses = _count_calls(monkeypatch, ffpoly._TowerElem, "inverse")
    q, r = f.divrem(g)
    assert inverses == []
    assert q * g + r == f and r.degree < g.degree


def test_divrem_reconstructs_over_a_tower():
    ctx = make_context(3, 1).extension(3)
    rng = random.Random(3)
    for _ in range(60):
        f, g = small_poly(ctx, rng, 6), small_poly(ctx, rng, 4)
        if g.is_zero():
            continue
        for h in (g, g.monic()):
            q, r = f.divrem(h)
            assert q * h + r == f and r.degree < h.degree


def test_negative_polynomial_powers_raise():
    ctx = make_context(3, 1)
    f = P(ctx, "T+1")
    with pytest.raises(DomainError):
        f ** -1
    with pytest.raises(DomainError):
        ffpoly.powmod(f, -1, P(ctx, "T^2+1"))
    assert f ** 0 == P(ctx, "1")


def test_context_is_cached():
    assert make_context(3, 2) is make_context(3, 2)


def test_from_int_round_trip():
    for p, m in [(2, 1), (3, 2), (5, 2), (2, 4)]:
        ctx = make_context(p, m)
        for i in range(ctx.q):
            assert ctx.elem_to_int(ctx.from_int(i)) == i


def test_element_field_axioms_f9():
    ctx = make_context(3, 2)
    els = list(ctx.elements())
    for a in els:
        for b in els:
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a * b) / b == a
    for a in els:
        if not a.is_zero():
            assert a * a.inverse() == ctx.one()
            assert (ctx.q - 1) % a.multiplicative_order() == 0


def test_tower_extension_embeds_base():
    base = make_context(3, 2)
    ext = base.extension(2)
    assert (ext.mtot, ext.q) == (4, 81)
    for i in range(base.q):
        for j in range(base.q):
            a, b = base.from_int(i), base.from_int(j)
            assert ext.lift(a) * ext.lift(b) == ext.lift(a * b)
            assert ext.lift(a) + ext.lift(b) == ext.lift(a + b)
    # a tower has no generator, so no discrete log and no literal 'g'
    assert ext.generator is None
    for bad in (lambda: ext.dlog(ext.one()), ext.one().multiplicative_order,
                lambda: parse_element(ext, "g")):
        with pytest.raises(DomainError):
            bad()
    # so the repr of a tower polynomial prints coefficient vectors
    e = make_context(3, 1).extension(2)
    assert repr(FqPoly(e, (e.from_int(4), e.one()))) == (
        "FqPoly(F_3[^2], (FqElem(F_3[^2], (FqElem(F_3, '1'), FqElem(F_3, '1'))), "
        "FqElem(F_3[^2], (FqElem(F_3, '1'), FqElem(F_3, '0')))))")


def test_tower_repr_is_fast():
    # the coefficient vector, not a discrete log walk over 2^32 - 1 powers
    code = ("from ffgenus.ffpoly import make_context\n"
            "ctx = make_context(2, 16)\n"
            "a = ctx.extension(2).from_int(123456789)\n"
            "import time\n"
            "start = time.perf_counter()\n"
            "print(repr(a))\n"
            "assert time.perf_counter() - start < 1.0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"FqElem(F_2^16[^2], (FqElem(F_2^16, ")


def _first_irreducible_modulus(ctx, r):
    # the binomials X^r + c first, then every (c_0, ..., c_{r-1}) with c_0 >= 1
    # in lexicographic order; in characteristic 2 with r even, X^r + c is a
    # square and the binomials are passed over
    binomials = [] if ctx.p == 2 and r % 2 == 0 else [
        (c,) + (0,) * (r - 1) for c in range(1, ctx.q)]
    rest = itertools.product(range(1, ctx.q), *[range(ctx.q)] * (r - 1))
    for tail in itertools.chain(binomials, rest):
        cand = FqPoly(ctx, tuple(ctx.from_int(c) for c in tail) + (ctx.one(),))
        if is_irreducible(cand):
            return cand.coeffs[:r]


@pytest.mark.parametrize("p,m,r", [
    (2, 1, 2), (2, 1, 4), (2, 3, 2), (2, 4, 3), (3, 1, 2), (3, 1, 4), (3, 1, 6), (3, 2, 2),
    (3, 2, 4), (5, 1, 2), (5, 1, 4), (5, 1, 5), (5, 2, 3), (7, 1, 3), (7, 1, 4), (13, 1, 3),
    (17, 1, 4), (31, 1, 2), (2, 8, 2)])
def test_extension_modulus_is_first_irreducible_candidate(p, m, r):
    # binomials X^r + c are decided by Lidl-Niederreiter 3.75; the reference
    # tests every candidate in search order with is_irreducible, and the
    # X-divisible candidates of the lexicographic order are left out
    ctx = make_context(p, m)
    assert ctx.extension(r).modulus == _first_irreducible_modulus(ctx, r)


def test_binary_quadratic_extension_builds_fast():
    # over F_{2^m} with r even every X^r + c is a square: no binomial is
    # tested in vain, and the first irreducible lies early in the search
    # order (F_256[^4] took 21.2 s when the constant term varied fastest)
    for m, r in ((16, 2), (8, 4)):
        ctx = make_context(2, m)
        ctx._ext_cache.pop(r, None)
        start = time.perf_counter()
        ext = ctx.extension(r)
        assert time.perf_counter() - start < 1.0, (m, r)
        assert ext.modulus == _first_irreducible_modulus(ctx, r), (m, r)


def test_extension_degree_one_is_identity():
    ctx = make_context(5, 1)
    assert ctx.extension(1) is ctx


# -- ring operations --


def test_gcd_example_f3():
    ctx = make_context(3, 1)
    g = poly_gcd(P(ctx, "T^2-T-1"), P(ctx, "T"))
    assert g == P(ctx, "1")


def test_cube_root_product_f25():
    ctx = make_context(5, 2)
    zeta = FqPoly.const(ctx, ctx.generator ** 8)
    x = FqPoly.x(ctx)
    prod = (x - zeta) * (x - zeta * zeta)
    assert prod == P(ctx, "T^2+T+1")


def test_divrem_example():
    ctx = make_context(3, 1)
    q, r = P(ctx, "T^3+2*T+1").divrem(P(ctx, "T"))
    assert q == P(ctx, "T^2+2")
    assert r == P(ctx, "1")


def test_divrem_by_zero():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        P(ctx, "T").divrem(FqPoly(ctx, ()))


def small_poly(ctx, rng, maxdeg):
    return FqPoly(ctx, tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(rng.randrange(maxdeg + 2))))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3 ** 6 - 1), st.integers(0, 3 ** 6 - 1))
def test_divrem_reconstructs(i, j):
    ctx = make_context(3, 1)
    f = FqPoly.from_ints(ctx, [(i // 3 ** k) % 3 for k in range(6)])
    g = FqPoly.from_ints(ctx, [(j // 3 ** k) % 3 for k in range(6)])
    if g.is_zero():
        return
    q, r = f.divrem(g)
    assert q * g + r == f
    assert r.degree < g.degree


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5 ** 4 - 1), st.integers(1, 5 ** 4 - 1))
def test_gcd_divides_both_and_is_monic(i, j):
    ctx = make_context(5, 1)
    f = FqPoly.from_ints(ctx, [(i // 5 ** k) % 5 for k in range(4)])
    g = FqPoly.from_ints(ctx, [(j // 5 ** k) % 5 for k in range(4)])
    d = poly_gcd(f, g)
    assert d.is_monic
    assert (f % d).is_zero() and (g % d).is_zero()


# -- irreducibility --


def test_is_irreducible_fixed_cases():
    f3 = make_context(3, 1)
    assert is_irreducible(P(f3, "T^3+2*T+1"))
    assert is_irreducible(P(f3, "T^2-T-1"))
    assert is_irreducible(P(f3, "T^4+T+2"))  # even degree: every d <= 2 is run
    # the first distinct-degree yield of a split f is (1, f): d, not deg g, decides
    assert not is_irreducible(P(f3, "T^3-T"))
    # the square of a degree-n/2 irreducible shows at the last step d = n/2
    assert not is_irreducible(P(f3, "(T^2+1)^2"))
    f25 = make_context(5, 2)
    assert not is_irreducible(P(f25, "T^2+T+1"))


def test_is_irreducible_rejects_constants():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        is_irreducible(P(ctx, "2"))


def _mobius(n):
    mu = 1
    for _, e in sympy.factorint(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_irreducible_counts_match_necklace_formula(q):
    p = sympy.primefactors(q)[0]
    m = 0
    while p ** (m + 1) <= q:
        m += 1
    ctx = make_context(p, m)
    for d in range(1, 5):
        count = sum(1 for f in monic_polys(ctx, d) if is_irreducible(f))
        expected = sum(_mobius(e) * q ** (d // e) for e in sympy.divisors(d)) // d
        assert count == expected


# -- factorization --


def test_factor_fixed_cases():
    f3 = make_context(3, 1)
    f5 = make_context(5, 1)
    assert factor(P(f3, "X^2+1")).degree_multiset() == [2]
    assert factor(P(f5, "X^3-1")).degree_multiset() == [1, 2]
    fac = factor(P(f3, "X^2-1"))
    assert fac.factors == ((P(f3, "X+1"), 1), (P(f3, "X+2"), 1))


def test_factor_zero_rejected():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        factor(FqPoly(ctx, ()))


def test_factor_unit_and_constant():
    ctx = make_context(5, 1)
    fac = factor(P(ctx, "3"))
    assert fac.factors == () and fac.unit == ctx.from_int(3)


CONTEXTS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (5, 2)]


def expand(fac):
    """unit * prod(poly^mult): the polynomial a factorization stands for."""
    out = FqPoly.const(fac.unit.ctx, fac.unit)
    for g, mult in fac.factors:
        out = out * g ** mult
    return out


@pytest.mark.parametrize("p,m", CONTEXTS)
def test_factor_recombines_exhaustive_small(p, m):
    ctx = make_context(p, m)
    maxdeg = 3 if ctx.q <= 5 else 2
    for d in range(1, maxdeg + 1):
        for f in monic_polys(ctx, d):
            fac = factor(f)
            assert expand(fac) == f
            for g, _ in fac.factors:
                assert g.is_monic and is_irreducible(g)


@pytest.mark.parametrize("p,m", CONTEXTS)
def test_factor_recombines_random_to_degree_six(p, m):
    ctx = make_context(p, m)
    rng = random.Random(10 * p + m)
    for _ in range(40):
        d = rng.randrange(4, 7)
        coeffs = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(d)]
        coeffs.append(ctx.from_int(rng.randrange(1, ctx.q)))
        f = FqPoly(ctx, tuple(coeffs))
        fac = factor(f)
        assert expand(fac) == f
        assert all(is_irreducible(g) for g, _ in fac.factors)
        assert fac.factors == tuple(sorted(fac.factors, key=lambda fm: fm[0].sort_key()))


def test_factor_agrees_with_is_irreducible():
    ctx = make_context(3, 1)
    for f in monic_polys(ctx, 3):
        single = factor(f).factors
        assert is_irreducible(f) == (len(single) == 1 and single[0][1] == 1)


def test_factor_is_deterministic():
    ctx = make_context(5, 2)
    f = P(ctx, "X^6 + g*X^3 + X + g^7")
    assert factor(f) == factor(f)


@pytest.mark.parametrize("p,m,text", [(3, 1, "T^8-1"), (5, 2, "T^24-1"), (2, 4, "T^15-1")])
def test_edf_split_output_does_not_depend_on_the_draws(p, m, text):
    # factor sorts what the equal-degree split returns, so its seed only sets the time
    f = P(make_context(p, m), text)
    for d, g in ffpoly._distinct_degree(f):
        splits = {tuple(sorted(ffpoly._edf_split(g, d, random.Random(seed)),
                               key=FqPoly.sort_key))
                  for seed in range(6)}
        (found,) = splits
        assert len(found) == g.degree // d
        assert all(h.degree == d and is_irreducible(h) for h in found)


def _distinct_degree_by_powmods(f):
    """The distinct-degree loop with one powmod by q per Frobenius step."""
    x = FqPoly.x(f.ctx)
    xp, rem, d = x, f, 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            yield rem.degree, rem
            return
        xp = ffpoly.powmod(xp, f.ctx.q, rem)
        g = ffpoly.poly_gcd(xp - x, rem)
        if g.degree > 0:
            yield d, g
            rem = (rem // g).monic()
            xp = xp % rem


def test_frobenius_table_yields_what_powmods_yield(monkeypatch):
    # each field reaches the table after a few steps: the first powmods cost
    # bits(q) + popcount(q) products, the table deg rest
    powmods = []
    powmod = ffpoly.powmod
    monkeypatch.setattr(ffpoly, "powmod", lambda *a: powmods.append(1) or powmod(*a))
    rng = random.Random(20260815)
    steps = table_steps = 0
    for p, m, deg in [(2, 1, 24), (3, 1, 16), (7, 1, 14), (5, 2, 12), (2, 8, 10), (3, 5, 8)]:
        ctx = make_context(p, m)
        for _ in range(5):
            f = FqPoly.from_ints(ctx, [rng.randrange(ctx.q) for _ in range(deg)] + [1])
            for sqfree, _ in ffpoly._squarefree_parts(f):
                powmods.clear()
                expected = list(_distinct_degree_by_powmods(sqfree))
                reference = len(powmods)
                powmods.clear()
                assert list(ffpoly._distinct_degree(sqfree)) == expected, f
                assert len(powmods) <= reference
                if reference == 1:  # a call that ends after one step keeps its powmod
                    assert len(powmods) == 1
                steps += reference
                table_steps += reference - len(powmods)
    assert table_steps > steps // 4


def test_repeated_factors_char2():
    ctx = make_context(2, 2)
    x = FqPoly.x(ctx)
    f = (x + FqPoly.const(ctx, ctx.one())) ** 4 * (x ** 2 + x + FqPoly.const(ctx, ctx.generator)) ** 2
    fac = factor(f)
    assert sorted(mult for _, mult in fac.factors) == [2, 4]
    assert expand(fac) == f


# -- power residues --


def test_is_eth_power_fixed_cases():
    f3 = make_context(3, 1)
    f5 = make_context(5, 1)
    assert is_eth_power(f3.one(), 7)
    assert not is_eth_power(-f3.one(), 2)
    assert is_eth_power(-f5.one(), 2)


def test_is_eth_power_zero_rejected():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        is_eth_power(ctx.zero(), 2)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)])
def test_is_eth_power_matches_brute_force(p, m):
    """is_eth_power(gamma, e, s) against a scan of the e-th powers of the
    degree-s extension, s = 1, 2, 3, for gamma in F_{p^m} and in its tower
    of degree 2, wherever that extension has at most 256 elements."""
    flat = make_context(p, m)
    for ctx in (flat, flat.extension(2)):
        gammas = [a for a in ctx.elements() if not a.is_zero()]
        for s in (1, 2, 3):
            if ctx.q ** s > 256:
                break
            ext = ctx.extension(s)
            units = [a for a in ext.elements() if not a.is_zero()]
            for e in range(1, 13):
                powers = {a ** e for a in units}
                for gamma in gammas:
                    lifted = gamma if ext is ctx else ext.lift(gamma)
                    assert is_eth_power(gamma, e, s) == (lifted in powers), (ctx, s, e, gamma)


# -- literals --


def test_parse_basic_forms():
    ctx = make_context(3, 1)
    assert P(ctx, "T^2 - T - 1") == FqPoly.from_ints(ctx, [2, 2, 1])
    assert P(ctx, "T^2*(T^2-T-1)") == FqPoly.from_ints(ctx, [0, 0, 2, 2, 1])
    assert P(ctx, "-1") == FqPoly.from_ints(ctx, [2])
    assert P(ctx, "2*T^3") == FqPoly.from_ints(ctx, [0, 0, 0, 2])
    # a name or '(' right after a factor multiplies
    for implicit, explicit in (("2T", "2*T"), ("T^2(T+1)", "T^2*(T+1)"),
                               ("(T+1)(T+2)", "(T+1)*(T+2)"), ("2 T^2 T", "2*T^2*T")):
        assert P(ctx, implicit) == P(ctx, explicit), implicit


def test_parse_extension_literals():
    ctx = make_context(3, 2)
    assert parse_element(ctx, "g^3") == ctx.generator ** 3
    assert parse_element(ctx, "2") == ctx.from_int(2)
    # a constant is an integer, g or g^k; coefficient vectors are not literals
    with pytest.raises(ParseError):
        parse_element(ctx, "[1,2]")
    with pytest.raises(ParseError):
        P(ctx, "[1,2]T")


def test_parse_errors():
    ctx = make_context(3, 1)
    for bad in ["", "  ", "T + U", "T^", "1 +", "(T", "T?", "[1,]",
                "(" * 1000 + "T" + ")" * 1000]:
        with pytest.raises(ParseError):
            parse_poly(ctx, bad)
    with pytest.raises(ParseError):
        parse_poly(ctx, "g")  # no generator literal in a prime field
    with pytest.raises(ParseError):
        parse_element(ctx, "T^2")
    for product in ("T^64*T", "T^64 T", "T^64(T+1)"):  # one cap, with or without '*'
        with pytest.raises(ParseError, match="degree 65 of a product exceeds cap 64"):
            parse_poly(ctx, product)


def test_parse_caps_power_degree_before_expanding():
    ctx = make_context(3, 1)
    start = time.perf_counter()
    for bad in ["T^99999999999", "T^65", "(T^2+1)^33", "(T^8)^9", "T^32*T^33",
                "*".join(["(T+1)^64"] * 2000)]:
        with pytest.raises(ParseError):
            parse_poly(ctx, bad)
    assert time.perf_counter() - start < 1.0
    assert parse_poly(ctx, "T^64").degree == 64
    assert parse_poly(ctx, "T^32*T^32").degree == 64
    assert parse_poly(ctx, "(T^2+1)^32").degree == 64
    assert parse_poly(ctx, "2^100") == FqPoly.const(ctx, ctx.from_int(pow(2, 100, 3)))
    ext = make_context(5, 2)
    for k in range(ext.q - 1):
        assert parse_element(ext, f"g^{k}") == ext.generator ** k
    assert parse_element(ext, "g^99999999999") == ext.generator ** 99999999999


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (5, 2), (2, 6), (3, 5), (2, 12)])
def test_render_parse_round_trip(p, m):
    ctx = make_context(p, m)
    rng = random.Random(99 * p + m)
    for _ in range(50):
        f = small_poly(ctx, rng, 5)
        assert parse_poly(ctx, render_poly(f)) == f
    # every element (a seeded sample of 500 past q = 243) is the literal it prints
    indices = range(ctx.q) if ctx.q <= 243 else rng.sample(range(ctx.q), 500)
    for i in indices:
        a = ctx.from_int(i)
        assert parse_element(ctx, render_element(a)) == a, i


def test_render_element_canonical():
    ctx = make_context(3, 2)
    assert render_element(ctx.from_int(2)) == "2"
    assert render_element(ctx.generator) == "g"
    assert render_element(ctx.generator ** 5) == "g^5"
    assert render_poly(FqPoly.from_ints(make_context(3, 1), [1, 0, 2])) == "2*T^2 + 1"
