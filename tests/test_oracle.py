"""Brute-force oracle behaviour, plus small-scale agreement with the fast paths.

The full-size equivalence sweeps live in the acceptance suite; here each
oracle is pinned against hand-checked values and a reduced sweep.
"""

import random
import time

import pytest

from ffgenus import ffpoly, oracle
from ffgenus.carlitz import euler_phi
from ffgenus.ffpoly import (
    DomainError,
    FqPoly,
    factor,
    factor_int,
    make_context,
    monic_polys,
    parse_poly,
    render_poly,
)
from ffgenus.genus import genus_report
from ffgenus.oracle import (
    MAX_ORACLE_Q,
    SWEEP_SEED,
    _field,
    carlitz_compose_check,
    naive_factor,
    prime_power_case,
    splitting_at_finite,
    t0_root_degrees,
    unit_count,
)
from ffgenus.ramify import radical_extension, ram_finite, t0_radical

C2 = make_context(2, 1)
C3 = make_context(3, 1)
C4 = make_context(2, 2)
C5 = make_context(5, 1)
C9 = make_context(3, 2)
C25 = make_context(5, 2)


def K_of(ctx, n, gamma_int, dtxt, s=1):
    gamma = ctx.from_int(gamma_int % ctx.q)
    return radical_extension(ctx, n, gamma, parse_poly(ctx, dtxt), s)


def all_polys(ctx, max_deg):
    for d in range(max_deg + 1):
        for m in monic_polys(ctx, d):
            for u in range(1, ctx.q):
                yield FqPoly.const(ctx, ctx.from_int(u)) * m


# ---------------------------------------------------------------- naive_factor

def test_naive_factor_splits_cube_of_unity():
    fac = naive_factor(parse_poly(C5, "T^3 - 1"))
    assert fac.unit == C5.one()
    assert [(render_poly(g), m) for g, m in fac.factors] == [
        ("T + 4", 1), ("T^2 + T + 1", 1)]


def test_naive_factor_keeps_irreducible_quadratic():
    f = parse_poly(C3, "T^2 + 1")
    assert naive_factor(f).factors == ((f, 1),)


def test_naive_factor_counts_multiplicity():
    fac = naive_factor(parse_poly(C3, "T^2"))
    assert fac.factors == ((FqPoly.x(C3), 2),)


def test_naive_factor_extracts_unit():
    fac = naive_factor(parse_poly(C5, "3*T^2 + 3"))
    assert fac.unit == C5.from_int(3)
    assert [render_poly(g) for g, _ in fac.factors] == ["T + 2", "T + 3"]
    (g, _), (h, _) = fac.factors
    assert FqPoly.const(C5, fac.unit) * g * h == parse_poly(C5, "3*T^2 + 3")


def test_naive_factor_matches_fast_factor_exhaustively():
    for ctx, max_deg in ((C3, 4), (C4, 3)):
        for f in all_polys(ctx, max_deg):
            if f.degree < 1:
                continue
            assert naive_factor(f) == factor(f), f


def test_naive_factor_matches_fast_factor_random():
    rng = random.Random(SWEEP_SEED)
    for ctx, max_deg in ((C9, 5), (C25, 4)):
        for _ in range(30):
            deg = rng.randrange(1, max_deg + 1)
            ints = [rng.randrange(ctx.q) for _ in range(deg)]
            ints.append(rng.randrange(1, ctx.q))
            f = FqPoly.from_ints(ctx, ints)
            assert naive_factor(f) == factor(f), f


def test_naive_factor_rejects_zero_and_caps():
    with pytest.raises(DomainError):
        naive_factor(FqPoly(C3, ()))
    with pytest.raises(DomainError):
        naive_factor(FqPoly.x(make_context(11, 2)))
    with pytest.raises(DomainError):
        naive_factor(FqPoly.x(C3) ** 17)
    # the first field above the constant cap, at a degree naive_factor accepts
    C128 = make_context(2, 7)
    assert C128.q > MAX_ORACLE_Q >= C25.q
    with pytest.raises(DomainError, match="exceeds oracle cap 81"):
        naive_factor(FqPoly.x(C128) ** 5)
    assert naive_factor(FqPoly.x(C25) ** 5).factors == ((FqPoly.x(C25), 5),)
    # within both caps, but about 17^8 trial divisors: refused, not run
    C17 = make_context(17, 1)
    with pytest.raises(DomainError, match="enumeration cap"):
        naive_factor(parse_poly(C17, "T^16 - 3"))


# ------------------------------------------------------------------ unit_count

def test_unit_count_fixtures():
    assert unit_count(parse_poly(C3, "T^2")) == 6
    assert unit_count(parse_poly(C3, "T")) == 2
    assert unit_count(parse_poly(C3, "T^3 + 2*T + 1")) == 26


def test_unit_count_matches_euler_phi():
    for ctx, max_deg in ((C3, 3), (C4, 2), (C5, 2)):
        for d in range(1, max_deg + 1):
            for m in monic_polys(ctx, d):
                assert unit_count(m) == euler_phi(m), m


def test_unit_count_rejects_caps():
    with pytest.raises(DomainError):
        unit_count(FqPoly.const(C3, C3.one()))
    with pytest.raises(DomainError):
        unit_count(FqPoly.x(C3) ** 4)
    with pytest.raises(DomainError):
        unit_count(FqPoly.x(C25))


# ---------------------------------------------------------- carlitz_compose_check

def test_carlitz_check_basic_pairs():
    T = FqPoly.x(C3)
    one = FqPoly.const(C3, C3.one())
    assert carlitz_compose_check(T, T)
    assert carlitz_compose_check(one, T + one)
    assert carlitz_compose_check(T + one, T)
    assert carlitz_compose_check(T, -T)  # M + N = 0 exercises the zero-sum law


def test_carlitz_check_degree_two_pair():
    T = FqPoly.x(C5)
    M = T * T + T
    N = T + FqPoly.const(C5, C5.from_int(2))
    assert carlitz_compose_check(M, N)
    assert carlitz_compose_check(N, M)


def test_carlitz_check_all_pairs_over_f2():
    polys = [f for f in all_polys(C2, 2) if not f.is_zero() and f.degree >= 0]
    for M in polys:
        for N in polys:
            assert carlitz_compose_check(M, N), (M, N)


def test_carlitz_check_rejects():
    with pytest.raises(DomainError):
        carlitz_compose_check(FqPoly(C3, ()), FqPoly.x(C3))
    with pytest.raises(DomainError):
        carlitz_compose_check(FqPoly.x(C3) ** 3, FqPoly.x(C3))


# ------------------------------------------------------------- t0_root_degrees

def test_t0_root_degrees_fixtures():
    assert t0_root_degrees(C3.from_int(2), 2) == 2
    assert t0_root_degrees(C5.one(), 3) == 1
    assert t0_root_degrees(C5.from_int(2), 1) == 1
    assert t0_root_degrees(C3.from_int(2), 4) == 2


def test_t0_root_degrees_matches_formula():
    for ctx in (C3, C5):
        for g in range(1, ctx.q):
            gamma = ctx.from_int(g)
            for d in range(1, 7):
                if d % ctx.p == 0:
                    continue
                assert t0_root_degrees(gamma, d) == t0_radical(gamma, d, 1), (ctx.q, g, d)


def test_t0_root_degrees_scans_root_fields_over_bases_past_the_table_cap():
    # the base field builds no tables: only MAX_ENUM bounds the field scanned.
    # Scanning the 59,049 elements of F_243^2 takes 1.5-3.1 s on a 2-vCPU VM
    start = time.perf_counter()
    for ctx in (make_context(5, 3), make_context(3, 5)):
        assert ctx.q > MAX_ORACLE_Q
        nonsquare = next(g for g in map(ctx.from_int, range(1, ctx.q))
                         if not ffpoly.is_eth_power(g, 2))
        for gamma, t0 in ((nonsquare, 2), (ctx.one(), 1)):
            assert t0_root_degrees(gamma, 2) == t0_radical(gamma, 2, 1) == t0
    assert time.perf_counter() - start < 6.0


def test_t0_root_degrees_rejects():
    with pytest.raises(DomainError):
        t0_root_degrees(C3.zero(), 2)
    with pytest.raises(DomainError):
        t0_root_degrees(C3.one(), 3)
    with pytest.raises(DomainError):
        t0_root_degrees(C3.one(), 0)


def test_t0_root_degrees_refuses_a_large_root_field_fast():
    # the order of 3 modulo d is 5,882,352 and 14,567,280: the search for it
    # stops once 3^b passes MAX_ENUM, where walking to the order took 2-7 s
    for d in (10**8 + 1, 2 * 10**9 + 3):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="exceeds the enumeration cap"):
            t0_root_degrees(C3.one(), d)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------- splitting_at_finite

def test_splitting_unramified_residue_degrees():
    K = K_of(C3, 10, -1, "T^4 + 2*T^3 + 2*T^2")
    assert splitting_at_finite(K, parse_poly(C3, "T + 1")) == (1, (2, 4, 4))


def test_splitting_ramified_newton_slope():
    K = K_of(C3, 2, -1, "T^3 + 2*T + 1")
    assert splitting_at_finite(K, parse_poly(C3, "T^3 + 2*T + 1")) == (2, ())
    assert splitting_at_finite(K, FqPoly.x(C3)) == (1, (2,))


def test_splitting_inert_prime():
    K = K_of(C5, 4, 1, "T")
    assert splitting_at_finite(K, parse_poly(C5, "T + 3")) == (1, (4,))


def test_splitting_agrees_with_ramification_formula():
    rng = random.Random(7)
    for _ in range(12):
        ctx = rng.choice((C3, C5))
        n = rng.choice([m for m in (2, 3, 4, 5, 6) if m % ctx.p])
        pool = [h for h in monic_polys(ctx, 1)] + [
            h for h in monic_polys(ctx, 2) if factor(h).factors[0][1] == 1
            and len(factor(h).factors) == 1
        ]
        picks = rng.sample(pool, 2)
        D = picks[0] ** rng.randrange(1, n) * picks[1] ** rng.randrange(1, n)
        gamma = ctx.from_int(rng.randrange(1, ctx.q))
        try:
            K = radical_extension(ctx, n, gamma, D, 1)
        except DomainError:
            continue
        expected = dict(ram_finite(K))
        for P, alpha in K.D_factors.factors:
            e, degs = splitting_at_finite(K, P)
            assert e == expected.get(P, 1)
            if e == 1:
                assert sum(degs) == K.n
        other = next(h for h in monic_polys(ctx, 1)
                     if all(h != P for P, _ in K.D_factors.factors))
        e, degs = splitting_at_finite(K, other)
        assert e == 1 and sum(degs) == K.n


def test_splitting_rejects_bad_inputs():
    K = K_of(C3, 2, 1, "T")
    with pytest.raises(DomainError):
        splitting_at_finite(K, parse_poly(C3, "T^2 + 2"))  # reducible
    with pytest.raises(DomainError):
        splitting_at_finite(K, parse_poly(C3, "2*T"))  # not monic
    K2 = K_of(C3, 2, 1, "T", s=2)
    with pytest.raises(DomainError):
        splitting_at_finite(K2, FqPoly.x(C3))
    K5 = K_of(C5, 2, 1, "T")
    with pytest.raises(DomainError):
        splitting_at_finite(K5, parse_poly(C5, "T^3 + T + 1"))  # residue field 125 > 81


# ------------------------------------------------- tables of the small fields

def _oracle_fields():
    """Every field an oracle tabulates: the flat F_q with q <= MAX_ORACLE_Q and
    the residue towers F_q[^r] with q^r <= MAX_ORACLE_Q of splitting_at_finite."""
    out = []
    for q in range(2, MAX_ORACLE_Q + 1):
        primes = factor_int(q)
        if len(primes) > 1:
            continue
        (p, m), = primes.items()
        ctx = make_context(p, m)
        out.append(ctx)
        r = 2
        while q ** r <= MAX_ORACLE_Q:
            out.append(ctx.extension(r))
            r += 1
    return out


def test_field_tables_match_element_arithmetic():
    fields = _oracle_fields()
    assert len(fields) == 32 + 14
    for ctx in fields:
        F = _field(ctx)
        q = ctx.q
        assert (F.q, len(F.add), len(F.mul), len(F.neg), len(F.inv)) == (q, q * q, q * q, q, q)
        els = [ctx.from_int(i) for i in range(q)]
        for a, x in enumerate(els):
            assert ctx.elem_to_int(x) == a
            assert els[F.neg[a]] == -x
            if a:
                assert els[F.inv[a]] * x == ctx.one()
            for b, y in enumerate(els):
                assert els[F.add[a * q + b]] == x + y
                assert els[F.mul[a * q + b]] == x * y
        if ctx.base is not None:
            # splitting_at_finite reads a base index as the same index upstairs
            base = ctx.base
            assert all(ctx.elem_to_int(ctx.lift(base.from_int(i))) == i for i in range(base.q))


SPLIT_SAMPLE = [  # (q, n, gamma, D, P, splitting_at_finite before the tables)
    (3, 2, 2, "T^2 + 2*T", "T^4 + 2*T^3 + 2", (1, (1, 1))),
    (4, 3, 3, "T^2 + g*T + g^2", "T^3 + g*T^2 + 1", (1, (1, 1, 1))),
    (5, 4, 4, "T^2 + 4", "T^2 + T + 1", (1, (4,))),
    (5, 6, 2, "T^2 + T", "T^2 + T + 1", (1, (1, 1, 1, 1, 1, 1))),
    (9, 4, 2, "T^2 + g^5*T + g^5", "T^2 + g^2*T + g^2", (1, (1, 1, 1, 1))),
    (7, 8, 1, "T^2 + 3*T + 1", "T^2 + 3*T + 1", (8, ())),
    (2, 5, 1, "T^2 + T + 1", "T^6 + T^5 + T^3 + T^2 + 1", (1, (1, 2, 2))),
    (3, 5, 2, "T^2 + T", "T^3 + T^2 + 2", (1, (1, 4))),
]


def test_table_oracles_need_no_polynomial_division(monkeypatch):
    """naive_factor, unit_count, splitting_at_finite and carlitz_compose_check
    keep their values with FqPoly division, gcd and enumeration refused,
    and carlitz_compose_check multiplies FqPolys once (M*N)."""
    rng = random.Random(SWEEP_SEED)
    contexts = {c.q: c for c in (C2, C3, C4, C5, C9, C25, make_context(7, 1))}
    factor_cases = []
    for ctx, max_deg in ((C3, 6), (C4, 5), (C9, 4), (C25, 4)):
        for _ in range(15):
            deg = rng.randrange(1, max_deg + 1)
            f = FqPoly.from_ints(ctx, [rng.randrange(ctx.q) for _ in range(deg)]
                                 + [rng.randrange(1, ctx.q)])
            factor_cases.append((f, factor(f)))
    phi_cases = [(m, euler_phi(m)) for ctx in (C3, C4) for d in (1, 2, 3)
                 for m in list(monic_polys(ctx, d))[:12]]
    carlitz_pairs = []
    for ctx in (C2, C3, C4, C5):
        polys = [FqPoly.const(ctx, ctx.from_int(u)) * f for d in range(3)
                 for f in monic_polys(ctx, d) for u in range(1, ctx.q)]
        carlitz_pairs += [(rng.choice(polys), rng.choice(polys)) for _ in range(6)]
    split_cases = []
    for q, n, g, dtxt, ptxt, expected in SPLIT_SAMPLE:
        ctx = contexts[q]
        K = radical_extension(ctx, n, ctx.from_int(g), parse_poly(ctx, dtxt))
        P = parse_poly(ctx, ptxt)
        ctx.extension(P.degree)  # a tower modulus comes from is_irreducible: build it now
        split_cases.append((K, P, expected))

    def refuse(*args):
        raise AssertionError("a table oracle ran FqPoly arithmetic")

    assert not {"poly_gcd", "monic_polys"} & set(vars(oracle))

    monkeypatch.setattr(FqPoly, "divrem", refuse)
    monkeypatch.setattr(ffpoly, "poly_gcd", refuse)
    monkeypatch.setattr(ffpoly, "monic_polys", refuse)
    products = []
    mul = FqPoly.__mul__
    monkeypatch.setattr(FqPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for f, expected in factor_cases:
        assert naive_factor(f) == expected, f
    for m, expected in phi_cases:
        assert unit_count(m) == expected, m
    for K, P, expected in split_cases:
        assert splitting_at_finite(K, P) == expected, (K, P)
    assert not products
    for M, N in carlitz_pairs:
        products.clear()
        assert carlitz_compose_check(M, N), (M, N)
        assert len(products) <= 1


# -- closed-form families --


def test_prime_power_case_square_root_of_minus_T():
    K = K_of(C5, 2, 4, "T")
    pp = prime_power_case(K)
    assert (pp.l, pp.nu, pp.a, pp.dprime) == (2, 1, (0,), (0,))
    assert (pp.d, pp.delta, pp.m) == (0, 0, 0)
    assert (pp.e_inf, pp.c_inf, pp.cprime_bound, pp.t0) == (2, 2, 2, 1)
    assert pp.geometric
    (g,) = pp.gens
    assert (g.e, g.sign, g.poly) == (2, -1, "T")
    r = genus_report(K)
    assert r.exact and r.components.cprime_exact == 2
    # over F_5 the lattice rewrites sqrt(-T) as sqrt(T)
    assert r.components.F.render() == "k((T)^(1/2))"


def test_prime_power_case_matches_quadratic_component():
    pp = prime_power_case(K_of(C3, 2, 1, "T^2+2*T+2"))
    assert (pp.d, pp.delta, pp.m) == (1, 1, 0)
    assert (pp.e_inf, pp.c_inf, pp.t0) == (1, 1, 1)
    assert pp.geometric
    (g,) = pp.gens
    assert (g.e, g.sign, g.poly) == (2, 1, "T^2 + 2*T + 2")


def test_prime_power_case_rejections():
    with pytest.raises(DomainError):
        prime_power_case(K_of(C5, 2, 1, "T", s=2))
    with pytest.raises(DomainError):
        prime_power_case(K_of(C5, 6, 1, "T"))
    with pytest.raises(DomainError):
        prime_power_case(K_of(C3, 4, 1, "T"))
