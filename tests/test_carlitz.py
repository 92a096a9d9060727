"""Carlitz action laws and cyclotomic invariants, checked formally and at points."""

import random

import pytest

from ffgenus.carlitz import MAX_X_DEG, carlitz_action, euler_phi, subfield_FP
from ffgenus.ffpoly import (
    DomainError,
    FqPoly,
    make_context,
    monic_polys,
    parse_poly,
    poly_gcd,
)
from ffgenus.oracle import carlitz_compose_check


def _at(rho, t, u):
    """rho(u) with T specialized to t: sum_j c_j(t) * u^(q^j), t and u in an
    extension of the coefficient field."""
    q, ext = rho[0].ctx.q, u.ctx
    out = ext.zero()
    for j, c in enumerate(rho):
        ct = ext.zero()
        for a in reversed(c.coeffs):  # Horner
            ct = ct * t + ext.lift(a)
        out = out + ct * u ** q ** j
    return out


def test_action_of_one_is_identity():
    ctx = make_context(3, 1)
    assert carlitz_action(parse_poly(ctx, "1")) == (FqPoly.const(ctx, ctx.one()),)


def test_action_of_t():
    ctx = make_context(3, 1)
    assert carlitz_action(FqPoly.x(ctx)) == (FqPoly.x(ctx), FqPoly.const(ctx, ctx.one()))


def test_action_of_t_squared():
    ctx = make_context(3, 1)
    assert carlitz_action(parse_poly(ctx, "T^2")) == (
        parse_poly(ctx, "T^2"),
        parse_poly(ctx, "T^3+T"),
        parse_poly(ctx, "1"),
    )


def test_action_rejects_zero_and_oversize():
    ctx = make_context(5, 2)
    with pytest.raises(DomainError):
        carlitz_action(FqPoly(ctx, ()))
    with pytest.raises(DomainError):
        carlitz_action(parse_poly(ctx, "T^7"))


def test_action_degree_and_edge_coefficients():
    ctx = make_context(5, 1)
    rng = random.Random(3)
    for _ in range(15):
        d = rng.randrange(1, 4)
        coeffs = [ctx.from_int(rng.randrange(5)) for _ in range(d)]
        coeffs.append(ctx.from_int(rng.randrange(1, 5)))
        M = FqPoly(ctx, tuple(coeffs))
        rho = carlitz_action(M)
        assert len(rho) == M.degree + 1
        assert rho[-1] == FqPoly.const(ctx, M.leading)
        assert rho[0] == M


@pytest.mark.parametrize("q,p,m", [(2, 2, 1), (3, 3, 1), (5, 5, 1)])
def test_composition_law_exhaustive_small_degrees(q, p, m):
    """rho_{MN} = rho_M o rho_N and rho_{M+N} = rho_M + rho_N, formally."""
    ctx = make_context(p, m)
    polys = [g for d in (1, 2) for g in monic_polys(ctx, d)]
    for M in polys:
        for N in polys:
            assert carlitz_compose_check(M, N)


def test_additivity_at_points_of_f27():
    base = make_context(3, 1)
    ext = base.extension(3)
    rho = carlitz_action(FqPoly.x(base))
    rng = random.Random(27)
    for _ in range(25):
        t = ext.from_int(rng.randrange(27))
        a = ext.from_int(rng.randrange(27))
        b = ext.from_int(rng.randrange(27))
        assert _at(rho, t, a + b) == _at(rho, t, a) + _at(rho, t, b)
        assert _at(rho, t, a) == a ** 3 + t * a


def test_euler_phi_fixed_values():
    ctx = make_context(3, 1)
    assert euler_phi(parse_poly(ctx, "T")) == 2
    assert euler_phi(parse_poly(ctx, "T^3+2*T+1")) == 26
    assert euler_phi(parse_poly(ctx, "T^2")) == 6


def test_euler_phi_multiplicative_on_coprime():
    ctx = make_context(3, 1)
    rng = random.Random(5)
    mon = [g for d in (1, 2, 3) for g in monic_polys(ctx, d)]
    for _ in range(30):
        a, b = rng.choice(mon), rng.choice(mon)
        if poly_gcd(a, b).degree == 0:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_euler_phi_prime_power_formula():
    ctx = make_context(5, 1)
    P = parse_poly(ctx, "T^2+2")
    for a in (1, 2, 3):
        assert euler_phi(P ** a) == (5 ** 2 - 1) * 5 ** (2 * (a - 1))


def test_euler_phi_rejects_bad_input():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        euler_phi(FqPoly(ctx, ()))
    with pytest.raises(DomainError):
        euler_phi(parse_poly(ctx, "2*T"))


def test_subfield_fp_fixed_values():
    f3 = make_context(3, 1)
    assert subfield_FP(parse_poly(f3, "T^3+2*T+1"), 2).e_inf == 2
    assert subfield_FP(parse_poly(f3, "T^2-T-1"), 2).e_inf == 1
    f5 = make_context(5, 1)
    assert subfield_FP(parse_poly(f5, "T^2+T+1"), 3).e_inf == 1


def test_subfield_fp_divisor_bound():
    import sympy
    from math import gcd

    for p, m, ptxt in [(3, 1, "T^3+2*T+1"), (3, 1, "T^2-T-1"), (5, 1, "T^2+T+1"), (3, 2, "T^2+g*T+1")]:
        ctx = make_context(p, m)
        P = parse_poly(ctx, ptxt)
        full = ctx.q ** P.degree - 1
        for c in sympy.divisors(full):
            fp = subfield_FP(P, c)
            assert gcd(fp.c, ctx.q - 1) % fp.e_inf == 0


def test_subfield_fp_rejects_bad_index():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        subfield_FP(parse_poly(ctx, "T"), 4)
    with pytest.raises(DomainError):
        subfield_FP(parse_poly(ctx, "T^2-1"), 1)


def test_compose_matches_pointwise_evaluation():
    base = make_context(3, 1)
    ext = base.extension(3)
    M = parse_poly(base, "T^2+1")
    N = parse_poly(base, "T+2")
    rho_mn, rho_m, rho_n = carlitz_action(M * N), carlitz_action(M), carlitz_action(N)
    rng = random.Random(1)
    for _ in range(10):
        t = ext.from_int(rng.randrange(27))
        u = ext.from_int(rng.randrange(27))
        assert _at(rho_mn, t, u) == _at(rho_m, t, _at(rho_n, t, u))


def _fold(rho, Q):
    """rho's coefficients reduced mod T^Q - T, which fixes their values on F_Q."""
    out = []
    for c in rho:
        red = list(c.coeffs[:Q])
        for i in range(Q, len(c.coeffs)):
            k = 1 + (i - 1) % (Q - 1)
            red[k] = red[k] + c.coeffs[i]
        out.append(FqPoly(c.ctx, tuple(red)))
    return tuple(out)


@pytest.mark.parametrize("p,m,b", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_action_matches_iterated_rho_t_at_points(p, m, b):
    """sum_j c_j(t) * u^(q^j) = sum_i M_i * rho_T^i(u), rho_T(v) = v^q + t*v, for t, u
    in F_{q^b}: one random M of each degree up to 10 with q^deg M <= MAX_X_DEG."""
    ctx = make_context(p, m)
    ext = ctx.extension(b)
    q, rng = ctx.q, random.Random(ctx.q * 100 + b)
    for d in range(1, 11):
        if q ** d > MAX_X_DEG:
            break
        M = FqPoly(ctx, tuple(ctx.from_int(rng.randrange(q)) for _ in range(d))
                   + (ctx.from_int(rng.randrange(1, q)),))
        rho = _fold(carlitz_action(M), ext.q)
        for _ in range(4):
            t = ext.from_int(rng.randrange(ext.q))
            u = v = ext.from_int(rng.randrange(ext.q))
            expected = ext.zero()
            for a in M.coeffs:
                expected = expected + ext.lift(a) * v
                v = v ** q + t * v
            assert _at(rho, t, u) == expected
