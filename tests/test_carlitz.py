"""Carlitz action laws and cyclotomic invariants, checked formally and at points."""

import random

import pytest

from ffgenus.carlitz import (
    CarlitzPoly,
    carlitz_action,
    euler_phi,
    render_carlitz,
    subfield_FP,
)
from ffgenus.ffpoly import (
    DomainError,
    FqPoly,
    make_context,
    monic_polys,
    parse_poly,
    poly_gcd,
)


def test_action_of_one_is_identity():
    ctx = make_context(3, 1)
    rho = carlitz_action(parse_poly(ctx, "1"))
    assert rho.coeffs == (FqPoly.const(ctx, ctx.one()),)
    assert rho.tau_degree == 0


def test_action_of_t():
    ctx = make_context(3, 1)
    rho = carlitz_action(FqPoly.x(ctx))
    assert rho.coeffs == (FqPoly.x(ctx), FqPoly.const(ctx, ctx.one()))
    assert render_carlitz(rho) == "X^3 + (T)*X"


def test_action_of_t_squared():
    ctx = make_context(3, 1)
    rho = carlitz_action(parse_poly(ctx, "T^2"))
    assert rho.coeffs == (
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
        assert rho.tau_degree == M.degree
        assert rho.coeffs[-1] == FqPoly.const(ctx, M.leading)
        assert rho.coeffs[0] == M


@pytest.mark.parametrize("q,p,m", [(2, 2, 1), (3, 3, 1), (5, 5, 1)])
def test_composition_law_exhaustive_small_degrees(q, p, m):
    """rho_{MN} = rho_M o rho_N and rho_{M+N} = rho_M + rho_N, formally."""
    ctx = make_context(p, m)
    polys = [g for d in (1, 2) for g in monic_polys(ctx, d)]
    for M in polys:
        rm = carlitz_action(M)
        for N in polys:
            rn = carlitz_action(N)
            assert carlitz_action(M * N) == rm.compose(rn)
            s = M + N
            if s.is_zero():
                assert (rm + rn).coeffs == ()
            else:
                assert carlitz_action(s) == rm + rn


def test_additivity_at_points_of_f27():
    base = make_context(3, 1)
    ext = base.extension(3)
    rho = carlitz_action(FqPoly.x(base))
    rng = random.Random(27)
    for _ in range(25):
        t = ext.from_int(rng.randrange(27))
        a = ext.from_int(rng.randrange(27))
        b = ext.from_int(rng.randrange(27))
        assert rho.eval(t, a + b) == rho.eval(t, a) + rho.eval(t, b)
        assert rho.eval(t, a) == a ** 3 + t * a


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
    lhs = carlitz_action(M * N)
    rhs = carlitz_action(M).compose(carlitz_action(N))
    assert lhs == rhs
    rng = random.Random(1)
    for _ in range(10):
        t = ext.from_int(rng.randrange(27))
        u = ext.from_int(rng.randrange(27))
        assert lhs.eval(t, u) == carlitz_action(M).eval(t, carlitz_action(N).eval(t, u))
