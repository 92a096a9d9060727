"""Ramification of radical extensions: fixed paper-scale values and sweeps."""

import random
import time
from functools import reduce
from math import gcd, lcm

import pytest
import sympy

from ffgenus.ffpoly import (
    DomainError,
    FqPoly,
    factor,
    is_eth_power,
    is_irreducible,
    make_context,
    monic_polys,
    parse_poly,
)
from ffgenus.oracle import splitting_at_finite
from ffgenus.ramify import (
    build_profile,
    p_adic_val,
    profile_from_dict,
    radical_extension,
    ram_finite,
    ram_infinity,
    t0_radical,
)


def K_of(p, m, n, gamma_int, dtxt, s=1):
    ctx = make_context(p, m)
    return radical_extension(ctx, n, ctx.from_int(gamma_int % ctx.q), parse_poly(ctx, dtxt), s)


# -- constructor validation --


def test_rejects_wild_n():
    with pytest.raises(DomainError):
        K_of(3, 1, 6, 1, "T")


def test_rejects_zero_gamma_and_nonmonic_d():
    ctx = make_context(3, 1)
    with pytest.raises(DomainError):
        radical_extension(ctx, 2, ctx.zero(), parse_poly(ctx, "T"))
    with pytest.raises(DomainError):
        radical_extension(ctx, 2, ctx.one(), parse_poly(ctx, "2*T"))


def test_rejects_nth_power_exponent():
    with pytest.raises(DomainError):
        K_of(3, 1, 2, 1, "T^2*(T+1)")


def test_rejects_reducible_radicand():
    # gamma*D = T^2 is a square and 2 | n, so X^4 - T^2 splits
    with pytest.raises(DomainError):
        K_of(3, 1, 4, 1, "T^2")
    # X^4 + 4 is a Sophie Germain product even though -4 is a non-square mod 7
    with pytest.raises(DomainError):
        K_of(7, 1, 4, 3, "1")
    with pytest.raises(DomainError):
        K_of(7, 1, 8, 3, "T^4")


def _reducible_by_prime_rule(ctx, n, gamma, alphas):
    """The irreducibility rule run over every prime of n (sympy reference)."""
    for l in sympy.primefactors(n):
        if all(a % l == 0 for a in alphas) and is_eth_power(gamma, l):
            return True
    if n % 4 == 0 and all(a % 4 == 0 for a in alphas):
        minus_four = -(ctx.one() + ctx.one() + ctx.one() + ctx.one())
        return is_eth_power(gamma / minus_four, 4)
    return False


def test_reducibility_matches_rule_over_all_primes_of_n():
    texts = ["1", "T", "T^2", "T^3*(T+1)^3", "T^4", "T^2*(T+1)^4", "T^6", "T^12"]
    for p, m in [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (13, 1)]:
        ctx = make_context(p, m)
        for n in list(range(1, 25)) + [35, 36, 40]:
            if n % p == 0:
                continue
            for text in texts:
                D = parse_poly(ctx, text)
                alphas = [mult for _, mult in factor(D).factors]
                if any(a >= n for a in alphas):
                    continue
                for gamma in list(ctx.elements())[1:]:
                    expected = _reducible_by_prime_rule(ctx, n, gamma, alphas)
                    try:
                        radical_extension(ctx, n, gamma, D)
                        got = False
                    except DomainError:
                        got = True
                    assert got == expected, (ctx.q, n, text, gamma)


def test_reducibility_over_base_constants_matches_roots_in_the_extension():
    """Over F_{q^s}(T) the rule asks whether gamma has an l-th root in F_{q^s}
    (gamma/(-4) a 4th root); the reference finds one by scanning that field."""
    texts = ["1", "T", "T^2", "T^3*(T+1)^3", "T^4", "T^6"]
    for p, m, s_max in [(3, 1, 4), (5, 1, 3), (7, 1, 2), (2, 2, 3), (3, 2, 2)]:
        ctx = make_context(p, m)
        for s in range(1, s_max + 1):
            ext = ctx.extension(s)
            nonzero = list(ext.elements())[1:]

            def has_root(a, e):
                a = a if ext is ctx else ext.lift(a)
                return any(x ** e == a for x in nonzero)

            for n in range(2, 13):
                if n % p == 0:
                    continue
                for text in texts:
                    D = parse_poly(ctx, text)
                    alphas = [mult for _, mult in factor(D).factors]
                    if any(a >= n for a in alphas):
                        continue
                    for gamma in list(ctx.elements())[1:]:
                        expected = any(all(a % l == 0 for a in alphas) and has_root(gamma, l)
                                       for l in sympy.primefactors(n))
                        if n % 4 == 0 and all(a % 4 == 0 for a in alphas):
                            minus_four = -(ctx.one() + ctx.one() + ctx.one() + ctx.one())
                            expected = expected or has_root(gamma / minus_four, 4)
                        try:
                            radical_extension(ctx, n, gamma, D, s)
                            got = False
                        except DomainError:
                            got = True
                        assert got == expected, (ctx.q, s, n, text, gamma)


def test_base_constants_that_split_the_radicand_are_refused():
    # 2 = -1 is a square in F_9, so 2T^2 = (iT)^2 and X^4 - 2T^2 splits over F_9(T)
    K_of(3, 1, 4, 2, "T^2")
    with pytest.raises(DomainError, match="is an 2-th power"):
        K_of(3, 1, 4, 2, "T^2", s=2)
    # -1 is no square in F_27; X^4 - 3 = X^4 + 4 over F_7 splits by Sophie
    # Germain, and 3 is no square in F_343 either
    K_of(3, 1, 4, 2, "T^2", s=3)
    with pytest.raises(DomainError, match="-4"):
        K_of(7, 1, 4, 3, "1", s=3)


def test_radical_extension_with_huge_n_factors_only_small_values():
    ctx = make_context(5, 1)
    n = 10 ** 18 + 3  # prime; sympy would factor it, the gcds never do
    K = radical_extension(ctx, n, ctx.from_int(2), parse_poly(ctx, "T*(T+1)"))
    assert build_profile(K).geometric is True
    # D = 1: n has primes outside q - 1 = 4, so every constant is an n-th power
    with pytest.raises(DomainError, match="reducible"):
        radical_extension(ctx, n, ctx.from_int(2), parse_poly(ctx, "1"))
    with pytest.raises(DomainError, match="reducible"):
        radical_extension(ctx, 4 * n, ctx.from_int(4), parse_poly(ctx, "T^2"))


def test_accepts_paper_instances():
    K_of(3, 1, 2, 1, "T^3+2*T+1")
    K_of(3, 1, 10, -1, "T^2*(T^2-T-1)")
    K_of(5, 1, 3, 1, "T*(T^2+T+1)", s=2)


# -- ramification exponents --


def test_ram_finite_fixed_cases():
    ctx = make_context(3, 1)
    K = K_of(3, 1, 2, 1, "T^3+2*T+1")
    assert ram_finite(K) == [(parse_poly(ctx, "T^3+2*T+1"), 2)]
    K = K_of(3, 1, 10, -1, "T^2*(T^2-T-1)")
    assert ram_finite(K) == [(parse_poly(ctx, "T"), 5), (parse_poly(ctx, "T^2-T-1"), 10)]


def test_ram_finite_prime_n_coprime_alpha():
    K = K_of(5, 1, 7, 2, "T^3+T+1")
    assert [e for _, e in ram_finite(K)] == [7]


def test_ram_infinity_fixed_cases():
    assert ram_infinity(K_of(3, 1, 2, 1, "T^3+2*T+1")) == 2
    assert ram_infinity(K_of(3, 1, 10, -1, "T^2*(T^2-T-1)")) == 5
    assert ram_infinity(K_of(3, 1, 4, 1, "T^4+T+2")) == 1  # n | deg D


# -- t_0 --


def test_t0_radical_fixed_cases():
    f3 = make_context(3, 1)
    f5 = make_context(5, 1)
    assert t0_radical(-f3.one(), 2, 1) == 2
    assert t0_radical(f5.one(), 3, 1) == 1
    assert t0_radical(f5.one(), 3, 2) == 2
    assert t0_radical(f5.one(), 1, 1) == 1


def test_t0_radical_rejects_wild_d():
    f3 = make_context(3, 1)
    with pytest.raises(DomainError):
        t0_radical(f3.one(), 3, 1)
    with pytest.raises(DomainError):
        t0_radical(f3.zero(), 2, 1)


@pytest.mark.parametrize("d", [2 * 10**6, 10**9 + 1])
def test_t0_radical_refuses_a_large_d_before_building_x_to_the_d(d):
    # X^d was multiplied out before factor's degree cap refused it: 6.5 s for
    # d = 2*10^6 over F_3, and no end within 30 s for d = 10^9 + 1
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"^degree {d} exceeds cap 64$"):
        t0_radical(make_context(3, 1).one(), d, 1)
    assert time.perf_counter() - start < 1.0


def test_t0_radical_divides_sd_and_each_ti():
    rng = random.Random(4)
    for p, m in [(3, 1), (5, 1), (3, 2)]:
        ctx = make_context(p, m)
        for _ in range(25):
            d = rng.randrange(1, 7)
            if d % p == 0:
                continue
            s = rng.randrange(1, 3)
            gamma = ctx.from_int(rng.randrange(1, ctx.q))
            t0 = t0_radical(gamma, d, s)
            assert (s * d) % t0 == 0


# -- profiles --


def test_profile_example_quadratic():
    prof = build_profile(K_of(3, 1, 2, 1, "T^3+2*T+1"))
    assert [(f.deg, f.e_P, f.u_P) for f in prof.finite] == [(3, 2, 0)]
    assert prof.e_inf == 2 and prof.t0 == 1
    assert prof.geometric is True
    assert prof.infinity == ((2, 1),)


def test_profile_example_degree_ten():
    prof = build_profile(K_of(3, 1, 10, -1, "T^2*(T^2-T-1)"))
    assert [(f.deg, f.e_P) for f in prof.finite] == [(1, 5), (2, 10)]
    assert prof.e_inf == 5
    assert prof.t0 == 2
    assert prof.infinity == ((5, 2),)
    assert prof.geometric is True


def test_profile_example_cubic_both_constant_bases():
    prof1 = build_profile(K_of(5, 1, 3, 1, "T*(T^2+T+1)", s=1))
    assert [(f.deg, f.e_P) for f in prof1.finite] == [(1, 3), (2, 3)]
    assert prof1.e_inf == 1
    assert sorted(t for _, t in prof1.infinity) == [1, 2]
    assert prof1.t0 == 1
    prof2 = build_profile(K_of(5, 1, 3, 1, "T*(T^2+T+1)", s=2))
    assert prof2.e_inf == 1
    assert sorted(t for _, t in prof2.infinity) == [2, 2, 2]
    assert prof2.t0 == 2
    assert prof2.geometric is False


def test_profile_no_finite_ramification():
    prof = build_profile(K_of(3, 1, 2, -1, "1"))
    assert prof.finite == ()
    assert prof.e_inf == 1  # d = gcd(0, 2) = 2 so e_inf = n/d = 1
    assert prof.t0 == 2
    assert prof.geometric is False  # pure constants extension k(sqrt(-1)) = F_9(T)


def test_profile_invariants_random():
    rng = random.Random(11)
    built = 0
    while built < 40:
        p, m = rng.choice([(3, 1), (5, 1), (3, 2)])
        ctx = make_context(p, m)
        n = rng.randrange(2, 13)
        if n % p == 0:
            continue
        deg = rng.randrange(1, 5)
        coeffs = [ctx.from_int(rng.randrange(ctx.q)) for _ in range(deg)] + [ctx.one()]
        D = FqPoly(ctx, tuple(coeffs))
        gamma = ctx.from_int(rng.randrange(1, ctx.q))
        try:
            K = radical_extension(ctx, n, gamma, D, rng.randrange(1, 3))
        except DomainError:
            continue
        built += 1
        prof = build_profile(K)
        assert prof.e_inf == ram_infinity(K)
        for e, t in prof.infinity:
            assert e == prof.e_inf and t % prof.t0 == 0
        for f in prof.finite:
            assert f.u_P == 0 and f.e0 == f.e_P > 1 and f.P is not None
        assert prof.t0 == t0_radical(gamma, gcd(D.degree, n), K.s)


def test_geometric_is_the_constant_field_rule_and_fits_every_place_degree():
    # The constant field of K is F_{q^lcm(s, g)} with g = gcd(n, alpha_1, ...),
    # so K is geometric iff s = g = 1. Every place of K has a degree divisible by
    # the constant-field degree: check the infinite t and, for s = 1, deg P * f
    # for the residue degrees f the splitting oracle finds at a few places P. By
    # F. K. Schmidt the gcd of all place degrees is the constant-field degree, so
    # where the sampled degrees already reach lcm(s, g) the rule is exact.
    rng = random.Random(13)
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
    quadratics = {}
    built = checked = pinned = 0
    while built < 500:
        p, m = rng.choice(fields)
        ctx = make_context(p, m)
        q = ctx.q
        n = rng.randrange(2, 13)
        if n % p == 0:
            continue
        # exponents that share a divisor h with n make g > 1 common
        h = rng.choice([h for h in range(1, n + 1) if n % h == 0])
        roots = rng.sample(range(q), min(rng.randrange(3), q))
        alphas = [a for a in (h * rng.randrange(1, max(2, n // h)) for _ in roots) if a < n]
        D = FqPoly.const(ctx, ctx.one())
        for r, a in zip(roots, alphas):
            D = D * FqPoly(ctx, (ctx.from_int(r), ctx.one())) ** a
        gamma = ctx.from_int(rng.randrange(1, q))
        s = rng.choice([1, 2])
        try:
            K = radical_extension(ctx, n, gamma, D, s)
        except DomainError:
            continue
        built += 1
        prof = build_profile(K)
        g = reduce(gcd, alphas, n)
        assert prof.geometric is (s == 1 and g == 1)
        const_deg = lcm(s, g)
        assert all(t % const_deg == 0 for _, t in prof.infinity)
        if s > 1:
            continue
        places = [(1, P) for P in monic_polys(ctx, 1)]
        if q * q <= 81:
            if q not in quadratics:
                quadratics[q] = [(2, P) for P in monic_polys(ctx, 2) if is_irreducible(P)]
            places += quadratics[q]
        # trial division over F_{q^deg P} stays small
        places = [(deg, P) for deg, P in places if q ** (deg * (n // 2)) <= 256]
        degrees = [t for _, t in prof.infinity]
        for deg, P in rng.sample(places, min(3, len(places))):
            _, residue_degrees = splitting_at_finite(K, P)
            degrees += [deg * f for f in residue_degrees]
        assert all(d % const_deg == 0 for d in degrees), (K, degrees)
        checked += 1
        pinned += reduce(gcd, degrees) == const_deg
    assert checked > 200 and pinned >= 0.9 * checked


def test_profile_from_dict():
    prof = profile_from_dict({
        "q": 3,
        "finite": [{"deg": 3, "e": [2, 4]}, {"deg": 1, "e": [1, 1]}],
        "infinity": [{"e": 2, "t": 1}],
    })
    assert len(prof.finite) == 1  # the unramified place is dropped
    assert prof.finite[0].e_P == 2 and prof.finite[0].u_P == 0
    assert prof.e_inf == 2 and prof.t0 == 1
    assert prof.geometric is None


def test_profile_from_dict_wild_place():
    prof = profile_from_dict({
        "q": 9,
        "finite": [{"deg": 1, "e": [6, 12]}],
        "infinity": [{"e": 1, "t": 2}, {"e": 3, "t": 1}],
    })
    fp = prof.finite[0]
    assert (fp.e_P, fp.u_P, fp.e0) == (6, 1, 2)
    assert prof.e_inf == 1 and prof.t0 == 1


def test_profile_from_dict_rejects_garbage():
    with pytest.raises(DomainError):
        profile_from_dict({"q": 6, "infinity": [{"e": 1, "t": 1}]})
    with pytest.raises(DomainError):
        profile_from_dict({"q": 3, "infinity": []})
    with pytest.raises(DomainError):
        profile_from_dict({"q": 3})
    with pytest.raises(DomainError):
        profile_from_dict({"q": 3, "finite": [{"deg": 0, "e": [2]}], "infinity": [{"e": 1, "t": 1}]})


@pytest.mark.parametrize("data", [
    {"q": 3, "finite": [{"e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "s": "x", "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "finite": [{"deg": 1, "e": ["two"]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "finite": [{"deg": 1}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "finite": [7], "infinity": [{"e": 1, "t": 1}]},
    {"q": 3, "infinity": [{"e": 1}]},
    {"q": 3, "infinity": [{"e": float("inf"), "t": 1}]},
    {"q": 3, "finite": None, "infinity": [{"e": 1, "t": 1}]},
    {"q": 2 ** 17, "infinity": [{"e": 1, "t": 1}]},
    {"q": 10 ** 30 + 57, "infinity": [{"e": 1, "t": 1}]},
    {"q": 1, "infinity": [{"e": 1, "t": 1}]},
    [1, 2],
    {"q": 9, "finite": [{"deg": 65, "e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    # t is bounded by 2^1024 and s by 2^1018, so that s * 64 is
    {"q": 9, "infinity": [{"e": 1, "t": 2 ** 1024 + 1}]},
    {"q": 9, "s": 2 ** 1018 + 1, "infinity": [{"e": 1, "t": 1}]},
    # numbers are never truncated or converted, and bools are no numbers
    {"q": 9.7, "finite": [{"deg": 2.9, "e": [2.5]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 9.0, "infinity": [{"e": 1, "t": 1}]},
    {"q": "9", "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "s": "2", "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "s": True, "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "finite": [{"deg": True, "e": [2]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "finite": [{"deg": 1, "e": [2.0]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "finite": [{"deg": 1, "e": [True, 2]}], "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "infinity": [{"e": 1.5, "t": 1}]},
    {"q": 9, "infinity": [{"e": 1, "t": "1"}]},
    {"q": 9, "infinity": [{"e": 1, "t": False}]},
    {"q": 9, "geometric": "false", "infinity": [{"e": 1, "t": 1}]},
    {"q": 9, "geometric": 1, "infinity": [{"e": 1, "t": 1}]},
])
def test_profile_from_dict_rejects_malformed_fields(data):
    with pytest.raises(DomainError):
        profile_from_dict(data)


def test_profile_from_dict_keeps_geometric_flag():
    for flag in (True, False, None):
        prof = profile_from_dict({"q": 9, "infinity": [{"e": 1, "t": 1}], "geometric": flag})
        assert prof.geometric is flag


def test_profile_from_dict_accepts_degrees_at_the_caps():
    prof = profile_from_dict({"q": 9, "s": 2 ** 1018, "finite": [{"deg": 64, "e": [2]}],
                              "infinity": [{"e": 1, "t": 2 ** 1024}]})
    assert (prof.s, prof.finite[0].deg, prof.infinity) == (2 ** 1018, 64, ((1, 2 ** 1024),))


def test_p_adic_val():
    assert p_adic_val(3, 54) == 3
    assert p_adic_val(2, 7) == 0
    with pytest.raises(DomainError):
        p_adic_val(2, 0)
