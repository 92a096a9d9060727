"""Genus-field assembly: component tables, split tests, certificates, sweeps."""

import itertools
import json
import random
import subprocess
import sys
import warnings
from functools import reduce
from math import gcd, lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ffgenus import carlitz, ffpoly, ramify
from ffgenus.ffpoly import (
    DomainError,
    Factorization,
    FqPoly,
    factor,
    is_irreducible,
    make_context,
    monic_polys,
    parse_element,
    parse_poly,
    render_poly,
)
from ffgenus.genus import (
    _constants_collapse,
    _infinity_residue_data,
    _reduce_generator,
    _root_splits,
    _split_generators,
    build_F0,
    c_P,
    estar_interval,
    field_expr,
    find_F,
    genus_report,
    genus_report_abstract,
    report_json,
    render_report,
    wild_bounds,
)
from ffgenus.oracle import enumerate_F, prime_power_case, splitting_at_finite
from ffgenus.ramify import (
    build_profile, profile_from_dict, radical_extension, ram_finite, t0_radical)


def K_of(p, m, n, gamma_int, dtxt, s=1):
    ctx = make_context(p, m)
    return radical_extension(ctx, n, ctx.from_int(gamma_int % ctx.q), parse_poly(ctx, dtxt), s)


def K51():
    # q=3, quadratic, single ramified cubic prime, gamma = 1
    return K_of(3, 1, 2, 1, "T^3+2*T+1")


def K53():
    # q=3, tenth root of -T^2*(T^2+2T+2)
    return K_of(3, 1, 10, -1, "T^4+2*T^3+2*T^2")


def K53p(s=1):
    # q=5, cube root of T*(T^2+T+1), optional constant base change
    return K_of(5, 1, 3, 1, "T^3+T^2+T", s=s)


def F_of(K):
    prof = build_profile(K)
    return find_F(prof, build_F0(prof))


def irreducibles(ctx, maxdeg):
    return [g for d in range(1, maxdeg + 1) for g in monic_polys(ctx, d)
            if is_irreducible(g)]


# -- component arithmetic --


@pytest.mark.parametrize("q,e,deg,expected", [
    (3, 5, 1, 1),
    (3, 10, 2, 2),
    (5, 3, 2, 3),
    (3, 2, 3, 2),
    (5, 8, 1, 4),
])
def test_c_P_values(q, e, deg, expected):
    assert c_P(q, e, deg) == expected


@pytest.mark.parametrize("q,e,deg,expected", [
    (3, 2, 3, (1, 2)),
    (5, 3, 2, (3, 3)),
    (7, 1, 4, (1, 1)),
])
def test_estar_interval_values(q, e, deg, expected):
    assert estar_interval(q, e, deg) == expected


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(1, 60), st.integers(1, 6))
def test_estar_lower_divides_c_P_divides_e(q, e, deg):
    lo, hi = estar_interval(q, e, deg)
    c = c_P(q, e, deg)
    assert hi == e
    assert c % lo == 0
    assert e % c == 0


# -- F_0 assembly --


def test_build_F0_single_cubic_prime():
    comps = build_F0(build_profile(K51()))
    (pl,) = comps.places
    assert (pl.e_P, pl.c_P, pl.e_inf_FP) == (2, 2, 2)
    assert comps.F0.render() == "k((-(T^3 + 2*T + 1))^(1/2))"
    assert (comps.c_inf, comps.e_inf, comps.cprime_bound) == (2, 2, 2)
    assert comps.F0_plus_deg == 1
    assert comps.cprime_exact is None and comps.F is None


def test_build_F0_two_primes_tenth_root():
    comps = build_F0(build_profile(K53()))
    assert [(pl.poly, pl.e_P, pl.c_P) for pl in comps.places] == [
        ("T", 5, 1), ("T^2 + 2*T + 2", 10, 2)]
    assert comps.F0.render() == "k((T^2 + 2*T + 2)^(1/2))"
    assert (comps.c_inf, comps.e_inf) == (1, 5)


def test_build_F0_non_kummer_component_is_cyclotomic():
    comps = build_F0(build_profile(K53p()))
    assert [(pl.e_P, pl.c_P, pl.e_inf_FP) for pl in comps.places] == [
        (3, 1, 1), (3, 3, 1)]
    (gen,) = comps.F0.cyclo
    assert (gen.poly, gen.degree) == ("T^2 + T + 1", 3)
    assert comps.F0.render() == "k(cyclo[T^2 + T + 1; deg 3])"
    assert (comps.c_inf, comps.F0_plus_deg) == (1, 3)


def test_build_F0_wild_place_uses_tame_quotient():
    prof = profile_from_dict({"q": 9, "finite": [{"deg": 1, "e": [6]}],
                              "infinity": [{"e": 3, "t": 1}]})
    comps = build_F0(prof)
    (pl,) = comps.places
    assert (pl.e_P, pl.e0, pl.u_P, pl.c_P) == (6, 2, 1, 2)


def test_components_carry_their_place_polynomial():
    rng = random.Random(20261020)
    ctxs = [make_context(*pm) for pm in ((3, 1), (2, 3), (5, 2), (7, 2), (2, 6), (3, 4))]
    reports = 0
    while reports < 60:
        ctx = rng.choice(ctxs)
        n = rng.randrange(2, 9)
        if n % ctx.p == 0:
            continue
        D = FqPoly.const(ctx, ctx.one())
        for _ in range(rng.randrange(1, 4)):
            tail = [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 3))]
            D = D * FqPoly.from_ints(ctx, tail + [1]) ** rng.randrange(1, n)
        try:
            K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, ctx.q)), D)
        except DomainError:
            continue
        r = genus_report(K)
        Ps = [P for P, _ in factor(K.D).factors]
        assert r.components.places
        for pl in r.components.places:
            assert render_poly(pl.P) == pl.poly and pl.P in Ps, K
        reports += 1
    prof = profile_from_dict({"q": 9, "finite": [{"deg": 1, "e": [6]}, {"deg": 2, "e": [4]}],
                              "infinity": [{"e": 2, "t": 1}]})
    places = genus_report_abstract(prof).components.places
    assert len(places) == 2 and all(pl.P is None for pl in places)


def test_report_runs_no_irreducibility_test(monkeypatch):
    # D is factored once, by radical_extension; the report re-tests none of its factors
    for K in (K51(), K53(), K53p(s=2)):
        genus_report(K)  # builds every context and extension the report needs
        calls = []
        for mod in (carlitz, ffpoly):
            def counted(f, inner=mod.is_irreducible):
                calls.append(f)
                return inner(f)
            monkeypatch.setattr(mod, "is_irreducible", counted)
        genus_report(K)
        monkeypatch.undo()
        assert calls == [], K


def test_base_constants_build_no_tower_over_a_tower(monkeypatch):
    # F_{q^s} is never built: the only extensions are residue fields F_{q^f}
    # over the flat base, f the degree of a factor of X^d - gamma over F_q
    calls = []
    inner = ffpoly.FqContext.extension

    def spy(ctx, r):
        calls.append((ctx, r))
        return inner(ctx, r)

    monkeypatch.setattr(ffpoly.FqContext, "extension", spy)
    for s in (2, 3, 4):
        for p, m, n, gamma, dtxt in ((7, 1, 3, 3, "T*(T+1)*(T+2)"), (5, 1, 3, 2, "T*(T+1)"),
                                     (2, 2, 3, 2, "T*(T+1)*(T+g)"), (5, 1, 3, 1, "T^3+T^2+T")):
            K = K_of(p, m, n, gamma, dtxt, s)
            calls.clear()
            prof = build_profile(K)
            genus_report(K)
            d = gcd(K.D.degree, n)
            assert t0_radical(K.gamma, d, s) == prof.t0
            degrees = {top.mtot // K.ctx.mtot for top, _, _ in _infinity_residue_data(prof)[2]}
            assert all(ctx.base is None and r in degrees for ctx, r in calls), (K, calls)


# -- splitting of infinite primes --


def splits(K, eps, unit, A):
    """Whether the eps-th root of unit * A splits at every infinite prime of K."""
    return _root_splits(_infinity_residue_data(build_profile(K)), eps, unit, A.degree)


def test_splits_quadratic_example():
    K = K51()
    ctx = K.ctx
    P = parse_poly(ctx, "T^3+2*T+1")
    one = FqPoly.const(ctx, ctx.one())
    assert not splits(K, 2, -ctx.one(), P)
    assert splits(K, 2, ctx.one(), P)
    assert not splits(K, 2, -ctx.one(), one)
    assert splits(K, 2, ctx.one(), one)
    assert splits(K, 1, -ctx.one(), P)


def test_splits_tenth_root_example():
    K = K53()
    ctx = K.ctx
    P2 = parse_poly(ctx, "T^2+2*T+2")
    one = FqPoly.const(ctx, ctx.one())
    assert splits(K, 2, ctx.one(), P2)
    # -1 becomes a square in the residue field F_9 of the infinite prime
    assert splits(K, 2, -ctx.one(), P2)
    assert splits(K, 2, -ctx.one(), one)


def _orbit_model(q, s, d, l):
    """Infinite primes of K over F_{q^s}(T) from integers alone.

    build_profile counts the same orbits, so its t are checked against the
    factoring rule; this model supplies the j of each orbit to the split tests.

    With N = d(q-1) and omega of order N with omega^d = g, the roots of
    X^d - g^l are the omega^j, j = l + k(q-1). Returns N and one (j, t) per
    orbit of j -> j q^s mod N, with t = s * (orbit size) the residue degree.
    """
    N = d * (q - 1)
    qs = pow(q, s, N)
    seen, orbits = set(), []
    for k in range(d):
        j = l + k * (q - 1)
        if j in seen:
            continue
        size, x = 0, j
        while x not in seen:
            seen.add(x)
            size, x = size + 1, x * qs % N
        orbits.append((j, s * size))
    return N, orbits


def _factor_degrees(gamma, d):
    """Degrees of the irreducible factors of X^d - gamma over F_q, by factoring."""
    ctx = gamma.ctx
    return [h.degree for h, _ in factor(FqPoly.x(ctx) ** d - FqPoly.const(ctx, gamma)).factors]


def _factoring_rule(gamma, d, s):
    """Residue degrees at infinity by the factoring rule, ascending.

    A factor of X^d - gamma over F_q of degree f splits over F_{q^s} into
    gcd(f, s) factors (Lidl-Niederreiter, Thm 3.46): gcd(f, s) infinite
    primes, each with t = lcm(f, s).
    """
    return sorted(lcm(f, s) for f in _factor_degrees(gamma, d) for _ in range(gcd(f, s)))


def test_infinity_data_matches_integer_orbit_model():
    # K = k((g^l * T * (T+1)^(d-1))^(1/de)): gcd(deg D, n) = d and m' = deg D/d = 1
    rng = random.Random(20261018)
    fields = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
              13: (13, 1), 25: (5, 2), 27: (3, 3)}
    cases = []
    for q, (p, m) in fields.items():
        for s in (1, 2, 3):
            d = rng.choice([x for x in range(1, 13) if x % p])
            e = rng.choice([x for x in (1, 2, 3) if x % p and d * x > 1])
            cases.append((q, p, m, s, d, e, rng.randrange(q - 1)))
    for q in (4, 8):
        p, m = fields[q]
        for d in (3, 5):  # over F_8, X^5 - gamma has a quartic factor: four primes
            cases.append((q, p, m, 4, d, 3, rng.randrange(q - 1)))
    seen, outcomes = set(), set()
    for q, p, m, s, d, e, l in cases:
        ctx = make_context(p, m)
        D = FqPoly.x(ctx) * parse_poly(ctx, "T+1") ** (d - 1)
        gamma = ctx.generator ** l
        prof = build_profile(radical_extension(ctx, d * e, gamma, D, s))
        N, orbits = _orbit_model(q, s, d, l)
        ts = _factoring_rule(gamma, d, s)
        assert sorted(t for _, t in prof.infinity) == sorted(t for _, t in orbits) == ts, prof
        # the residue data factors over F_{q^f}: keep it to small fields
        if q ** max(_factor_degrees(gamma, d)) > 1 << 12:
            continue
        residues = _infinity_residue_data(prof)
        _, a, data = residues
        # a factor of degree f over F_q stands for gcd(f, s) infinite primes
        primes = [entry for entry in data for _ in range(gcd(entry[0].mtot // m, s))]
        for _ in range(20):
            eps, lu, deg = rng.randrange(1, 2 * q), rng.randrange(q - 1), rng.randrange(3 * d * e)
            u = ctx.generator ** lu
            # u * r^(a deg) = omega^E is an eps-th power of F_{q^t} iff its order
            # N/gcd(E, N) divides (q^t - 1)/gcd(eps, q^t - 1)
            want = sorted((q ** t, (e * deg) % eps == 0 and (q ** t - 1) // gcd(eps, q ** t - 1)
                           % (N // gcd(d * lu + j * a * deg, N)) == 0) for j, t in orbits)
            got = sorted((q ** t, _root_splits((e, a, [(top, r, t)]), eps, u, deg))
                         for top, r, t in primes)
            assert got == want, (prof, eps, lu, deg)
            assert _root_splits(residues, eps, u, deg) == all(ok for _, ok in want)
            outcomes.update(ok for _, ok in want)
        seen.add((s > 1, m > 1, e > 1))
    assert outcomes == {True, False}
    assert {(True, True, False), (True, False, True), (False, True, True)} <= seen


def test_residue_root_is_a_root_whose_conjugates_split_alike():
    # the residue data keeps one root r of each factor h of X^d - gamma; any
    # conjugate r^(q^i) must give _root_splits the same answer, since r -> r^q fixes F_q
    rng = random.Random(20261020)
    fields = [(2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2),
              (11, 1), (13, 1), (17, 1), (19, 1), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1)]
    checked, outcomes = 0, set()
    while checked < 25:
        ctx = make_context(*rng.choice(fields))
        q = ctx.q
        d = rng.choice([x for x in range(2, 13) if x % ctx.p])
        e = rng.choice([x for x in (1, 2, 3) if x % ctx.p])
        gamma = ctx.from_int(rng.randrange(1, q))
        fac = factor(FqPoly.x(ctx) ** d - FqPoly.const(ctx, gamma))
        f = max(h.degree for h, _ in fac.factors)
        if f < 2 or q ** f > 1 << 12:  # the residue field F_{q^f} is a tower: keep it small
            continue
        # deg D = d = gcd(deg D, n), and the exponent 1 of T keeps X^n - gamma*D irreducible
        D = FqPoly.x(ctx) * parse_poly(ctx, "T+1") ** (d - 1)
        prof = build_profile(radical_extension(ctx, d * e, gamma, D, rng.choice([1, 2, 3])))
        nprime = reduce(lcm, (pl.c_P for pl in build_F0(prof).places), 1)
        if nprime == 1:
            continue
        e_inf, a, data = _infinity_residue_data(prof)
        units = (ctx.one(), -ctx.one(), ctx.generator)  # the generator is a non-square for odd q
        for (h, _), (top, r, t) in zip(fac.factors, data):
            if h.degree < 2:
                continue
            value = top.zero()
            for c in reversed(h.coeffs):
                value = value * r + top.lift(c)
            assert value.is_zero(), (prof, h, r)
            conjugates = [r ** q ** i for i in range(h.degree)]
            assert len(set(conjugates)) == h.degree
            for eps in (x for x in range(1, nprime + 1) if nprime % x == 0):
                for u, deg in itertools.product(units, (1, 2, 3)):
                    answers = {_root_splits((e_inf, a, [(top, rc, t)]), eps, u, deg)
                               for rc in conjugates}
                    assert len(answers) == 1, (prof, h, eps, u, deg)
                    if (e_inf * deg) % eps == 0:
                        outcomes |= answers
        checked += 1
    assert outcomes == {True, False}


def test_residue_data_rejects_a_profile_whose_infinite_primes_disagree():
    # _infinity_residue_data counts the infinite primes again from the factors of
    # X^d - gamma; a profile.infinity with one t changed must not pass
    ctx = make_context(5, 1)
    D = parse_poly(ctx, "T*(T+1)")  # e_inf = 2, d = 2
    for gamma, s in ((4, 1), (2, 1), (2, 2), (2, 3)):  # X^2 - 4 splits, X^2 - 2 does not
        prof = build_profile(radical_extension(ctx, 4, ctx.from_int(gamma), D, s))
        _infinity_residue_data(prof)
        for i, (e, t) in enumerate(prof.infinity):
            infinity = prof.infinity[:i] + ((e, t + 1),) + prof.infinity[i + 1:]
            with pytest.raises(AssertionError, match="infinite primes of degrees"):
                _infinity_residue_data(prof._replace(infinity=infinity))


def test_orbit_count_matches_the_factoring_rule_on_large_fields():
    # K = k((gamma * T * (T+1)^(d-1))^(1/de)): gcd(deg D, n) = d, and the exponent 1
    # of T keeps X^n - gamma*D irreducible for every gamma
    rng = random.Random(20261019)
    fields = [(2, 1), (2, 2), (3, 2), (5, 2), (3, 5), (2, 8), (65521, 1), (2, 16)]
    t_values = set()
    for p, m in fields:
        ctx = make_context(p, m)
        for _ in range(8):
            s = rng.randrange(1, 5)
            d = rng.choice([x for x in range(1, 17) if x % p])
            e = rng.choice([x for x in (1, 2, 3) if x % p and d * x > 1])
            gamma = ctx.from_int(rng.randrange(1, ctx.q))
            D = FqPoly.x(ctx) * parse_poly(ctx, "T+1") ** (d - 1)
            prof = build_profile(radical_extension(ctx, d * e, gamma, D, s))
            ts = _factoring_rule(gamma, d, s)
            assert sorted(t for _, t in prof.infinity) == ts, (ctx, s, d, gamma)
            assert t0_radical(gamma, d, s) == prof.t0 == reduce(gcd, ts)
            t_values.update(t // s for t in ts)
    assert len(t_values) >= 5


def test_infinite_primes_need_no_factoring(monkeypatch):
    # over F_8, X^5 - g has a quartic factor, which splits in two over F_64;
    # over F_65521, X^64 - 3 has four factors of degree 16
    cases = [(K_of(2, 3, 5, 2, "T*(T+1)^4", 2), 5, [2, 4, 4]),
             (K_of(65521, 1, 64, 3, "T^63*(T+1)"), 64, [16] * 4)]

    def refuse(f):
        raise AssertionError("ramify factored a polynomial")

    monkeypatch.setattr(ramify, "factor", refuse)
    for K, d, ts in cases:
        prof = build_profile(K)
        assert [t for _, t in prof.infinity] == ts
        assert t0_radical(K.gamma, d, K.s) == prof.t0 == min(ts)


@pytest.mark.parametrize("p, m, cs", [
    (7, 1, (6, 3, 2)),  # (q - 1)/N' = 1 is odd: -1 has order 2 modulo 6th powers
    (13, 1, (3, 3, 3)),  # (q - 1)/N' = 4 is even: -1 is a cube
    (2, 3, (7, 7)),
    (2, 2, (3, 3)),
    (3, 2, (8, 4, 2)),  # Zech arithmetic; -1 = g^4 has order 2 modulo 8th powers
    (5, 2, (12, 4, 3)),  # (q - 1)/N' = 2 is even: -1 is a 12th power
])
def test_reduce_generator_reaches_lowest_form_on_every_lattice_element(p, m, cs):
    ctx = make_context(p, m)
    q, Nprime = ctx.q, reduce(lcm, cs)
    quadratic = next(P for P in monic_polys(ctx, 2) if is_irreducible(P))
    Ps = [FqPoly.x(ctx), parse_poly(ctx, "T+1"), quadratic][-len(cs):]
    mus = [Nprime // c for c in cs]
    units = [ctx.from_int(i) for i in range(1, q)]
    powers = {y ** Nprime for y in units}
    one = FqPoly.const(ctx, ctx.one())
    for x in itertools.product(*(range(c) for c in cs)):
        exps = [xi * mu for xi, mu in zip(x, mus)]
        lam = (-ctx.one()) ** sum(P.degree * v for P, v in zip(Ps, exps))
        # the order of the class of w = lam * prod P_i^(v_i) modulo N'-th powers of k*
        order = next(k for k in range(1, Nprime + 1)
                     if lam ** k in powers and all(k * v % Nprime == 0 for v in exps))
        gen = _reduce_generator(ctx, x, Ps, mus, Nprime)
        assert gen.e == order, x
        # gen^(N'/e) is w times an N'-th power, with the first such unit in canonical order
        red = Nprime // order
        assert parse_element(ctx, gen.unit) == next(y for y in units if y ** red / lam in powers), x
        want = prod((P ** (v // red) for P, v in zip(Ps, exps)), start=one)
        assert parse_poly(ctx, gen.poly) == want


# -- maximal fully split subfield --


def test_find_F_quadratic_example_collapses_to_k():
    K = K51()
    comps = F_of(K)
    assert comps.cprime_exact == 1
    assert comps.F.render() == "k"


def test_find_F_fast_path_when_F0_unramified_at_infinity():
    for K in (K53(), K53p()):
        comps = F_of(K)
        assert comps.c_inf == 1
        assert comps.cprime_exact == 1
        assert comps.F == comps.F0


def test_find_F_lattice_proper_subgroup():
    # q=3, sqrt(T^3+T): only the even-degree part of F_0 splits
    K = K_of(3, 1, 2, 1, "T^3+T")
    comps = F_of(K)
    assert (comps.c_inf, comps.cprime_exact) == (2, 1)
    assert comps.F.render() == "k((T^2 + 1)^(1/2))"
    assert comps.F0_plus_deg == 2


def test_find_F_lattice_full_group():
    # same D with gamma = -1: every class splits and F = F_0
    K = K_of(3, 1, 2, 2, "T^3+T")
    comps = F_of(K)
    assert (comps.c_inf, comps.cprime_exact) == (2, 2)
    assert comps.F == comps.F0
    assert comps.F.render() == "k((-(T))^(1/2), (T^2 + 1)^(1/2))"


def test_find_F_exponent_reduction():
    # q=5, eighth root of T: the split subgroup is generated by sqrt(T)
    K = K_of(5, 1, 8, 1, "T")
    comps = F_of(K)
    assert (comps.c_inf, comps.cprime_exact) == (4, 2)
    assert comps.F.render() == "k((T)^(1/2))"


def test_find_F_degrades_on_non_kummer_component():
    ctx = make_context(5, 1)
    D = parse_poly(ctx, "T") * parse_poly(ctx, "T^2+T+1") ** 4
    K = radical_extension(ctx, 12, ctx.one(), D)
    comps = F_of(K)
    assert any((ctx.q - 1) % pl.c_P != 0 for pl in comps.places)
    assert comps.cprime_exact is None and comps.F is None
    assert (comps.c_inf, comps.cprime_bound, comps.F0_plus_deg) == (4, 4, 3)


def test_find_F_generators_pass_split_test():
    for args in [(3, 1, 2, 1, "T^3+T"), (3, 1, 2, 2, "T^3+T"),
                 (5, 1, 8, 1, "T"), (3, 1, 4, 1, "T^3+2*T^2+T")]:
        K = K_of(*args)
        comps = F_of(K)
        assert comps.F is not None and comps.F.radicals
        for g in comps.F.radicals:
            assert splits(K, g.e, parse_element(K.ctx, g.unit), parse_poly(K.ctx, g.poly))


def test_find_F_cross_checks_c_inf():
    # a c_inf that disagrees with the split-at-plus subgroup is an error, also under -O
    prof = build_profile(K_of(5, 1, 8, 1, "T"))
    comps = build_F0(prof)
    with pytest.raises(AssertionError, match="c_inf"):
        find_F(prof, comps._replace(c_inf=2 * comps.c_inf))
    with pytest.raises(AssertionError, match="c_inf"):
        enumerate_F(prof, comps._replace(c_inf=2 * comps.c_inf))
    code = (
        "from ffgenus import make_context, parse_poly, radical_extension, build_profile\n"
        "from ffgenus.genus import build_F0, find_F\n"
        "from ffgenus.oracle import enumerate_F\n"
        "ctx = make_context(5, 1)\n"
        "prof = build_profile(radical_extension(ctx, 8, ctx.one(), parse_poly(ctx, 'T')))\n"
        "comps = build_F0(prof)\n"
        "for fn in (find_F, enumerate_F):\n"
        "    try:\n"
        "        fn(prof, comps._replace(c_inf=2 * comps.c_inf))\n"
        "    except AssertionError:\n"
        "        print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\n"


def _greedy_span_generators(cs, ws, h):
    """The lexicographic greedy span over {x : sum w_i x_i = 0 mod h}, by brute force."""
    split = sorted(x for x in itertools.product(*(range(c) for c in cs))
                   if sum(w * xi for w, xi in zip(ws, x)) % h == 0)
    order = lcm(*cs)
    gens, span = [], {(0,) * len(cs)}
    for x in split:
        if x not in span:
            span = {tuple((a + j * b) % c for a, b, c in zip(y, x, cs))
                    for y in span for j in range(order)}
            gens.append(x)
    assert len(span) == len(split)
    return gens


def test_split_generators_match_greedy_span():
    rng = random.Random(31)
    for _ in range(400):
        N = rng.choice([4, 6, 8, 12, 16, 24, 30])
        divs = [c for c in range(2, N + 1) if N % c == 0]
        cs = [rng.choice(divs) for _ in range(rng.randrange(1, 4))]
        Nprime = lcm(*cs)
        ws = [rng.randrange(1, 5) * Nprime // c for c in cs]
        h = rng.choice([d for d in range(1, Nprime + 1) if Nprime % d == 0])
        assert _split_generators(cs, ws, h) == _greedy_span_generators(cs, ws, h), (cs, ws, h)


def _random_tame_instance(rng, ctxs, irr):
    """A radical extension over a random field of ctxs with a lattice of at most 2^12.

    Residue fields at infinity stay at most 2^12 too, since finding a root
    in a large residue tower is slow.
    """
    while True:
        q = rng.choice(sorted(ctxs))
        ctx = ctxs[q]
        n = rng.choice([d for d in range(2, q) if (q - 1) % d == 0] + [rng.randrange(2, 2 * q)])
        if n % ctx.p == 0:
            continue
        Ps = rng.sample(irr[q], rng.randrange(1, 5))
        D = FqPoly.const(ctx, ctx.one())
        for P in Ps:
            D = D * P ** rng.randrange(1, n)
        try:
            K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, q)), D,
                                  rng.choice([1, 1, 2]))
        except DomainError:
            continue
        prof = build_profile(K)
        comps = build_F0(prof)
        if (prod(pl.c_P for pl in comps.places) <= 1 << 12
                and max(q ** t for _, t in prof.infinity) <= 1 << 12):
            return prof, comps


def test_find_F_matches_lattice_enumeration():
    rng = random.Random(20261018)
    ctxs = {q: make_context(*pm) for q, pm in
            {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2)}.items()}
    irr = {q: irreducibles(ctx, 1 if q > 9 else 2) for q, ctx in ctxs.items()}
    cases = [_random_tame_instance(rng, ctxs, irr) for _ in range(150)]
    # a residue tower: X^4 - 3 is irreducible over F_17, so the residue field is F_17^4
    tower = build_profile(K_of(17, 1, 16, 3, "T*(T+1)^2*(T+2)"))
    assert [t for _, t in tower.infinity] == [4]
    cases.append((tower, build_F0(tower)))
    seen = set()
    for prof, comps in cases:
        got, want = find_F(prof, comps), enumerate_F(prof, comps)
        assert got == want, prof.radical
        assert (got.F.render() if got.F else None) == (want.F.render() if want.F else None)
        seen.add((prof.s, got.F is not None and got.cprime_exact not in (1, got.c_inf)))
    # both base-constant degrees, and proper split subgroups that are neither F_0 nor F_0^+
    assert {(1, True), (2, True)} <= seen


def test_find_F_large_lattice_is_determined():
    # q = 25, n = 24: a lattice of 24^4 = 331776 elements
    ctx = make_context(5, 2)
    K = radical_extension(ctx, 24, ctx.one(), parse_poly(ctx, "T*(T+1)*(T+2)*(T^2+T+g)"))
    prof = build_profile(K)
    comps = build_F0(prof)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = find_F(prof, comps)
        text = render_report(genus_report(K))
    assert got == enumerate_F(prof, comps)
    assert got.cprime_exact == 12
    F = ("k((T + 2)^(1/12), (T^2 + 2*T)^(1/24), (T^2 + 3*T + 2)^(1/24), "
         "(T^2 + T + g)^(1/24))")
    assert got.F.render() == F
    assert f"\nF  = {F}\n" in text


# -- wild part --


def test_wild_bounds_tame_profiles():
    wb = wild_bounds(build_profile(K53()))
    assert wb.tame_case_constants_only
    assert wb.wild_places == () and wb.finite_wild_degree_bound == 1
    empty = profile_from_dict({"q": 9, "finite": [], "infinity": [{"e": 1, "t": 2}]})
    assert wild_bounds(empty).tame_case_constants_only


def test_wild_bounds_with_wild_places():
    prof = profile_from_dict({"q": 9, "finite": [{"deg": 1, "e": [18]}, {"deg": 2, "e": [2]}],
                              "infinity": [{"e": 3, "t": 1}]})
    wb = wild_bounds(prof)
    assert not wb.tame_case_constants_only
    assert wb.wild_places == ((1, 2),)
    assert wb.json()["wild_places"] == [{"poly": None, "deg": 1, "u": 2}]
    assert wb.finite_wild_degree_bound == 9
    assert wb.has_infinite_component


# -- full reports on radical extensions --


def test_report_quadratic_example_exact():
    r = genus_report(K51())
    assert r.exact and r.exactness_reason == "abelian_tame"
    assert r.exact_field == r.lower == r.upper
    assert r.exact_field.render() == "k((T^3 + 2*T + 1)^(1/2))"
    assert r.t0 == 1 and report_json(r)["infinity"]["u_status"] == "equals_t0"
    assert json.dumps(r.lower.json()) == (
        '{"radicals": [{"e": 2, "sign": 1, "poly": "T^3 + 2*T + 1"}], '
        '"constants_deg": 1}')


def test_report_tenth_root_example_exact():
    r = genus_report(K53())
    assert r.exact and r.exactness_reason == "F_equals_F0"
    assert r.t0 == 2
    assert r.exact_field.render() == (
        "k((T^2 + 2*T + 2)^(1/2), (-(T^4 + 2*T^3 + 2*T^2))^(1/10)) * F_9")
    assert r.components.F.render() == "k((T^2 + 2*T + 2)^(1/2))"
    assert r.wild.tame_case_constants_only


def test_report_cube_root_example_and_constant_base_change():
    r1 = genus_report(K53p(s=1))
    assert r1.exact and r1.t0 == 1
    assert r1.exact_field.render() == (
        "k((T^3 + T^2 + T)^(1/3), cyclo[T^2 + T + 1; deg 3])")
    r2 = genus_report(K53p(s=2))
    assert r2.exact and r2.t0 == 2
    assert r2.exact_field.render() == (
        "k((T^3 + T^2 + T)^(1/3), cyclo[T^2 + T + 1; deg 3]) * F_25")
    # the genus field is unchanged by adjoining the constants of the base
    assert r1.exact_field._replace(constants_deg=lcm(r1.exact_field.constants_deg, 2)) \
        == r2.exact_field


def test_report_constants_collapse_certificate():
    r = genus_report(K_of(3, 1, 4, 1, "T"))
    assert r.exact and r.exactness_reason == "constants_collapse"
    assert r.exact_field.render() == "k((T)^(1/4))"
    assert (r.components.c_inf, r.components.cprime_exact, r.t0) == (2, 1, 1)
    r = genus_report(K_of(5, 1, 8, 1, "T"))
    assert r.exact and r.exactness_reason == "constants_collapse"
    assert r.exact_field.render() == "k((T)^(1/2), (T)^(1/8))"


def _constants_collapse_by_search(q, n, alphas, cs):
    # the certificate as first written: search j < gcd(c, n) for an exponent
    # j' = j * c/gcd(c, n) with alpha_i * j' = 1 and alpha_m * j' = 0 mod c
    for i, (alpha_i, c) in enumerate(zip(alphas, cs)):
        if c == 1:
            continue
        if (q - 1) % c != 0:
            return False
        step = c // gcd(c, n)
        if not any((alpha_i * step * j - 1) % c == 0
                   and all((am * step * j) % c == 0 for m, am in enumerate(alphas) if m != i)
                   for j in range(gcd(c, n))):
            return False
    return True


def test_constants_collapse_closed_form_matches_the_search():
    # 841 - 1 = 840 is divisible by every c <= 8, and 5 - 1 = 4 by few of them
    cases = collapses = 0
    for q in (5, 841):
        for n in range(1, 13):
            for k in (1, 2):
                for alphas in itertools.product(range(1, 9), repeat=k):
                    for cs in itertools.product(range(1, 9), repeat=k):
                        K = SimpleNamespace(ctx=SimpleNamespace(q=q), n=n, D_factors=SimpleNamespace(
                            factors=list(enumerate(alphas))))
                        comps = SimpleNamespace(places=[SimpleNamespace(c_P=c, P=i)
                                                        for i, c in enumerate(cs)])
                        expected = _constants_collapse_by_search(q, n, alphas, cs)
                        assert _constants_collapse(K, comps) == expected, (q, n, alphas, cs)
                        cases += 1
                        collapses += expected
    assert cases == 2 * 12 * (64 + 64 * 64) and 0 < collapses < cases


def test_constants_collapse_ignores_the_order_of_the_places():
    # c_P = 3 at T and 2 at T + 1: read against the exponents in the wrong
    # order, T's alpha = 4 is not prime to 3 and the certificate is lost
    K = K_of(7, 1, 6, 3, "T^4*(T+1)^3")
    comps = build_F0(build_profile(K))
    assert [pl.c_P for pl in comps.places] == [3, 2]
    assert _constants_collapse(K, comps)
    assert _constants_collapse(K, comps._replace(places=comps.places[::-1]))
    rng = random.Random(20261020)
    ctxs = [make_context(*pm) for pm in ((3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2))]
    irr = {ctx.q: irreducibles(ctx, 1) for ctx in ctxs}
    checked = 0
    while checked < 300:
        ctx = rng.choice(ctxs)
        n = rng.randrange(2, 13)
        if n % ctx.p == 0:
            continue
        D = FqPoly.const(ctx, ctx.one())
        for P in rng.sample(irr[ctx.q], rng.randrange(2, 4)):
            D = D * P ** rng.randrange(1, n)
        try:
            K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, ctx.q)), D)
        except DomainError:
            continue
        comps = build_F0(build_profile(K))
        assert _constants_collapse(K, comps) == _constants_collapse(
            K, comps._replace(places=comps.places[::-1])), K
        checked += 1


def test_report_bounds_with_conjecture():
    # q=3, fourth root of T*(T+1)^2: no certificate applies
    r = genus_report(K_of(3, 1, 4, 1, "T^3+2*T^2+T"))
    assert not r.exact and r.exact_field is None and r.exactness_reason is None
    assert report_json(r)["infinity"]["u_status"] == "bounded_unknown"
    assert r.conjectural == r.lower
    assert r.lower.render() == "k((T^2 + T)^(1/2), (T^3 + 2*T^2 + T)^(1/4))"
    assert r.upper.constants_deg is None
    assert r.upper.render().endswith("* F_3^u (u unknown)")
    assert "CONJECTURE: K_ge =" in render_report(r)


def test_f37_witness_lies_in_K_ge_outside_the_printed_conjecture():
    """K = k((28*(T+17)^9*(T+24)^14*(T+32)^5)^(1/24)) over F_37, checked in
    integers alone: z^12 = 32*(T+32)^2 makes K(z)/K unramified at every
    finite place and split at both infinite primes, so the Kummer field
    K(z) lies in K_ge. The report prints c'_inf = 1, t0 = 2 and a CONJECTURE
    that twisted class is missing from: ROADMAP item 18 must enlarge this
    field, and this test then changes with it.

    n = 24 and deg D = 28 give e_inf = 6, d = 4 and m' = 7, and each
    infinite prime has a residue root r of X^4 - 28 in F_37(i), i^2 = 2.
    With a = 5, as _infinity_residue_data sets it, the 12th root of
    2^u * A, deg A = 2, splits at the prime of r iff 12 divides e_inf * 2
    and x = 2^u * r^(a*2) is a 12th power of F_{37^2}: x^114 = 1.
    """
    p = 37

    def mul(x, y):  # (b, c) is b + c*i
        return (x[0] * y[0] + 2 * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

    def power(x, k):
        out = (1, 0)
        for _ in range(k):
            out = mul(out, x)
        return out

    # 2 generates F_37*, so it is a non-square and F_37(i) is F_{37^2}
    assert [k for k in range(1, p) if pow(2, k, p) == 1] == [36]
    roots = [(b, c) for b in range(p) for c in range(p) if power((b, c), 4) == (28, 0)]
    assert roots == [(0, 3), (0, 18), (0, 19), (0, 34)]
    # Frobenius orbits {3i, 34i} and {18i, 19i}: one per infinite prime
    assert power((0, 3), p) == (0, 34) and power((0, 18), p) == (0, 19)
    n, deg_D = 24, 28
    e_inf = n // gcd(n, deg_D)
    d = n // e_inf
    mprime = deg_D // d
    a = -pow(mprime, -1, e_inf) % e_inf
    assert (e_inf, d, mprime, a) == (6, 4, 7, 5)
    assert (e_inf * 2) % 12 == 0
    assert (p ** 2 - 1) // 12 == 114

    def splits(u):
        return all(power(mul((pow(2, u, p), 0), power(r, a * 2)), 114) == (1, 0)
                   for r in roots)

    assert [u for u in range(p - 1) if splits(u)] == list(range(5, p - 1, 6))
    assert not splits(0)
    # 32 = 2^5; T + 32 has e = 24 in K, and 12 divides v(z^12) = 2 * 24 there
    assert (2 * (n // gcd(n, 5))) % 12 == 0

    proc = subprocess.run(
        [sys.executable, "-m", "ffgenus.cli", "genus", "--field", "37", "--n", "24",
         "--gamma", "28", "--poly", "(T+17)^9*(T+24)^14*(T+32)^5"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert "infinity: e_inf = 6, c_inf = 12, c'_inf = 1 (divides 6)" in lines
    assert "t0 = 2" in lines
    assert any(line.startswith("CONJECTURE: K_ge = ") for line in lines)


def test_report_bounds_without_conjecture():
    ctx = make_context(5, 1)
    D = parse_poly(ctx, "T") * parse_poly(ctx, "T^2+T+1") ** 4
    r = genus_report(radical_extension(ctx, 12, ctx.one(), D))
    assert not r.exact and r.conjectural is None
    (op,) = r.lower.opaque
    assert (op.name, op.degree) == ("F0_cap_Rplus", 3)
    assert r.lower.render().startswith("F0_cap_Rplus[deg 3] * k(")
    assert "CONJECTURE: unavailable (F undetermined)" in render_report(r)


def test_report_lower_constants_degree_is_t0():
    for args in [(3, 1, 2, 1, "T^3+2*T+1"), (3, 1, 10, 2, "T^4+2*T^3+2*T^2"),
                 (5, 1, 3, 1, "T^3+T^2+T"), (3, 1, 4, 1, "T^3+2*T^2+T"),
                 (5, 1, 8, 1, "T"), (3, 1, 8, 2, "T^2+T")]:
        r = genus_report(K_of(*args))
        assert r.lower.constants_deg == r.t0


def test_constants_past_the_abstract_cap_render_as_a_power():
    # t0 = lcm(15, 64) = 960 over F_65521: q^t0 has more digits than str() converts
    assert field_expr(65521, (), 960).render() == "k * F_65521^960"
    # 2^1024 = MAX_Q^MAX_POLY_DEG, the largest q^t of an abstract profile, keeps its integer
    assert field_expr(2 ** 16, (), 64).render() == f"k * F_{2 ** 1024}"
    assert field_expr(2, (), 1025).render() == "k * F_2^1025"


def test_report_json_schema_and_byte_stability():
    blob1 = json.dumps(report_json(genus_report(K51())))
    blob2 = json.dumps(report_json(genus_report(K51())))
    assert blob1 == blob2
    data = json.loads(blob1)
    assert set(data) == {"lower", "upper", "exact", "exact_field", "conjectural",
                         "t0", "components", "wild", "infinity"}
    assert data["exact"] is True and data["t0"] == 1
    assert data["lower"] == data["exact_field"] == data["conjectural"]
    assert json.dumps(json.loads(blob1)) == blob1
    r = genus_report(K_of(3, 1, 4, 1, "T^3+2*T^2+T"))
    data = report_json(r)
    assert data["exact_field"] is None and data["upper"]["constants_deg"] is None
    rads = data["upper"]["radicals"]
    assert rads == sorted(rads, key=lambda g: (g["e"], g["poly"]))


def test_report_invariant_under_factor_reordering():
    for args in [(3, 1, 2, 1, "T^3+T"), (3, 1, 4, 1, "T^3+2*T^2+T")]:
        K = K_of(*args)
        assert len(K.D_factors.factors) > 1
        rev = Factorization(K.D_factors.unit, tuple(reversed(K.D_factors.factors)))
        r1, r2 = genus_report(K), genus_report(K._replace(D_factors=rev))
        assert r1.lower == r2.lower and r1.upper == r2.upper
        assert r1.exact == r2.exact and r1.exact_field == r2.exact_field
        assert r1.components.cprime_exact == r2.components.cprime_exact


def test_render_report_shape():
    text = render_report(genus_report(K51()))
    lines = text.splitlines()
    assert lines[0] == "place T^3 + 2*T + 1: e = 2, c = 2"
    assert lines[1] == "infinity: e_inf = 2, c_inf = 2, c'_inf = 1 (divides 2)"
    assert "EXACT [abelian_tame]: K_ge = k((T^3 + 2*T + 1)^(1/2))" in lines


# -- reports on abstract profiles --


def test_abstract_exact_when_unramified_at_infinity_and_tame():
    prof = profile_from_dict({"q": 3, "finite": [{"deg": 2, "e": [2]}],
                              "infinity": [{"e": 1, "t": 1}]})
    r = genus_report_abstract(prof)
    assert r.exact and r.exactness_reason == "F_equals_F0"
    assert r.exact_field.render() == "K * k(cyclo[place deg 2; deg 2])"
    assert r.conjectural is None


def test_abstract_bounds_from_exponent_list():
    prof = profile_from_dict({"q": 3, "finite": [{"deg": 3, "e": [2, 4]}],
                              "infinity": [{"e": 1, "t": 1}]})
    r = genus_report_abstract(prof)
    (pl,) = r.components.places
    assert (pl.e_P, pl.c_P) == (2, 2)
    assert (r.components.c_inf, r.components.cprime_exact) == (2, 1)
    # F = F_0 meet R+ = k is forced, so the lower bound is K itself
    assert r.components.F.render() == "k"
    assert r.lower.render() == "K"
    assert r.upper.render() == "K * k(cyclo[place deg 3; deg 2]) * F_3^u (u unknown)"
    assert not r.exact


def test_abstract_empty_profile_collapses_to_constants():
    prof = profile_from_dict({"q": 9, "finite": [], "infinity": [{"e": 1, "t": 2}]})
    r = genus_report_abstract(prof)
    assert r.exact and r.exact_field.render() == "K * F_81"


def test_abstract_wild_profile_reports_bounds():
    prof = profile_from_dict({"q": 9, "finite": [{"deg": 1, "e": [6]}, {"deg": 2, "e": [2]}],
                              "infinity": [{"e": 3, "t": 1}]})
    r = genus_report_abstract(prof)
    assert not r.exact
    assert not r.wild.tame_case_constants_only and r.wild.has_infinite_component
    assert [(o.name, o.degree) for o in r.lower.opaque] == [
        ("F0_cap_Rplus", 2), ("K", None)]
    text = render_report(r)
    assert "CONJECTURE: unavailable (abstract profile)" in text
    assert "wild bounds: finite <= 3 [deg 1: p^1], infinite component possible" in text
    # c_inf = 1 and F = F_0 = k, but a wild place keeps the report from being exact
    prof = profile_from_dict({"q": 3, "finite": [{"deg": 1, "e": [3]}],
                              "infinity": [{"e": 1, "t": 1}]})
    r = genus_report_abstract(prof)
    assert r.components.c_inf == 1 and r.components.F == r.components.F0
    assert not r.exact and r.exactness_reason is None and r.exact_field is None
    assert render_report(r).splitlines()[-4:] == [
        "lower: K", "upper: K * F_3^u (u unknown)",
        "CONJECTURE: unavailable (abstract profile)", "wild bounds: finite <= 3 [deg 1: p^1]"]


def test_abstract_lower_constants_use_prime_to_p_part():
    prof = profile_from_dict({"q": 9, "finite": [{"deg": 1, "e": [2]}],
                              "infinity": [{"e": 1, "t": 3}]})
    r = genus_report_abstract(prof)
    assert r.t0 == 3 and not r.exact
    assert r.lower.constants_deg == 1
    assert r.upper.constants_deg is None


# -- closed-form families --


def test_prime_power_random_consistency():
    rng = random.Random(97)
    ctxs = {5: make_context(5, 1), 9: make_context(3, 2), 13: make_context(13, 1)}
    irr = {q: irreducibles(ctx, 2) for q, ctx in ctxs.items()}
    choices = {5: [(2, 1), (2, 2)], 9: [(2, 1), (2, 2), (2, 3)],
               13: [(2, 1), (2, 2), (3, 1)]}
    for _ in range(60):
        q = rng.choice([5, 9, 13])
        ctx = ctxs[q]
        l, nu = rng.choice(choices[q])
        n = l ** nu
        Ps = rng.sample(irr[q], rng.randrange(1, 4))
        alphas = [1] + [rng.randrange(1, n) if n > 1 else 1 for _ in Ps[1:]]
        D = FqPoly.const(ctx, ctx.one())
        for P, a in zip(Ps, alphas):
            D = D * P ** a
        K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, q)), D)
        pp = prime_power_case(K)
        prof = build_profile(K)
        comps = find_F(prof, build_F0(prof))
        assert pp.delta <= pp.d
        assert pp.e_inf == prof.e_inf == l ** (nu - pp.d)
        # two independent paths to c_inf: the lcm over places and l^(nu-delta)
        assert pp.c_inf == comps.c_inf == l ** (nu - pp.delta)
        assert pp.cprime_bound == l ** (nu - pp.d)
        assert pp.t0 == prof.t0
        assert pp.geometric == prof.geometric
        assert comps.cprime_exact is not None
        assert pp.cprime_bound % comps.cprime_exact == 0


# -- randomized report invariants --


def test_random_tame_report_invariants():
    rng = random.Random(20260815)
    ctxs = {3: make_context(3, 1), 5: make_context(5, 1), 9: make_context(3, 2)}
    irr = {q: irreducibles(ctx, 2) for q, ctx in ctxs.items()}
    n_choices = {3: [2, 4, 5, 8, 10], 5: [2, 3, 4, 6, 8, 12], 9: [2, 4, 5, 8, 16]}
    for _ in range(120):
        q = rng.choice([3, 5, 9])
        ctx = ctxs[q]
        n = rng.choice(n_choices[q])
        Ps = rng.sample(irr[q], rng.randrange(1, 4))
        alphas = [1] + [rng.randrange(1, min(n, 6)) for _ in Ps[1:]]
        D = FqPoly.const(ctx, ctx.one())
        for P, a in zip(Ps, alphas):
            D = D * P ** a
        K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, q)), D)
        r = genus_report(K)
        c = r.components
        for pl in c.places:
            lo, hi = estar_interval(q, pl.e_P, pl.deg)
            assert pl.c_P % lo == 0 and pl.e_P % pl.c_P == 0 and hi == pl.e_P
        assert c.cprime_bound == gcd(c.c_inf, c.e_inf)
        if c.cprime_exact is not None:
            assert c.cprime_bound % c.cprime_exact == 0
        assert r.lower.constants_deg == r.t0
        if r.exact:
            assert r.exact_field == r.lower
        if c.F is not None:
            for g in c.F.radicals:
                assert splits(K, g.e, parse_element(ctx, g.unit), parse_poly(ctx, g.poly))


def test_random_report_invariants_over_larger_fields():
    # q > 25, prime and prime-power, with base constants s in {1, 2, 3}; a
    # nonlinear factor of X^d - gamma puts its residue field in a tower
    rng = random.Random(20261018)
    ctxs = [make_context(31, 1), make_context(3, 3), make_context(7, 2), make_context(2, 5)]
    checked = towers = 0
    while checked < 200:
        ctx = rng.choice(ctxs)
        q = ctx.q
        n = rng.choice([k for k in range(2, 13) if k % ctx.p])
        Ps, D = [], FqPoly.const(ctx, ctx.one())
        while len(Ps) < rng.randrange(1, 4):
            P = FqPoly(ctx, tuple(ctx.from_int(rng.randrange(q)) for _ in range(
                rng.randrange(1, 3))) + (ctx.one(),))
            if P not in Ps and is_irreducible(P):
                Ps.append(P)
        for P in Ps:
            D = D * P ** rng.randrange(1, n)
        try:
            K = radical_extension(ctx, n, ctx.from_int(rng.randrange(1, q)), D,
                                  rng.choice([1, 2, 3]))
        except DomainError:  # X^n - gamma*D reducible: draw again
            continue
        r = genus_report(K)
        c, prof = r.components, r.profile
        assert gcd(c.c_inf, c.e_inf) % c.cprime_bound == 0
        if c.cprime_exact is not None:
            assert gcd(c.c_inf, c.e_inf) % c.cprime_exact == 0
        for pl in c.places:
            lo, hi = estar_interval(q, pl.e_P, pl.deg)
            assert pl.c_P % lo == 0 and pl.e_P % pl.c_P == 0 and hi == pl.e_P
        assert all(t % r.t0 == 0 for _, t in prof.infinity)
        assert len(c.F0.radicals + c.F0.cyclo) == sum(1 for pl in c.places if pl.c_P > 1)
        if r.exact:
            assert r.exact_field == r.lower
        if K.s == 1:
            ram = dict(ram_finite(K))
            for P, _ in K.D_factors.factors:
                if q ** P.degree <= 81:
                    assert splitting_at_finite(K, P) == (ram[P], ())
        checked += 1
        towers += any(top is not ctx for top, _, _ in _infinity_residue_data(prof)[2])
    assert towers >= 20


def test_field_expr_dedupes_and_sorts():
    ctx = make_context(3, 1)
    fe = field_expr(3, [], 1)
    assert fe.render() == "k"
    r = genus_report(K_of(3, 1, 2, 2, "T^3+2*T+1"))
    # K's own generator coincides with the F_0 generator and is kept once
    assert r.exact_field.render() == "k((-(T^3 + 2*T + 1))^(1/2))"
