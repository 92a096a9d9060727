"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
lines. Time-bounded criteria measure themselves and fail when over budget.
"""

import json
import random
import subprocess
import sys
import time
from math import gcd, lcm, prod

from ffgenus.carlitz import euler_phi
from ffgenus.ffpoly import (
    DomainError,
    FqPoly,
    factor,
    is_irreducible,
    make_context,
    monic_polys,
    parse_poly,
)
from ffgenus.genus import (
    build_F0,
    estar_interval,
    genus_report,
    genus_report_abstract,
    report_json,
)
from ffgenus.oracle import (
    SWEEP_SEED,
    carlitz_compose_check,
    naive_factor,
    prime_power_case,
    t0_root_degrees,
    unit_count,
)
from ffgenus.ramify import (
    build_profile,
    profile_from_dict,
    radical_extension,
    t0_radical,
)

CTX = {
    2: make_context(2, 1),
    3: make_context(3, 1),
    4: make_context(2, 2),
    5: make_context(5, 1),
    9: make_context(3, 2),
    25: make_context(5, 2),
}


def irreducibles(ctx, max_deg):
    return [f for d in range(1, max_deg + 1)
            for f in monic_polys(ctx, d) if is_irreducible(f)]

IRRED = {q: irreducibles(CTX[q], 2) for q in (3, 5, 9, 25)}

N_CHOICES = {3: (2, 4, 5, 8, 10), 5: (2, 3, 4, 6, 8, 12), 9: (2, 4, 5, 8, 16)}


def random_tame_radical(rng):
    """Valid tame radical instance; alpha_1 = 1 keeps the radicand primitive."""
    q = rng.choice((3, 5, 9))
    ctx = CTX[q]
    n = rng.choice(N_CHOICES[q])
    picks = rng.sample(IRRED[q], rng.randrange(1, 3))
    alphas = [1] + [rng.randrange(1, min(n, 6))
                    for _ in range(len(picks) - 1)]
    D = FqPoly.const(ctx, ctx.one())
    for P, a in zip(picks, alphas):
        D = D * P ** a
    gamma = ctx.from_int(rng.randrange(1, q))
    return radical_extension(ctx, n, gamma, D, 1)


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "ffgenus.cli"] + argv,
                          capture_output=True, timeout=120)


def test_criterion_1_example_quadratic_regression():
    started = time.monotonic()
    ctx = CTX[3]
    K = radical_extension(ctx, 2, ctx.one(), parse_poly(ctx, "T^3 + 2*T + 1"), 1)
    r = genus_report(K)
    assert r.t0 == 1
    assert r.components.F0.render() == "k((-(T^3 + 2*T + 1))^(1/2))"
    assert r.components.F.render() == "k"
    assert r.exact
    assert r.exact_field.render() == "k((T^3 + 2*T + 1)^(1/2))"
    assert json.dumps(report_json(r)["exact_field"], sort_keys=True) == (
        '{"constants_deg": 1, "radicals": '
        '[{"e": 2, "poly": "T^3 + 2*T + 1", "sign": 1}]}')
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: quadratic example exact in {elapsed:.3f}s")


def test_criterion_2_example_tenth_root_regression():
    started = time.monotonic()
    ctx = CTX[3]
    K = radical_extension(
        ctx, 10, ctx.from_int(2), parse_poly(ctx, "T^2 * (T^2 + 2*T + 2)"), 1)
    r = genus_report(K)
    assert [pl.e_P for pl in r.components.places] == [5, 10]
    assert r.components.e_inf == 5
    assert [pl.c_P for pl in r.components.places] == [1, 2]
    assert r.components.F == r.components.F0
    assert r.components.F.render() == "k((T^2 + 2*T + 2)^(1/2))"
    assert r.t0 == 2
    assert r.exact
    assert r.exact_field.render() == (
        "k((T^2 + 2*T + 2)^(1/2), (-(T^4 + 2*T^3 + 2*T^2))^(1/10)) * F_9")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 2 PASS: tenth-root example exact in {elapsed:.3f}s")


def test_criterion_3_example_base_constants_regression():
    ctx = CTX[5]
    D = parse_poly(ctx, "T^3 + T^2 + T")
    r1 = genus_report(radical_extension(ctx, 3, ctx.one(), D, 1))
    assert r1.t0 == 1 and r1.exact
    assert r1.exact_field.render() == (
        "k((T^3 + T^2 + T)^(1/3), cyclo[T^2 + T + 1; deg 3])")
    assert [c.degree for c in r1.exact_field.cyclo] == [3]
    assert r1.exact_field.constants_deg == 1

    r2 = genus_report(radical_extension(ctx, 3, ctx.one(), D, 2))
    assert r2.t0 == 2 and r2.exact
    assert r2.exact_field.render() == (
        "k((T^3 + T^2 + T)^(1/3), cyclo[T^2 + T + 1; deg 3]) * F_25")

    assert r1.exact_field._replace(constants_deg=lcm(r1.exact_field.constants_deg, 2)) \
        == r2.exact_field
    print("criterion 3 PASS: base-constants example, both views coincide")


def test_criterion_4_prime_degree_table():
    # K/k cyclic of prime degree l, l prime to q(q-1), ramified at t places of
    # degree f = ord_l(q), so that c_P = l; infinity is tame and unramified, and
    # F_q* has no image in Z/l, so c_inf = 1 and every report is exact. The genus
    # field has degree l^(t-1) over K with t0 = 1 when infinity splits in K (K in
    # the split-at-infinity cyclotomic tower), and l^t with t0 = l when it is inert.
    for q in (3, 5):
        for l in (7, 11):
            f = next(f for f in range(1, l) if pow(q, f, l) == 1)
            for t in range(1, 5):
                finite = [{"deg": f, "e": [l]}] * t
                for infinity, t0, degree in (([{"e": 1, "t": 1}] * l, 1, l ** (t - 1)),
                                             ([{"e": 1, "t": l}], l, l ** t)):
                    r = genus_report_abstract(profile_from_dict(
                        {"q": q, "finite": finite, "infinity": infinity}))
                    assert r.exact and r.t0 == t0, (q, l, t, t0)
                    field = r.exact_field
                    assert prod(g.degree for g in field.cyclo) * field.constants_deg \
                        == l * degree, (q, l, t, t0)
    print("criterion 4 PASS: prime-degree table for l in {7,11}, t <= 4, "
          "from abstract profiles")


def test_criterion_5_oracle_equivalences():
    started = time.monotonic()

    # factorization: exhaustive monic sweep, then scaled spot checks
    checked = 0
    for q in (2, 3, 4, 5):
        ctx = CTX[q]
        for d in range(1, 6):
            for f in monic_polys(ctx, d):
                assert naive_factor(f) == factor(f), f
                checked += 1
        for d in (1, 2):
            for f in monic_polys(ctx, d):
                for u in range(2, ctx.q):
                    g = FqPoly.const(ctx, ctx.from_int(u)) * f
                    assert naive_factor(g) == factor(g), g
                    checked += 1
    assert checked > 5694

    rng = random.Random(SWEEP_SEED)
    for q, max_deg in ((9, 6), (25, 4)):
        ctx = CTX[q]
        for _ in range(500):
            deg = rng.randrange(1, max_deg + 1)
            ints = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            f = FqPoly.from_ints(ctx, ints)
            assert naive_factor(f) == factor(f), f

    # unit counts
    for q in (2, 3, 4, 5):
        ctx = CTX[q]
        for d in range(1, 4):
            for m in monic_polys(ctx, d):
                assert unit_count(m) == euler_phi(m), m

    # constant degrees of roots
    for q in (3, 5, 9):
        ctx = CTX[q]
        for g in range(1, q):
            gamma = ctx.from_int(g)
            for d in range(1, 7):
                if d % ctx.p == 0:
                    continue
                assert t0_root_degrees(gamma, d) == t0_radical(gamma, d, 1), (q, g, d)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 5 PASS: all oracle equivalences, zero mismatches, {elapsed:.1f}s")


def test_criterion_6_divisibility_invariants():
    rng = random.Random(SWEEP_SEED + 2)
    for _ in range(500):
        K = random_tame_radical(rng)
        r = genus_report(K)
        comps = r.components
        bound = gcd(comps.c_inf, comps.e_inf)
        assert bound % comps.cprime_bound == 0
        if comps.cprime_exact is not None:
            assert bound % comps.cprime_exact == 0
        for pl in comps.places:
            lo, hi = estar_interval(comps.q, pl.e_P, pl.deg)
            assert pl.c_P % lo == 0
            assert pl.e_P % pl.c_P == 0
            assert hi == pl.e_P
        for _, t in r.profile.infinity:
            assert t % r.t0 == 0

    pairs = 0
    for q in (2, 3, 5):
        ctx = CTX[q]
        polys = [FqPoly.const(ctx, ctx.from_int(u)) * f
                 for d in range(3) for f in monic_polys(ctx, d)
                 for u in range(1, q)]
        for M in polys:
            for N in polys:
                assert carlitz_compose_check(M, N), (M, N)
                pairs += 1
    assert pairs == 49 + 676 + 15376
    print(f"criterion 6 PASS: 500 tame instances + {pairs} Carlitz pairs, "
          "zero violations")


def test_criterion_7_prime_power_cross_check():
    combos = [(5, 2, 1), (5, 2, 2), (9, 2, 1), (9, 2, 2), (9, 2, 3),
              (25, 2, 1), (25, 2, 2), (25, 2, 3), (25, 3, 1)]
    rng = random.Random(SWEEP_SEED + 3)
    built = 0
    while built < 200:
        q, l, nu = rng.choice(combos)
        ctx = CTX[q]
        n = l ** nu
        picks = rng.sample(IRRED[q], rng.randrange(1, 3))
        alphas = [rng.randrange(1, n) for _ in picks]
        D = FqPoly.const(ctx, ctx.one())
        for P, a in zip(picks, alphas):
            D = D * P ** a
        gamma = ctx.from_int(rng.randrange(1, q))
        try:
            K = radical_extension(ctx, n, gamma, D, 1)
        except DomainError:
            continue
        built += 1
        pp = prime_power_case(K)
        comps = build_F0(build_profile(K))
        assert comps.c_inf == pp.c_inf == l ** (nu - pp.delta), (q, l, nu, D)
        assert comps.e_inf == pp.e_inf
    print("criterion 7 PASS: 200 prime-power instances, lcm path matches "
          "closed form")


def test_criterion_8_cli_contract():
    ex51 = ["genus", "--field", "3", "--n", "2", "--gamma", "1",
            "--poly", "T^3+2T+1"]
    ex53 = ["genus", "--field", "3", "--n", "10", "--gamma", "-1",
            "--poly", "T^2*(T^2-T-1)"]
    phi = ["phi", "--field", "3", "--poly", "T^2"]
    for argv in (ex51, ex53, phi):
        first, second = run_cli(argv), run_cli(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    out = run_cli(ex53 + ["--format", "json"]).stdout.decode()
    data = json.loads(out)
    assert json.loads(json.dumps(data)) == data
    assert data["exact"] is True

    assert run_cli(phi).returncode == 0
    assert run_cli(["genus", "--field", "3", "--n", "6", "--gamma", "1",
                    "--poly", "T"]).returncode == 1
    assert run_cli(["genus", "--field", "3"]).returncode == 2
    print("criterion 8 PASS: CLI byte-stable, JSON round-trips, exit codes 0/1/2")
