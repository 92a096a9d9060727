"""Metamorphic relations: pairs of radical extensions whose reports must agree.

Each relation maps a valid K = k((gamma*D)^(1/n)) to a K' that is the same
field or its image under an automorphism of k = F_q(T) fixing the infinite
prime and the Carlitz module, so no oracle is needed to check the formula
paths (find_F, _root_splits, the orbit count at infinity):

- (a) translation T -> T + b;
- (b) the radicand power (gamma*D)^j with gcd(j, n) = 1, written as gamma^j
  and the exponents j*alpha_i mod n: the same field;
- (c) Frobenius a -> a^p on the coefficients of gamma and D;
- (d) gamma -> gamma * c^n: the same field.
"""

import random
import time
from math import gcd

from ffgenus.ffpoly import DomainError, FqPoly, is_irreducible, make_context
from ffgenus.genus import genus_report
from ffgenus.ramify import build_profile, radical_extension

FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
          (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5),
          (37, 1), (41, 1), (43, 1), (47, 1), (7, 2)]
# largest residue field F_{q^f} of X^d - gamma a drawn input may need: beyond
# it the residue towers of find_F take seconds
MAX_RESIDUE = 10 ** 5


def invariants(K):
    r = genus_report(K)
    c = r.components
    return (sorted((pl.deg, pl.e_P, pl.c_P) for pl in c.places), c.e_inf, c.c_inf,
            c.cprime_exact, r.t0, r.exact, r.exactness_reason, c.F0_plus_deg,
            r.profile.infinity)


def _unit(rng, ctx):
    return ctx.from_int(rng.randrange(1, ctx.q))


def translate(rng, K):
    ctx = K.ctx
    shift = FqPoly.x(ctx) + FqPoly.const(ctx, ctx.from_int(rng.randrange(1, ctx.q)))
    D = FqPoly.const(ctx, ctx.zero())
    for a in reversed(K.D.coeffs):  # Horner: D(T + b)
        D = D * shift + FqPoly.const(ctx, a)
    return radical_extension(ctx, K.n, K.gamma, D)


def radicand_power(rng, K):
    j = rng.choice([j for j in range(2, 2 * K.n + 2) if gcd(j, K.n) == 1])
    D = FqPoly.const(K.ctx, K.ctx.one())
    for P, alpha in K.D_factors.factors:
        D = D * P ** (alpha * j % K.n)
    return radical_extension(K.ctx, K.n, K.gamma ** j, D)


def frobenius(rng, K):
    p = K.ctx.p
    D = FqPoly(K.ctx, tuple(a ** p for a in K.D.coeffs))
    return radical_extension(K.ctx, K.n, K.gamma ** p, D)


def scalar(rng, K):
    return radical_extension(K.ctx, K.n, K.gamma * _unit(rng, K.ctx) ** K.n, K.D)


RELATIONS = {"translation": translate, "radicand power": radicand_power,
             "Frobenius": frobenius, "scalar": scalar}


def _draw(rng):
    """A valid K over q <= 49 whose residue fields at infinity stay small,
    with d = gcd(deg D, n) > 1 in most draws."""
    while True:
        ctx = make_context(*rng.choice(FIELDS))
        n = rng.choice([n for n in range(2, 25) if n % ctx.p])
        D, Ps = FqPoly.const(ctx, ctx.one()), []
        for _ in range(rng.randrange(1, 4)):
            P = FqPoly(ctx, tuple(ctx.from_int(rng.randrange(ctx.q))
                                  for _ in range(rng.randrange(1, 3))) + (ctx.one(),))
            if P not in Ps and is_irreducible(P):
                Ps.append(P)
                D = D * P ** rng.randrange(1, n)
        if gcd(D.degree, n) == 1 and rng.random() < 0.9:
            continue
        try:
            K = radical_extension(ctx, n, _unit(rng, ctx), D)
        except DomainError:  # X^n - gamma*D reducible
            continue
        if max(ctx.q ** t for _, t in build_profile(K).infinity) <= MAX_RESIDUE:
            return K


def test_metamorphic_relations_agree():
    rng = random.Random(20261019)
    start = time.perf_counter()
    structured = 0
    for _ in range(150):
        K = _draw(rng)
        structured += gcd(K.D.degree, K.n) > 1
        base = invariants(K)
        for name, relate in RELATIONS.items():
            K2 = relate(rng, K)
            assert invariants(K2) == base, (name, K, K2)
    assert structured > 100
    assert time.perf_counter() - start < 15.0
