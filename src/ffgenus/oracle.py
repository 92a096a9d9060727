"""Brute-force recomputation of formula-derived quantities at desk scale.

Each function here recomputes something the other modules obtain by formula
(factorizations, unit counts, the Carlitz module laws, constant degrees of
root fields, splitting of finite primes, ramification indices from Newton
polygons) by exhaustive enumeration or trial division, sharing only base
field arithmetic with the code under test. The one exception is
enumerate_F, the reference for the subgroup algebra of genus.find_F: it
walks the whole subfield lattice but runs the split test at infinity and
writes generators with the genus module's own helpers. The caps fail
loudly instead of degrading, so a sweep that ran is a sweep that covered
what it claims.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, reduce
from math import gcd, lcm, prod

from .carlitz import carlitz_action
from .ffpoly import (
    DomainError,
    Factorization,
    FqPoly,
    is_eth_power,
    monic_polys,
    poly_gcd,
)
from .genus import (
    _bound_only,
    _infinity_residue_data,
    _reduce_generator,
    _root_splits,
    field_expr,
)

MAX_ENUM = 1 << 20
MAX_ORACLE_Q = 81  # largest base field (or residue field) an oracle enumerates
MAX_ORACLE_DEG = 16  # largest polynomial degree an oracle factors by trial division
SWEEP_SEED = 20260815  # seed of the deterministic random sweeps


def naive_factor(f):
    """Factorization by trial division, candidates in ascending degree.

    Divisors are extracted smallest first, so everything extracted is
    irreducible and whatever survives past degree deg/2 is too. About
    q^(deg//2) candidates are tried, and above MAX_ENUM none.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    ctx = f.ctx
    if ctx.q > MAX_ORACLE_Q:
        raise DomainError(f"field size {ctx.q} exceeds oracle cap {MAX_ORACLE_Q}")
    if f.degree > MAX_ORACLE_DEG:
        raise DomainError(f"degree {f.degree} exceeds oracle cap {MAX_ORACLE_DEG}")
    if ctx.q ** (f.degree // 2) > MAX_ENUM:
        raise DomainError(f"{ctx.q}^{f.degree // 2} trial divisors exceed the enumeration cap")
    unit = f.leading
    work = f.monic()
    found = []
    d = 1
    while 2 * d <= work.degree:
        for g in monic_polys(ctx, d):
            mult = 0
            while work.degree >= d:
                quo, rem = work.divrem(g)
                if not rem.is_zero():
                    break
                work, mult = quo, mult + 1
            if mult:
                found.append((g, mult))
        d += 1
    if work.degree > 0:
        found.append((work, 1))
    found.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(unit, tuple(found))


def unit_count(M):
    """Order of (F_q[T]/M)^* counted residue by residue via gcd."""
    if M.is_zero() or M.degree < 1:
        raise DomainError("modulus must be nonconstant")
    ctx = M.ctx
    if ctx.q > 9:
        raise DomainError(f"field size {ctx.q} exceeds the unit count cap")
    if M.degree > 3:
        raise DomainError(f"degree {M.degree} exceeds the unit count cap")
    count = 0
    for ints in itertools.product(range(ctx.q), repeat=M.degree):
        r = FqPoly.from_ints(ctx, ints)
        if not r.is_zero() and poly_gcd(r, M).degree == 0:
            count += 1
    return count


def _xdict(M):
    """rho_M as {exponent of X: coefficient}, zero coefficients left out."""
    q = M.ctx.q
    return {q ** j: c for j, c in enumerate(carlitz_action(M)) if not c.is_zero()}


def _xdict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            prev = out.get(e1 + e2)
            prod = c1 * c2
            out[e1 + e2] = prod if prev is None else prev + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


def _xdict_pow(a, e):
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else _xdict_mul(result, base)
        e >>= 1
        if e:
            base = _xdict_mul(base, base)
    return result


@lru_cache(maxsize=128)
def _qpow_chain(N):
    """[rho_N(X)^(q^j) for j = 0, 1, ...], which carlitz_compose_check extends.

    Sweeps pair each N with many M, so the chains of the last 128
    multipliers are kept; a bound, since every distinct N adds one.
    """
    return [_xdict(N)]


def _xdict_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        out[e] = c if prev is None else prev + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def carlitz_compose_check(M, N):
    """Both ring laws of the Carlitz action, recomputed formally.

    The composite rho_M(rho_N(X)) is expanded by substituting rho_N into
    rho_M as a plain polynomial in X (dict arithmetic, generic powering),
    not by carlitz_action's recursion, and compared against rho_{M*N}; the sum
    law rho_{M+N} = rho_M + rho_N is compared componentwise.
    """
    for f in (M, N):
        if f.is_zero():
            raise DomainError("multipliers must be nonzero")
        if f.degree > 2 or f.ctx.q > MAX_ORACLE_Q:
            raise DomainError("multiplier outside the composition oracle caps")
    ctx = M.ctx
    rho_m, chain = _qpow_chain(M)[0], _qpow_chain(N)
    composed = {}
    for j in range(M.degree + 1):  # the tau-degree of rho_M
        # rho_N(X)^(q^j) as j*m successive generic p-th powers (q = p^m): the
        # intermediates stay small, and plain repeated multiplication assumes
        # no Frobenius identity
        if len(chain) == j:
            power = chain[-1]
            for _ in range(ctx.mtot):
                power = _xdict_pow(power, ctx.p)
            chain.append(power)
        a = rho_m.get(ctx.q ** j)
        if a is None:
            continue
        for e, c in chain[j].items():
            prev = composed.get(e)
            term = a * c
            composed[e] = term if prev is None else prev + term
    composed = {e: c for e, c in composed.items() if not c.is_zero()}
    if composed != _xdict(M * N):
        return False
    total = M + N
    lhs = {} if total.is_zero() else _xdict(total)
    return lhs == _xdict_sum(rho_m, chain[0])


def root_field_degree(gamma, d):
    """Least b such that F_{q^b} holds every d-th root of gamma (p prime to d).

    That is the order of q modulo d * ord(gamma), which is prime to q.
    """
    q = gamma.ctx.q
    target = d * gamma.multiplicative_order()
    b, qb = 1, q % target
    while qb != 1 % target:
        b += 1
        qb = (qb * q) % target
        if b > target:
            raise AssertionError(f"q = {q} has no multiplicative order modulo {target}")
    return b


def t0_root_degrees(gamma, d):
    """gcd of the degrees over F_q of all d-th roots of gamma.

    Builds the explicit splitting field F_{q^b} with d*ord(gamma) dividing
    q^b - 1, collects the d roots by scanning it, and measures each root's
    degree as its Frobenius orbit length.
    """
    if gamma.is_zero():
        raise DomainError("gamma must be nonzero")
    if not isinstance(d, int) or d < 1:
        raise DomainError("d must be a positive integer")
    ctx = gamma.ctx
    if d % ctx.p == 0:
        raise DomainError("d must be prime to the characteristic")
    if ctx.q > MAX_ORACLE_Q:
        raise DomainError(f"field size {ctx.q} exceeds oracle cap {MAX_ORACLE_Q}")
    b = root_field_degree(gamma, d)
    if ctx.q ** b > MAX_ENUM:
        raise DomainError(f"splitting field F_{ctx.q}^{b} exceeds the enumeration cap")
    ext = ctx.extension(b)
    glift = gamma if ext is ctx else ext.lift(gamma)
    roots = [x for x in ext.elements() if x ** d == glift and not x.is_zero()]
    if len(roots) != d:
        raise AssertionError(f"found {len(roots)} {d}-th roots of gamma, expected {d}")
    degs = []
    for r in roots:
        j, y = 1, r ** ctx.q
        while y != r:
            y, j = y ** ctx.q, j + 1
        degs.append(j)
    return reduce(gcd, degs)


def splitting_at_finite(K, P):
    """Splitting of the finite prime P in a radical extension, from scratch.

    When P does not divide gamma*D the extension is unramified at P and
    its splitting is read off a residue factorization: X^n - (gamma*D mod P)
    over F_{q^deg P}, giving (1, sorted factor degrees). When P divides
    gamma*D the Newton polygon of X^n - gamma*D at P is one segment from
    (0, v_P) to (n, 0), giving (n/gcd(n, v_P), ()).
    """
    ctx = K.ctx
    if K.s != 1:
        raise DomainError("the splitting oracle runs over the plain base s = 1")
    if P.ctx is not ctx or P.degree < 1 or not P.is_monic:
        raise DomainError("P must be a nonconstant monic polynomial over the base")
    if P.degree > MAX_ORACLE_DEG:
        raise DomainError(f"degree {P.degree} exceeds oracle cap {MAX_ORACLE_DEG}")
    if ctx.q ** P.degree > MAX_ORACLE_Q:
        raise DomainError(f"residue field F_{ctx.q ** P.degree} exceeds oracle cap {MAX_ORACLE_Q}")
    if naive_factor(P).factors != ((P, 1),):
        raise DomainError("P must be irreducible")
    work = FqPoly.const(ctx, K.gamma) * K.D
    v = 0
    while True:
        quo, rem = work.divrem(P)
        if not rem.is_zero():
            break
        work, v = quo, v + 1
    if v:
        return K.n // gcd(K.n, v), ()
    ext = ctx.extension(P.degree)
    theta = next(x for x in ext.elements() if P.eval(x).is_zero())
    c = work.eval(theta)
    coeffs = [-c] + [ext.zero()] * (K.n - 1) + [ext.one()]
    fact = naive_factor(FqPoly(ext, tuple(coeffs)))
    degs = tuple(sorted(g.degree for g, mult in fact.factors for _ in range(mult)))
    if sum(degs) != K.n:
        raise AssertionError(f"residue factor degrees {degs} do not sum to n = {K.n}")
    return 1, degs


class NewtonPolygon(namedtuple("NewtonPolygon", "vertices slopes")):
    """Lower convex hull of (exponent, valuation) points; slopes increase."""

    __slots__ = ()


def newton_polygon(points):
    from fractions import Fraction  # imported by its only user, off the start-up path

    pts = sorted(set(points))
    if len(pts) < 2:
        raise DomainError("a polygon needs at least two distinct points")
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the middle point only while it dips strictly below the chord
            if (y2 - y1) * (pt[0] - x1) < (pt[1] - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append(pt)
    slopes = tuple(
        Fraction(hull[i + 1][1] - hull[i][1], hull[i + 1][0] - hull[i][0])
        for i in range(len(hull) - 1))
    if any(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1)):
        raise AssertionError(f"hull slopes {slopes} do not increase")
    return NewtonPolygon(tuple(hull), slopes)


def newton_polygon_e(n, alpha):
    """Ramification index read off the polygon of X^n - u with v(u) = alpha.

    The polygon has the single segment (0, alpha) -- (n, 0), so every root
    has valuation alpha/n and the index is the reduced denominator.
    """
    if n < 1 or alpha < 0:
        raise DomainError("need n >= 1 and alpha >= 0")
    if alpha == 0:
        return 1
    poly = newton_polygon([(0, alpha), (n, 0)])
    if len(poly.slopes) != 1:
        raise AssertionError(f"polygon of X^n - u has {len(poly.slopes)} segments, not 1")
    return poly.slopes[0].denominator


def enumerate_F(profile, comps):
    """genus.find_F recomputed by walking the whole subfield lattice.

    Every element x of the product of the Z/c_P (Kummer c_P only) is tested
    for splitting at each infinite prime of K = profile.radical; F is spanned
    greedily by the split elements in lexicographic order and c'_inf is the
    index of the split-at-plus subgroup in the split subgroup. Lattices
    above MAX_ENUM elements are refused.
    """
    K = profile.radical
    q = K.ctx.q
    ram = [pl for pl in comps.places if pl.c_P > 1]
    if comps.c_inf == 1 or any((q - 1) % pl.c_P != 0 for pl in ram):
        return _bound_only(comps)
    size = prod(pl.c_P for pl in ram)
    if size > MAX_ENUM:
        raise DomainError(f"subfield lattice of size {size} exceeds the enumeration cap")
    Ps = [fp.P for fp, pl in zip(profile.finite, comps.places) if pl.c_P > 1]
    cs = [pl.c_P for pl in ram]
    degs = [pl.deg for pl in ram]
    Nprime = reduce(lcm, cs, 1)
    mus = [Nprime // c for c in cs]
    residues = _infinity_residue_data(profile)
    one, minus = K.ctx.one(), -K.ctx.one()
    split_memo, plus_memo = {}, {}

    def w_splits(dw):
        if dw not in split_memo:
            split_memo[dw] = _root_splits(residues, Nprime, minus if dw % 2 else one, dw)
        return split_memo[dw]

    def w_plus(dw):
        if dw not in plus_memo:
            lam = minus if dw % 2 else one
            plus_memo[dw] = dw % Nprime == 0 and is_eth_power(lam, Nprime)
        return plus_memo[dw]

    split_set, plus_set = set(), set()
    for x in itertools.product(*(range(c) for c in cs)):
        dw = sum(d * m * xi for d, m, xi in zip(degs, mus, x))
        if w_splits(dw):
            split_set.add(x)
        if w_plus(dw):
            plus_set.add(x)
    if not plus_set <= split_set:
        raise AssertionError("an element split at plus does not split at infinity")
    # the two computation paths for c_inf = [F_0 : F_0 meet R+] must agree
    if size != len(plus_set) * comps.c_inf:
        raise AssertionError(f"the split-at-plus subgroup ({len(plus_set)} of {size}) "
                             f"does not give c_inf = {comps.c_inf}")
    if len(split_set) % len(plus_set):
        raise AssertionError("the split-at-plus subgroup does not divide the split subgroup")
    cprime = len(split_set) // len(plus_set)
    if comps.cprime_bound % cprime:
        raise AssertionError(f"c'_inf = {cprime} does not divide its bound {comps.cprime_bound}")

    gens = []
    span = {(0,) * len(cs)}
    for x in sorted(split_set):
        if x in span:
            continue
        ordx = reduce(lcm, (c // gcd(c, xi) for xi, c in zip(x, cs)), 1)
        span = {tuple((si + j * xi) % ci for si, xi, ci in zip(s, x, cs))
                for s in span for j in range(ordx)}
        gens.append(_reduce_generator(K.ctx, x, Ps, mus, Nprime))
    if len(span) != len(split_set):
        raise AssertionError("the greedy generators do not span the split subgroup")
    F = field_expr(q, gens, 1)
    return comps._replace(cprime_exact=cprime, F=F)
