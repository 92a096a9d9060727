"""Brute-force recomputation of formula-derived quantities at desk scale.

Each function here recomputes something the other modules obtain by formula
(factorizations, unit counts, the Carlitz module laws, constant degrees of
root fields, splitting of finite primes) by exhaustive enumeration or trial
division, sharing only base field arithmetic with the code under test.
naive_factor, unit_count, splitting_at_finite and carlitz_compose_check
stay inside fields of at most MAX_ORACLE_Q elements, so they compute on
canonical element indices with add/mul/neg/inv tables (`_field`) that each
field builds once from its own element arithmetic: trial division, Euclid,
Horner evaluation and products of polynomials are table lookups, and no
FqPoly division, product or gcd runs. t0_root_degrees scans splitting fields
of up to MAX_ENUM elements with element arithmetic. The one exception is
enumerate_F, the reference for the subgroup algebra of genus.find_F: it
walks the whole subfield lattice but runs the split test at infinity and
writes generators with the genus module's own helpers. prime_power_case
is a reference of another kind: the closed-form formulas for prime-power
Kummer degree, which build_F0's lcm over places must match. The caps
fail loudly instead of degrading, so a sweep that ran is a sweep that
covered what it claims.
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
    factor_int,
    is_eth_power,
    power_exceeds,
    render_poly,
)
from .genus import (
    _bound_only,
    _infinity_residue_data,
    _radical_gen,
    _reduce_generator,
    _root_splits,
    _sign,
    field_expr,
)
from .ramify import p_adic_val

MAX_ENUM = 1 << 20
MAX_ORACLE_Q = 81  # largest base field (or residue field) an oracle tabulates
MAX_UNIT_COUNT_Q = 9  # largest base field unit_count counts residues over
MAX_ORACLE_DEG = 16  # largest polynomial degree an oracle factors by trial division
SWEEP_SEED = 20260815  # seed of the deterministic random sweeps


class _Field(namedtuple("_Field", "q add mul neg inv")):
    """A field of q <= MAX_ORACLE_Q elements, computed on canonical indices.

    add and mul are flat bytes of q*q entries: entry a*q + b is the index
    of the sum (product) of the elements with indices a and b. neg and inv
    have q entries each (inv[0] is unused). A polynomial is a tuple of
    indices, low degree first, with no trailing zeros.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _field(ctx):
    """The tables of ctx, built once from its own sums and products.

    neg and inv are read off the add and mul rows (the column holding 0,
    resp. 1). Only contexts within an oracle cap of MAX_ORACLE_Q elements
    get here, so a field costs at most 2*81^2 + 2*81 bytes and few fields
    exist.
    """
    q = ctx.q
    els = list(ctx.elements())
    idx = ctx.elem_to_int
    add = bytes(idx(a + b) for a in els for b in els)
    mul = bytes(idx(a * b) for a in els for b in els)
    neg = bytes(add.index(0, a * q, a * q + q) - a * q for a in range(q))
    inv = bytes([0] + [mul.index(1, a * q, a * q + q) - a * q for a in range(1, q)])
    return _Field(q, add, mul, neg, inv)


def _indices(f):
    """The coefficients of f as canonical indices."""
    return tuple(map(f.ctx.elem_to_int, f.coeffs))


def _pmul(F, a, b):
    """Product of two nonzero index polynomials."""
    q, add, mul = F.q, F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x * q:x * q + q]
            for k, y in enumerate(b, i):
                if y:
                    out[k] = add[out[k] * q + row[y]]
    return tuple(out)


def _padd(F, a, b):
    q, add = F.q, F.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = add[out[i] * q + y]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _divrem(F, a, b):
    """Quotient and remainder of the index polynomial a by b != 0, as tuples."""
    q, add, mul, neg, inv = F
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    scale = inv[b[-1]]
    negb = [neg[c] for c in b[:-1]]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        f = rem[i]
        if f:
            if scale != 1:
                f = mul[f * q + scale]
            quo[i - db] = f
            row, lo = f * q, i - db
            for j, c in enumerate(negb, lo):
                rem[j] = add[rem[j] * q + mul[row + c]]
    rem = rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    return tuple(quo), tuple(rem)


def _eval(F, f, x):
    """f(x) by Horner, f an index polynomial and x an index."""
    q, add, mul = F.q, F.add, F.mul
    acc = 0
    for c in reversed(f):
        acc = add[mul[acc * q + x] * q + c]
    return acc


def _trial_factor(ctx, f):
    """[(g, multiplicity)] of the nonzero index polynomial f over ctx, g
    monic irreducible, in FqPoly.sort_key order: trial division under the
    naive_factor caps."""
    q, deg = ctx.q, len(f) - 1
    if q > MAX_ORACLE_Q:
        raise DomainError(f"field size {q} exceeds oracle cap {MAX_ORACLE_Q}")
    if deg > MAX_ORACLE_DEG:
        raise DomainError(f"degree {deg} exceeds oracle cap {MAX_ORACLE_DEG}")
    if power_exceeds(q, deg // 2, MAX_ENUM):
        raise DomainError(f"{q}^{deg // 2} trial divisors exceed the enumeration cap")
    F = _field(ctx)
    unit_inv = F.inv[f[-1]]
    work = tuple(F.mul[c * q + unit_inv] for c in f)
    found = []
    d = 1
    while 2 * d < len(work):
        for tail in itertools.product(range(q), repeat=d):
            g = tail + (1,)
            mult = 0
            while len(work) > d:
                quo, rem = _divrem(F, work, g)
                if rem:
                    break
                work, mult = quo, mult + 1
            if mult:
                found.append((g, mult))
                # every factor left has degree >= d, so below 2d it is irreducible
                if 2 * d >= len(work):
                    break
        d += 1
    if len(work) > 1:
        found.append((work, 1))
    found.sort(key=lambda gm: (len(gm[0]), gm[0]))
    return found


def naive_factor(f):
    """Factorization by trial division, candidates in ascending degree.

    Divisors are extracted smallest first, so everything extracted is
    irreducible and whatever survives past degree deg/2 is too. About
    q^(deg//2) candidates are tried, and above MAX_ENUM none. The division
    runs on the tables of F_q (`_field`), not on FqPoly.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    ctx = f.ctx
    return Factorization(f.leading, tuple(
        (FqPoly(ctx, tuple(map(ctx.from_int, g))), mult)
        for g, mult in _trial_factor(ctx, _indices(f))))


def unit_count(M):
    """Order of (F_q[T]/M)^* counted residue by residue, by Euclid on the tables of F_q."""
    if M.is_zero() or M.degree < 1:
        raise DomainError("modulus must be nonconstant")
    ctx = M.ctx
    if ctx.q > MAX_UNIT_COUNT_Q:
        raise DomainError(f"field size {ctx.q} exceeds the unit count cap")
    if M.degree > 3:
        raise DomainError(f"degree {M.degree} exceeds the unit count cap")
    F = _field(ctx)
    m = _indices(M)
    count = 0
    for ints in itertools.product(range(ctx.q), repeat=M.degree):
        a, b = m, ints
        while b and not b[-1]:
            b = b[:-1]
        if not b:
            continue
        while b:
            a, b = b, _divrem(F, a, b)[1]
        count += len(a) == 1
    return count


def _xdict(M):
    """rho_M as {exponent of X: index polynomial in T}, zero coefficients left out."""
    q = M.ctx.q
    return {q ** j: _indices(c) for j, c in enumerate(carlitz_action(M)) if not c.is_zero()}


def _xdict_add_into(F, out, e, c):
    prev = out.get(e)
    out[e] = c if prev is None else _padd(F, prev, c)


def _xdict_mul(F, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _xdict_add_into(F, out, e1 + e2, _pmul(F, c1, c2))
    return {e: c for e, c in out.items() if c}


def carlitz_compose_check(M, N):
    """Both ring laws of the Carlitz action, recomputed formally.

    The composite rho_M(rho_N(X)) is expanded by substituting rho_N into
    rho_M as a plain polynomial in X (dict arithmetic, repeated products),
    not by carlitz_action's recursion, and compared against rho_{M*N}; the sum
    law rho_{M+N} = rho_M + rho_N is compared componentwise. The
    coefficients in T are multiplied and added on the tables of F_q, so
    M*N is the one FqPoly product.
    """
    for f in (M, N):
        if f.is_zero():
            raise DomainError("multipliers must be nonzero")
        if f.degree > 2 or f.ctx.q > MAX_ORACLE_Q:
            raise DomainError("multiplier outside the composition oracle caps")
    ctx = M.ctx
    F = _field(ctx)
    rho_m, rho_n = _xdict(M), _xdict(N)
    composed, power = {}, rho_n
    for j in range(M.degree + 1):  # the tau-degree of rho_M
        # power = rho_N(X)^(q^j), as j*m successive p-th powers (q = p^m), each
        # p - 1 plain products by its base: the intermediates stay small, and
        # no Frobenius identity is assumed
        if j:
            for _ in range(ctx.mtot):
                base = power
                for _ in range(ctx.p - 1):
                    power = _xdict_mul(F, base, power)
        a = rho_m.get(ctx.q ** j)
        if a is None:
            continue
        for e, c in power.items():
            _xdict_add_into(F, composed, e, _pmul(F, a, c))
    composed = {e: c for e, c in composed.items() if c}
    if composed != _xdict(M * N):
        return False
    total = M + N
    lhs = {} if total.is_zero() else _xdict(total)
    out = dict(rho_m)
    for e, c in rho_n.items():
        _xdict_add_into(F, out, e, c)
    return lhs == {e: c for e, c in out.items() if c}


def root_field_degree(gamma, d, cap):
    """Least b such that F_{q^b} holds every d-th root of gamma (p prime to d),
    or None when q^b exceeds cap.

    That is the order of q modulo d * ord(gamma), which is prime to q; the
    search stops at the first b with q^b above cap, so it takes at most
    log2(cap) steps.
    """
    q = gamma.ctx.q
    target = d * gamma.multiplicative_order()
    b, qb = 1, q % target
    while not power_exceeds(q, b, cap):
        if qb == 1 % target:
            return b
        b, qb = b + 1, qb * q % target
    return None


def t0_root_degrees(gamma, d):
    """gcd of the degrees over F_q of all d-th roots of gamma.

    Builds the explicit splitting field F_{q^b} with d*ord(gamma) dividing
    q^b - 1, collects the d roots by scanning it, and measures each root's
    degree as its Frobenius orbit length. MAX_ENUM bounds F_{q^b}, and so q.
    """
    if gamma.is_zero():
        raise DomainError("gamma must be nonzero")
    if not isinstance(d, int) or d < 1:
        raise DomainError("d must be a positive integer")
    ctx = gamma.ctx
    if d % ctx.p == 0:
        raise DomainError("d must be prime to the characteristic")
    b = root_field_degree(gamma, d, MAX_ENUM)
    if b is None:
        raise DomainError(f"the splitting field of X^{d} - gamma over F_{ctx.q} "
                          "exceeds the enumeration cap")
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
    (0, v_P) to (n, 0), giving (n/gcd(n, v_P), ()). Division, the root of
    P and the residue factorization run on the tables of F_q and of
    F_{q^deg P}.
    """
    ctx = K.ctx
    if K.s != 1:
        raise DomainError("the splitting oracle runs over the plain base s = 1")
    if P.ctx is not ctx or P.degree < 1 or not P.is_monic:
        raise DomainError("P must be a nonconstant monic polynomial over the base")
    if P.degree > MAX_ORACLE_DEG:
        raise DomainError(f"degree {P.degree} exceeds oracle cap {MAX_ORACLE_DEG}")
    if power_exceeds(ctx.q, P.degree, MAX_ORACLE_Q):
        raise DomainError(f"residue field F_{ctx.q ** P.degree} exceeds oracle cap {MAX_ORACLE_Q}")
    Pi = _indices(P)
    if _trial_factor(ctx, Pi) != [(Pi, 1)]:
        raise DomainError("P must be irreducible")
    F = _field(ctx)
    g = ctx.elem_to_int(K.gamma)
    work = tuple(F.mul[g * F.q + c] for c in _indices(K.D))
    v = 0
    while True:
        quo, rem = _divrem(F, work, Pi)
        if rem:
            break
        work, v = quo, v + 1
    if v:
        return K.n // gcd(K.n, v), ()
    ext = ctx.extension(P.degree)
    E = _field(ext)
    # a tower numbers its elements by their coefficients over the base,
    # lowest first, so an element of F_q keeps its index in F_{q^deg P}
    theta = next(x for x in range(E.q) if not _eval(E, Pi, x))
    c = _eval(E, work, theta)
    found = _trial_factor(ext, (E.neg[c],) + (0,) * (K.n - 1) + (1,))
    degs = tuple(sorted(len(h) - 1 for h, mult in found for _ in range(mult)))
    if sum(degs) != K.n:
        raise AssertionError(f"residue factor degrees {degs} do not sum to n = {K.n}")
    return 1, degs


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
    Ps = [pl.P for pl in ram]
    cs = [pl.c_P for pl in ram]
    degs = [pl.deg for pl in ram]
    Nprime = reduce(lcm, cs, 1)
    mus = [Nprime // c for c in cs]
    residues = _infinity_residue_data(profile)
    split_memo, plus_memo = {}, {}

    def w_splits(dw):
        if dw not in split_memo:
            split_memo[dw] = _root_splits(residues, Nprime, _sign(K.ctx, dw), dw)
        return split_memo[dw]

    def w_plus(dw):
        if dw not in plus_memo:
            plus_memo[dw] = dw % Nprime == 0 and is_eth_power(_sign(K.ctx, dw), Nprime)
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


# -- closed-form families --


class PrimePowerProfile(namedtuple(
        "PrimePowerProfile",
        "l nu a dprime d delta m e_inf c_inf cprime_bound t0 geometric gens")):
    """Closed-form data for K = k((gamma*D)^(1/l^nu)) with l^nu | q - 1.

    a holds v_l(alpha_i) per prime factor of D and dprime the valuations
    v_l(deg P_i); d = min(nu, v_l(deg D)) and delta = min over places of
    min(nu, a_i + dprime_i), so e_inf = l^(nu-d) and c_inf = l^(nu-delta),
    with c'_inf dividing their gcd l^(nu-d). t0 = l^m where m is minimal
    with (-1)^{deg D} gamma an l^d-th power of F_{q^{l^m}}.
    """

    __slots__ = ()


def prime_power_case(K):
    """Evaluate the closed-form formulas for prime-power Kummer degree."""
    if K.s != 1:
        raise DomainError("prime power analysis needs base constants s = 1")
    q = K.ctx.q
    if (q - 1) % K.n != 0:
        raise DomainError(f"need n = {K.n} | q - 1")
    ls = factor_int(K.n)
    if len(ls) != 1:
        raise DomainError(f"n = {K.n} is not a prime power")
    ((l, nu),) = ls.items()
    fac = K.D_factors.factors
    if not fac:
        raise DomainError("D must have at least one prime factor")
    a = tuple(p_adic_val(l, alpha) for _, alpha in fac)
    dprime = tuple(p_adic_val(l, P.degree) for P, _ in fac)
    d = min(nu, p_adic_val(l, K.D.degree))
    delta = min(min(nu, ai + dpi) for ai, dpi in zip(a, dprime))
    beta = _sign(K.ctx, K.D.degree) * K.gamma
    m = 0
    while not is_eth_power(beta, l ** d, l ** m):
        m += 1
        if m > d:  # the l^d-th roots of beta lie in F_{q^(l^d)}
            raise AssertionError(f"t0 exponent m = {m} exceeds d = {d}")
    gens = [_radical_gen(l ** (nu - ai), _sign(K.ctx, P.degree), render_poly(P))
            for (P, _), ai in zip(fac, a)]
    return PrimePowerProfile(
        l=l, nu=nu, a=a, dprime=dprime, d=d, delta=delta, m=m,
        e_inf=l ** (nu - d), c_inf=l ** (nu - delta),
        cprime_bound=l ** (nu - d), t0=l ** m, geometric=0 in a,
        gens=tuple(gens))
