"""Ramification analysis over k = F_q(T) for radical extensions and profiles.

A radical extension K = k((gamma*D)^(1/n)) with p not dividing n is tame
everywhere, and its ramification is determined by elementary gcd data:
e at a finite prime P | D is n/gcd(v_P(D), n), e at the infinite prime is
n/gcd(deg D, n), and the residue degrees at infinity are the orbit
sizes of Frobenius on the d-th roots of gamma, an integer count on their
discrete logs with nothing factored. The constant field
of K is F_{q^lcm(s, g)} with g = gcd(n, alpha_1, ..., alpha_k) over the
exponents of D (Kummer theory over the algebraic closure of F_q), so K
is geometric exactly when s = g = 1. Everything here is also exposed for
abstract ramification profiles (per-place exponent lists with no radical
model behind them), which is the intake for the general genus-field
bounds.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import gcd

from .ffpoly import (
    MAX_POLY_DEG,
    MAX_Q,
    MAX_REPORT_INT,
    DomainError,
    FqElem,
    factor,
    factor_int,
    is_eth_power,
)


def p_adic_val(l, n):
    """The exponent of the prime l in n (n positive)."""
    if n < 1:
        raise DomainError("valuation needs a positive argument")
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


class RadicalExtension(namedtuple("RadicalExtension", "ctx n gamma D D_factors s")):
    """The datum K = k((gamma*D)^(1/n)), with F_{q^s} already adjoined.

    D is monic and n-th-power free (every exponent in its factorization is
    below n), p does not divide n, and X^n - gamma*D is irreducible over
    F_{q^s}(T), so [K : k(F_{q^s})] = n. s = 1 is the plain radical extension.
    """

    __slots__ = ()


def radical_extension(ctx, n, gamma, D, s=1):
    """Validated constructor; rejects wild n, reducible X^n - gamma*D and s
    outside [1, MAX_REPORT_INT / MAX_POLY_DEG], the bound of profile_from_dict.

    F_{q^s} is never built: s enters only the exponent of is_eth_power and
    the residue degrees t = s * (orbit size) at infinity, and an orbit holds
    at most d <= MAX_POLY_DEG roots, so every t stays within MAX_REPORT_INT.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    if not isinstance(s, int) or s < 1:
        raise DomainError("base constants degree s must be a positive integer")
    if s * MAX_POLY_DEG > MAX_REPORT_INT:
        raise DomainError(f"base constants degree s = {s} exceeds cap {MAX_Q}^{MAX_POLY_DEG}"
                          f"/{MAX_POLY_DEG}")
    if n % ctx.p == 0:
        raise DomainError(f"wild case p | n is out of scope (p = {ctx.p}, n = {n})")
    if not isinstance(gamma, FqElem) or gamma.ctx is not ctx or gamma.is_zero():
        raise DomainError("gamma must be a nonzero constant of the base field")
    if D.ctx is not ctx or D.is_zero() or not D.is_monic:
        raise DomainError("D must be monic over the base field")
    fac = factor(D)
    alphas = [mult for _, mult in fac.factors]
    if any(a >= n for a in alphas):
        raise DomainError("D must be n-th-power free (all exponents below n)")
    # X^n - a is irreducible over F_{q^s}(T) iff a is no l-th power there
    # for primes l | n, and additionally a is outside -4 k^4 whenever 4 | n.
    # D's irreducible factors stay squarefree over F_{q^s}, so gamma*D is an
    # l-th power only if l divides common = gcd(n, alpha_1, ...), which is n
    # itself when D = 1, and gamma is one in F_{q^s}. For l | q - 1 that is
    # one order test on gamma; an l prime to q - 1 is prime to the order of
    # gamma, so every constant is an l-th power in F_{q^s}. Only divisors of
    # q - 1 get factored, however large n is.
    common = reduce(gcd, alphas, n)
    for l in factor_int(gcd(common, ctx.q - 1)):
        if is_eth_power(gamma, l, s):
            raise DomainError(
                f"X^{n} - gamma*D is reducible: gamma*D is an {l}-th power")
    r = common
    while (h := gcd(r, ctx.q - 1)) > 1:
        r //= h
    if r > 1:
        raise DomainError(f"X^{n} - gamma*D is reducible: gamma*D is an {r}-th power")
    if n % 4 == 0 and all(a % 4 == 0 for a in alphas):
        minus_four = -(ctx.one() + ctx.one() + ctx.one() + ctx.one())
        if is_eth_power(gamma / minus_four, 4, s):
            raise DomainError(
                f"X^{n} - gamma*D is reducible: gamma*D lies in -4*k^4")
    return RadicalExtension(ctx, n, gamma, D, fac, s)


def ram_finite(K):
    """Ramified finite places of K/k: list of (P, e_P) with e_P = n/gcd(alpha, n)."""
    out = []
    for P, alpha in K.D_factors.factors:
        e = K.n // gcd(alpha, K.n)
        if e > 1:
            out.append((P, e))
    return out


def ram_infinity(K):
    """Ramification index of the infinite prime: n/gcd(deg D, n)."""
    return K.n // gcd(K.D.degree, K.n)


def _infinity_degrees(gamma, d, s):
    """The residue degrees t over F_q of the infinite primes, ascending.

    With l the discrete log of gamma, N = d(q - 1) and omega of order N with
    omega^d = g, the roots of X^d - gamma are the omega^j, j = l + k(q - 1)
    for k < d. Each orbit of j -> j q^s mod N is one infinite prime over
    F_{q^s}(T), with t = s * (orbit size).
    """
    ctx = gamma.ctx
    if d > MAX_POLY_DEG:  # bounds an orbit, so t <= s * MAX_POLY_DEG <= MAX_REPORT_INT
        raise DomainError(f"degree {d} exceeds cap {MAX_POLY_DEG}")
    n = ctx.q - 1
    N = d * n
    qs = pow(ctx.q, s, N)
    seen, ts = set(), []
    for j in range(ctx.dlog(gamma), N, n):
        size = 0
        while j not in seen:
            seen.add(j)
            size, j = size + 1, j * qs % N
        if size:
            ts.append(s * size)
    return sorted(ts)


def t0_radical(gamma, d, s=1):
    """gcd of the constant-field degrees of the d-th roots of gamma.

    A root omega^j generates F_{q^t} over F_q once F_{q^s} is adjoined, t the
    residue degree of its orbit (_infinity_degrees); t_0 is the gcd of those
    t. gamma must lie in a flat context, which has discrete logs.
    """
    if gamma.is_zero():
        raise DomainError("gamma must be nonzero")
    if d < 1 or s < 1:
        raise DomainError("d and s must be positive")
    if d % gamma.ctx.p == 0:
        raise DomainError("d must be prime to the characteristic")
    return reduce(gcd, _infinity_degrees(gamma, d, s))


class FinitePlace(namedtuple("FinitePlace", "deg e_list e_P u_P e0 P", defaults=(None,))):
    """Ramification record of one finite place.

    e_list holds the exponents of the primes above P; e_P is their gcd,
    split as p^{u_P} * e0 with e0 prime to p. P itself is attached when a
    polynomial model exists, otherwise only the degree is known.
    """

    __slots__ = ()


class RamificationProfile(namedtuple(
        "RamificationProfile",
        "q p s finite infinity e_inf t0 geometric radical",
        defaults=(None,))):
    """Per-place ramification data of some separable K/k.

    finite lists only places with a ramified prime above them; infinity
    holds one (e, t) pair per infinite prime of K. geometric says whether
    F_q is the full constant field of K: for a radical profile it is
    exact, s == 1 and gcd(n, alpha_1, ..., alpha_k) == 1; an abstract
    profile keeps the flag its JSON gives, or None. For a radical
    profile the t of the infinity pairs are Frobenius orbit sizes on the
    d-th roots of gamma (_infinity_degrees), and radical is the datum K.
    """

    __slots__ = ()


def build_profile(K):
    """Full ramification profile of a radical extension."""
    finite = tuple(FinitePlace(P.degree, (e,), e, 0, e, P) for P, e in ram_finite(K))
    e_inf = ram_infinity(K)
    infinity = tuple((e_inf, t) for t in _infinity_degrees(K.gamma, K.n // e_inf, K.s))
    t0 = reduce(gcd, (t for _, t in infinity))
    g = reduce(gcd, (a for _, a in K.D_factors.factors), K.n)
    return RamificationProfile(
        q=K.ctx.q, p=K.ctx.p, s=K.s, finite=finite, infinity=infinity,
        e_inf=e_inf, t0=t0, geometric=K.s == 1 and g == 1, radical=K)


def profile_from_dict(data):
    """Abstract profile intake: per-place exponent lists, no radical model.

    Expected shape:
      {"q": int, "finite": [{"deg": int, "e": [int, ...]}, ...],
       "infinity": [{"e": int, "t": int}, ...], "s": int?, "geometric": bool?}
    with q a prime power up to MAX_Q and place degrees deg up to
    MAX_POLY_DEG (c_P builds q^deg). MAX_REPORT_INT = MAX_Q^MAX_POLY_DEG
    bounds the other degrees and the e_P product: each t is at most that,
    s at most MAX_REPORT_INT / MAX_POLY_DEG (radical_extension's bound, so
    the JSON of every radical profile loads back), and the e_P of the
    finite places multiply to at most that, which bounds what a report
    derives from them (the wild bound, [F_0 meet R+ : k]). Finite places
    where every exponent is 1 are dropped. Any missing, non-integer or
    out-of-range field is a DomainError: numbers are taken as they are,
    never rounded or converted, and geometric must be true, false or null.
    """

    def num(value):
        # bool is a subclass of int, but JSON true is no exponent
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
        return value

    try:
        q = num(data["q"])
        s = num(data.get("s", 1))
        finite_in = [(entry, num(entry["deg"]), tuple(num(e) for e in entry["e"]))
                     for entry in data.get("finite", [])]
        infinity_in = [(entry, num(entry["e"]), num(entry["t"])) for entry in data["infinity"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed profile: {exc}") from None
    if q > MAX_Q:
        raise DomainError(f"q = {q} exceeds cap {MAX_Q}")
    primes = factor_int(q) if q >= 2 else {}
    if len(primes) != 1:
        raise DomainError(f"q = {q} is not a prime power")
    (p,) = primes
    if s < 1 or s * MAX_POLY_DEG > MAX_REPORT_INT:
        raise DomainError(f"s = {s} outside [1, {MAX_Q}^{MAX_POLY_DEG}/{MAX_POLY_DEG}]")
    finite = []
    e_prod = 1
    for entry, deg, e_list in finite_in:
        if not 1 <= deg <= MAX_POLY_DEG or not e_list or any(e < 1 for e in e_list):
            raise DomainError(f"bad finite place entry {entry!r}")
        if all(e == 1 for e in e_list):
            continue
        e_P = reduce(gcd, e_list)
        e_prod *= e_P
        if e_prod > MAX_REPORT_INT:
            raise DomainError(f"the e_P of the finite places multiply past {MAX_Q}^{MAX_POLY_DEG}")
        u = p_adic_val(p, e_P)
        finite.append(FinitePlace(deg, e_list, e_P, u, e_P // p ** u))
    infinity = []
    for entry, e, t in infinity_in:
        if e < 1 or not 1 <= t <= MAX_REPORT_INT:
            raise DomainError(f"bad infinite place entry {entry!r}")
        infinity.append((e, t))
    if not infinity:
        raise DomainError("profile needs at least one infinite prime")
    geo = data.get("geometric")
    if geo is not None and type(geo) is not bool:
        raise DomainError(f"geometric must be true, false or null, not {geo!r}")
    return RamificationProfile(
        q=q, p=p, s=s, finite=tuple(finite), infinity=tuple(infinity),
        e_inf=reduce(gcd, (e for e, _ in infinity)),
        t0=reduce(gcd, (t for _, t in infinity)), geometric=geo)
