"""Genus-field components and reports over k = F_q(T).

For a tame abelian-over-k piece attached to each ramified finite prime P
there is a cyclic subfield F_P of the P-torsion field of degree
c_P = gcd(e_P, q^{deg P} - 1); their compositum F_0 and its infinite-prime
behaviour (c_inf, the splitting index c'_inf, the maximal fully-split
subfield F, and the constant degree t_0) determine a sandwich

    K * F * F_{q^{t_0}}  <=  K_ge  <=  K * F_0 * F_{q^u}

for the genus field K_ge of K/k. A report is a function of the
ramification profile of K: this module assembles those components,
decides the sandwich exactly when a certificate applies, and otherwise
reports certified bounds. F = F_0 with everything tame certifies any
profile; a radical model K = k((gamma*D)^(1/n)) lets find_F determine F
and adds the certificates abelian K/k and collapse of F_0 into K times
constants.

Field expressions are symbolic: sorted radical/cyclotomic/opaque generator
lists plus a constants degree, so equality is decidable by comparison.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import reduce
from math import gcd, lcm, prod

from .carlitz import e_inf_FP
from .ffpoly import (
    MAX_REPORT_INT,
    DomainError,
    FqPoly,
    _edf_split,
    factor,
    factor_int,
    is_eth_power,
    power_exceeds,
    render_element,
    render_poly,
)
from .ramify import build_profile, p_adic_val


# -- symbolic field expressions --


class RadicalGen(namedtuple("RadicalGen", "e unit sign poly")):
    """One Kummer generator, the e-th root of unit * poly, of degree e over k.

    sign is +-1 when the unit is +-1 and 0 for a general constant.
    """

    __slots__ = ()

    def render(self):
        if self.sign == 1:
            return f"({self.poly})^(1/{self.e})"
        if self.sign == -1:
            return f"(-({self.poly}))^(1/{self.e})"
        return f"({self.unit}*({self.poly}))^(1/{self.e})"

    def json(self):
        d = {"e": self.e}
        if self.sign != 0:
            d["sign"] = self.sign
        else:
            d["unit"] = self.unit
        d["poly"] = self.poly
        return d


class CycloGen(namedtuple("CycloGen", "poly place_deg degree")):
    """A cyclic subfield of the P-torsion field, named by degree over k.

    Used when the subfield has no Kummer radical model over k (its degree
    does not divide q - 1) or when the place has no polynomial model
    (poly is None and only the place degree is known).
    """

    __slots__ = ()

    def render(self):
        if self.poly is not None:
            return f"cyclo[{self.poly}; deg {self.degree}]"
        return f"cyclo[place deg {self.place_deg}; deg {self.degree}]"

    def json(self):
        return {"cyclo": self.poly, "place_deg": self.place_deg, "degree": self.degree}


class OpaqueGen(namedtuple("OpaqueGen", "name degree")):
    """A component field known only by name and (optionally) its degree."""

    __slots__ = ()

    def render(self):
        if self.degree is None:
            return self.name
        return f"{self.name}[deg {self.degree}]"

    def json(self):
        return {"name": self.name, "degree": self.degree}


class FieldExpr(namedtuple("FieldExpr", "q radicals cyclo opaque constants_deg")):
    """A composite field k(generators) * F_{q^constants_deg}.

    constants_deg None means the expression carries an extension of
    constants whose exact degree is not determined (bound form only).
    Generator tuples are canonically sorted, so equal expressions compare
    equal structurally and serialize to identical JSON.
    """

    __slots__ = ()

    def render(self):
        adjoined = [g.render() for g in self.radicals + self.cyclo]
        parts = [g.render() for g in self.opaque]
        if adjoined or not parts:
            parts.append("k(" + ", ".join(adjoined) + ")" if adjoined else "k")
        body = " * ".join(parts)
        if self.constants_deg is None:
            return body + f" * F_{self.q}^u (u unknown)"
        if power_exceeds(self.q, self.constants_deg, MAX_REPORT_INT):
            # a radical report's or an abstract profile's q^t can pass 2^1024,
            # and then have more digits than str() takes
            return body + f" * F_{self.q}^{self.constants_deg}"
        if self.constants_deg > 1:
            return body + f" * F_{self.q ** self.constants_deg}"
        return body

    def json(self):
        d = {"radicals": [g.json() for g in self.radicals]}
        if self.cyclo:
            d["cyclo"] = [g.json() for g in self.cyclo]
        if self.opaque:
            d["opaque"] = [g.json() for g in self.opaque]
        d["constants_deg"] = self.constants_deg
        return d


def field_expr(q, gens=(), constants_deg=1):
    """Canonically sorted field expression from a mixed generator list.

    Equal generators name one field and are kept once: equal radicals, or
    K's own generator and a split radical. A CycloGen without a polynomial
    stands for one place of an abstract profile, and two such places of
    equal degree and c_P are two fields, so each is kept.
    """
    gens = [g for i, g in enumerate(gens)
            if isinstance(g, CycloGen) and g.poly is None or g not in gens[:i]]
    rads = tuple(sorted((g for g in gens if isinstance(g, RadicalGen)),
                        key=lambda g: (g.e, g.poly, g.unit)))
    cyc = tuple(sorted((g for g in gens if isinstance(g, CycloGen)),
                       key=lambda g: (g.degree, g.place_deg, g.poly or "")))
    opq = tuple(sorted((g for g in gens if isinstance(g, OpaqueGen)),
                       key=lambda g: g.name))
    return FieldExpr(q, rads, cyc, opq, constants_deg)


def _radical_gen(e, unit, poly):
    """The generator root^e = unit * poly, with poly already rendered."""
    ctx = unit.ctx
    if unit == ctx.one():
        sign = 1
    elif unit == -ctx.one():
        sign = -1
    else:
        sign = 0
    return RadicalGen(e, render_element(unit), sign, poly)


def _sign(ctx, k):
    """(-1)^k in ctx: the sign that the normalization rho_T = X^q + TX gives
    the radical of a polynomial of degree k."""
    return -ctx.one() if k % 2 else ctx.one()


# -- per-place components --


def c_P(q, e_P, degP):
    """The degree gcd(e_P, q^{deg P} - 1) of the place component F_P."""
    if e_P < 1 or degP < 1:
        raise DomainError("e_P and deg P must be positive")
    return gcd(e_P, q ** degP - 1)


def estar_interval(q, e_P, degP):
    """Certified divisor interval for the ramification of P in the genus field.

    Returns (lower, upper) = (gcd(e_P, (q^{deg P} - 1)/(q - 1)), e_P); the
    actual index e*_P is a multiple of the first and a divisor of the second.
    """
    if e_P < 1 or degP < 1:
        raise DomainError("e_P and deg P must be positive")
    return gcd(e_P, (q ** degP - 1) // (q - 1)), e_P


class PlaceComponent(namedtuple("PlaceComponent", "poly deg e_P e0 u_P c_P e_inf_FP gen P")):
    """Genus-field datum of one ramified finite place.

    gen is the generator of F_P: a Kummer radical when c_P | q - 1, a
    cyclotomic-subfield marker otherwise, None when c_P = 1. e_inf_FP is
    the ramification index of the infinite prime in F_P/k. P is the
    place's FqPoly, of which poly is the rendering, or None for a place of
    an abstract profile.
    """

    __slots__ = ()

    def json(self):
        return {"poly": self.poly, "deg": self.deg, "e": self.e_P,
                "e0": self.e0, "u": self.u_P, "c": self.c_P,
                "e_inf_FP": self.e_inf_FP,
                "gen": self.gen.json() if self.gen is not None else None}


class GenusComponents(namedtuple(
        "GenusComponents",
        "q places c_inf e_inf cprime_bound F0 F0_plus_deg cprime_exact F")):
    """F_0 = product of the F_P, with its infinite-prime bookkeeping.

    c_inf = lcm of the per-place e_inf_FP (the ramification of the infinite
    prime in F_0/k) and equals [F_0 : F_0 meet R+] where R+ is the maximal
    totally split-at-infinity cyclotomic piece; F0_plus_deg is the degree
    of that intersection. cprime_exact and F are filled by find_F when the
    profile has a radical model and every c_P is Kummer (divides q - 1), or
    when the bound alone pins them.
    """

    __slots__ = ()


def build_F0(profile):
    """Assemble the per-place components and the infinite-prime indices.

    Wild places contribute through their tame part e0 (the component degree
    c_P is insensitive to the p-part of e_P); the wild data itself is
    reported separately by wild_bounds. e_inf_FP is the order of the image
    of the inertia group F_q* at infinity in the degree-c_P quotient of the
    cyclic Gal(k(Lambda_P)/k) (carlitz.e_inf_FP).
    """
    q = profile.q
    places = []
    gens = []
    for pl in profile.finite:
        c = c_P(q, pl.e_P, pl.deg)
        poly = render_poly(pl.P) if pl.P is not None else None
        gen = None
        if c > 1:
            if poly is not None and (q - 1) % c == 0:
                gen = _radical_gen(c, _sign(pl.P.ctx, pl.deg), poly)
            else:
                gen = CycloGen(poly, pl.deg, c)
        places.append(PlaceComponent(poly, pl.deg, pl.e_P, pl.e0, pl.u_P, c,
                                     e_inf_FP(q, pl.deg, c), gen, pl.P))
        if gen is not None:
            gens.append(gen)
    c_inf = reduce(lcm, (pl.e_inf_FP for pl in places), 1)
    total = prod(pl.c_P for pl in places)
    if total % c_inf:
        raise AssertionError(f"c_inf = {c_inf} does not divide [F_0 : k] = {total}")
    return GenusComponents(
        q=q, places=tuple(places), c_inf=c_inf, e_inf=profile.e_inf,
        cprime_bound=gcd(c_inf, profile.e_inf), F0=field_expr(q, gens, 1),
        F0_plus_deg=total // c_inf, cprime_exact=None, F=None)


# -- splitting of infinite primes in Kummer composites --


def _infinity_residue_data(profile):
    """Residue-field models of the completions of K at its infinite primes.

    With e = profile.e_inf = n/gcd(deg D, n), d = n/e, m' = deg D/d and y
    the defining root of K = profile.radical, the unit z = y^e/T^{m'} satisfies
    z^d = gamma * D/T^{deg D}, so its residue r is a root of X^d - gamma,
    and T = z^a * pi^{-e} for any uniformizer pi = y^a/T^c with
    c*e - a*m' = 1. Returns (e, a, data), data holding for each factor of
    X^d - gamma over F_q a root r in top = F_{q^f} and the residue degree
    t = lcm(f, s) of the gcd(f, s) infinite primes over that factor
    (Lidl-Niederreiter, Thm 3.46); that multiset of t is checked against
    profile.infinity. A factor h of degree f splits over top into f
    distinct linear factors, and r is the first that one descent of
    equal-degree splitting reaches. Any of them will do: r -> r^q fixes
    F_q, and with it every answer of _root_splits.
    """
    K = profile.radical
    e = profile.e_inf
    d = K.n // e
    mprime = K.D.degree // d
    a = (-pow(mprime, -1, e)) % e if e > 1 else 0
    fac = factor(FqPoly.x(K.ctx) ** d - FqPoly.const(K.ctx, K.gamma))
    if any(mult > 1 for _, mult in fac.factors):
        raise AssertionError(f"X^{d} - gamma is not separable although p does not divide d")
    data, ts = [], []
    for h, _ in fac.factors:
        t = lcm(h.degree, K.s)
        ts += [t] * gcd(h.degree, K.s)
        if h.degree == 1:
            top, r = h.ctx, -h.coeffs[0]
        else:
            top = h.ctx.extension(h.degree)
            lifted = FqPoly(top, tuple(top.lift(c) for c in h.coeffs))
            r = -next(_edf_split(lifted, 1, random.Random(0))).coeffs[0]
            value = top.zero()
            for c in reversed(lifted.coeffs):
                value = value * r + c
            if not value.is_zero():
                raise AssertionError(f"{r!r} is not a root of {render_poly(h)} in {top!r}")
        data.append((top, r, t))
    # the orbit count of _infinity_degrees, which made profile.infinity, must agree
    orbit_ts = sorted(t for _, t in profile.infinity)
    if sorted(ts) != orbit_ts:
        raise AssertionError(
            f"infinite primes of degrees {sorted(ts)} by the factors of X^{d} - gamma, "
            f"{orbit_ts} by the orbits of the profile")
    return e, a, data


def _root_splits(residues, eps, unit, deg):
    """Whether an eps-th root of unit * A, deg A = deg, splits at infinity.

    residues is _infinity_residue_data of K. In each completion at infinity
    the root exists iff eps divides the value e_inf * deg and the unit-part
    residue x = unit * r^(a * deg) of top = F_{q^f} is an eps-th power of
    F_{q^t}, the degree-t/f extension of top. The primes over one factor are
    Frobenius conjugates and share the answer.
    """
    e, a, data = residues
    mtot = unit.ctx.mtot
    return (e * deg) % eps == 0 and all(
        is_eth_power((unit if top is unit.ctx else top.lift(unit)) * r ** (a * deg),
                     eps, t // (top.mtot // mtot))
        for top, r, t in data)


def _divisors(n):
    divs = [1]
    for p, k in factor_int(n).items():
        divs = [d * p ** i for d in divs for i in range(k + 1)]
    return sorted(divs)


def _split_generators(cs, ws, h):
    """Generators of S = {x in prod Z/c_i : sum w_i x_i = 0 mod h}, h | w_i c_i.

    They are the elements a greedy span over S in lexicographic order picks:
    one per coordinate j where the elements of S vanishing before j have a
    nonzero x_j, namely (0..0, t, tail) with t the least such x_j and the
    lexicographically least tail, listed from the last coordinate to the first.
    """
    # suffix[j] = gcd(h, w_j, ..., w_last): sum_{i >= j} w_i x_i ranges over suffix[j]Z/h
    suffix = [h]
    for w in reversed(ws):
        suffix.append(gcd(suffix[-1], w))
    suffix.reverse()
    gens = []
    for j in reversed(range(len(cs))):
        # x_j runs over tZ/c_j, and t | c_j because h | w_j c_j
        t = suffix[j + 1] // gcd(suffix[j + 1], ws[j])
        if t == cs[j]:
            continue
        x = [0] * j + [t]
        rest = -ws[j] * t % h
        for i in range(j + 1, len(cs)):
            # least x_i with w_i x_i = rest mod suffix[i + 1]; suffix[i] divides both
            d, m = suffix[i], suffix[i + 1] // suffix[i]
            xi = rest // d * pow(ws[i] // d, -1, m) % m
            x.append(xi)
            rest = (rest - ws[i] * xi) % h
        gens.append(tuple(x))
    return gens


def find_F(profile, comps):
    """Fill in the maximal fully-split subfield F of F_0 and c'_inf.

    Subfields of F_0 correspond to subgroups of G = prod Z/c_i, where x
    stands for the Kummer radical (-1)^{deg} * prod P_i^{x_i N'/c_i} and
    N' = lcm c_i. Whether its root splits at every infinite prime of
    K = profile.radical depends only on sum w_i x_i mod N', with
    w_i = deg P_i * N'/c_i, and the splitting classes form a subgroup hZ/N'.
    So F is the field of {x : sum w_i x_i = 0 mod h}, F_0 meet R+ that of
    the same congruence mod N', and c'_inf = N'/lcm(h, gcd(N', w)) is the
    index between them. Returns _bound_only(comps) when the profile has no
    radical model, c_inf = 1 or some c_P is not Kummer-accessible.
    """
    K, q = profile.radical, profile.q
    ram = [pl for pl in comps.places if pl.c_P > 1]
    if K is None or comps.c_inf == 1 or any((q - 1) % pl.c_P != 0 for pl in ram):
        return _bound_only(comps)
    Ps = [pl.P for pl in ram]
    cs = [pl.c_P for pl in ram]
    Nprime = reduce(lcm, cs, 1)
    mus = [Nprime // c for c in cs]
    ws = [pl.deg * m for pl, m in zip(ram, mus)]
    residues = _infinity_residue_data(profile)
    for h in _divisors(Nprime):  # ascending, and the class of N' always splits
        if _root_splits(residues, Nprime, _sign(K.ctx, h), h):
            break
    g = gcd(Nprime, *ws)
    # |G| = |plus| * c_inf with |plus| = |G| * g/N' recomputes c_inf = [F_0 : F_0 meet R+]
    if Nprime // g != comps.c_inf:
        raise AssertionError(f"the split-at-plus subgroup gives c_inf = {Nprime // g}, "
                             f"the places give {comps.c_inf}")
    cprime = Nprime // lcm(h, g)
    if comps.cprime_bound % cprime:
        raise AssertionError(f"c'_inf = {cprime} does not divide its bound {comps.cprime_bound}")

    gens = [_reduce_generator(K.ctx, x, Ps, mus, Nprime)
            for x in _split_generators(cs, ws, h)]
    return comps._replace(cprime_exact=cprime, F=field_expr(q, gens, 1))


def _bound_only(comps):
    # c_inf = 1 makes all of F_0 split; else c'_inf | gcd(c_inf, e_inf), so a trivial bound pins it
    if comps.c_inf == 1:
        return comps._replace(cprime_exact=1, F=comps.F0)
    if comps.cprime_bound == 1:
        if comps.F0_plus_deg == 1:
            # [F : k] = c'_inf * [F_0 cap R^+ : k] = 1 forces F = k
            return comps._replace(cprime_exact=1, F=field_expr(comps.q, (), 1))
        return comps._replace(cprime_exact=1)
    return comps


def _reduce_generator(ctx, x, Ps, mus, Nprime):
    """Kummer generator for a lattice element, in lowest exponent form.

    The element is w = lam * prod P_i^{v_i} with v_i = x_i mu_i and lam the
    sign (-1)^{deg w}. As N' | q - 1, the discrete log mod N' identifies
    F_q*/(F_q*)^{N'} with Z/N', so the root of w generates a field of degree
    o = N'/red with red = gcd(N', dlog lam, v_1, ..., v_k), and the generator
    is rewritten with e = o. Here red = gcd(N', v_1, ..., v_k), since dlog lam
    never changes the gcd: it is 0 when lam = 1, and when lam = -1 the degree
    sum_i v_i deg P_i is odd, so some v_i is odd, gcd(N', v_1, ..., v_k) is
    odd and divides (q - 1)/2 = dlog(-1). The unit lam0 is the first in
    canonical order with red * dlog lam0 = dlog lam (mod N'), that is lam0^red
    in lam * (F_q*)^{N'}.
    """
    exps = [xi * m for xi, m in zip(x, mus)]
    dw = sum(P.degree * v for P, v in zip(Ps, exps))
    log_lam = ctx.dlog(_sign(ctx, dw))
    red = gcd(Nprime, *exps)
    for i in range(1, ctx.q):
        lam0 = ctx.from_int(i)
        if (red * ctx.dlog(lam0) - log_lam) % Nprime == 0:
            poly = prod((P ** (v // red) for P, v in zip(Ps, exps)),
                        start=FqPoly.const(ctx, ctx.one()))
            return _radical_gen(Nprime // red, lam0, render_poly(poly))
    raise AssertionError(f"no unit lam0 has {red} * dlog lam0 = {log_lam} mod {Nprime}")


# -- wild part --


class WildBounds(namedtuple(
        "WildBounds",
        "wild_places finite_wild_degree_bound has_infinite_component tame_case_constants_only")):
    """Degree bounds for the wild part of the genus field.

    Each wild place P with e_P = p^{u_P} * e0 contributes a cyclic p-piece
    of degree at most p^{u_P}; when no wild place exists and the infinite
    prime is tame, the whole wild part is an extension of constants.
    wild_places holds (deg P, u_P) per wild place. Only abstract profiles
    have wild places (a radical n is prime to p), and they carry no P.
    """

    __slots__ = ()

    def json(self):
        return {"wild_places": [{"poly": None, "deg": deg, "u": u}
                                for deg, u in self.wild_places],
                "finite_wild_degree_bound": self.finite_wild_degree_bound,
                "has_infinite_component": self.has_infinite_component,
                "tame_case_constants_only": self.tame_case_constants_only}


def wild_bounds(profile):
    """Wild-part bounds of a profile; trivial for radical (tame) input."""
    wp = tuple((pl.deg, pl.u_P) for pl in profile.finite if pl.u_P > 0)
    inf_wild = profile.e_inf % profile.p == 0
    return WildBounds(wp, profile.p ** sum(u for _, u in wp), inf_wild,
                      not wp and not inf_wild)


# -- reports --


class GenusReport(namedtuple(
        "GenusReport",
        "profile components wild t0 lower upper exact exact_field conjectural exactness_reason")):
    """Sandwich bounds, and the exact genus field when certified.

    lower and upper always hold; exact_field is set (and equals lower) when
    one of the certificates applies, with exactness_reason naming it:
    "F_equals_F0", "abelian_tame", or "constants_collapse". conjectural is
    the expected value K * F * F_{q^{t_0}} when the profile has a radical
    model and F is determined. All expressions include a generator of K
    itself: its radical, or the opaque name K; for base constants s > 1 the
    extension F_{q^s} of K is subsumed by the constants degree of the
    expression (s divides t_0).
    """

    __slots__ = ()


def _constants_collapse(K, comps):
    """Whether each F_P collapses into K times constants.

    Over the factorization D = prod P_m^{alpha_m}, F_P for P = P_i with
    c = c_P > 1 collapses when c | n, alpha_i is prime to c and c divides
    every other alpha_m: with j = alpha_i^(-1) mod c, the n-th root y of
    gamma*D yields an element y^{n j/c} * g(T) of K whose c-th power is
    P_i times a constant, so F_P is contained in K times an extension of
    constants. Requires every c_P to be Kummer (c_P | q - 1).
    """
    q, n = K.ctx.q, K.n
    for pl in comps.places:
        c = pl.c_P
        if c == 1:
            continue
        if (q - 1) % c != 0 or n % c != 0:
            return False
        if any(gcd(alpha, c) != 1 if P == pl.P else alpha % c
               for P, alpha in K.D_factors.factors):
            return False
    return True


def genus_report(K):
    """Full genus-field report of a radical extension."""
    return genus_report_abstract(build_profile(K))


def genus_report_abstract(profile):
    """Sandwich report of a ramification profile, radical or abstract.

    lower is K * F * F_{q^{t_0}}, with the split part F_0 meet R+ named by
    its degree while F is undetermined; upper is K * F_0 * F_{q^u}. An exact
    report collapses onto lower. An abstract, inexact lower bound takes only
    the prime-to-p part of t_0.
    """
    K = profile.radical
    comps = find_F(profile, build_F0(profile))
    wild = wild_bounds(profile)
    t0 = profile.t0

    reason = None
    if (comps.F is not None and comps.cprime_exact == comps.c_inf
            and wild.tame_case_constants_only):
        reason = "F_equals_F0"
    elif K is not None and comps.F is not None and (profile.q - 1) % K.n == 0:
        reason = "abelian_tame"
    elif K is not None and _constants_collapse(K, comps):
        reason = "constants_collapse"
    exact = reason is not None

    k_gen = OpaqueGen("K", None) if K is None else _radical_gen(K.n, K.gamma, render_poly(K.D))
    t_lower = t0 if K is not None or exact else t0 // profile.p ** p_adic_val(profile.p, t0)
    if comps.F is not None:
        split = comps.F.radicals + comps.F.cyclo
    elif comps.F0_plus_deg > 1:
        split = (OpaqueGen("F0_cap_Rplus", comps.F0_plus_deg),)
    else:
        split = ()
    lower = field_expr(profile.q, (k_gen,) + split, t_lower)
    upper = lower if exact else field_expr(
        profile.q, (k_gen,) + comps.F0.radicals + comps.F0.cyclo, None)
    conjectural = lower if K is not None and (comps.F is not None or exact) else None
    return GenusReport(profile=profile, components=comps, wild=wild, t0=t0,
                       lower=lower, upper=upper, exact=exact,
                       exact_field=lower if exact else None, conjectural=conjectural,
                       exactness_reason=reason)


# -- serialization --


def report_json(report):
    """Stable JSON-ready dict for a genus report."""
    comps = report.components

    def opt(expr):
        return expr.json() if expr is not None else None

    return {
        "lower": report.lower.json(),
        "upper": report.upper.json(),
        "exact": report.exact,
        "exact_field": opt(report.exact_field),
        "conjectural": opt(report.conjectural),
        "t0": report.t0,
        "components": [pl.json() for pl in comps.places],
        "wild": report.wild.json(),
        "infinity": {
            "e_inf": comps.e_inf,
            "c_inf": comps.c_inf,
            "cprime_bound": comps.cprime_bound,
            "cprime_exact": comps.cprime_exact,
            "F": opt(comps.F),
            "F0": opt(comps.F0),
            "F0_plus_deg": comps.F0_plus_deg,
            "u_status": "equals_t0" if report.exact else "bounded_unknown",
            "exactness_reason": report.exactness_reason,
        },
    }


def render_report(report):
    """Human-readable multi-line rendering of a genus report."""
    comps = report.components
    lines = []
    for pl in comps.places:
        name = pl.poly if pl.poly is not None else f"<place of degree {pl.deg}>"
        wild = f", wild u = {pl.u_P}" if pl.u_P else ""
        lines.append(f"place {name}: e = {pl.e_P}, c = {pl.c_P}{wild}")
    cpe = comps.cprime_exact if comps.cprime_exact is not None else "?"
    lines.append(f"infinity: e_inf = {comps.e_inf}, c_inf = {comps.c_inf}, "
                 f"c'_inf = {cpe} (divides {comps.cprime_bound})")
    lines.append(f"t0 = {report.t0}")
    lines.append(f"F0 = {comps.F0.render()}")
    lines.append(f"F  = {comps.F.render() if comps.F is not None else 'undetermined'}")
    lines.append(f"lower: {report.lower.render()}")
    lines.append(f"upper: {report.upper.render()}")
    if report.exact:
        lines.append(f"EXACT [{report.exactness_reason}]: "
                     f"K_ge = {report.exact_field.render()}")
    elif report.conjectural is not None:
        lines.append(f"CONJECTURE: K_ge = {report.conjectural.render()}")
    elif report.profile.radical is None:
        lines.append("CONJECTURE: unavailable (abstract profile)")
    else:
        lines.append("CONJECTURE: unavailable (F undetermined)")
    if not report.wild.tame_case_constants_only:
        wp = ", ".join(f"deg {deg}: p^{u}" for deg, u in report.wild.wild_places)
        lines.append(f"wild bounds: finite <= {report.wild.finite_wild_degree_bound}"
                     f" [{wp}]" + (", infinite component possible"
                                   if report.wild.has_infinite_component else ""))
    return "\n".join(lines)
