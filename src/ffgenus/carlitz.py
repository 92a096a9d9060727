"""Carlitz module action and numeric invariants of cyclotomic function fields.

The Carlitz action sends M in F_q[T] to the additive polynomial rho_M(X),
a ring homomorphism into the twisted polynomial ring generated by the
Frobenius X -> X^q, normalized by rho_T(X) = X^q + T*X. Torsion points are
never enumerated: downstream code only needs the polynomial itself, the
degree phi(M) of k(Lambda_M) and the invariants of the canonical cyclic
subfields F_P of k(Lambda_P).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .ffpoly import DomainError, FqPoly, factor, is_irreducible, render_poly

MAX_X_DEG = 1 << 20


class CarlitzPoly:
    """Additive q-polynomial sum_j c_j(T) * X^(q^j), coefficients in F_q[T].

    coeffs[j] is the coefficient of X^(q^j); the tuple carries no trailing
    zero polynomials. Addition is componentwise; composition is the twisted
    product with c_l = sum_{j+k=l} a_j * b_k^(q^j).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, CarlitzPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    @property
    def tau_degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return CarlitzPoly(self.ctx, out)

    def compose(self, other):
        """self(other(X)) as a formal additive polynomial."""
        ctx = self.ctx
        if not self.coeffs or not other.coeffs:
            return CarlitzPoly(ctx, ())
        zero = FqPoly(ctx, ())
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            qj = ctx.q ** j
            for k, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[j + k] = out[j + k] + a * b.frobenius_power(qj)
        return CarlitzPoly(ctx, out)

    def eval(self, t, u):
        """Value at X = u after specializing T = t (both in one extension field)."""
        acc = u.ctx.zero()
        for j, c in enumerate(self.coeffs):
            acc = acc + c.eval(t) * u ** (self.ctx.q ** j)
        return acc

    def __repr__(self):
        return f"CarlitzPoly({render_carlitz(self)!r})"


def render_carlitz(rho):
    if not rho.coeffs:
        return "0"
    q = rho.ctx.q
    terms = []
    for j in range(rho.tau_degree, -1, -1):
        c = rho.coeffs[j]
        if c.is_zero():
            continue
        xs = "X" if j == 0 else f"X^{q ** j}"
        cs = render_poly(c)
        terms.append(xs if cs == "1" else f"({cs})*{xs}")
    return " + ".join(terms)


def carlitz_action(M):
    """The additive polynomial rho_M with rho_T(X) = X^q + T*X.

    Computed by Horner's rule in the twisted ring, using that M -> rho_M
    is a ring homomorphism fixing constants.
    """
    if M.is_zero():
        raise DomainError("the Carlitz action needs a nonzero multiplier")
    ctx = M.ctx
    if ctx.q ** M.degree > MAX_X_DEG:
        raise DomainError(f"q^deg M = {ctx.q ** M.degree} exceeds cap {MAX_X_DEG}")
    rho_t = CarlitzPoly(ctx, (FqPoly.x(ctx), FqPoly.const(ctx, ctx.one())))
    acc = CarlitzPoly(ctx, (FqPoly.const(ctx, M.leading),))
    for i in range(M.degree - 1, -1, -1):
        acc = acc.compose(rho_t) + CarlitzPoly(ctx, (FqPoly.const(ctx, M.coeffs[i]),))
    return acc


def euler_phi(M):
    """Order of (F_q[T]/(M))^*, the product of (q^d - 1) q^(d(a-1)) over M's factors."""
    if M.is_zero():
        raise DomainError("euler_phi of zero")
    if not M.is_monic:
        raise DomainError("euler_phi expects a monic argument")
    q = M.ctx.q
    out = 1
    for g, mult in factor(M).factors:
        qd = q ** g.degree
        out *= (qd - 1) * qd ** (mult - 1)
    return out


class SubfieldFP(namedtuple("SubfieldFP", "P c e_inf")):
    """The unique degree-c subfield of k(Lambda_P)/k.

    P is fully ramified in it (exponent c); e_inf is the ramification
    index of the infinite prime, the image order of the inertia group
    F_q* in the quotient of order c.
    """

    __slots__ = ()


def subfield_FP(P, c):
    """Descriptor of the degree-c subfield of k(Lambda_P), with its e at infinity.

    Gal(k(Lambda_P)/k) is cyclic of order q^d - 1 and the inertia group of
    P_inf is the image of F_q*, so in the degree-c quotient the inertia
    image has order (q-1)/gcd(q-1, (q^d-1)/c).
    """
    if P.degree < 1 or not P.is_monic or not is_irreducible(P):
        raise DomainError("subfield_FP needs a monic irreducible P")
    q = P.ctx.q
    full = q ** P.degree - 1
    if c < 1 or full % c:
        raise DomainError(f"c = {c} does not divide q^deg P - 1 = {full}")
    e_inf = (q - 1) // gcd(q - 1, full // c)
    return SubfieldFP(P, c, e_inf)
