"""Carlitz module action and numeric invariants of cyclotomic function fields.

The Carlitz action sends M in F_q[T] to the additive polynomial
rho_M(X) = sum_j c_j(T) * X^(q^j), normalized by rho_T(X) = X^q + T*X.
Its coefficients c_j come from a recursion over M's coefficients whose
steps shift and add, with no polynomial product. Torsion points are never
enumerated: downstream code only needs the coefficients themselves, the
degree phi(M) of k(Lambda_M) and the invariants of the canonical cyclic
subfields F_P of k(Lambda_P).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .ffpoly import DomainError, FqPoly, factor, is_irreducible, power_exceeds

MAX_X_DEG = 1 << 20


def carlitz_action(M):
    """The coefficients (c_0, ..., c_d) of rho_M = sum_j c_j(T) * X^(q^j), d = deg M.

    Horner on M's coefficients: rho_{A*T + a} = rho_A o rho_T + a*X, and
    c_j * (X^q + T*X)^(q^j) = c_j * X^(q^(j+1)) + T^(q^j) * c_j * X^(q^j).
    So a step sends c_j to T^(q^j) * c_j + c_{j-1} (plus a at j = 0), and
    the old top coefficient becomes the new one: a shift and a sum per
    coefficient, no polynomial product.
    """
    if M.is_zero():
        raise DomainError("the Carlitz action needs a nonzero multiplier")
    ctx = M.ctx
    if power_exceeds(ctx.q, M.degree, MAX_X_DEG):
        raise DomainError(f"q^deg M = {ctx.q ** M.degree} exceeds cap {MAX_X_DEG}")
    zero = ctx.zero()
    rho = [FqPoly.const(ctx, M.leading)]
    for a in reversed(M.coeffs[:-1]):
        prev = FqPoly.const(ctx, a)
        for j, c in enumerate(rho):
            rho[j] = FqPoly(ctx, (zero,) * ctx.q ** j + c.coeffs) + prev
            prev = c
        rho.append(prev)
    return tuple(rho)


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


def e_inf_FP(q, deg, c):
    """Ramification index of the infinite prime in the degree-c subfield of
    k(Lambda_P), deg P = deg and c | q^deg - 1.

    Gal(k(Lambda_P)/k) is cyclic of order q^deg - 1 and the inertia group of
    P_inf is the image of F_q*, so in the degree-c quotient the inertia
    image has order (q - 1)/gcd(q - 1, (q^deg - 1)/c).
    """
    return (q - 1) // gcd(q - 1, (q ** deg - 1) // c)


def subfield_FP(P, c):
    """Descriptor of the degree-c subfield of k(Lambda_P), with its e at infinity."""
    if P.degree < 1 or not P.is_monic or not is_irreducible(P):
        raise DomainError("subfield_FP needs a monic irreducible P")
    full = P.ctx.q ** P.degree - 1
    if c < 1 or full % c:
        raise DomainError(f"c = {c} does not divide q^deg P - 1 = {full}")
    return SubfieldFP(P, c, e_inf_FP(P.ctx.q, P.degree, c))
