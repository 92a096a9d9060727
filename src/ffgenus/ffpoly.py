"""Exact arithmetic in F_q (q = p^m) and in the polynomial ring F_q[T].

Fields are represented by FqContext objects carrying a deterministic
modulus (and, when flat, a multiplicative generator), so every
computation is byte-reproducible across runs. A context is either flat
(coefficients are integers mod p) or an extension of another context (a
tower), which lets constants of a base field embed into bigger fields
without any explicit embedding maps.
"""

from __future__ import annotations

import itertools
import operator
import random
from array import array
from collections import namedtuple
from math import gcd

MAX_Q = 1 << 16
MAX_TOWER_DEG = 64
MAX_POLY_DEG = 64
# 2^1024 bounds a residue degree t at infinity, s * MAX_POLY_DEG and the
# product of a profile's e_P, so what a report derives from them stays printable
MAX_REPORT_INT = MAX_Q ** MAX_POLY_DEG


class DomainError(ValueError):
    """Input is well formed but outside the mathematical domain."""


class ParseError(ValueError):
    """Malformed literal input."""


def factor_int(n):
    """Prime factorization {prime: exponent} of n >= 1, primes ascending.

    Trial division tries divisors up to 2^16 only, so a call takes at most
    ~2^15 steps. The cofactor left then has no prime factor up to 2^16, so
    it is a prime whenever it is below 65537^2 > 2^32: the result is exact
    for q and q - 1 with q <= MAX_Q and for every degree. A larger cofactor
    cannot be certified and raises DomainError.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}: need a positive integer")
    out = {}
    rest, d = n, 2
    while d * d <= rest:
        if d > 1 << 16:
            raise DomainError(
                f"cannot factor {n}: cofactor {rest} has no prime factor up to 2^16")
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def _power(x, e, one, mul):
    """x^e by right-to-left square and multiply, products by `mul` (the last square is spare)."""
    if e < 0:  # element powers reduce e mod q - 1 first, so only a polynomial gets here
        raise DomainError("a polynomial has no inverse: negative exponent")
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


class FqElem:
    """Element of a flat context: its canonical index, one int 0 <= v < q.

    The index lists the coefficients of the element over F_p in base p,
    lowest degree first (the `from_int` order), so `elem_to_int` is
    the identity. Products, quotients, inverses and powers are index
    arithmetic on the context's exp/log tables; sums use a Zech-logarithm
    table. Fields of characteristic 2 add by XOR (`_BinaryElem`), prime
    fields add and multiply mod p (`_PrimeElem`), and tower contexts keep
    coefficient vectors (`_TowerElem`). Instances are immutable.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx = ctx
        self.v = v

    def __eq__(self, other):
        if not isinstance(other, FqElem):
            return NotImplemented
        return self.ctx is other.ctx and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    # exp has length q - 1: a table index in (-(q-1), 0) wraps around to
    # the same power of the generator, which saves a `% (q - 1)`

    def __add__(self, other):
        a, b = self.v, other.v
        if not a:
            return other
        if not b:
            return self
        c = self.ctx
        la = c._log[a]
        z = c._zech[c._log[b] - la]
        return self.__class__(c, c._exp[la + z - c._n] if z >= 0 else 0)

    def __sub__(self, other):
        a, b = self.v, other.v
        if not b:
            return self
        if not a:
            return -other
        c = self.ctx
        la = c._log[a]
        # -1 = g^((q-1)/2), so log(-b) = log(b) + (q-1)/2
        z = c._zech[(c._log[b] + c._n // 2 - la) % c._n]
        return self.__class__(c, c._exp[la + z - c._n] if z >= 0 else 0)

    def __neg__(self):
        a = self.v
        if not a:
            return self
        c = self.ctx
        return self.__class__(c, c._exp[c._log[a] + c._n // 2 - c._n])

    def __mul__(self, other):
        a, b = self.v, other.v
        if not a:
            return self
        if not b:
            return other
        c = self.ctx
        log = c._log
        return self.__class__(c, c._exp[log[a] + log[b] - c._n])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        a = self.v
        if not a:
            if e > 0:
                return self
            if e == 0:
                return self.ctx.one()
            raise DomainError("zero has no inverse")
        c = self.ctx
        return self.__class__(c, c._exp[c._log[a] * e % c._n])

    def inverse(self):
        return self ** -1

    def is_zero(self):
        return not self.v

    def multiplicative_order(self):
        n = self.ctx._n
        return n // gcd(self.ctx.dlog(self), n)

    def __repr__(self):
        return f"FqElem({self.ctx!r}, {render_element(self)!r})"


class _BinaryElem(FqElem):
    """Element of a flat context of characteristic 2: sums are XOR."""

    __slots__ = ()

    def __add__(self, other):
        return _BinaryElem(self.ctx, self.v ^ other.v)

    __sub__ = __add__

    def __neg__(self):
        return self


class _PrimeElem(FqElem):
    """Element of a prime field F_p, p odd: the index is the residue."""

    __slots__ = ()

    def __add__(self, other):
        c = self.ctx
        return _PrimeElem(c, (self.v + other.v) % c.p)

    def __sub__(self, other):
        c = self.ctx
        return _PrimeElem(c, (self.v - other.v) % c.p)

    def __neg__(self):
        c = self.ctx
        return _PrimeElem(c, -self.v % c.p)

    def __mul__(self, other):
        c = self.ctx
        return _PrimeElem(c, self.v * other.v % c.p)


class _TowerElem(FqElem):
    """Element of a tower context: coefficient tuple over the base context."""

    __slots__ = ()

    def __add__(self, other):
        return _TowerElem(self.ctx, tuple(a + b for a, b in zip(self.v, other.v)))

    def __sub__(self, other):
        return _TowerElem(self.ctx, tuple(a - b for a, b in zip(self.v, other.v)))

    def __neg__(self):
        return _TowerElem(self.ctx, tuple(-a for a in self.v))

    def __mul__(self, other):
        c = self.ctx
        m, mod = c.m, c.modulus
        raw = [c.base.zero()] * (2 * m - 1)
        for i, a in enumerate(self.v):
            if a.is_zero():
                continue
            for j, b in enumerate(other.v):
                raw[i + j] = raw[i + j] + a * b
        # reduce by the monic modulus X^m + sum(mod[j] X^j), top degree first
        for i in range(2 * m - 2, m - 1, -1):
            lead = raw[i]
            if lead.is_zero():
                continue
            for j in range(m):
                raw[i - m + j] = raw[i - m + j] - lead * mod[j]
        return _TowerElem(c, tuple(raw[:m]))

    def __pow__(self, e):
        c = self.ctx
        if self.is_zero():
            if e > 0:
                return self
            if e == 0:
                return c.one()
            raise DomainError("zero has no inverse")
        return _power(self, e % (c.q - 1), c.one(), operator.mul)

    def inverse(self):
        """Extended Euclid of the coefficient vector against the modulus, over the base.

        With s_i * self = r_i mod the modulus, the remainders r_i reach a
        nonzero constant because the modulus is irreducible, so the inverse
        costs O(m^2) base operations where Fermat's self^(q-2) costs about
        2 log2(q) tower products.
        """
        if self.is_zero():
            raise DomainError("zero has no inverse")
        c = self.ctx
        base = c.base
        r0, r1 = FqPoly(base, c.modulus + (base.one(),)), FqPoly(base, self.v)
        s0, s1 = FqPoly(base, ()), FqPoly.const(base, base.one())
        while r1.degree > 0:
            qt, rem = r0.divrem(r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 - qt * s1
        s = s1.scale(r1.coeffs[0].inverse()).coeffs
        return _TowerElem(c, s + (base.zero(),) * (c.m - len(s)))

    def is_zero(self):
        return all(a.is_zero() for a in self.v)

    def __repr__(self):
        return f"FqElem({self.ctx!r}, {self.v!r})"


def _digits(i, p, m):
    """The m base-p digits of i, lowest first."""
    out = []
    for _ in range(m):
        i, d = divmod(i, p)
        out.append(d)
    return out


def _undigits(digits, p):
    """The integer with the given base-p digits, lowest first: `_digits` inverted."""
    i = 0
    for d in reversed(digits):
        i = i * p + d
    return i


def _mulmod_digits(a, b, p, mod):
    """a*b for digit lists over F_p, reduced by X^m + sum(mod[j] X^j).

    Horner over the digits of b, so the cost is m per digit of b.
    """
    out = [0] * len(mod)
    for bj in reversed(b):
        top = out.pop()
        out.insert(0, 0)
        if top:
            out = [(o - top * t) % p for o, t in zip(out, mod)]
        if bj:
            out = [(o + bj * x) % p for o, x in zip(out, a)]
    return out


def _mulmod_bits(a, b, m, poly):
    """a*b in F_2[X] mod poly, with bit i of a residue the coefficient of X^i.

    Shift-and-add over the bits of b: each shift of a that reaches X^m is
    cleared by one XOR with poly (the modulus with its X^m bit).
    """
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return out


def _flat_tables(p, m, modulus):
    """Generator index and the exp/log/Zech tables of F_{p^m} over `modulus`.

    The generator is the smallest index of multiplicative order q - 1.
    exp[k] is the index of g^k for 0 <= k < q - 1 and log inverts it
    (log[0] is unused). For odd p and m > 1, zech[k] = log(1 + g^k), or
    -1 where 1 + g^k = 0. Tables are arrays of machine ints, so q = 2^16
    costs a few hundred KB. For p = 2 an index is its own bit vector of
    coefficients, and products are shifted XORs; odd p works on base-p
    digit lists.
    """
    q = p ** m
    n = q - 1
    primes = list(factor_int(n))
    if p == 2:
        poly = sum((c << j for j, c in enumerate(modulus)), 1 << m)
        one = 1

        def mul(a, b):
            return _mulmod_bits(a, b, m, poly)
    else:
        one = _digits(1, p, m)

        def mul(a, b):
            return _mulmod_digits(a, b, p, modulus)

    for gen in range(1, q):
        gd = gen if p == 2 else _digits(gen, p, m)
        if all(_power(gd, n // r, one, mul) != one for r in primes):
            break
    exp = array("H", [0]) * n
    if m == 1:
        x = 1
        for k in range(n):
            exp[k] = x
            x = x * gen % p
    elif p == 2:
        x = 1
        for k in range(n):
            exp[k] = x
            x = _mulmod_bits(x, gen, m, poly)
    else:
        while not gd[-1]:
            gd.pop()
        x = one
        for k in range(n):
            exp[k] = _undigits(x, p)
            x = _mulmod_digits(x, gd, p, modulus)
    log = array("H", [0]) * q
    for k, v in enumerate(exp):
        log[v] = k
    if log[1] != 0:  # g^k = 1 for some 0 < k < q - 1: the tables would be wrong
        raise AssertionError(f"element {gen} does not generate F_{q}*")
    zech = None
    if p > 2 and m > 1:
        zech = array("i", [0]) * n
        for k, v in enumerate(exp):
            # 1 + g^k: add one to the constant digit
            w = v - v % p + (v + 1) % p
            zech[k] = log[w] if w else -1
    return gen, exp, log, zech


class FqContext:
    """The finite field F_q with a deterministic modulus and generator.

    The modulus is the first monic irreducible of its degree over the
    coefficient field in the order of `_first_irreducible`, except that
    an extension of a flat context takes the first irreducible binomial
    X^r + c when there is one. So two contexts with the same parameters
    behave identically. A flat context (base None) builds its generator,
    the smallest element of full multiplicative order, and its exp/log
    tables on construction. A tower has no generator (None) and no
    discrete log.
    """

    def __init__(self, p, m, base, modulus):
        self.p = p
        self.m = m
        self.base = base
        self.mtot = m * (base.mtot if base is not None else 1)
        self.q = p ** self.mtot
        self.qbase = p ** (base.mtot if base is not None else 1)
        self.modulus = modulus
        self._n = self.q - 1
        self.generator = None
        self._ext_cache = {}
        if base is None:
            self._cls = _BinaryElem if p == 2 else _PrimeElem if m == 1 else FqElem
            gen, self._exp, self._log, self._zech = _flat_tables(p, m, modulus)
            self.generator = self._cls(self, gen)

    # -- element constructors --

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, i):
        """The i-th element in canonical order, 0 <= i < q."""
        if self.base is None:
            return self._cls(self, i % self.q)
        return _TowerElem(self, tuple(map(self.base.from_int, _digits(i, self.qbase, self.m))))

    def elem_to_int(self, a):
        if self.base is None:
            return a.v
        return _undigits([self.base.elem_to_int(c) for c in a.v], self.qbase)

    def lift(self, a):
        """Embed an element of the base context (a tower constant)."""
        if self.base is None or a.ctx is not self.base:
            raise DomainError("lift requires an element of the base context")
        return _TowerElem(self, (a,) + (self.base.zero(),) * (self.m - 1))

    def elements(self):
        for i in range(self.q):
            yield self.from_int(i)

    def extension(self, r):
        """The tower context of degree r over this one (cached)."""
        if r == 1:
            return self
        if r in self._ext_cache:
            return self._ext_cache[r]
        if r < 1:
            raise DomainError("extension degree must be positive")
        if r * self.mtot > MAX_TOWER_DEG:
            raise DomainError(
                f"extension degree {r * self.mtot} over F_{self.p} exceeds cap {MAX_TOWER_DEG}")
        # a binomial X^r + c is decided by the discrete log of -c alone, with no
        # irreducibility test
        modulus = self._binomial_modulus(r) if self.base is None else None
        if modulus is None:
            modulus = tuple(map(self.from_int, _first_irreducible(self, r)))
        self._ext_cache[r] = ctx = FqContext(self.p, r, self, modulus)
        return ctx

    def _binomial_modulus(self, r):
        """Low-first coefficients of the first irreducible X^r + c, or None.

        X^r - a with a of order e is irreducible iff every prime l | r
        divides e but not (q - 1)/e, and q = 1 mod 4 when 4 | r
        (Lidl-Niederreiter, Thm 3.75). Once every l divides q - 1, the order
        condition says that l does not divide dlog a, so the discrete log of
        -c decides each candidate. Needs the discrete log of a flat context.
        """
        primes = list(factor_int(r))
        # each l must divide an order e | q - 1, so some l prime to q - 1 rules out every c
        if (r % 4 == 0 and self.q % 4 != 1) or any((self.q - 1) % l for l in primes):
            return None
        for c in range(1, self.q):
            d = self.dlog(-self.from_int(c))
            if all(d % l for l in primes):
                return (self.from_int(c),) + (self.zero(),) * (r - 1)
        return None

    def dlog(self, a):
        """Discrete log of a nonzero element base the generator of a flat context."""
        if self.base is not None:
            raise DomainError(f"the tower {self!r} has no generator to take logs to")
        if a.is_zero():
            raise DomainError("dlog of zero")
        return self._log[a.v]

    def __repr__(self):
        if self.base is None:
            return f"F_{self.p}^{self.mtot}" if self.mtot > 1 else f"F_{self.p}"
        return f"{self.base!r}[^{self.m}]"


def _first_irreducible(ctx, r):
    """Indices (c_0, ..., c_{r-1}) of the first monic irreducible of degree r.

    The candidates X^r + c_{r-1} X^{r-1} + ... + c_0 over ctx are walked with
    their index tuples in lexicographic order from c_0 = 1, since X divides the rest.
    """
    one = ctx.one()
    for tail in itertools.product(range(1, ctx.q), *[range(ctx.q)] * (r - 1)):
        if is_irreducible(FqPoly(ctx, tuple(map(ctx.from_int, tail)) + (one,))):
            return tail


def power_exceeds(q, k, cap):
    """Whether q^k > cap for q >= 2, k >= 0; a k at or past the bit length of
    cap settles it before q^k is built."""
    return k >= cap.bit_length() or q ** k > cap


_CTX_CACHE = {}


def make_context(p, m):
    """Construct F_{p^m} with the canonical modulus and generator.

    The modulus is the first monic irreducible of degree m over F_p in
    the order of `_first_irreducible`, and the generator the smallest
    element of order p^m - 1, making all downstream output reproducible.
    """
    if not isinstance(p, int) or not isinstance(m, int):
        raise DomainError("p and m must be integers")
    if m < 1:
        raise DomainError("m must be at least 1")
    if power_exceeds(p, m, MAX_Q):
        raise DomainError(f"q = {p}^{m} exceeds cap {MAX_Q}")
    if p < 2 or factor_int(p) != {p: 1}:
        raise DomainError(f"{p} is not prime")
    if (p, m) not in _CTX_CACHE:
        modulus = (0,) if m == 1 else _first_irreducible(make_context(p, 1), m)
        _CTX_CACHE[p, m] = FqContext(p, m, None, modulus)
    return _CTX_CACHE[p, m]


class FqPoly:
    """Dense polynomial over an FqContext, low degree first, no trailing zeros."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, tuple(ctx.from_int(i % ctx.q) for i in ints))

    @classmethod
    def const(cls, ctx, a):
        return cls(ctx, (a,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero(), ctx.one()))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one()

    def __eq__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FqPoly(self.ctx, tuple(out))

    def __neg__(self):
        return FqPoly(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FqPoly(self.ctx, ())
        zero = self.ctx.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return FqPoly(self.ctx, tuple(out))

    def scale(self, a):
        return FqPoly(self.ctx, tuple(a * c for c in self.coeffs))

    def divrem(self, other):
        if other.is_zero():
            raise DomainError("division by zero polynomial")
        if self.degree < other.degree:
            return FqPoly(self.ctx, ()), self
        # a monic divisor needs no inverse: in a tower that is an extended
        # Euclid, and every gcd, squarefree part and modulus here is monic
        inv_lead = None if other.is_monic else other.leading.inverse()
        rem = list(self.coeffs)
        qt = [self.ctx.zero()] * (self.degree - other.degree + 1)
        db = other.degree
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            f = c if inv_lead is None else c * inv_lead
            qt[i - db] = f
            for j in range(db + 1):
                rem[i - db + j] = rem[i - db + j] - f * other.coeffs[j]
        return FqPoly(self.ctx, tuple(qt)), FqPoly(self.ctx, tuple(rem))

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def __pow__(self, e):
        return _power(self, e, FqPoly.const(self.ctx, self.ctx.one()), operator.mul)

    def monic(self):
        if self.is_zero() or self.is_monic:
            return self
        return self.scale(self.leading.inverse())

    def derivative(self):
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(c * self.ctx.from_int(i % self.ctx.p))
        return FqPoly(self.ctx, tuple(out))

    def sort_key(self):
        return (self.degree, tuple(map(self.ctx.elem_to_int, self.coeffs)))

    def __repr__(self):
        if self.ctx.base is not None:  # tower constants have no g^k name
            return f"FqPoly({self.ctx!r}, {self.coeffs!r})"
        return f"FqPoly({render_poly(self)!r})"


def poly_gcd(a, b):
    """Monic gcd of two polynomials over the same context."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def powmod(base, e, mod):
    """base**e mod `mod` by square and multiply, e >= 0."""
    return _power(base % mod, e, FqPoly.const(base.ctx, base.ctx.one()),
                  lambda a, b: a * b % mod)


def _distinct_degree(f):
    """Yield (d, g), g the product of squarefree f's degree-d irreducible
    factors; once 2d exceeds the degree of the rest, last (deg rest, rest).

    Step d takes x^(q^d) mod rest from x^(q^(d-1)) by a powmod by q, until
    the powmods so far have cost deg rest products. From the next step on
    it is one linear combination of a table of x^(q*j) mod rest, j < deg
    rest, since h^q = sum h_j x^(q*j) for h over F_q (von zur Gathen-Shoup
    1992). The table costs deg rest products, so a call that ends after one
    step never builds it.
    """
    ctx = f.ctx
    x = FqPoly.x(ctx)
    xp = xq = x
    rem = f
    rows = None
    d = 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            yield rem.degree, rem
            return
        # the d - 1 steps so far were powmods of bits(q) + popcount(q) products
        if (rows is None and d > 1
                and (d - 1) * (ctx.q.bit_length() + bin(ctx.q).count("1")) >= rem.degree):
            xq = xq % rem  # x^q mod the rest at step 1, which rem divides
            rows = [FqPoly.const(ctx, ctx.one()), xq]
            while len(rows) < rem.degree:
                rows.append(rows[-1] * xq % rem)
        if rows is None:
            xp = powmod(xp, ctx.q, rem)
            if d == 1:
                xq = xp
        else:
            out = [ctx.zero()] * rem.degree
            for c, row in zip(xp.coeffs, rows):
                if not c.is_zero():
                    for i, r in enumerate(row.coeffs):
                        out[i] = out[i] + c * r
            xp = FqPoly(ctx, tuple(out))
        g = poly_gcd(xp - x, rem)
        if g.degree > 0:
            yield d, g
            rem = (rem // g).monic()
            xp = xp % rem
            if rows is not None:
                rows = [row % rem for row in rows[:rem.degree]]


def is_irreducible(f):
    """Whether the first distinct-degree yield has d = deg f: a reducible f,
    squarefree or not, has a factor of degree <= deg f / 2. Its d, not the
    degree of its g, decides, since a split f yields (1, f)."""
    if f.degree < 1:
        raise DomainError("irreducibility is defined for non-constant polynomials")
    return next(_distinct_degree(f))[0] == f.degree


class Factorization(namedtuple("Factorization", "unit factors")):
    """unit * prod(poly^mult); factors monic irreducible, canonically sorted."""

    __slots__ = ()

    def degree_multiset(self):
        out = []
        for g, mult in self.factors:
            out.extend([g.degree] * mult)
        return sorted(out)


def _pth_root(f):
    ctx = f.ctx
    p = ctx.p
    root_exp = ctx.q // p  # c^(q/p) is the p-th root of c
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f.coeffs[i] ** root_exp)
    return FqPoly(ctx, tuple(out))


def _squarefree_parts(f):
    """Decompose monic f into pairwise coprime squarefree parts with multiplicities."""
    ctx = f.ctx
    parts = []
    e = 1
    while f.degree > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = _pth_root(f)
            e *= ctx.p
            continue
        c = poly_gcd(f, fp)
        w = (f // c).monic()
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, c)
            z = (w // y).monic()
            if z.degree > 0:
                parts.append((z, i * e))
            w = y
            c = (c // y).monic()
            i += 1
        f = c
    return parts


def _edf_split(g, d, rng):
    """Split a product of distinct degree-d irreducibles (Cantor-Zassenhaus).

    Yields each factor as its branch of the splitting tree ends, left branch
    first, so next() runs one descent and draws only what that descent needs.
    """
    ctx = g.ctx
    if g.degree == d:
        yield g
        return
    one = FqPoly.const(ctx, ctx.one())
    while True:
        h = FqPoly(ctx, tuple(ctx.from_int(rng.randrange(ctx.q)) for _ in range(g.degree)))
        if h.degree < 1:
            continue
        s = poly_gcd(h, g)
        if not 0 < s.degree < g.degree:
            if ctx.p == 2:
                # trace map to F_2 over all Frobenius steps of F_{q^d}
                t = h
                acc = h
                for _ in range(ctx.mtot * d - 1):
                    t = (t * t) % g
                    acc = acc + t
            else:
                acc = powmod(h, (ctx.q ** d - 1) // 2, g) - one
            s = poly_gcd(acc, g)
        if 0 < s.degree < g.degree:
            yield from _edf_split(s, d, rng)
            yield from _edf_split((g // s).monic(), d, rng)
            return


def factor(f):
    """Complete factorization into a unit times monic irreducibles.

    Distinct-degree then equal-degree splitting. The factors are sorted by
    sort_key, so the random draws of the splitting step change only the
    time a call takes; every call draws from random.Random(0), so that time
    too is the same on every run.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    if f.degree > MAX_POLY_DEG:
        raise DomainError(f"degree {f.degree} exceeds cap {MAX_POLY_DEG}")
    unit = f.leading
    if f.degree == 0:
        return Factorization(unit, ())
    rng = random.Random(0)
    found = []
    for sqfree, mult in _squarefree_parts(f.monic()):
        for d, g in _distinct_degree(sqfree):
            found.extend((irr, mult) for irr in _edf_split(g, d, rng))
    found.sort(key=lambda fm: fm[0].sort_key())
    return Factorization(unit, tuple(found))


def is_eth_power(gamma, e, s=1):
    """Whether gamma in F_Q* is an e-th power in F_{Q^s}, via one exponentiation.

    With N = Q^s - 1 that holds iff gamma^gcd(Q - 1, N/gcd(e, N)) = 1. The
    exponent is read off R = N mod e(Q - 1): gcd(e, N) = gcd(e, R) = g, and
    N/g = R/g mod Q - 1, so Q^s itself is never built. At s = 1 it is
    (Q - 1)/gcd(e, Q - 1).
    """
    if gamma.is_zero():
        raise DomainError("gamma must be nonzero")
    if e < 1:
        raise DomainError("e must be positive")
    n = gamma.ctx.q - 1
    rest = (pow(n + 1, s, e * n) - 1) % (e * n)
    return gamma ** gcd(n, rest // gcd(e, rest)) == gamma.ctx.one()


def monic_polys(ctx, degree):
    """All monic polynomials of the given degree, in canonical order."""
    one = ctx.one()
    for tail in itertools.product(range(ctx.q), repeat=degree):
        yield FqPoly(ctx, tuple(ctx.from_int(c) for c in tail) + (one,))


# -- literal parsing and rendering --
#
# Grammar (whitespace ignored):
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*'? factor)*     ('*' omitted only before NAME or '(')
#   factor := '-'* atom ('^' INT)?
#   atom   := INT | NAME | '(' expr ')'
# so "2T" and "T^2(T+1)" are products. NAME 'g' is the context generator;
# any other single letter is the polynomial variable. A constant is thus an
# integer, g or g^k, the forms render_element prints.


class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                try:
                    val = int(text[i:j])
                except ValueError:  # over the interpreter's digit limit, or a digit like '²'
                    raise ParseError(f"bad integer literal at position {i}") from None
                self.toks.append(("int", val))
                i = j
            elif ch.isalpha():
                self.toks.append(("name", ch))
                i += 1
            elif ch in "+-*^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        t = self.toks[self.pos]
        self.pos += 1
        return t


class _PolyParser:
    def __init__(self, ctx, text):
        self.ctx = ctx
        self.toks = _Tokens(text)
        self.var = None

    def parse(self):
        out = self._expr()
        if self.toks.peek() is not None:
            raise ParseError("trailing input after expression")
        return out

    def _expr(self):
        acc = self._term()
        while self.toks.peek() in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self._term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _term(self):
        acc = self._factor()
        while (kind := self.toks.peek()) in ("*", "name", "("):
            if kind == "*":
                self.toks.next()
            rhs = self._factor()
            if (deg := acc.degree + rhs.degree) > MAX_POLY_DEG:
                raise ParseError(f"degree {deg} of a product exceeds cap {MAX_POLY_DEG}")
            acc = acc * rhs
        return acc

    def _factor(self):
        neg = False
        while self.toks.peek() == "-":
            self.toks.next()
            neg = not neg
        atom = self._atom()
        if self.toks.peek() == "^":
            self.toks.next()
            kind, val = self.toks.next()
            if kind != "int":
                raise ParseError("exponent must be an integer")
            if atom.degree * val > MAX_POLY_DEG:
                raise ParseError(
                    f"degree {atom.degree * val} of a power exceeds cap {MAX_POLY_DEG}")
            atom = atom ** val
        return -atom if neg else atom

    def _atom(self):
        kind, val = self.toks.next()
        ctx = self.ctx
        if kind == "int":
            return FqPoly.const(ctx, ctx.from_int(val % ctx.p))
        if kind == "name":
            if val == "g":
                if ctx.mtot == 1:
                    raise ParseError("generator literal 'g' needs an extension field")
                if ctx.generator is None:
                    raise DomainError(f"the tower {ctx!r} has no generator literal 'g'")
                return FqPoly.const(ctx, ctx.generator)
            if self.var is None:
                self.var = val
            elif self.var != val:
                raise ParseError(f"two variables {self.var!r} and {val!r} in one literal")
            return FqPoly.x(ctx)
        if kind == "(":
            inner = self._expr()
            if self.toks.next()[0] != ")":
                raise ParseError("expected ')'")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def parse_poly(ctx, text):
    """Parse a polynomial literal over the context."""
    if not text or not text.strip():
        raise ParseError("empty polynomial literal")
    try:
        return _PolyParser(ctx, text).parse()
    except RecursionError:  # each level of parentheses costs four stack frames
        raise ParseError("parentheses nested too deeply") from None


def parse_element(ctx, text):
    """Parse a constant literal: an integer, g or g^k."""
    poly = parse_poly(ctx, text)
    if poly.degree > 0:
        raise ParseError(f"{text!r} is not a constant")
    return poly.coeffs[0] if poly.coeffs else ctx.zero()


def render_element(a):
    """Canonical string: prime-subfield values as integers, else g^k."""
    ctx = a.ctx
    i = ctx.elem_to_int(a)
    if i < ctx.p:
        return str(i)
    k = ctx.dlog(a)
    return "g" if k == 1 else f"g^{k}"


def render_poly(f):
    """Canonical polynomial string, highest degree first."""
    if f.is_zero():
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c.is_zero():
            continue
        cs = render_element(c)
        if i == 0:
            terms.append(cs)
        else:
            xs = "T" if i == 1 else f"T^{i}"
            terms.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(terms)
