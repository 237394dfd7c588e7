"""Exact arithmetic in Z[v, v^-1] and its fraction field.

Laurent polynomials are stored sparsely as {exponent: coefficient} with
integer exponents and int coefficients; LaurentPoly rejects any other
coefficient.  Every rational constant lives in a RatFunc, kept in a
canonical form so that equality is literal comparison of numerator and
denominator:

  * numerator and denominator are integer Laurent polynomials;
  * the denominator has no negative exponents, a nonzero constant term and
    a positive leading coefficient;
  * numerator and denominator share no factor in Z[v, v^-1], constants
    included.

A monic integer denominator over an integer numerator is already in this
form.  It is computed on integers, as the one-row case of the canonical
form of a linear combination below: the monomial and the sign of the
denominator move into the numerator, and one reduction divides out the
common factor.

Elements of the algebras built on top (Hecke, TL_n, TL_W) are LinComb
subclasses: integer Laurent rows, one per basis key, over one common
denominator polynomial D, in a canonical form (D normalised as a RatFunc
denominator, and no factor common to D and every row), so that equality
is literal comparison of rows and D.  The product kernels (Hecke, TL_n
diagrams, TL_W) take and return rows over D.  Inside a kernel a
polynomial is one Python integer in the signed Kronecker packing (_pack,
_unpack, _unpacked, _width below), and a sum or product of polynomials
one big-integer operation; each result is reduced once (_reduced, through
_divided): the heuristic gcd of Char, Geddes and Gonnet at one point 2^b,
on a random integer combination of the packed rows, and exact integer
divisions whose quotients a bound makes conclusive.  When that one test
is inconclusive, a primitive remainder sequence finds the same gcd.  A
coefficient becomes a RatFunc only when LinComb.coeffs is first read,
each row reduced there as a one-row combination.

The ring involution used throughout is bar (v -> v^-1).
Quantum integers are balanced: [n] = v^(n-1) + v^(n-3) + ... + v^(1-n),
so [2] = v + v^-1 and [3] = v^2 + 1 + v^-2.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, Mapping


class LaurentPoly:
    """A Laurent polynomial in v with integer coefficients.

    >>> v = LaurentPoly.gen()
    >>> (v + v**-1) * (v - v**-1)
    v^2 - v^-2
    >>> quantum_int(3)
    v^2 + 1 + v^-2
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        t: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int:
                    raise TypeError(f"LaurentPoly exponents are ints, not {type(e).__name__}")
                if type(c) is not int:
                    raise TypeError(f"LaurentPoly coefficients are ints, not {type(c).__name__}")
                if c:
                    t[e] = c
        self._terms = t
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def gen(cls, exponent: int = 1) -> "LaurentPoly":
        """The monomial v^exponent."""
        return cls({exponent: 1})

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self._terms)
        for e, c in other._terms.items():
            t[e] = t.get(e, 0) + c
        return _wrap(t)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "LaurentPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object):
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        t: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                t[e] = t.get(e, 0) + c1 * c2
        return _wrap(t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                ((e, c),) = self._terms.items()
                if c in (1, -1):
                    return _wrap({e * n: c**-n})
            raise ValueError("negative powers are defined only for the units +-v^k")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other: object) -> "RatFunc":
        return RatFunc(self).__truediv__(other)

    def __rtruediv__(self, other: object) -> "RatFunc":
        return RatFunc(self).__rtruediv__(other)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial v^k."""
        return _wrap({e + k: c for e, c in self._terms.items()})

    def scale(self, c: int) -> "LaurentPoly":
        """Multiply by the integer c."""
        if type(c) is not int:
            raise TypeError(f"LaurentPoly scales by ints, not {type(c).__name__}")
        return _wrap({e: x * c for e, x in self._terms.items()})

    # -- involutions -------------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return _wrap({-e: c for e, c in self._terms.items()})

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        """A constant hashes as the number it equals."""
        if self._hash is None:
            t = self._terms
            self._hash = hash(t.get(0, 0)) if t.keys() <= {0} else hash(tuple(sorted(t.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            if e == 0:
                mono = str(abs(c))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                ac = abs(c)
                mono = vpow if ac == 1 else f"{ac}*{vpow}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, mono))
        first_sign, first_mono = parts[0]
        out = ("-" if first_sign == "-" else "") + first_mono
        for sign, mono in parts[1:]:
            out += f" {sign} {mono}"
        return out

    # -- serialization -----------------------------------------------------

    def to_triples(self) -> list[list[int]]:
        """[exponent, coefficient, 1] rows, exponents strictly decreasing:
        the [exponent, numerator, denominator] rows of the documents."""
        return [[e, self._terms[e], 1] for e in sorted(self._terms, reverse=True)]

    @classmethod
    def from_triples(cls, rows) -> "LaurentPoly":
        """The inverse of to_triples; ValueError on a coefficient that is
        not an integer."""
        p, m = _from_rows(rows)
        if m != 1:
            raise ValueError("Laurent polynomial rows with a non-integer coefficient")
        return p


def _wrap(t: dict[int, int]) -> LaurentPoly:
    """The LaurentPoly of int coefficients t, zeros dropped, unchecked."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e: c for e, c in t.items() if c}
    p._hash = None
    return p


def _as_poly(x: object):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return NotImplemented


def _from_rows(rows) -> tuple[LaurentPoly, int]:
    """(p, m) with p / m the Laurent polynomial of [exponent, numerator,
    denominator] rows, exponents strictly decreasing: m is the lcm of the
    coefficient denominators, and p is integral."""
    coeffs: dict[int, Fraction] = {}
    prev = None
    for e, num, den in rows:
        if prev is not None and e >= prev:
            raise ValueError("exponents must be strictly decreasing")
        prev = e
        coeffs[e] = Fraction(num, den)
    m = math.lcm(*(c.denominator for c in coeffs.values()))
    return LaurentPoly({e: c.numerator * (m // c.denominator) for e, c in coeffs.items()}), m


# -- integer polynomial kernel (helpers of the reduction) ----------------------
#
# A polynomial here is a list of ints, constant term first.  A nonzero
# Laurent polynomial p splits as p = c v^k f(v), with c its integer content
# (signed) and f primitive: integer coefficients with gcd 1, a positive
# leading coefficient and a nonzero constant term.  By Gauss's lemma a
# primitive divisor of an integer polynomial divides it over Z, so gcds and
# exact quotients of primitive polynomials never leave the integers, and
# c v^k f divides c' v^k' f' in Z[v, v^-1] exactly when c | c' and f | f'.

def _split(terms: Mapping[int, int]) -> tuple[int, int, list[int]]:
    """(c, k, f) with sum_e terms[e] v^e = c v^k f(v) and f primitive.
    terms must be nonzero."""
    k = min(terms)
    f = [0] * (max(terms) - k + 1)
    for e, c in terms.items():
        f[e - k] = c
    p = _primitive(f)
    return f[-1] // p[-1], k, p


def _primitive(f: list[int]) -> list[int]:
    """f with its top zeros dropped, divided by its content, leading
    coefficient made positive."""
    while not f[-1]:
        f.pop()
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return f if c == 1 else [a // c for a in f]


def _exact_quotient(f: list[int], g: list[int]) -> list[int]:
    """f / g over Z; ArithmeticError when g does not divide f there."""
    n = len(g) - 1
    top = len(f) - 1 - n
    r = list(f)
    lead = g[-1]
    q = [0] * (top + 1)  # empty when f is shorter than g: then r = f is the remainder
    for i in range(top, -1, -1):
        c, rem = divmod(r[i + n], lead)
        if rem:
            raise ArithmeticError("polynomial division by a non-divisor")
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] -= c * g[j]
    if any(r[:n]):
        raise ArithmeticError("polynomial division by a non-divisor")
    return q


def _eval(f: list[int], k: int) -> int:
    """f(2^k)."""
    n = 0
    for c in reversed(f):
        n = (n << k) + c
    return n


def _digits(n: int, k: int) -> list[int]:
    """The balanced base-2^k digits of n, least significant first."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while n:
        c = n & mask
        if c >= half:
            c -= 1 << k
        out.append(c)
        n = (n - c) >> k
    return out


def _prs_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of two primitive polynomials by the primitive
    remainder sequence: pseudo-divide, keep the primitive part, repeat."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r, n, lead = list(f), len(g) - 1, g[-1]
        while len(r) > n:
            c, top = r[-1], len(r) - 1 - n
            r = [lead * a for a in r]
            for j, b in enumerate(g, top):
                r[j] -= c * b
            while r and not r[-1]:
                r.pop()
        if not r:
            return g
        f, g = g, _primitive(r)
    return [1]


def _laurent(c: int, k: int, f: list[int]) -> LaurentPoly:
    """c v^k f(v)."""
    return _wrap({k + i: c * a for i, a in enumerate(f) if a})


# -- signed Kronecker packing -------------------------------------------------
#
# One integer holds one integer Laurent polynomial: sum_e c_e v^e becomes
# sum_e c_e 2^(b (e - off)) for a digit width b and an exponent offset off.
# Sums, shifts and products of polynomials become single big-integer
# operations, and balanced digits read the result back exactly while every
# |c_e| < 2^(b-1), borrows between signed digits included.  A caller
# bounds every coefficient it can produce and takes b = _width(bound).

_B = 32  # the base digit width


def _width(bound: int) -> int:
    """The digit width for signed coefficients of absolute value at most
    bound: _B while bound < 2^(_B-1), doubled until it fits."""
    b = _B
    while bound >= 1 << (b - 1):
        b *= 2
    return b


def _pack(d: Mapping[int, int], off: int, b: int) -> int:
    """Signed Kronecker packing: sum_e d[e] v^e as sum_e d[e] 2^(b (e - off))
    (every e >= off)."""
    p = 0
    for e, c in d.items():
        p += c << (b * (e - off))
    return p


def _unpack(p: int, off: int, b: int, bound: int) -> dict[int, int]:
    """The inverse of _pack by balanced digits, exact when every coefficient
    has absolute value at most bound < 2^(b-1).  A digit above bound, which
    a true bound never allows, raises OverflowError."""
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    out = {}
    e = off
    while p:
        c = p & mask
        if c >= half:
            c -= 1 << b
        if c:
            if abs(c) > bound:
                raise OverflowError("packed-polynomial digit overflow")
            out[e] = c
            p -= c
        p >>= b
        e += 1
    return out


def _unpacked(vec: Mapping[object, int], off: int, bound: int) -> list[tuple[object, dict]]:
    """[(k, {exp: int})] for the nonzero entries of a vector of polynomials
    packed at offset off and width _width(bound)."""
    b = _width(bound)
    return [(k, _unpack(p, off, b, bound)) for k, p in vec.items() if p]


class RatFunc:
    """A rational function in v over Q, kept in canonical form.

    >>> v = LaurentPoly.gen()
    >>> f = (v**2 + 1 + v**-2) / (v + v**-1)
    >>> f.num
    v^3 + v + v^-1
    >>> f.den
    v^2 + 1
    >>> f * (v + v**-1) == v**2 + 1 + v**-2
    True
    >>> g = v / (2*v + 2)
    >>> g.num, g.den
    (v, 2*v + 2)
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly | int, den: LaurentPoly | int = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc expects Laurent polynomials or ints")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(1)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def as_poly(self) -> LaurentPoly:
        if not self.den.is_one:
            raise ValueError(f"not a Laurent polynomial: {self!r}")
        return self.num

    # -- field operations ----------------------------------------------------

    def __add__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one and other.den.is_one:
            return _ratfunc(self.num * other.num, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "RatFunc":
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- involutions ---------------------------------------------------------

    def bar(self) -> "RatFunc":
        return RatFunc(self.num.bar(), self.den.bar())

    # -- comparisons, hashing, display ----------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        """Equal values hash equal: a polynomial as its numerator, a
        rational constant as the Fraction it equals."""
        if self._hash is None:
            n, d = self.num._terms, self.den._terms
            if d == {0: 1}:
                self._hash = hash(self.num)
            elif n.keys() == d.keys() == {0}:
                self._hash = hash(Fraction(n[0], d[0]))
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __repr__(self) -> str:
        if self.den.is_one:
            return repr(self.num)
        ns = repr(self.num)
        if len(self.num._terms) > 1:
            ns = f"({ns})"
        return f"{ns}/({self.den!r})"

    # -- serialization -------------------------------------------------------

    def to_triples(self) -> dict[str, list[list[int]]]:
        return {"num": self.num.to_triples(), "den": self.den.to_triples()}

    @classmethod
    def from_triples(cls, doc) -> "RatFunc":
        """The inverse of to_triples.  Rows with rational coefficients
        are accepted: each side is cleared to one integer scale."""
        (num, a), (den, b) = _from_rows(doc["num"]), _from_rows(doc["den"])
        return cls(num.scale(b), den.scale(a))


def _ratfunc(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """The RatFunc num / den of a pair already in canonical form."""
    r = RatFunc.__new__(RatFunc)
    r.num = num
    r.den = den
    r._hash = None
    return r


def _as_rat(x: object):
    """x as a RatFunc; the one entry point for Fraction scalars."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RatFunc(x)
    if isinstance(x, Fraction):
        return RatFunc(x.numerator, x.denominator)
    return NotImplemented


def _canonicalize(num: LaurentPoly, den: LaurentPoly):
    """Reduce num/den to the canonical representative described above."""
    if num.is_zero:
        return LaurentPoly.zero(), LaurentPoly.one()
    if den.is_one:
        return num, den
    # den = cd v^kd g with g primitive: v^-kd and the sign of cd move into
    # the one row (packed at offset off - kd, negated when cd < 0), which
    # is then reduced over the normalised |cd| g
    cd, kd, g = _split(den._terms)
    vec, off, bound = _packed({0: num._terms})
    b = _width(bound)
    p = vec[0] if cd > 0 else -vec[0]
    rows, den = _divided({0: p}, off - kd, b, bound, abs(cd), g, _eval(g, b), {})
    return _wrap(rows[0]), den


# -- linear combinations -----------------------------------------------------
#
# A linear combination holds integer rows over one common denominator: the
# coefficient of key k is rows[k] / den, rows[k] a nonzero integer Laurent
# polynomial {exp: int} and den a LaurentPoly, in a canonical form:
#
#   * den is normalised as a RatFunc denominator is: no negative exponents,
#     a nonzero constant term and a positive leading coefficient;
#   * den shares no factor with all the rows at once, contents included.
#
# So den is the lcm of the reduced coefficient denominators, and equal
# combinations have equal rows and den.  One rule builds den: every
# combination starts over the product of its distinct denominators and is
# reduced once, on packed integers (_reduced).

_ONE = LaurentPoly.one()
_MIX = random.Random(1989)  # multipliers of the row combination in _heu_divided


def _packed(rows: Mapping[object, Mapping[int, int]]) -> tuple[dict, int, int]:
    """(packed, off, bound) for rows {k: {exp: int}}: bound is the largest
    |coefficient|, off the smallest exponent, and each row is packed at
    offset off and width _width(bound)."""
    bound = max((abs(c) for d in rows.values() for c in d.values()), default=0)
    off = min((e for d in rows.values() for e in d), default=0)
    b = _width(bound)
    return {k: _pack(d, off, b) for k, d in rows.items()}, off, bound


def _heu_divided(vec: dict, off: int, b: int, bound: int, g: list[int], gx: int, quotients: dict):
    """(g / h, {k: row / h}) for the primitive gcd h of g and every row,
    found on the packed integers of _divided at xi = 2^b, with gx = g(xi);
    None when this test is inconclusive.  quotients memoises g / h by h
    for the caller, who keeps it while g stays the same.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 1989) on g and R,
    the one row or a random integer combination of the rows, gives a
    candidate h, read off the balanced digits of gcd(g(xi), R(xi)).  It
    must divide g, and each row's packed integer must divide by h(xi).  An
    exact integer division is conclusive when ||h||_1 ||q||_inf < xi/2 for
    the quotient q read by balanced digits: then h q and the row have the
    same balanced digits at xi, so h q is the row.  A candidate that
    divides g and every row divides R, so it is gcd(g, R) (xi >= 2
    ||g||_inf + 2), which every common divisor of g and the rows divides."""
    if 2 * max(map(abs, g)) + 2 > 1 << b:
        return None
    if len(vec) == 1:
        (r,) = vec.values()
    else:
        bits = _MIX.getrandbits
        r = sum((bits(16) | 1) * p for p in vec.values())
    h = _primitive(_digits(math.gcd(gx, r), b))
    if len(h) == 1:
        return g, {k: _unpack(p, off, b, bound) for k, p in vec.items()}
    gq = quotients.get(tuple(h))
    if gq is None:
        try:
            gq = quotients[tuple(h)] = _exact_quotient(g, h)
        except ArithmeticError:
            return None
    hx = _eval(h, b)
    qbound = ((1 << (b - 1)) - 1) // sum(map(abs, h))
    rows = {}
    for k, p in vec.items():
        q, r = divmod(p, hx)
        if r:
            return None
        try:
            rows[k] = _unpack(q, off, b, qbound)
        except OverflowError:
            return None
    return gq, rows


def _divided(vec: Mapping[object, int], off: int, b: int, bound: int, cd: int, g: list[int], gx: int, quotients: dict):
    """The canonical (rows, den) of sum_k vec[k] k / (cd g): vec maps keys
    to nonzero integer polynomials packed at offset off and width b =
    _width(bound), every |coefficient| at most bound; cd > 0, g is
    primitive, gx = g(2^b), and quotients is _heu_divided's memo of g / h.

    The common factor c h is divided out of cd g and the rows: h, the
    primitive gcd of g and every row, by _heu_divided, or when that is
    inconclusive by _prs_gcd row by row and _exact_quotient; c, the gcd
    of cd and the contents, by integer gcds."""
    found = _heu_divided(vec, off, b, bound, g, gx, quotients)
    if found is None:
        rows = {k: _unpack(p, off, b, bound) for k, p in vec.items()}
        h = g
        for r in rows.values():
            if len(h) == 1:
                break
            h = _prs_gcd(h, _split(r)[2])
        if len(h) > 1:
            for k, r in rows.items():
                c, e, f = _split(r)
                rows[k] = _laurent(c, e, _exact_quotient(f, h))._terms
            g = _exact_quotient(g, h)
    else:
        g, rows = found
    c = cd
    for r in rows.values():
        if c == 1:
            break
        c = math.gcd(c, *r.values())
    if c > 1:
        rows = {k: {e: a // c for e, a in r.items()} for k, r in rows.items()}
    return rows, _laurent(cd // c, 0, g)


def _reduced(vec: Mapping[object, int], off: int, bound: int, den: LaurentPoly) -> tuple[dict, LaurentPoly]:
    """The canonical (rows, den) of sum_k vec[k] k / den: vec maps keys to
    integer polynomials packed at offset off and width _width(bound), every
    |coefficient| at most bound, and den is normalised.  Zero entries are
    dropped, and _divided reduces the rest."""
    b = _width(bound)
    vec = {k: p for k, p in vec.items() if p}
    if den.is_one or not vec:
        return {k: _unpack(p, off, b, bound) for k, p in vec.items()}, _ONE
    cd, _, g = _split(den._terms)
    return _divided(vec, off, b, bound, cd, g, _eval(g, b), {})


def _canonical(rows: Mapping[object, Mapping[int, int]], den: LaurentPoly) -> tuple[dict, LaurentPoly]:
    """The canonical (rows, den) of sum_k rows[k] k / den for integer rows
    {exp: int} and a normalised den."""
    return _reduced(*_packed(rows), den)


def _combined(parts, den: LaurentPoly) -> tuple[dict, LaurentPoly]:
    """The canonical (rows, den) of sum f rows / den over the (rows, f)
    pairs in the sequence parts, for integer rows {k: {exp: int}}, integer
    polynomials f {exp: int} and a normalised den: every row and f packed
    at one width, under the bound sum ||f||_1 ||rows||_inf, multiplied and
    summed as big integers, and reduced once."""
    bound = sum(sum(map(abs, f.values())) * max((abs(c) for r in rows.values() for c in r.values()), default=0)
                for rows, f in parts)
    off_r = min((e for rows, _ in parts for r in rows.values() for e in r), default=0)
    off_f = min((e for _, f in parts for e in f), default=0)
    b = _width(bound)
    acc: dict = {}
    for rows, f in parts:
        pf = _pack(f, off_f, b)
        for k, r in rows.items():
            acc[k] = acc.get(k, 0) + pf * _pack(r, off_r, b)
    return _reduced(acc, off_r + off_f, bound, den)


def _coefficients(rows: Mapping[object, Mapping[int, int]], den: LaurentPoly) -> dict:
    """{k: rows[k] / den} as canonical RatFuncs, each row reduced by
    _divided as a one-row combination.  den is split into its content cd
    and primitive part g once, and g is evaluated once, at the one width
    every row is packed at, and g / h is computed once per candidate gcd
    h.  A row c v^e needs no gcd: g has a nonzero constant term, so only
    the contents cancel."""
    if den.is_one:
        return {k: _ratfunc(_wrap(r), den) for k, r in rows.items()}
    cd, _, g = _split(den._terms)
    vec, off, bound = _packed(rows)
    b = _width(bound)
    gx = _eval(g, b)
    out, quotients = {}, {}
    for (k, r), p in zip(rows.items(), vec.values()):
        if len(r) > 1:
            reduced, d = _divided({0: p}, off, b, bound, cd, g, gx, quotients)
            r = reduced[0]
        else:
            ((e, c),) = r.items()
            t = math.gcd(c, cd)
            r, d = {e: c // t}, _laurent(cd // t, 0, g)
        out[k] = _ratfunc(_wrap(r), d)
    return out


class LinComb:
    """A finite Q(v)-linear combination of basis elements in the canonical
    form above: ``rows`` maps a key to its integer row {exp: int}, ``den``
    is the common denominator (both read-only), and ``coeffs``, the {key:
    RatFunc} mapping, and ``l1``, the sum of |coefficients| over the rows
    that sizes the product kernels' digits, are built on first read and
    memoised.  Immutable by convention.

    The element classes of the three algebras (``HeckeElt``, ``TLElt``,
    ``GTLElt``) inherit the linear structure from here.  A subclass keeps
    what identifies its algebra in its own ``__slots__``, sets it and calls
    ``LinComb.__init__(self, coeffs)``; it defines ``_algebra()``, a value
    identifying the algebra (keys of different algebras never mix), and
    ``_label(key)``, how a key prints.  Keys must be orderable, for a
    deterministic ``repr``.  Kernels return ``_rebuild(rows, den)`` of
    rows and den already in canonical form.
    """

    __slots__ = ("rows", "den", "_coeffs", "_l1")

    def __init__(self, coeffs: Mapping[object, "RatFunc"]):
        """From {key: RatFunc}, grouped by denominator.  Canonical
        coefficients over one denominator are in canonical form already;
        over several, each group times the other denominators is summed
        over their product and reduced once (_combined)."""
        coeffs = {k: c for k, c in coeffs.items() if not c.is_zero}
        groups: dict[LaurentPoly, dict] = {}
        for k, c in coeffs.items():
            groups.setdefault(c.den, {})[k] = c.num._terms
        self.den, self.rows = next(iter(groups.items()), (_ONE, {}))  # the one group, or none
        if len(groups) > 1:
            parts = [(rows, math.prod((e for e in groups if e is not d), start=_ONE)._terms) for d, rows in groups.items()]
            self.rows, self.den = _combined(parts, math.prod(groups, start=_ONE))
        self._coeffs = coeffs
        self._l1 = None

    def _rebuild(self, rows: dict, den: LaurentPoly) -> "LinComb":
        """An element of self's algebra with rows and den in canonical form."""
        out = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(out, name, getattr(self, name))
        out.rows, out.den, out._coeffs, out._l1 = rows, den, None, None
        return out

    @property
    def coeffs(self) -> dict:
        """{key: RatFunc}, every coefficient nonzero and canonical (read-only)."""
        if self._coeffs is None:
            self._coeffs = _coefficients(self.rows, self.den)
        return self._coeffs

    @property
    def l1(self) -> int:
        """The sum of |c| over every integer c of every row (read-only)."""
        if self._l1 is None:
            self._l1 = sum(abs(c) for r in self.rows.values() for c in r.values())
        return self._l1

    def _peer(self, other: object) -> bool:
        """True when other is an element of the same algebra, False when it
        is not an element of this class; ValueError when it is one of a
        different algebra."""
        if type(other) is not type(self):
            return False
        if other._algebra() != self._algebra():
            raise ValueError(
                f"cannot combine {type(self).__name__} elements of different algebras"
            )
        return True

    # -- linear structure: over the product of the denominators, one reduction each ------

    def __add__(self, other: object) -> "LinComb":
        if not self._peer(other):
            return NotImplemented
        a, b = self.den, other.den
        f, g, den = (_ONE, _ONE, a) if a == b else (b, a, a * b)
        return self._rebuild(*_combined(((self.rows, f._terms), (other.rows, g._terms)), den))

    def __neg__(self) -> "LinComb":
        return self._rebuild({k: {e: -c for e, c in r.items()} for k, r in self.rows.items()}, self.den)

    def __sub__(self, other: object) -> "LinComb":
        if not self._peer(other):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = _as_rat(c)
        if c is NotImplemented:
            raise TypeError("a scalar is a RatFunc, LaurentPoly, int or Fraction")
        return self._rebuild(*_combined(((self.rows, c.num._terms),), self.den * c.den))

    def coefficient(self, key) -> RatFunc:
        return self.coeffs.get(key, RatFunc.zero())

    # -- comparisons, hashing, display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._algebra() == other._algebra() and self.den == other.den and self.rows == other.rows

    def __hash__(self) -> int:
        rows = frozenset((k, frozenset(r.items())) for k, r in self.rows.items())
        return hash((self._algebra(), self.den, rows))

    def __repr__(self) -> str:
        if not self.rows:
            return "0"
        return " + ".join(f"({self.coeffs[k]!r})*{self._label(k)}" for k in sorted(self.coeffs))


# -- quantum integers --------------------------------------------------------


def quantum_int(n: int) -> LaurentPoly:
    """The balanced quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^(1-n).

    >>> quantum_int(1)
    1
    >>> quantum_int(2)
    v + v^-1
    """
    if n < 1:
        raise ValueError(f"quantum integer defined for n >= 1, got {n}")
    return _wrap({n - 1 - 2 * i: 1 for i in range(n)})


def quantum_factorial(n: int) -> LaurentPoly:
    """[n]! = [n][n-1]...[1].

    >>> quantum_factorial(3)
    v^3 + 2*v + 2*v^-1 + v^-3
    """
    if n < 1:
        raise ValueError(f"quantum factorial defined for n >= 1, got {n}")
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * quantum_int(k)
    return out


def parity_class(p: LaurentPoly, k: int) -> bool:
    """True when p lies in v^k * Z[v^-2]: every exponent is congruent to k
    mod 2 and bounded above by k.  The zero polynomial qualifies for any k."""
    return all(e <= k and (e - k) % 2 == 0 for e in p._terms)
