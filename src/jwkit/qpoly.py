"""Exact arithmetic in Z[v, v^-1] and its fraction field.

Laurent polynomials are stored sparsely as {exponent: coefficient} with
integer exponents and rational coefficients (plain ints where possible,
fractions.Fraction otherwise).  Rational functions are kept in a canonical
form so that equality is literal comparison of numerator and denominator:

  * the denominator is an honest polynomial (no negative exponents) with a
    nonzero constant term, monic in its top degree;
  * numerator and denominator share no polynomial factor.

The canonical form is computed on integers.  Numerator and denominator are
each split once into a rational content, a monomial and a primitive
integer polynomial.  The gcd of the two primitive parts is the heuristic
gcd of Char, Geddes and Gonnet: evaluate both at 2^k, take one integer
gcd and read the candidate off its balanced digits, accepted only when
integer trial division shows that it divides both.  After a few unlucky
points it falls back to a primitive remainder sequence.  The trial
divisions return the cofactors, the denominator's cofactor is made monic,
and a coefficient is a Fraction only where it is not an integer.

Elements of the algebras built on top (Hecke, TL_n, TL_W) are LinComb
subclasses: sparse maps from basis keys to RatFunc coefficients.  Their
product kernels (Hecke, TL_n diagrams, TL_W) run on integers, and this
module is their one boundary with Q(v).  LinComb.integral is the only
place where coefficients are cleared: it writes an element as one
RatFunc scale times integer Laurent rows.  _rationals is the only place
where kernel integers become RatFunc again: each result is multiplied by
the scale and canonicalised once.  In between, a polynomial is one
Python integer in the signed Kronecker packing (_pack, _unpack,
_unpacked, _width below), and a sum or product of polynomials one
big-integer operation.

The two ring involutions used throughout are bar (v -> v^-1) and the
Koszul sign twist kappa (v -> -v^-1).  Quantum integers are balanced:
[n] = v^(n-1) + v^(n-3) + ... + v^(1-n), so [2] = v + v^-1 and
[3] = v^2 + 1 + v^-2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse integer-valued Fractions to int."""
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """A Laurent polynomial in v with rational coefficients.

    >>> v = LaurentPoly.gen()
    >>> (v + v**-1) * (v - v**-1)
    v^2 - v^-2
    >>> quantum_int(3)
    v^2 + 1 + v^-2
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Coeff] | None = None):
        t: dict[int, Coeff] = {}
        if terms:
            for e, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    t[int(e)] = c
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
    def const(cls, c: Coeff) -> "LaurentPoly":
        return cls({0: c})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, Coeff]]:
        return iter(self._terms.items())

    def coefficient(self, exponent: int) -> Coeff:
        return self._terms.get(exponent, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

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
        return _reduced(t)

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
        t: dict[int, Coeff] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                t[e] = t.get(e, 0) + c1 * c2
        return _reduced(t)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_monomial():
                ((e, c),) = self._terms.items()
                return _wrap({e * n: _norm_coeff(Fraction(1) / Fraction(c) ** (-n))})
            raise ValueError("negative powers only defined for monomials")
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
        if isinstance(other, RatFunc):
            return RatFunc(self, LaurentPoly.one()) / other
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self, other)

    def __rtruediv__(self, other: object) -> "RatFunc":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(other, self)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial v^k."""
        return _wrap({e + k: c for e, c in self._terms.items()})

    def scale(self, c: Coeff) -> "LaurentPoly":
        c = _norm_coeff(c)
        if not c:
            return LaurentPoly.zero()
        return _wrap({e: _norm_coeff(x * c) for e, x in self._terms.items()})

    # -- involutions -------------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return _wrap({-e: c for e, c in self._terms.items()})

    def koszul(self) -> "LaurentPoly":
        """The involution v -> -v^-1.

        >>> two = quantum_int(2)
        >>> two.koszul() == -two
        True
        """
        return _wrap({-e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()})

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({0: _norm_coeff(other)} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
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
                mono = str(abs(c) if isinstance(c, int) else abs(c))
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
        """[exponent, coefficient numerator, coefficient denominator] rows,
        exponents strictly decreasing."""
        rows = []
        for e in sorted(self._terms, reverse=True):
            c = Fraction(self._terms[e])
            rows.append([e, c.numerator, c.denominator])
        return rows

    @classmethod
    def from_triples(cls, rows) -> "LaurentPoly":
        t: dict[int, Coeff] = {}
        prev = None
        for e, num, den in rows:
            if prev is not None and e >= prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = e
            t[e] = Fraction(num, den)
        return cls(t)


def _wrap(t: dict[int, Coeff]) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e: c for e, c in t.items() if c}
    p._hash = None
    return p


def _reduced(t: dict[int, Coeff]) -> LaurentPoly:
    """_wrap for freshly summed coefficients: zeros dropped and integral
    Fractions made ints, with one type test per integer coefficient."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {e: c if type(c) is int else _norm_coeff(c) for e, c in t.items() if c}
    p._hash = None
    return p


def _as_poly(x: object):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return NotImplemented


# -- integer polynomial kernel (helpers for RatFunc canonicalization) ---------
#
# A polynomial here is a list of ints, constant term first.  A Laurent
# polynomial p splits as p = (c / d) * v^k * f(v), with c / d its rational
# content and f primitive: integer coefficients with gcd 1, a positive
# leading coefficient and a nonzero constant term.  By Gauss's lemma a
# primitive divisor of an integer polynomial divides it over Z, so gcds and
# exact quotients of primitive polynomials never leave the integers.

_HEU_TRIES = 6  # heuristic gcd attempts before the remainder sequence


def _split(terms: Mapping[int, Coeff]) -> tuple[int, int, int, list[int]]:
    """(c, d, k, f) with sum_e terms[e] v^e = (c / d) v^k f(v), d > 0 and f
    primitive.  terms must be nonzero."""
    k = min(terms)
    f = [0] * (max(terms) - k + 1)
    d = math.lcm(*(c.denominator for c in terms.values() if type(c) is not int))
    if d == 1:
        for e, c in terms.items():
            f[e - k] = c
    else:
        for e, c in terms.items():
            f[e - k] = c.numerator * (d // c.denominator)
    p = _primitive(f)
    return f[-1] // p[-1], d, k, p


def _primitive(f: list[int]) -> list[int]:
    """f with its top zeros dropped, divided by its content, leading
    coefficient made positive."""
    while not f[-1]:
        f.pop()
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return f if c == 1 else [a // c for a in f]


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


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


def _heu_gcd(f: list[int], g: list[int]):
    """(h, f / h, g / h) with h the primitive gcd of two primitive
    polynomials of positive degree, or None when every attempt failed.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 1989): evaluate
    at xi = 2^k, take the integer gcd and read h off its balanced base-xi
    digits.  With xi >= 2 min(|f|, |g|) + 2 (max norms), a candidate that
    divides both f and g is their gcd; a candidate that does not means an
    unlucky xi, and the next attempt takes a larger one."""
    k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 29).bit_length()
    for _ in range(_HEU_TRIES):
        n = m = 0
        for c in reversed(f):
            n = (n << k) + c
        for c in reversed(g):
            m = (m << k) + c
        n = math.gcd(n, m)
        half, mask = 1 << (k - 1), (1 << k) - 1
        h = []
        while n:
            c = n & mask
            if c >= half:
                c -= 1 << k
            h.append(c)
            n = (n - c) >> k
        h = _primitive(h)
        try:
            return h, _exact_quotient(f, h), _exact_quotient(g, h)
        except ArithmeticError:
            k = k * 3 // 2 + 1
    return None


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


def _poly_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h) with h the primitive gcd of primitive f and g."""
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    if f == g:
        return f, [1], [1]
    out = _heu_gcd(f, g)
    if out is None:
        h = _prs_gcd(f, g)
        out = h, _exact_quotient(f, h), _exact_quotient(g, h)
    return out


def _laurent(c: int, d: int, k: int, f: list[int]) -> LaurentPoly:
    """(c / d) v^k f(v), with an int wherever a coefficient is integral."""
    t = math.gcd(c, d)
    if d < 0:
        t = -t
    c, d = c // t, d // t
    if d == 1:
        return _wrap({k + i: c * a for i, a in enumerate(f) if a})
    terms = {}
    for i, a in enumerate(f):
        if a:
            a *= c
            terms[k + i] = a // d if a % d == 0 else Fraction(a, d)
    return _wrap(terms)


def _monic(f: list[int]) -> LaurentPoly:
    return _laurent(1, f[-1], 0, f)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (monomial factors dropped); zero
    when both are zero."""
    if a.is_zero:
        return b if b.is_zero else _monic(_split(b._terms)[3])
    if b.is_zero:
        return _monic(_split(a._terms)[3])
    return _monic(_poly_gcd(_split(a._terms)[3], _split(b._terms)[3])[0])


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic lcm of the polynomial parts of two nonzero Laurent polynomials."""
    f, g = _split(a._terms)[3], _split(b._terms)[3]
    return _monic(_mul(_poly_gcd(f, g)[1], g))


def poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b when b divides a exactly (up to a monomial); ArithmeticError
    otherwise."""
    ca, da, ka, f = _split(a._terms)
    cb, db, kb, g = _split(b._terms)
    return _laurent(ca * db, da * cb, ka - kb, _exact_quotient(f, g))


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
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly | Coeff, den: LaurentPoly | Coeff = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc expects Laurent polynomials or rationals")
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
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        r._hash = None
        return r

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
            r = RatFunc.__new__(RatFunc)
            r.num = self.num * other.num
            r.den = self.den
            r._hash = None
            return r
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

    def koszul(self) -> "RatFunc":
        return RatFunc(self.num.koszul(), self.den.koszul())

    # -- comparisons, hashing, display ----------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
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
        return cls(LaurentPoly.from_triples(doc["num"]), LaurentPoly.from_triples(doc["den"]))


def _as_rat(x: object):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RatFunc(x)
    return NotImplemented


def _canonicalize(num: LaurentPoly, den: LaurentPoly):
    """Reduce num/den to the canonical representative described above."""
    if num.is_zero:
        return LaurentPoly.zero(), LaurentPoly.one()
    if len(den._terms) == 1:
        ((k, c),) = den._terms.items()
        num = num.shift(-k)
        return (num if c == 1 else num.scale(Fraction(1, c))), LaurentPoly.one()
    # num = (cn/dn) v^kn f and den = (cd/dd) v^kd g with f, g primitive;
    # the monomial part of num never cancels against g, whose constant term
    # is nonzero, so the cancellation is f/h over g/h for h = gcd(f, g)
    cn, dn, kn, f = _split(num._terms)
    cd, dd, kd, g = _split(den._terms)
    _, f, g = _poly_gcd(f, g)
    # the denominator is g made monic; its leading coefficient moves into
    # the numerator's scalar
    return _laurent(cn * dd, dn * cd * g[-1], kn - kd, f), _monic(g)


# -- linear combinations -----------------------------------------------------


class LinComb:
    """A finite Q(v)-linear combination of basis elements: ``coeffs`` maps
    a key to a nonzero RatFunc.  Immutable by convention.

    The element classes of the three algebras (``HeckeElt``, ``TLElt``,
    ``GTLElt``) inherit the linear structure from here.  A subclass
    defines three methods: ``_rebuild(coeffs)``, a new element of the
    same algebra; ``_algebra()``, a value identifying the algebra (keys
    of different algebras never mix); and ``_label(key)``, how a key
    prints.  Keys must be orderable, for a deterministic ``repr``.
    """

    __slots__ = ("coeffs",)

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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: object) -> "LinComb":
        if not self._peer(other):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, RatFunc.zero()) + c
        return self._rebuild(out)

    def __neg__(self) -> "LinComb":
        return self._rebuild({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: object) -> "LinComb":
        if not self._peer(other):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return self._rebuild({k: ck * c for k, ck in self.coeffs.items()})

    def coefficient(self, key) -> RatFunc:
        return self.coeffs.get(key, RatFunc.zero())

    def cleared(self) -> tuple[dict, LaurentPoly]:
        """(polys, den) with self = sum_k (polys[k] / den) key, where den
        is the monic lcm of the coefficient denominators.  The lcm and the
        cofactors den / d are taken once per distinct denominator d."""
        dens = dict.fromkeys(c.den for c in self.coeffs.values())
        den = LaurentPoly.one()
        for d in dens:
            if not d.is_one:
                den = d if den.is_one else poly_lcm(den, d)
        if den.is_one:
            return {k: c.num for k, c in self.coeffs.items()}, den
        for d in dens:
            dens[d] = den if d.is_one else poly_exact_div(den, d)
        return {k: c.num * dens[c.den] for k, c in self.coeffs.items()}, den

    def integral(self) -> tuple[dict, RatFunc]:
        """(rows, scale) with self = scale * sum_k rows[k] key, every rows[k]
        an integer Laurent polynomial {exp: int} and scale one RatFunc: 1/f
        over the denominator of cleared(), f the lcm of the Fraction
        denominators left in its numerators."""
        polys, den = self.cleared()
        f = math.lcm(*(c.denominator for p in polys.values() for _, c in p.items()))
        rows = {k: {e: c.numerator * (f // c.denominator) for e, c in p.items()}
                for k, p in polys.items()}
        return rows, RatFunc(LaurentPoly.const(Fraction(1, f)), den)

    # -- comparisons, hashing, display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._algebra() == other._algebra() and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self._algebra(), frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[k]!r})*{self._label(k)}" for k in sorted(self.coeffs))


def _rationals(pairs, scale: RatFunc, keep=None) -> dict:
    """{k: scale * c} over pairs (k, c) of a key and an integer Laurent
    polynomial {exp: int}, for every k with keep[k] (all k when keep is
    None): the inverse of LinComb.integral for what the integer kernels
    return.  Each coefficient is canonicalised once, as
    (c * scale.num) / scale.den."""
    num, den = scale.num, scale.den
    return {k: RatFunc(_wrap(c) * num, den) for k, c in pairs if keep is None or keep[k]}


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
