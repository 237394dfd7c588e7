"""The Temperley-Lieb algebra TL_n as a diagram algebra, and three
independent constructions of the Jones-Wenzl idempotent.

A diagram on n strands is a planar perfect matching of 2n boundary
points: bottom points 0..n-1 (left to right) and top points n..2n-1
(left to right), drawn with the bottom row below the top row.  The
matching is stored as a partner array p with p[p[i]] = i.  Planarity
is equivalent to the matching being non-crossing along the boundary
walk bottom-left to bottom-right, then top-right to top-left, which a
single parenthesis scan checks.

Multiplication stacks the left factor below the right factor and reads
bottom to top.  Closed loops formed in the middle are erased, each one
contributing a scalar factor delta = v + v^(-1) in TL_n, or -delta in
the sign-twisted variant TL_n^-.  Both algebras run on the same diagram
engine; an element carries the loop-parameter sign with it.

The generator u_i (0-based, 0 <= i <= n-2) is the cup-cap diagram at
strands i, i+1.  The relations

    u_i^2 = delta u_i,   u_i u_j u_i = u_i (|i-j| = 1),
    u_i u_j = u_j u_i (|i-j| >= 2)

hold by diagram composition; nothing imposes them separately.  The
monomial basis u_x, indexed by fully commutative permutations x, is
obtained by composing generator diagrams along any reduced word of x;
full commutativity makes the result word-independent.

Three routes to the Jones-Wenzl idempotent j_n:

* wenzl_jw: the Wenzl recursion
      j_1 = 1,   j_n = j' - ([n-1]/[n]) j' u_{n-1} j',
  where j' is j_{n-1} with a through strand appended on the right;
* closed_jw: the closed formula, coefficient of u_x equal to
      (-1)^length(x) grrk(x w0) / grrk(w0)
  summed over fully commutative x in the symmetric group S_n;
* project_pi applied to the sign idempotent of the Hecke algebra,
  using the algebra map pi with pi(b_x) = u_x for fully commutative x
  and pi(b_x) = 0 otherwise.

The three must agree coefficientwise; the test suite checks this.

The sign-twisted Jones-Wenzl element j_n^- lives in TL_n^- and has the
same coefficients with all signs made positive:

    j_n^- = sum over FC x of (grrk(x w0) / grrk(w0)) u_x^-

where u_x^- is the monomial diagram reread inside TL_n^-.

The product kernel.  Diagrams compose on bare partner tuples (_compose):
composing two planar perfect matchings always gives one, so nothing is
validated and a Diagram is built once per distinct composite, without
re-checking it.  multiply_tl clears each factor by LinComb.integral to
integer rows over one RatFunc scale and packs every row as one integer
in the signed Kronecker packing of jwkit.qpoly.  A composite closing k
loops carries (sign delta)^k; the kernel packs (sign delta)^k v^m =
sign^k (1 + v^2)^k v^(m - k), m = floor(n/2), once per k and multiplies
each right numerator by it up front.  Per left diagram the packed right
numerators are summed per composite (one addition per diagram pair), and
each sum is multiplied once by the left numerator.  Each output
coefficient is decoded once (_unpacked) and rebuilt as a RatFunc once
(_rationals).  The bound: a composition closes at most m loops (each
uses two of the n glue points) and ||delta^k||_1 = 2^k, so every output
coefficient is at most (sum_d ||p_d||_1) (sum_d ||q_d||_1) 2^m, with p_d
and q_d the integer numerators of the two factors and ||.||_1 the sum of
|coefficients|; the digit width is _width of that bound, and a digit
above it raises OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coxeter import ElementId, GroupTable
from .grank import grrk, jw_coefficient  # noqa: F401 (perfbench wraps the jwkit.tl.grrk alias)
from .hecke import HeckeElt, KLTable, to_kl_basis
from .qpoly import LaurentPoly, LinComb, RatFunc, _pack, _rationals, _unpacked, _width, quantum_int

_DELTA = LaurentPoly({1: 1, -1: 1})


@dataclass(frozen=True, order=True)
class Diagram:
    """A planar perfect matching of 2n points; see the module docstring
    for the boundary numbering and the planarity criterion.  Diagrams
    order by (n, partner)."""

    n: int
    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        n, p = self.n, self.partner
        if n < 1 or len(p) != 2 * n:
            raise ValueError("partner array must have length 2n")
        for i, j in enumerate(p):
            if not 0 <= j < 2 * n or j == i or p[j] != i:
                raise ValueError("partner array is not a perfect matching")
        # walk the boundary circularly; planar iff parentheses balance
        stack: list[int] = []
        for i in list(range(n)) + list(range(2 * n - 1, n - 1, -1)):
            if stack and p[stack[-1]] == i:
                stack.pop()
            else:
                stack.append(i)
        if stack:
            raise ValueError("matching is not planar")

    @classmethod
    def _trusted(cls, n: int, partner: tuple[int, ...]) -> "Diagram":
        """A diagram from a partner tuple known to be a planar perfect
        matching, such as a composite of diagrams: no validation."""
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "partner", partner)
        return d

    @classmethod
    def identity(cls, n: int) -> "Diagram":
        return cls(n, tuple(range(n, 2 * n)) + tuple(range(n)))

    @classmethod
    def cupcap(cls, n: int, i: int) -> "Diagram":
        """The generator diagram u_i: bottom points i, i+1 joined by a
        cup, top points i, i+1 joined by a cap, all else through."""
        if not 0 <= i <= n - 2:
            raise ValueError(f"generator index {i} out of range for n={n}")
        p = list(range(n, 2 * n)) + list(range(n))
        p[i], p[i + 1] = i + 1, i
        p[n + i], p[n + i + 1] = n + i + 1, n + i
        return cls(n, tuple(p))

    def through_strands(self) -> int:
        """Number of strands connecting bottom to top."""
        return sum(1 for i in range(self.n) if self.partner[i] >= self.n)

    def __repr__(self) -> str:
        return f"Diagram({self.n}, {self.partner})"


def _compose(p: tuple[int, ...], q: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """(partner, loops) for the matching p stacked below the matching q on
    n strands: the composite's partner tuple and the number of closed
    middle loops.  Glue point k joins p's top point n + k to q's bottom
    point k.  Nothing is validated and no Diagram is built: composing two
    planar perfect matchings always gives one."""
    out = [-1] * (2 * n)
    seen = [False] * n  # glue points met so far
    for s in range(2 * n):
        if out[s] >= 0:
            continue
        if s < n:  # a bottom point: leave through p
            t = p[s]
            while t >= n:
                seen[t - n] = True
                t = q[t - n]
                if t >= n:
                    break
                seen[t] = True
                t = p[t + n]
        else:  # a top point: leave through q
            t = q[s]
            while t < n:
                seen[t] = True
                t = p[t + n]
                if t < n:
                    break
                seen[t - n] = True
                t = q[t - n]
        out[s] = t
        out[t] = s
    loops = 0
    for k in range(n):
        if not seen[k]:  # an unseen glue point lies on a closed loop
            loops += 1
            j = k
            while not seen[j]:
                seen[j] = True
                m = p[j + n] - n
                seen[m] = True
                j = q[m]
    return tuple(out), loops


def compose(a: Diagram, b: Diagram, sign: int = 1):
    """Stack a below b and read off the result.

    Returns (diagram, loop_count, scalar) where scalar is
    (sign * (v + v^(-1)))^loop_count.  The top boundary of a is glued
    to the bottom boundary of b; paths are traced through the middle
    and closed middle loops are erased and counted.
    """
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} vs {b.n}")
    partner, loops = _compose(a.partner, b.partner, a.n)
    scalar = (_DELTA.scale(sign)) ** loops if loops else LaurentPoly.one()
    return Diagram._trusted(a.n, partner), loops, scalar


class TLElt(LinComb):
    """An element of TL_n (sign +1) or TL_n^- (sign -1): a finite sum of
    diagrams with RatFunc coefficients.

    ``+``, ``-``, ``scale``, ``coefficient``, ``cleared``, ``integral``,
    ``==``, ``hash`` and ``repr`` are inherited from LinComb; elements with
    different n or sign do not mix (ValueError)."""

    __slots__ = ("n", "sign")

    def __init__(self, n: int, coeffs: dict[Diagram, RatFunc], sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.n = n
        self.sign = sign
        self.coeffs = {d: c for d, c in coeffs.items() if not c.is_zero}
        for d in self.coeffs:
            if d.n != n:
                raise ValueError("mixed strand counts in one element")

    def _rebuild(self, coeffs: dict[Diagram, RatFunc]) -> "TLElt":
        return TLElt(self.n, coeffs, self.sign)

    def _algebra(self) -> tuple[int, int]:
        return (self.n, self.sign)

    def _label(self, d: Diagram) -> str:
        return str(d.partner)

    @classmethod
    def zero(cls, n: int, sign: int = 1) -> "TLElt":
        return cls(n, {}, sign)

    @classmethod
    def one(cls, n: int, sign: int = 1) -> "TLElt":
        return cls(n, {Diagram.identity(n): RatFunc.one()}, sign)

    @classmethod
    def gen(cls, n: int, i: int, sign: int = 1) -> "TLElt":
        return cls(n, {Diagram.cupcap(n, i): RatFunc.one()}, sign)

    def __mul__(self, other: "TLElt") -> "TLElt":
        if not isinstance(other, TLElt):
            return NotImplemented
        return multiply_tl(self, other)


def multiply_tl(a: TLElt, b: TLElt) -> TLElt:
    """Bilinear extension of diagram composition, with each erased loop
    contributing the loop parameter of the common sign.

    The expansion runs on integers, in the signed Kronecker packing of
    jwkit.qpoly; see the module docstring for the bound that fixes the
    digit width.  Each output coefficient is canonicalised once."""
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} vs {b.n}")
    if a.sign != b.sign:
        raise ValueError("loop-parameter signs differ")
    n, sign = a.n, a.sign
    if not a.coeffs or not b.coeffs:
        return TLElt.zero(n, sign)
    rows_a, scale_a = a.integral()
    rows_b, scale_b = b.integral()
    m = n // 2  # the most loops one composition can close
    bound = sum(abs(c) for r in rows_a.values() for c in r.values())
    bound *= sum(abs(c) for r in rows_b.values() for c in r.values()) << m
    w = _width(bound)
    off_a = min(min(r) for r in rows_a.values())
    off_b = min(min(r) for r in rows_b.values())
    # (sign delta)^k v^m = sign^k (1 + v^2)^k v^(m - k), one per loop count k
    loop = [
        _pack({m - k + 2 * i: sign**k * math.comb(k, i) for i in range(k + 1)}, 0, w)
        for k in range(m + 1)
    ]
    left = [(d.partner, _pack(r, off_a, w)) for d, r in rows_a.items()]
    right = []
    for d, r in rows_b.items():
        q = _pack(r, off_b, w)
        right.append((d.partner, [q * f for f in loop]))
    # one left diagram reaches few distinct composites: sum the right
    # numerators per composite, then multiply once by the left numerator
    acc: dict[tuple[int, ...], int] = {}
    for p, pa in left:
        row: dict[tuple[int, ...], int] = {}
        get = row.get
        for q, qb in right:
            d, k = _compose(p, q, n)
            row[d] = get(d, 0) + qb[k]
        for d, s in row.items():
            acc[d] = acc.get(d, 0) + pa * s
    prod = ((Diagram._trusted(n, d), c) for d, c in _unpacked(acc, off_a + off_b - m, bound))
    return TLElt(n, _rationals(prod, scale_a * scale_b), sign)


# -- the monomial basis ---------------------------------------------------------


def _require_type_a(g: GroupTable) -> int:
    if g.presentation.family != "A":
        raise ValueError(
            f"diagrams require a type A group, got {g.presentation.family}"
        )
    return g.rank + 1


def monomial(g: GroupTable, x: ElementId) -> Diagram:
    """The diagram of u_{i1} ... u_{ik} for a reduced word i1 ... ik of a
    fully commutative x; independent of the chosen word.

    No loops can appear while composing along a reduced word of a fully
    commutative element, so the scalar is trivial and a bare diagram
    comes back.
    """
    n = _require_type_a(g)
    if not g.is_fully_commutative(x):
        raise ValueError(f"element {x} is not fully commutative")
    d = Diagram.identity(n)
    for s in g.word[x]:
        d, loops, _ = compose(d, Diagram.cupcap(n, s))
        if loops:
            raise RuntimeError(f"a reduced word of fully commutative {x} closed a loop")
    return d


# -- Jones-Wenzl constructions ----------------------------------------------------


def _include(elt: TLElt) -> TLElt:
    """TL_n -> TL_{n+1}, appending a through strand on the right."""
    n = elt.n
    out = {}
    for d, c in elt.coeffs.items():
        p = [0] * (2 * n + 2)
        for i, j in enumerate(d.partner):
            ii = i if i < n else i + 1
            jj = j if j < n else j + 1
            p[ii] = jj
        p[n] = 2 * n + 1
        p[2 * n + 1] = n
        out[Diagram(n + 1, tuple(p))] = c
    return TLElt(n + 1, out, elt.sign)


def wenzl_jw(n: int) -> TLElt:
    """The Jones-Wenzl idempotent j_n by the Wenzl recursion

        j_1 = 1,   j_n = j' - ([n-1]/[n]) j' u_{n-1} j'

    with j' the inclusion of j_{n-1} into TL_n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    j = TLElt.one(1)
    for k in range(2, n + 1):
        jp = _include(j)
        ratio = RatFunc(quantum_int(k - 1), quantum_int(k))
        j = jp - (jp * TLElt.gen(k, k - 2) * jp).scale(ratio)
    return j


def _on_diagrams(g: GroupTable, coeffs: dict[ElementId, RatFunc], sign: int = 1) -> TLElt:
    """sum_x coeffs[x] u_x in TL_n^sign, over fully commutative ids x of g = S_n."""
    return TLElt(_require_type_a(g), {monomial(g, x): c for x, c in coeffs.items()}, sign)


def _closed_coefficients(n: int, g: GroupTable, cache: KLTable) -> dict[ElementId, RatFunc]:
    """The closed-formula coefficients of j_n, keyed by the FC ids of g = S_n."""
    if _require_type_a(g) != n:
        raise ValueError(f"group has rank {g.rank}, expected {n - 1}")
    return {x: jw_coefficient(g, cache, x) for x in g.fc_elements()}


def closed_jw(n: int, g: GroupTable, cache: KLTable) -> TLElt:
    """The Jones-Wenzl idempotent by the closed formula: the coefficient
    of u_x is (-1)^length(x) grrk(x w0) / grrk(w0), summed over the
    fully commutative elements of the symmetric group S_n."""
    return _on_diagrams(g, _closed_coefficients(n, g, cache))


def project_pi(h: HeckeElt, cache: KLTable) -> TLElt:
    """The quotient map pi from the type A Hecke algebra onto TL_n:
    expand in the KL basis and send b_x to u_x for fully commutative x
    and to 0 otherwise."""
    _require_type_a(h.group)  # before the expansion, the costly part
    return _on_diagrams(h.group, to_kl_basis(h, cache, fc_only=True))


def jw_minus(n: int, g: GroupTable, cache: KLTable) -> TLElt:
    """The sign-twisted Jones-Wenzl element j_n^- of TL_n^-, with
    all-positive coefficients grrk(x w0) / grrk(w0) on u_x^-: the
    closed-formula coefficients c_x of j_n give j_n^- = sum_x
    (-1)^length(x) c_x u_x^-."""
    coeffs = _closed_coefficients(n, g, cache)
    return _on_diagrams(g, {x: -c if g.length[x] % 2 else c for x, c in coeffs.items()}, -1)
