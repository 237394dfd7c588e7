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
validated.  Products do not compose diagram pairs: they run on one
generator-action index per strand count (_actions), which numbers the
diagrams breadth-first from the identity over u_0 ... u_{n-2}.  Each
diagram gets an id, a parent (id, s) with itself = parent u_s, and a depth,
its length as a fully commutative element x (it is u_x), and the index holds
act[s][d] = (id of d u_s, loops).  By Fan and Green ("Monomials and
Temperley-Lieb algebras", J. Algebra 1997), u_x u_s = delta u_x when s is
a right descent of x, and one monomial otherwise, so a generator step
closes at most one loop.

The walk.  multiply_tl packs every integer row of both factors
(jwkit.qpoly.LinComb: rows over one common denominator) as one integer in
the signed Kronecker packing of jwkit.qpoly.  It walks the trie of the
breadth-first words of b's support (the parent links), keeping v^t a u_z
for each node z at depth t: a step by u_s relabels each row of diagram d
to act[s][d], times v, or times sign (1 + v^2) = v (sign delta) where a
loop closes.  Each support node z adds b_z (v^t a u_z), shifted by v^(K -
t) so that all nodes share one offset (K the depth of the deepest node):
one multiply per entry.  The output rows, over the product of the two
denominators, are decoded and reduced once (jwkit.qpoly._reduced).

The lazy fill.  The index fills one level at a time, until every diagram
of both factors is in it and act rows exist through depth D_a + D_b - 1,
with D_a and D_b the depths of the deepest diagrams of a and b.  No
composite on the walk is deeper than D_a + D_b: the relations reduce any
word of length m to delta^k u_z with length(z) <= m.  So a product of two
generators on 16 strands indexes the 135 diagrams of depths 0-2, not all
Catalan(16) of them.

The bound.  A step by v changes no coefficient, and a prefix of a
breadth-first word is one diagram, so every vector on the walk is a times
one diagram, up to a power of v.  One composition closes at most m =
floor(n/2) loops (each uses two of the n glue points) and ||delta^k||_1 =
2^k, so every output coefficient is at most (sum_d ||p_d||_1) (sum_d
||q_d||_1) 2^m, with p_d and q_d the integer numerators of the two factors
and ||.||_1 the sum of |coefficients| (LinComb.l1); the digit width is
_width of that bound, and a digit above it raises OverflowError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .coxeter import ElementId, GroupTable
from .grank import grrk  # noqa: F401 (perfbench wraps the jwkit.tl.grrk alias)
from .gtl import gen_jw_closed
from .hecke import HeckeElt, KLTable, _check_id, to_kl_basis
from .qpoly import LaurentPoly, LinComb, RatFunc, _pack, _reduced, _width, quantum_int

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


class _Actions:
    """The generator-action index of TL_n (see the module docstring),
    filled breadth-first from the identity, one level at a time.  Diagram i
    is diagrams[i] (ids maps its partner tuple back to i): diagram
    parent[i][0] times u_s, s = parent[i][1] (parent[0] is None: id 0 is the
    identity), depth[i] steps from the identity.  For each id i below
    ``filled``, act[s][i] = (id of diagram i times u_s, loops), loops 1
    exactly when the step closes a loop, which leaves diagram i unchanged."""

    __slots__ = ("n", "ids", "diagrams", "parent", "depth", "act", "filled", "_gens")

    def __init__(self, n: int):
        e = Diagram.identity(n)
        self.n = n
        self.ids = {e.partner: 0}
        self.diagrams = [e]
        self.parent: list[tuple[int, int] | None] = [None]
        self.depth = [0]
        self.act: list[list[tuple[int, int]]] = [[] for _ in range(n - 1)]
        self.filled = 0
        self._gens = [Diagram.cupcap(n, s).partner for s in range(n - 1)]

    def fill(self, depth: int) -> None:
        """Fill the act rows of every diagram at most depth steps deep,
        indexing the diagrams one step deeper as they appear."""
        n, ids, diagrams, parent, depths, act = self.n, self.ids, self.diagrams, self.parent, self.depth, self.act
        i = self.filled
        while i < len(diagrams) and depths[i] <= depth:
            p, t = diagrams[i].partner, depths[i] + 1
            for s, g in enumerate(self._gens):
                q, loops = _compose(p, g, n)
                j = ids.get(q)
                if j is None:
                    j = ids[q] = len(diagrams)
                    diagrams.append(Diagram._trusted(n, q))
                    parent.append((i, s))
                    depths.append(t)
                act[s].append((j, loops))
            i += 1
        self.filled = i

    def id(self, d: Diagram) -> int:
        """The id of d, filling the index a level at a time until d is in it."""
        ids = self.ids
        while d.partner not in ids and self.filled < len(self.diagrams):
            self.fill(self.depth[-1])
        return ids[d.partner]


@functools.cache
def _actions(n: int) -> _Actions:
    """The generator-action index of TL_n, one per strand count."""
    return _Actions(n)


class TLElt(LinComb):
    """An element of TL_n (sign +1) or TL_n^- (sign -1): a finite sum of
    diagrams with coefficients in Q(v), built from {diagram: RatFunc}.

    ``+``, ``-``, ``scale``, ``coefficient``, ``coeffs``, ``rows``, ``den``,
    ``l1``, ``==``, ``hash`` and ``repr`` are inherited from LinComb;
    elements with different n or sign do not mix (ValueError)."""

    __slots__ = ("n", "sign")

    def __init__(self, n: int, coeffs: dict[Diagram, RatFunc], sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.n = n
        self.sign = sign
        LinComb.__init__(self, coeffs)
        for d in self.rows:
            if not isinstance(d, Diagram):
                raise ValueError(f"{d!r} is not a diagram; TL_{n} has no basis element for it")
            if d.n != n:
                raise ValueError("mixed strand counts in one element")

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
    contributing the loop parameter of the common sign: the walk of the
    module docstring over the generator-action index, on packed integers
    at the width its bound fixes, reduced once against the product of the
    two denominators."""
    if a.n != b.n:
        raise ValueError(f"strand counts differ: {a.n} vs {b.n}")
    if a.sign != b.sign:
        raise ValueError("loop-parameter signs differ")
    n, sign = a.n, a.sign
    rows_a, rows_b = a.rows, b.rows
    if not rows_a or not rows_b:
        return TLElt.zero(n, sign)
    bound = a.l1 * b.l1 << n // 2
    w = _width(bound)
    off_a = min(min(r) for r in rows_a.values())
    off_b = min(min(r) for r in rows_b.values())
    index = _actions(n)
    left = {index.id(d): _pack(r, off_a, w) for d, r in rows_a.items()}
    right = {index.id(d): r for d, r in rows_b.items()}
    depth, parent, act = index.depth, index.parent, index.act
    top = max(depth[z] for z in right)  # K: every node is shifted up to v^K
    index.fill(max(depth[x] for x in left) + top - 1)

    # the trie of the breadth-first words of b's support
    children: dict[int, list[tuple[int, int]]] = {}
    linked = {0}
    for z in right:
        while z not in linked:
            linked.add(z)
            p, s = parent[z]
            children.setdefault(p, []).append((z, s))
            z = p
    # depth first, each node's vector v^depth a u_z made from its parent's
    # when the node is reached
    acc: dict[int, int] = {}
    w2 = 2 * w
    todo: list[tuple[int, int | None, dict[int, int]]] = [(0, None, left)]
    while todo:
        z, s, vec = todo.pop()
        if s is not None:
            row, prev, vec = act[s], vec, {}
            get = vec.get
            for x, p in prev.items():
                y, loops = row[x]
                if not loops:
                    p <<= w  # v
                elif sign > 0:
                    p += p << w2  # 1 + v^2 = v delta
                else:
                    p = -p - (p << w2)
                vec[y] = get(y, 0) + p
        q = right.get(z)
        if q is not None:
            f = _pack(q, off_b, w) << w * (top - depth[z])
            get = acc.get
            for y, p in vec.items():
                acc[y] = get(y, 0) + f * p
        todo.extend((c, t, vec) for c, t in children.get(z, ()))
    rows, den = _reduced(acc, off_a + off_b - top, bound, a.den * b.den)
    diagrams = index.diagrams
    return a._rebuild({diagrams[y]: r for y, r in rows.items()}, den)


# -- the monomial basis ---------------------------------------------------------


def _require_type_a(g: GroupTable, n: int | None = None) -> int:
    """The strand count of g = S_n; ValueError unless g is of type A (and
    of rank n - 1, when n is given)."""
    if g.presentation.family != "A":
        raise ValueError(
            f"diagrams require a type A group, got {g.presentation.family}"
        )
    if n is not None and g.rank + 1 != n:
        raise ValueError(f"group has rank {g.rank}, expected {n - 1}")
    return g.rank + 1


def monomial(g: GroupTable, x: ElementId) -> Diagram:
    """The diagram of u_{i1} ... u_{ik} for a reduced word i1 ... ik of a
    fully commutative x; independent of the chosen word.

    No loops can appear while composing along a reduced word of a fully
    commutative element, so the scalar is trivial and a bare diagram
    comes back.
    """
    n = _require_type_a(g)
    _check_id(g, x)
    if not g.is_fully_commutative(x):
        raise ValueError(f"element {x} is not fully commutative")
    d = Diagram.identity(n)
    for s in g.word[x]:
        d, loops, _ = compose(d, Diagram.cupcap(n, s))
        if loops:
            raise RuntimeError(f"a reduced word of fully commutative {x} closed a loop")
    return d


def fc_diagrams(g: GroupTable) -> dict[ElementId, Diagram]:
    """{x: monomial(g, x)} for every fully commutative x of g = S_n, in id
    order.  Each diagram is its prefix's times one generator: for s the
    last letter of x's word, the prefix x s is fully commutative and has a
    smaller id, so its diagram is already built."""
    n = _require_type_a(g)
    gens = [Diagram.cupcap(n, s) for s in range(n - 1)]
    ds: dict[ElementId, Diagram] = {}
    for x in g.fc_elements():
        if not g.word[x]:
            ds[x] = Diagram.identity(n)
            continue
        s = g.word[x][-1]
        ds[x], loops, _ = compose(ds[g.right[x][s]], gens[s])
        if loops:
            raise RuntimeError(f"a reduced word of fully commutative {x} closed a loop")
    return ds


# -- Jones-Wenzl constructions ----------------------------------------------------


def _include(elt: TLElt) -> TLElt:
    """TL_n -> TL_{n+1}, appending a through strand on the right."""
    n = elt.n
    out = {}
    for d, r in elt.rows.items():
        p = [0] * (2 * n + 2)
        for i, j in enumerate(d.partner):
            ii = i if i < n else i + 1
            jj = j if j < n else j + 1
            p[ii] = jj
        p[n] = 2 * n + 1
        p[2 * n + 1] = n
        out[Diagram(n + 1, tuple(p))] = r
    return TLElt.zero(n + 1, elt.sign)._rebuild(out, elt.den)


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


def _on_diagrams(g: GroupTable, rows: dict, den: LaurentPoly, sign: int = 1) -> TLElt:
    """sum_x (rows[x] / den) u_x in TL_n^sign, over fully commutative ids x
    of g = S_n, for rows and den in the canonical form of LinComb."""
    ds = fc_diagrams(g)
    out = {ds[x]: r for x, r in rows.items()}
    return TLElt.zero(_require_type_a(g), sign)._rebuild(out, den)


def closed_jw(n: int, g: GroupTable, cache: KLTable) -> TLElt:
    """The Jones-Wenzl idempotent by the closed formula: the coefficient
    of u_x is (-1)^length(x) grrk(x w0) / grrk(w0), summed over the
    fully commutative elements of the symmetric group S_n."""
    _require_type_a(g, n)
    j = gen_jw_closed(g, cache)
    return _on_diagrams(g, j.rows, j.den)


def project_pi(h: HeckeElt, cache: KLTable) -> TLElt:
    """The quotient map pi from the type A Hecke algebra onto TL_n:
    expand in the KL basis and send b_x to u_x for fully commutative x
    and to 0 otherwise."""
    _require_type_a(h.group)  # before the expansion, the costly part
    return _on_diagrams(h.group, *to_kl_basis(h, cache, fc_only=True))


def jw_minus(n: int, g: GroupTable, cache: KLTable) -> TLElt:
    """The sign-twisted Jones-Wenzl element j_n^- of TL_n^-, with
    all-positive coefficients grrk(x w0) / grrk(w0) on u_x^-: the
    closed-formula coefficients c_x of j_n give j_n^- = sum_x
    (-1)^length(x) c_x u_x^-."""
    _require_type_a(g, n)
    j = gen_jw_closed(g, cache)
    rows = {x: {e: -c for e, c in r.items()} if g.length[x] % 2 else r for x, r in j.rows.items()}
    return _on_diagrams(g, rows, j.den, -1)
