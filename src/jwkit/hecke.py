"""The Hecke algebra of a finite Coxeter group, its Kazhdan-Lusztig basis,
and the antisymmetriser.

Normalization.  The standard basis {delta_x} satisfies, for a generator s,

    delta_s^2 = 1 + (v^-1 - v) delta_s,

equivalently (delta_s + v)(delta_s - v^-1) = 0, and delta_x delta_y =
delta_{xy} whenever lengths add.  The KL basis element b_x = sum_y
h_{y,x} delta_y is the unique bar-invariant element with h_{x,x} = 1 and
h_{y,x} in v Z[v] for y < x; in particular b_s = delta_s + v.

The KL polynomials are computed by the one-generator recursion.  For
the last letter s of the word of x, a right descent, and z = x s,

    b_z b_s = b_x + sum over y < z with ys < y of mu(y, z) b_y,

where mu(y, z) is the coefficient of v in h_{y,z}, and

    delta_y b_s = delta_{ys} + v delta_y        if ys > y,
    delta_y b_s = delta_{ys} + v^-1 delta_y     if ys < y.

The anti-automorphism delta_x -> delta_{x^-1} commutes with bar and
keeps lengths and the Bruhat order, and so does every automorphism of
the Coxeter system; the graph flip s_i -> s_{r-1-i} is one when the
Coxeter matrix is palindromic (A_n, B2, F4, I2(m)).  So h_{phi y, phi x}
= h_{y,x} for every phi they generate, and the table stores one column
per orbit, that of its least id (GroupTable.rep).  The recursion runs
for representatives only, reading the stored column of z and of each
mu-correction through phi (GroupTable.relabel); every reader of another
column reads its representative's with each y taken to phi(y), under the
same polynomial ids.  A full table runs the recursion for 344 of the
1151 columns past the identity in F4, and for 1387 of 5039 in S7.

Internal representation.  Every integer polynomial here is one Python
integer in the signed Kronecker packing of jwkit.qpoly: sum_e c_e v^e
becomes sum_e c_e 2^(b (e - off)) for an exponent offset off (_pack) and
is read back by balanced digits (_unpack), exactly while every |c_e| <
2^(b-1), borrows between signed digits included.  Addition, shifts and
products become single big-integer operations.  Each kernel states a
bound on every coefficient it can produce, takes the digit width b =
_width(bound) and checks each decoded digit against the bound
(OverflowError).  With L = length(w0), ||c||_1 the sum of |coefficients|
and peak the largest coefficient the KL table stores (KLTable.peak, read
after the columns a kernel uses are filled), the bounds are:

* dense (_dense_product, a b in the standard basis): a step by delta_s at
  most triples the largest coefficient, so ||a||_inf sum_z 3^length(z)
  ||b_z||_1 bounds the product and every intermediate a delta_z;
* W-graph (kl_multiply, a b in TL_W on the fully commutative basis): a
  step by beta_s at most multiplies ||.||_1 by M_s, the largest max(2, sum
  of the coefficients of beta_w beta_s) over fully commutative w, so
  B(e) = ||a||_1, B(x) = M_s B(xs) + sum_y mu(y, xs) B(y) and sum_x
  ||c_x||_1 B(x) over b's support bound everything on the way;
* bar (_bar_std, bar(delta_y)): 3^length(y), by the same tripling;
* back-substitution (_back_substitute, behind to_kl_basis and
  kl_product_coeffs, on a dense vector indexed by element id, with one
  multiply per distinct polynomial of each column subtracted): a running
  bound that grows by peak ||c_z||_1 per column subtracted, widening the
  digit before it could reach 2^(b-1).

The KL table stores each distinct polynomial once, at offset 0 with
32-bit digits (its coefficients are nonnegative and below 2^31, its
exponents in [0, L]), and a column as its entries grouped by polynomial
id, [(id, ys)]: h_{y,x} has that id for every y in ys.  The
recursion's mu-corrections cannot borrow across digits, because the
accumulator dominates, digit by digit, everything subtracted from it (the
final h coefficients are nonnegative); storing rejects a digit of 2^31
or more.  Wider digits are read from the store's repacking at that width.

The four kernels on linear combinations (HeckeElt.__mul__, HeckeElt.bar,
to_kl_basis and kl_multiply) read the integer rows and the common
denominator D of their operands (jwkit.qpoly.LinComb) and return rows
over D, reduced once by jwkit.qpoly._reduced.  No coefficient becomes a
RatFunc on the way.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from bisect import bisect_left
from collections import defaultdict

from jwkit.coxeter import ENUMERATION, ElementId, GroupTable, _group_name
from jwkit.qpoly import (
    _B,
    LaurentPoly,
    LinComb,
    RatFunc,
    _canonical,
    _pack,
    _packed,
    _reduced,
    _unpack,
    _unpacked,
    _width,
)

_TRIP = 1 << (_B - 1)  # stored coefficients must stay below this


class CacheFormatError(ValueError):
    """An on-disk KL table failed validation."""


class KLLawError(ArithmeticError):
    """KL data breaks a law every Kazhdan-Lusztig polynomial satisfies
    (unitriangularity, bar invariance of b_x, parity or bar symmetry of a
    graded rank): the table holds wrong polynomials."""


class KLTable:
    """Kazhdan-Lusztig polynomials h_{y,x} for one group, computed lazily
    column by column and shared by everything downstream.

    Each distinct polynomial is stored once under a small-int id (id 0 is
    1): packed at offset 0 and width _B, as {exp: int} (``terms``), and
    with its mu; ``peak``, the largest coefficient stored, bounds every
    column.  Only the columns of orbit representatives are stored
    (``_cols``), each as [(id, ys)], its entries grouped by polynomial id:
    distinct ids, no empty group, and ys that partition the Bruhat
    interval below the representative.  Every reader goes through
    column_packed, and every reader refuses an id that is not an element
    id (ValueError).  The groups come in the order the recursion, or the
    cache file, first met their ids; that order fixes the polynomial ids
    and so the cache bytes.  h and mu look one entry up in ``_at``, a
    {y: id} index of a stored column, built on its first lookup and kept;
    no fill or kernel builds one."""

    def __init__(self, group: GroupTable):
        self.group = group
        self._ids: dict[int, int] = {}  # packed at _B -> id
        self._packed: dict[int, list[int]] = {_B: []}  # digit width -> packed, by id
        self.terms: list[dict[int, int]] = []  # read-only
        self._mu: list[int] = []
        self.peak = 0  # the largest stored coefficient; read-only
        self._cols: dict[int, list[tuple[int, list[int]]]] = {0: [(self._intern(1), [0])]}
        self._fc_graph = None  # (graph, growth), memoised by fc_w_graph
        self._at: dict[int, dict[int, int]] = {}  # representative -> {y: id}, for h and mu
        self.w0_rank = None  # grrk(w0), memoised by jwkit.grank.grrk_w0
        # True while the table holds a column its cache file lacks
        self.unsaved = True

    # -- the polynomial store --------------------------------------------------

    def _intern(self, p: int) -> int:
        """The id of the nonzero polynomial packed as p at offset 0 and width _B,
        stored on first sight.  A digit of 2^31 or more exceeds the bound or
        decodes negative: OverflowError."""
        i = self._ids.get(p)
        if i is None:
            d = _unpack(p, 0, _B, _TRIP - 1)
            if any(c < 0 for c in d.values()):
                raise OverflowError("packed-polynomial digit overflow")
            i = self._ids[p] = len(self.terms)
            self._packed[_B].append(p)
            self.terms.append(d)
            self._mu.append(d.get(1, 0))
            self.peak = max(self.peak, *d.values())
        return i

    def packed_at(self, b: int) -> list[int]:
        """Every stored polynomial packed at offset 0 and digit width b, by
        id; a wider width is packed on first use and kept up to date."""
        hs = self._packed.setdefault(b, [])
        terms = self.terms
        hs.extend(_pack(terms[i], 0, b) for i in range(len(hs), len(terms)))
        return hs

    def check_group(self, g: GroupTable) -> None:
        """ValueError unless g has the table's element ids: g is the table's
        group or another build of its presentation."""
        if not (self.group is g or self.group.presentation == g.presentation):
            pres = (self.group.presentation, g.presentation)
            table, other = (_group_name(p.family, p.rank, p.m_parameter) for p in pres)
            raise ValueError(f"KL table of {table} used for {other}")

    # -- public views --------------------------------------------------------

    def h(self, y: ElementId, x: ElementId) -> LaurentPoly:
        """The KL polynomial h_{y,x} (zero unless y <= x)."""
        i = self._entry(y, x)
        return LaurentPoly() if i is None else LaurentPoly(self.terms[i])

    def mu(self, y: ElementId, x: ElementId) -> int:
        """The coefficient of v in h_{y,x}."""
        i = self._entry(y, x)
        return 0 if i is None else self._mu[i]

    def _entry(self, y: ElementId, x: ElementId) -> int | None:
        """The id of h_{y,x}, None unless y <= x, found without relabelling:
        one dict lookup in the index of the stored column."""
        _check_id(self.group, y)
        groups, phi = self.column_packed(x)
        r = self.group.rep[x]
        at = self._at.get(r)
        if at is None:
            at = self._at[r] = {z: i for i, ys in groups for z in ys}
        return at.get(phi[y])  # phi is an involution

    def column(self, x: ElementId) -> dict[ElementId, LaurentPoly]:
        """All nonzero h_{y,x} as Laurent polynomials."""
        terms = self.terms
        return {y: LaurentPoly(terms[i]) for y, i in self.column_ids(x).items()}

    def column_packed(self, x: ElementId) -> tuple[list[tuple[int, list[ElementId]]], list[ElementId]]:
        """(groups, phi): the stored column of the representative of x,
        [(id, ys)], computed on first use, and the symmetry carrying it to
        x, so h_{phi(y),x} has that id for every y in ys.  Every fill
        starts here."""
        g = self.group
        _check_id(g, x)
        r = g.rep[x]
        groups = self._cols.get(r)
        if groups is None:
            self._fill_column(r)
            groups = self._cols[r]
        return groups, g.relabel[x]

    def column_ids(self, x: ElementId) -> dict[ElementId, int]:
        """The column of x as {y: id of h_{y,x}}, relabelled from
        column_packed, for the readers that look entries up by y."""
        groups, phi = self.column_packed(x)
        return {phi[y]: i for i, ys in groups for y in ys}

    def graded_sum(self, x: ElementId) -> dict[int, int]:
        """sum_y v^(-length(y)) h_{y,x} over the column of x, the graded rank
        of x, as {exp: int}.  One packed sum over the stored column of the
        representative of x, which has the same lengths: the h_{y,x} are
        added into one bucket per length l(y), bucket l is shifted by L - l
        digits (L = length(w0)), and the total is decoded once at offset -L.
        Bound: every coefficient sums at most one coefficient per column
        entry, so (column size) x peak."""
        length = self.group.length
        L = length[self.group.w0]
        groups = self.column_packed(x)[0]
        bound = sum(len(ys) for _, ys in groups) * self.peak  # read after the fill, so it covers groups
        b = _width(bound)
        hs = self.packed_at(b)
        buckets = [0] * (L + 1)
        for i, ys in groups:
            p = hs[i]
            for y in ys:
                buckets[length[y]] += p
        packed = 0
        for part in buckets:  # bucket l ends up shifted by L - l digits
            packed = (packed << b) + part
        return _unpack(packed, -L, b, bound)

    def computed_columns(self) -> list[ElementId]:
        """The representatives whose columns are stored, ascending."""
        return sorted(self._cols)

    def fc_w_graph(self) -> tuple[list[dict[ElementId, tuple | None]], list[int]]:
        """(graph, growth): the right action of each beta_s on the fully
        commutative (FC) basis of TL_W, read from the columns of the FC
        elements.  graph[s][w] is None when ws < w, for beta_w beta_s = [2]
        beta_w, and otherwise (ws if it is FC else None, [(y, mu(y, w)) over
        FC y < w with ys < y and mu(y, w) != 0]), for

            beta_w beta_s = beta_{ws} + sum_y mu(y, w) beta_y,

        the image of b_w b_s = b_{ws} + sum over y < w with ys < y of mu(y, w)
        b_y with the non-FC terms dropped.  growth[s] is M_s, the largest
        max(2, sum of the coefficients of beta_w beta_s) over FC w, which
        bounds the growth of ||.||_1 under beta_s.  Built once per table:
        stored columns never change."""
        if self._fc_graph is None:
            g = self.group
            fc, length, right, mus = g.fc, g.length, g.right, self._mu
            graph: list[dict[ElementId, tuple | None]] = [{} for _ in range(g.rank)]
            growth = [2] * g.rank
            for w in g.fc_elements():
                groups, phi = self.column_packed(w)
                edges = [(y, mus[i]) for i, ys in groups if mus[i] for y in map(phi.__getitem__, ys) if fc[y]]
                lw = length[w]
                for s, ws in enumerate(right[w]):
                    if length[ws] < lw:
                        graph[s][w] = None
                    else:
                        down = [(y, mu) for y, mu in edges if length[right[y][s]] < length[y]]
                        graph[s][w] = (ws if fc[ws] else None, down)
                        growth[s] = max(growth[s], fc[ws] + sum(mu for _, mu in down))
            self._fc_graph = graph, growth
        return self._fc_graph

    # -- the recursion ---------------------------------------------------------

    def _fill_column(self, x0: ElementId) -> None:
        """Fill the column of the representative x0 and every column of a
        representative it rests on."""
        g = self.group
        cols, mus = self._cols, self._mu
        length, right, word, rep, relabel = g.length, g.right, g.word, g.rep, g.relabel
        # the stack holds representatives, and everything stacked above x is
        # shorter than x, so when x is back on top they are all filled and
        # its corrections are read again from the column of z
        stack = [x0]
        while stack:
            x = stack[-1]
            if x in cols:
                stack.pop()
                continue
            s = word[x][-1]
            z = right[x][s]
            cz = cols.get(rep[z])
            if cz is None:
                stack.append(rep[z])
                continue
            phi = relabel[z]
            corrections = []
            for i, ys in cz:
                mu = mus[i]
                if mu:
                    for y in ys:
                        y = phi[y]
                        if length[right[y][s]] < length[y]:
                            corrections.append((y, mu))
            pending = [rep[y] for y, _ in corrections if rep[y] not in cols]
            if pending:
                stack.extend(pending)
                continue
            cols[x] = self._combine(s, z, corrections)
            self.unsaved = True
            stack.pop()

    def _combine(self, s: int, z: ElementId, corrections: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
        """Column of x = z s, as [(id, ys)], from the column of z and the
        mu-corrections [(y, mu(y, z))] over y < z with ys < y, summed in
        one transient packed accumulator and interned once, each entry into
        the group of its id; every column is read group by group from its
        representative's through the symmetry, with one multiply per group
        of a mu-correction.  Every y in the column of a mu-correction is
        <= x, so it is already in acc (w <= x gives w <= z or ws <= z)."""
        g = self.group
        length, right, rep, relabel = g.length, g.right, g.rep, g.relabel
        hs, cols = self._packed[_B], self._cols
        acc: dict[int, int] = {}
        get = acc.get
        phi = relabel[z]
        for i, ys in cols[rep[z]]:
            p = hs[i]
            up, down = p << _B, p >> _B  # v h_{y,z}, and v^-1 h_{y,z} (min exp >= 1 where it is used)
            for y in ys:
                y = phi[y]
                t = right[y][s]
                acc[t] = get(t, 0) + p
                acc[y] = get(y, 0) + (up if length[t] > length[y] else down)
        try:
            for y, mu in corrections:
                phi = relabel[y]
                for j, ws in cols[rep[y]]:
                    q = mu * hs[j]
                    for w in ws:
                        acc[phi[w]] -= q
        except KeyError:
            raise KLLawError("a KL column is not a Bruhat interval") from None
        x = right[z][s]
        if acc.get(x) != 1:
            raise KLLawError("KL recursion lost unitriangularity")
        ids, intern = self._ids, self._intern
        out = defaultdict(list)  # id -> ys
        try:
            for y, p in acc.items():
                if p:
                    i = ids.get(p)
                    out[intern(p) if i is None else i].append(y)
        except OverflowError:
            raise KLLawError("KL recursion gave a negative coefficient or one of 2^31 or more") from None
        return list(out.items())


def _check_id(g: GroupTable, x: object) -> None:
    if not g.is_element_id(x):
        raise ValueError(f"{x!r} is not an element id of this group")


# -- elements -----------------------------------------------------------------


class HeckeElt(LinComb):
    """A Hecke algebra element, a finite sum of delta_x with coefficients
    in Q(v), built from {x: RatFunc}.  Immutable by convention.

    ``+``, ``-``, ``scale``, ``coefficient``, ``coeffs``, ``rows``, ``den``,
    ``==``, ``hash`` and ``repr`` are inherited from LinComb; elements over
    different group tables do not mix (ValueError)."""

    __slots__ = ("group",)

    def __init__(self, group: GroupTable, coeffs: dict[ElementId, RatFunc]):
        self.group = group
        LinComb.__init__(self, coeffs)
        for x in self.rows:
            if not group.is_element_id(x):
                raise ValueError(f"{x!r} is not an element id of this group; delta_x is not defined")

    def _algebra(self) -> int:
        return id(self.group)

    def _label(self, x: ElementId) -> str:
        return f"d[{self.group.word_str(x)}]"

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, group: GroupTable) -> "HeckeElt":
        return cls(group, {})

    @classmethod
    def one(cls, group: GroupTable) -> "HeckeElt":
        return cls(group, {0: RatFunc.one()})

    @classmethod
    def std(cls, group: GroupTable, x: ElementId) -> "HeckeElt":
        """The standard basis element delta_x."""
        return cls(group, {x: RatFunc.one()})

    # -- multiplication -----------------------------------------------------------

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if not self._peer(other):
            return NotImplemented
        if not self.rows or not other.rows:
            return HeckeElt.zero(self.group)
        acc, off, bound = _dense_product(self.group, self.rows, other.rows)
        return self._rebuild(*_reduced(acc, off, bound, self.den * other.den))

    # -- involutions ---------------------------------------------------------------

    def bar(self) -> "HeckeElt":
        """The bar involution: v -> v^-1, delta_x -> delta_{x^-1}^-1.

        For self = sum_x c_x delta_x / D with integer rows c_x, the result
        is sum_x bar(c_x) bar(delta_x) / bar(D), with bar(delta_x) from
        _bar_std; rows and denominator are multiplied by the unit +-v^d,
        d = deg D, that normalises bar(D).  bar is a ring automorphism, so
        the result is in canonical form without a gcd: a factor common to
        bar(D) and every row would come back under bar as a factor common
        to D and every row of self.  Bound: sum_x 3^length(x) ||c_x||_1.
        """
        if not self.rows:
            return self
        g = self.group
        length = g.length
        vec, den = self.rows, self.den._terms
        bound = sum(3 ** length[x] * sum(map(abs, c.values())) for x, c in vec.items())
        b = _width(bound)
        hi = max(e for c in vec.values() for e in c)  # bar(c_x) packed at offset -hi
        bars = _bar_std(g, max(length[x] for x in vec), b)
        out: dict[int, int] = {}
        get = out.get
        for x, c in vec.items():
            pc = _pack({-e: k for e, k in c.items()}, -hi, b)
            for z, q in bars[x].items():
                out[z] = get(z, 0) + pc * q
        d, sign = max(den), 1 if den[0] > 0 else -1
        rows = dict(_unpacked({z: sign * p for z, p in out.items()}, d - hi - length[g.w0], bound))
        return self._rebuild(rows, LaurentPoly({d - e: sign * c for e, c in den.items()}))


# -- integer standard-basis kernel ---------------------------------------------


def _dense_product(g: GroupTable, avec, bvec):
    """(sum_y avec[y] delta_y) (sum_z bvec[z] delta_z) over Z[v, v^-1] for
    {element: {exp: int}} vectors, as the (vec, off, bound) triple that
    _unpacked takes.

    Walks the trie of minimal words of b's support once, keeping a delta_z
    packed for the current node z: a right step by delta_s adds each entry
    to delta_{ys}, and (v^-1 - v) times it to delta_y when ys < y; a node z
    in b's support adds (a delta_z) b_z, one multiply per entry.

    Bound: a step at most triples the largest coefficient, so ||a||_inf
    sum_z 3^length(z) ||b_z||_1 bounds the product and every a delta_z on
    the way.  Offset: a's slots start length(w0) below its lowest exponent;
    a path takes at most length(w0) steps, each lowering the lowest exponent
    by at most one, so slot 0 is empty whenever a vector is shifted down
    and p >> b is exact, for negative p too.
    """
    length, right, word = g.length, g.right, g.word
    bound = max(abs(c) for d in avec.values() for c in d.values()) * sum(
        3 ** length[z] * sum(map(abs, d.values())) for z, d in bvec.items()
    )
    b = _width(bound)
    off_a = min(e for d in avec.values() for e in d) - length[g.w0]
    off_b = min(e for d in bvec.values() for e in d)
    packed_b = {z: _pack(d, off_b, b) for z, d in bvec.items()}

    # trie of prefixes of b-support words
    children: dict[int, list[tuple[int, int]]] = {0: []}
    for z in bvec:
        node = 0
        for s in word[z]:
            nxt = right[node][s]
            kids = children.setdefault(node, [])
            if all(k != nxt for _, k in kids):
                kids.append((s, nxt))
            children.setdefault(nxt, [])
            node = nxt

    root_vec = {y: _pack(d, off_a, b) for y, d in avec.items()}
    acc: dict[int, int] = {}

    def absorb(z, vec_z):
        bp = packed_b[z]
        get = acc.get
        for y, p in vec_z.items():
            acc[y] = get(y, 0) + bp * p

    # iterative DFS carrying a * delta_(current path) on a parallel stack
    stack = [iter(children[0])]
    vecs = [root_vec]
    if 0 in packed_b:
        absorb(0, root_vec)
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            vecs.pop()
            continue
        s, child = step
        nxt: dict[int, int] = {}
        get = nxt.get
        for y, p in vecs[-1].items():
            ys = right[y][s]
            nxt[ys] = get(ys, 0) + p
            if length[ys] < length[y]:
                nxt[y] = get(y, 0) + (p >> b) - (p << b)
        vecs.append(nxt)
        stack.append(iter(children[child]))
        if child in packed_b:
            absorb(child, nxt)
    return acc, off_a + off_b, bound


def _bar_std(g: GroupTable, maxlen: int, b: int) -> list[dict[ElementId, int]]:
    """bar(delta_y) for every y with length(y) <= maxlen (ids are ordered by
    length), as {z: int} packed at offset -length(w0) and width b, built
    along the weak right order: bar(delta_y) = bar(delta_{ys}) (delta_s + v
    - v^-1) for the last letter s of y's word.

    Bound: 3^length(y), as each step at most triples the largest
    coefficient; b must fit it.  bar(delta_{ys}) has no exponent below
    1 - length(y) >= 1 - length(w0), so p >> b is exact."""
    length, right, word = g.length, g.right, g.word
    bars = [{0: 1 << (b * length[g.w0])}]
    for y in range(1, g.size):
        if length[y] > maxlen:
            break
        s = word[y][-1]
        cur: dict[int, int] = {}
        get = cur.get
        for z, p in bars[right[y][s]].items():
            zs = right[z][s]
            cur[zs] = get(zs, 0) + p
            if length[zs] > length[z]:  # + (v - v^-1) p; it cancels when zs < z
                cur[z] = get(z, 0) + (p << b) - (p >> b)
        bars.append({z: p for z, p in cur.items() if p})
    return bars


# -- KL basis, both directions ---------------------------------------------------


def kl_basis(group: GroupTable, x: ElementId, table: KLTable) -> HeckeElt:
    """b_x = sum_y h_{y,x} delta_y; ValueError unless x is an element id
    and the table is one of group's."""
    table.check_group(group)
    return HeckeElt(group, {y: RatFunc(p) for y, p in table.column(x).items()})


def _back_substitute(dense: list[int], off: int, bound: int, table: KLTable):
    """Yield the integer KL-basis coefficients (x, c_x), as {exp: int},
    with sum_x c_x b_x = sum_y dense[y] delta_y, in descending id order.
    dense is a list of packed polynomials indexed by element id, and is
    consumed; dense[y] is packed by _pack at exponent offset off and width
    _width(bound), and bound is at least every |coefficient| in it.

    Descending ids: subtracting c_x b_x only touches y < x in Bruhat order,
    and those have strictly smaller ids in the enumeration.

    Work: each column is read group by group (KLTable.column_packed), so
    c_x h is multiplied out once per distinct polynomial h of the column
    and subtracted at every y it stands at; a column holds about ten
    times fewer distinct polynomials than entries.  The walk stops as soon
    as the vector is empty (one C-level any() per popped x), not at id 0.

    Bound: subtracting c_z b_z moves a coefficient by at most peak
    ||c_z||_1, peak read once the column of z is filled.  So G =
    ||dense||_inf + the sum of those over the z popped so far bounds every
    coefficient still in dense, c_x included, and each c_x is decoded under
    G.  Before a subtraction lets G reach 2^(b-1), the remaining vector is
    decoded under the old G and repacked at a wider digit, and the columns
    are read from then on at that digit."""
    b = _width(bound)
    for x in range(len(dense) - 1, -1, -1):
        p = dense[x]
        if not p:
            continue
        c = _unpack(p, off, b, bound)
        yield x, c
        groups, phi = table.column_packed(x)  # filled before the peak is read
        grown = bound + table.peak * sum(map(abs, c.values()))
        if grown >= 1 << (b - 1):
            wide = _width(grown)
            dense = [q and _pack(_unpack(q, off, b, bound), off, wide) for q in dense]
            b, p = wide, dense[x]
        bound = grown
        hs = table.packed_at(b)
        for i, ys in groups:
            q = p * hs[i]
            for y in ys:
                dense[phi[y]] -= q  # dense[x] becomes 0: h_{x,x} = 1
        if not any(dense):  # nothing is left below x
            return
    if any(dense):
        raise ArithmeticError("back-substitution left a nonzero residue")


def to_kl_basis(h: HeckeElt, table: KLTable, fc_only: bool = False) -> tuple[dict, LaurentPoly]:
    """The coefficients of h in the KL basis as canonical (rows, den), as
    LinComb holds them, by back-substitution from the longest supported
    element down; with fc_only, only those of the fully commutative x (the
    others are computed and dropped).  A table of another group: ValueError."""
    table.check_group(h.group)
    g = table.group
    vec, off, bound = _packed(h.rows)
    dense = [0] * g.size
    for y, p in vec.items():
        dense[y] = p
    fc = g.fc
    pairs = _back_substitute(dense, off, bound, table)
    return _canonical({x: c for x, c in pairs if fc[x] or not fc_only}, h.den)


# -- TL_W products on the W-graph --------------------------------------------------


def kl_multiply(a: LinComb, b: LinComb, table: KLTable) -> tuple[dict, LaurentPoly]:
    """The KL-basis coefficients of (sum_x a_x b_x) (sum_x b_x b_x) modulo
    the span of the non-FC b_x, for linear combinations keyed by fully
    commutative element ids (a non-FC key: ValueError), as canonical
    (rows, den): the product in TL_W, computed on the FC part of the
    W-graph (KLTable.fc_w_graph) alone.

    On the integer rows of the operands, over the product of their
    denominators: for each x in the closure of b's support, in id order,
    with s the last letter of the word of x and x' = xs,

        a beta_x = (a beta_{x'}) beta_s - sum_y mu(y, x') a beta_y

    over the y of graph[s][x'], all shorter than x; the product is sum_x
    c_x (a beta_x), reduced once.

    Bound: a step by beta_s multiplies ||.||_1 by at most M_s = growth[s],
    so B(e) = ||a||_1 and B(x) = M_s B(x') + sum_y mu(y, x') B(y) bound
    ||a beta_x||_1 and every vector on its way, and sum_x ||c_x||_1 B(x)
    bounds the product (each B on the way is at most some B(x), x in the
    support).
    Offset: a's slots start l below its lowest exponent, l the longest
    length in b's support; a beta_x has no exponent below that of a minus
    length(x), so slot 0 is empty whenever a vector is shifted down (the
    v^-1 of [2]) and p >> b is exact, for negative p too."""
    g = table.group
    fc, length, right, word = g.fc, g.length, g.right, g.word
    avec, bvec = a.rows, b.rows
    for x in (*avec, *bvec):
        if not fc[x]:
            raise ValueError(f"element {x} is not fully commutative; beta_x is not defined")
    if not avec or not bvec:
        return {}, LaurentPoly.one()
    graph, growth = table.fc_w_graph()

    steps: dict[int, tuple] = {}  # x -> (s, x', the mu-corrections of (x', s))
    todo = list(bvec)
    while todo:
        x = todo.pop()
        if x and x not in steps:
            s = word[x][-1]
            xp = right[x][s]
            corrections = graph[s][xp][1]
            steps[x] = s, xp, corrections
            todo.append(xp)
            todo.extend(y for y, _ in corrections)
    order = sorted(steps)

    l1 = {0: a.l1}
    for x in order:
        s, xp, corrections = steps[x]
        l1[x] = growth[s] * l1[xp] + sum(mu * l1[y] for y, mu in corrections)
    bound = sum(sum(map(abs, d.values())) * l1[x] for x, d in bvec.items())
    bw = _width(bound)
    off_a = min(e for d in avec.values() for e in d) - max(length[x] for x in bvec)
    off_b = min(e for d in bvec.values() for e in d)

    vecs = {0: {w: _pack(d, off_a, bw) for w, d in avec.items()}}  # x -> a beta_x
    for x in order:
        s, xp, corrections = steps[x]
        row = graph[s]
        out: dict[int, int] = {}
        get = out.get
        for w, p in vecs[xp].items():
            e = row[w]
            if e is None:
                out[w] = get(w, 0) + (p << bw) + (p >> bw)  # [2] p
            else:
                up, down = e
                if up is not None:
                    out[up] = get(up, 0) + p
                for y, mu in down:
                    out[y] = get(y, 0) + mu * p
        for y, mu in corrections:
            for w, q in vecs[y].items():
                out[w] = get(w, 0) - mu * q
        vecs[x] = out

    acc: dict[int, int] = {}
    get = acc.get
    for x, d in bvec.items():
        pc = _pack(d, off_b, bw)
        for w, p in vecs[x].items():
            acc[w] = get(w, 0) + pc * p
    return _reduced(acc, off_a + off_b, bound, a.den * b.den)


def kl_product_coeffs(table: KLTable, x: ElementId, s: int) -> dict[ElementId, LaurentPoly]:
    """KL-basis coefficients of b_x b_s, via the standard basis and
    back-substitution.  b_x b_s = sum_y h_{y,x} (delta_{ys} + v^(+-1)
    delta_y) is packed straight from the grouped column (KLTable.
    column_packed) into a dense vector at exponent offset -1, with the
    shifted copies of each distinct h_{y,x} made once; each of its
    coefficients sums at most two column coefficients.  ValueError
    unless x is an element id and s in range(rank)."""
    g = table.group
    if type(s) is not int or not 0 <= s < g.rank:
        raise ValueError(f"{s!r} is not a generator of this group")
    length, right = g.length, g.right
    groups, phi = table.column_packed(x)  # filled before the peak is read
    bound = 2 * table.peak
    b = _width(bound)
    hs = table.packed_at(b)
    acc = [0] * g.size
    for i, ys in groups:
        p = hs[i]  # v^-1 h_{y,x} at offset -1
        h, vh = p << b, p << 2 * b
        for y in ys:
            y = phi[y]
            t = right[y][s]
            acc[t] += h
            acc[y] += vh if length[t] > length[y] else p
    return {z: LaurentPoly(c) for z, c in _back_substitute(acc, -1, bound, table)}


# -- the antisymmetriser ------------------------------------------------------------


def t_w0_class(group: GroupTable) -> HeckeElt:
    """The class [T_w0] = sum_x (-v)^(-length(x w0)) delta_x.

    It satisfies [T_w0] delta_s = -v [T_w0] for every generator s,
    hence [T_w0]^2 = (-1)^length(w0) grrk(w0) [T_w0]: squaring multiplies
    each delta_x through [T_w0] and picks up (-v)^length(x) per term.
    """
    lw0 = group.length[group.w0]
    coeffs = {}
    for x in range(group.size):
        k = lw0 - group.length[x]
        coeffs[x] = RatFunc(LaurentPoly({-k: (-1) ** k}))
    return HeckeElt(group, coeffs)


def antisymmetriser(group: GroupTable, table: KLTable) -> HeckeElt:
    """The idempotent e_sign = (-1)^length(w0) [T_w0] / grrk(w0),
    normalized so the coefficient of b_id is positive.

    Its delta_x coefficient is (-1)^length(x) v^(-length(x w0)) / grrk(w0).
    """
    # function-level import: jwkit.grank imports this module
    from jwkit.grank import grrk_w0

    sign = -1 if group.length[group.w0] % 2 else 1
    den = grrk_w0(group, table).value
    return t_w0_class(group).scale(RatFunc(LaurentPoly.const(sign), den))


# -- whole-basis verification (integer kernel) -----------------------------------


def verify_bar_invariance(group: GroupTable, table: KLTable) -> int:
    """Check bar(b_x) = b_x for every x, with bar(delta_y)
    from _bar_std, products of (delta_s + v - v^-1) along minimal words that
    share nothing with the KL recursion.  Returns the number of elements
    checked.

    bar(b_x) = sum_y bar(h_{y,x}) bar(delta_y) is summed group by group
    of the column (KLTable.column_packed): the bar(delta_y) of a group are
    added first and multiplied once by its bar(h_{y,x}), packed at offset
    -length(w0).  The total, at offset -2 length(w0), is compared with the
    packed column as integers.  Bound: the largest sum_y 3^length(y)
    ||h_{y,x}||_1 over the columns; it bounds every h_{y,x} too, so equal
    integers mean equal polynomials.  A table of another group:
    ValueError."""
    table.check_group(group)
    g = group
    length = g.length
    L = length[g.w0]
    pow3 = [3**k for k in range(L + 1)]
    # a column has the lengths and polynomial ids of its representative's
    reps = [table.column_packed(r)[0] for r in g.representatives()]
    l1 = [sum(d.values()) for d in table.terms]  # ||h||_1 by id
    bound = max(sum(l1[i] * pow3[length[y]] for i, ys in groups for y in ys) for groups in reps)
    b = _width(bound)
    bars = _bar_std(g, L, b)
    hs = table.packed_at(b)
    bar_h = [_pack({-e: c for e, c in d.items()}, -L, b) for d in table.terms]  # at offset -L
    for x in range(g.size):
        groups, phi = table.column_packed(x)
        got: dict[int, int] = {}
        expect: dict[int, int] = {}
        for i, ys in groups:
            acc: dict[int, int] = {}  # the sum of bar(delta_y) over the group
            get = acc.get
            for y in ys:
                for z, q in bars[phi[y]].items():
                    acc[z] = get(z, 0) + q
            hb = bar_h[i]
            get = got.get
            for z, q in acc.items():
                got[z] = get(z, 0) + hb * q
            h = hs[i] << (2 * L * b)
            for y in ys:
                expect[phi[y]] = h
        if {z: q for z, q in got.items() if q} != expect:
            raise KLLawError(f"b_{x} is not bar-invariant")
    return g.size


# -- on-disk cache ------------------------------------------------------------------
#
# Format 5, one file per group:
#
#     kltable 5 <family> <m> <enumeration version>
#     h <e>:<c> <e>:<c> ...          one per stored polynomial, in id order
#     c <x> <y> <id> <y> <id> ...    one per computed column, y ascending
#     end <body lines> <sha256 of the body>
#
# The body is every line between the header and the trailer, newlines
# included.  Element ids depend on the enumeration, hence its version.
# Only the columns of orbit representatives are stored (format 3 held
# every computed column).  Format 5 is format 4 under a new header, so
# a format-4 file, perhaps from the recursion on left descents, is rewritten.


def _header(group: GroupTable) -> str:
    pres = group.presentation
    return f"kltable 5 {pres.family} {pres.m_parameter} {ENUMERATION}"


def write_kl_cache(path: str, table: KLTable) -> int:
    """Write the stored polynomials and every stored column to ``path``
    atomically in format 5, hashing the body as it streams out; a rewrite
    of the same table state is byte-identical.  Returns the number of body
    lines."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kltmp")
    digest = hashlib.sha256()

    def body():
        for h in table.terms:
            yield "h " + " ".join(f"{e}:{h[e]}" for e in sorted(h))
        for x in table.computed_columns():
            col = table.column_ids(x)
            yield f"c {x} " + " ".join([f"{y} {col[y]}" for y in sorted(col)])

    count = 0
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(f"{_header(table.group)}\n".encode())
            for line in body():
                chunk = (line + "\n").encode()
                digest.update(chunk)
                f.write(chunk)
                count += 1
            f.write(f"end {count} {digest.hexdigest()}\n".encode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    table.unsaved = False
    return count


def load_kl_cache(path: str, table: KLTable) -> int:
    """Fill a fresh table, holding only the identity's column and polynomial
    1 (any other: ValueError, before the file is opened), from the format-5
    file at ``path``, whose polynomial ids become the table's.  The file is
    read one line at a time and hashed as it is read.  Each polynomial line
    is checked once: exponents in [0, L], coefficients positive and below
    2^31, polynomial 0 is 1, and no polynomial is stored twice.  Each column
    line is parsed in bulk (every id is a canonical decimal, looked up in
    one dict) and checked for y strictly ascending, x in range, not given
    twice and an orbit representative, and unitriangularity: the last entry
    is y = x with polynomial 0, and no other y has the length of x.  Element
    ids are sorted by length, so the other entries fall into one run per
    length l(y); the law that h_{y,x} lies in v Z[v] and in v^d Z[v^-2], d =
    l(x) - l(y), and the polynomial id range are checked once per
    (polynomial id, d) pair.  The trailer's line count and checksum, and at
    least one polynomial, come last; the checksum catches the edits the laws
    miss.  Each column is stored grouped by polynomial id, its groups in
    the order of their least y.  Only a file that passes every check
    changes the table.  Raises CacheFormatError on any mismatch; returns
    the number of columns added.  Afterwards ``table.unsaved`` tells
    whether the table holds a column the file lacks."""
    if len(table._cols) > 1 or len(table.terms) > 1:
        raise ValueError("a KL cache fills a fresh table only")
    g = table.group
    length, size, rep = g.length, g.size, g.rep
    L = length[g.w0]
    starts = [bisect_left(length, l) for l in range(L + 2)]  # first id of each length
    header = _header(g).encode().split()
    names = {b"%d" % i: i for i in range(size)}  # decimal token -> id; polynomial ids join below
    polys: list[dict[int, int]] = []  # by id
    ids: dict[int, int] = {}  # packed at offset 0 and width _B -> id, in id order
    lawful = [set() for _ in range(L + 1)]  # ids checked, by length difference
    cols: dict[int, list[tuple[int, list[int]]]] = {}  # x -> [(id, ys)]
    digest = hashlib.sha256()
    count = 0
    trailer = None
    with open(path, "rb") as f:
        head = f.readline()
        if head.split() != header:
            raise CacheFormatError(f"header mismatch: {head.decode(errors='replace').strip()!r}")
        try:
            for line in f:
                if trailer is not None:
                    raise CacheFormatError(f"line after the trailing record: {line[:40]!r}")
                parts = line.split()
                tag = parts[0]
                if tag == b"end":
                    trailer = parts
                    continue
                digest.update(line)
                count += 1
                if tag == b"h":
                    terms = {}
                    for item in parts[1:]:
                        e, c = item.split(b":")
                        terms[int(e)] = int(c)
                    if not terms or min(terms.values()) <= 0 or min(terms) < 0 or max(terms) > L:
                        raise CacheFormatError(f"empty polynomial or invalid term: {line!r}")
                    if max(terms.values()) >= _TRIP:
                        raise CacheFormatError(f"cannot pack {line!r} in 32-bit digits")
                    if not polys and terms != {0: 1}:
                        raise CacheFormatError(f"invalid term: polynomial 0 is not 1: {line!r}")
                    p = _pack(terms, 0, _B)
                    if ids.setdefault(p, len(polys)) != len(polys):
                        raise CacheFormatError(f"a polynomial is stored twice: {line!r}")
                    names.setdefault(b"%d" % len(polys), len(polys))
                    polys.append(terms)
                elif tag == b"c":
                    nums = list(map(names.__getitem__, parts[1:]))
                    x, ys, ks = nums[0], nums[1::2], nums[2::2]
                    if len(ys) != len(ks):
                        raise CacheFormatError(f"odd token count in column {x}")
                    if ys != sorted(set(ys)):
                        raise CacheFormatError(f"duplicate or unsorted y in column {x}")
                    if x >= size or x in cols:
                        raise CacheFormatError(f"column {x} out of range or given twice")
                    if rep[x] != x:
                        raise CacheFormatError(f"column {x} is not an orbit representative")
                    lx = length[x]
                    if ys[-1] != x or (len(ys) > 1 and length[ys[-2]] == lx):
                        raise CacheFormatError(f"column {x} is not unitriangular")
                    if ks[-1]:
                        raise CacheFormatError(f"invalid term in column {x}: h_{{x,x}} is not 1")
                    lo = 0
                    for l in range(length[ys[0]], lx):  # the run of y with l(y) = l
                        hi = bisect_left(ys, starts[l + 1], lo)
                        d = lx - l
                        new = set(ks[lo:hi]).difference(lawful[d])
                        for k in new:
                            if k >= len(polys):
                                raise CacheFormatError(f"polynomial id {k} out of range in column {x}")
                            if not all(1 <= e <= d and (d - e) % 2 == 0 for e in polys[k]):
                                raise CacheFormatError(
                                    f"invalid term in column {x}: polynomial {k} at l(x) - l(y) = {d}"
                                )
                        lawful[d].update(new)
                        lo = hi
                    groups = defaultdict(list)  # id -> ys
                    for y, k in zip(ys, ks):
                        groups[k].append(y)
                    cols[x] = list(groups.items())
                else:
                    raise CacheFormatError(f"unknown line tag: {line[:40]!r}")
        except CacheFormatError:
            raise
        except KeyError as exc:
            raise CacheFormatError(f"id out of range or not a decimal: {exc}") from exc
        except (IndexError, ValueError) as exc:
            raise CacheFormatError(f"unparseable line: {exc}") from exc
    if trailer is None or len(trailer) != 3 or not trailer[1].isdigit():
        raise CacheFormatError(f"missing or bad trailing record: {trailer!r}")
    if int(trailer[1]) != count:
        raise CacheFormatError(f"line count {count} != declared {int(trailer[1])}")
    if trailer[2] != digest.hexdigest().encode():
        raise CacheFormatError("checksum mismatch")
    if not polys:
        raise CacheFormatError("no polynomial lines: polynomial 0 is not 1")
    table.terms, table._packed, table._ids = polys, {_B: list(ids)}, ids
    table._mu = [d.get(1, 0) for d in polys]
    table.peak = max(max(d.values()) for d in polys)
    added = len(cols.keys() - table._cols.keys())
    table._cols.update(cols)
    table.unsaved = any(x not in cols for x in table._cols)
    return added
