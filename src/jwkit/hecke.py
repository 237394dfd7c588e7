"""The Hecke algebra of a finite Coxeter group, its Kazhdan-Lusztig basis,
and the antisymmetriser.

Normalization.  The standard basis {delta_x} satisfies, for a generator s,

    delta_s^2 = 1 + (v^-1 - v) delta_s,

equivalently (delta_s + v)(delta_s - v^-1) = 0, and delta_x delta_y =
delta_{xy} whenever lengths add.  The KL basis element b_x = sum_y
h_{y,x} delta_y is the unique bar-invariant element with h_{x,x} = 1 and
h_{y,x} in v Z[v] for y < x; in particular b_s = delta_s + v.

The KL polynomials are computed by the one-generator recursion.  For a
left descent s of x and z = s x,

    b_s b_z = b_x + sum over y < z with sy < y of mu(y, z) b_y,

where mu(y, z) is the coefficient of v in h_{y,z}, and

    b_s delta_y = delta_{sy} + v delta_y        if sy > y,
    b_s delta_y = delta_{sy} + v^-1 delta_y     if sy < y.

Internal representation.  Every integer polynomial here is one Python
integer in the signed Kronecker packing of jwkit.qpoly: sum_e c_e v^e
becomes sum_e c_e 2^(b (e - off)) for an exponent offset off (_pack) and
is read back by balanced digits (_unpack), exactly while every |c_e| <
2^(b-1), borrows between signed digits included.  Addition, shifts and
products become single big-integer operations.  Each kernel states a
bound on every coefficient it can produce, takes the digit width b =
_width(bound) and checks each decoded digit against the bound
(OverflowError).  With L = length(w0), ||c||_1 the sum of |coefficients|
and peak(x) the largest coefficient in the column of x, the bounds are:

* dense (_dense_product, a b in the standard basis): a step by delta_s at
  most triples the largest coefficient, so ||a||_inf sum_z 3^length(z)
  ||b_z||_1 bounds the product and every intermediate a delta_z;
* lift (_lift, sum_x c_x b_x in the standard basis): sum_x peak(x)
  ||c_x||_1;
* bar (_bar_std, bar(delta_y)): 3^length(y), by the same tripling;
* back-substitution (_back_substitute, behind to_kl_basis, kl_multiply
  and kl_product_coeffs): a running bound, widening the digit before it
  could reach 2^(b-1).

The KL table stores each h_{y,x} at offset 0 with 32-bit digits: its
coefficients are nonnegative and below 2^31, its exponents in [0, L].
The recursion's mu-corrections cannot borrow across digits, because the
accumulator dominates, digit by digit, everything subtracted from it (the
final h coefficients are nonnegative); KLTable.decoded still rejects a
digit of 2^31 or more.

The four entry points that take or return RatFunc coefficients
(HeckeElt.__mul__, HeckeElt.bar, to_kl_basis and kl_multiply) clear
them only through LinComb.integral and rebuild them only through
jwkit.qpoly._rationals, once per coefficient returned.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from jwkit.coxeter import ElementId, GroupTable
from jwkit.qpoly import (
    _B,
    LaurentPoly,
    LinComb,
    RatFunc,
    _pack,
    _rationals,
    _unpack,
    _unpacked,
    _width,
)

_MASK = (1 << _B) - 1
_TRIP = 1 << (_B - 1)  # stored coefficients must stay below this


def _pk_encode(d: dict[int, int]) -> int:
    """_pack(d, 0, _B), as the table stores a KL polynomial, checked and
    packed in one pass (the cache loader runs it per distinct term list);
    ValueError for a coefficient outside [0, 2^31) or a negative exponent."""
    p = 0
    for e, c in d.items():
        if c < 0 or c >= _TRIP or e < 0:
            raise ValueError("cannot pack this polynomial")
        p += c << (_B * e)
    return p


def _column_at(table: "KLTable", x: ElementId, b: int) -> dict[ElementId, int]:
    """The packed column of x at digit width b: the stored column at the
    table's _B, else repacked through the decoded memo."""
    col = table.column_packed(x)
    if b == _B:
        return col
    dec = table.decoded
    return {y: _pack(dec(p), 0, b) for y, p in col.items()}


class CacheFormatError(ValueError):
    """An on-disk KL table failed validation."""


class KLLawError(ArithmeticError):
    """KL data breaks a law every Kazhdan-Lusztig polynomial satisfies
    (unitriangularity, bar invariance of b_x, parity or bar symmetry of a
    graded rank): the table holds wrong polynomials."""


class KLTable:
    """Kazhdan-Lusztig polynomials h_{y,x} for one group, computed lazily
    column by column and shared by everything downstream."""

    def __init__(self, group: GroupTable):
        self.group = group
        self._cols: dict[int, dict[int, int]] = {0: {0: 1}}
        self._decoded: dict[int, dict[int, int]] = {}
        self._peaks: dict[int, int] = {}
        self.w0_rank = None  # grrk(w0), memoised by jwkit.grank.grrk_w0
        # True while the table holds a column its cache file lacks
        self.unsaved = True

    # -- public views --------------------------------------------------------

    def h(self, y: ElementId, x: ElementId) -> LaurentPoly:
        """The KL polynomial h_{y,x} (zero unless y <= x)."""
        p = self.column_packed(x).get(y)
        return LaurentPoly(self.decoded(p)) if p else LaurentPoly.zero()

    def mu(self, y: ElementId, x: ElementId) -> int:
        """The coefficient of v in h_{y,x}."""
        return (self.column_packed(x).get(y, 0) >> _B) & _MASK

    def column(self, x: ElementId) -> dict[ElementId, LaurentPoly]:
        """All nonzero h_{y,x} as Laurent polynomials."""
        return {y: LaurentPoly(self.decoded(p)) for y, p in self.column_packed(x).items()}

    def column_packed(self, x: ElementId) -> dict[ElementId, int]:
        col = self._cols.get(x)
        if col is None:
            self._fill_column(x)
            col = self._cols[x]
        return col

    def decoded(self, p: int) -> dict[int, int]:
        """The stored polynomial p as {exp: int}, memoised by packed value: a
        table holds few distinct polynomials (235 in B4, 1691 in F4).
        Read-only.  A digit of 2^31 or more exceeds the bound or decodes
        negative: OverflowError."""
        d = self._decoded.get(p)
        if d is None:
            d = _unpack(p, 0, _B, _TRIP - 1)
            if any(c < 0 for c in d.values()):
                raise OverflowError("packed-polynomial digit overflow")
            self._decoded[p] = d
        return d

    def column_peak(self, x: ElementId) -> int:
        """The largest coefficient of any h_{y,x}, memoised per column (a
        stored column never changes): the bound packed sums start from."""
        peak = self._peaks.get(x)
        if peak is None:
            dec = self.decoded
            vals = set(self.column_packed(x).values())
            peak = self._peaks[x] = max(max(dec(p).values()) for p in vals)
        return peak

    def graded_sum(self, x: ElementId) -> dict[int, int]:
        """sum_y v^(-length(y)) h_{y,x} over the column of x, the graded rank
        of x, as {exp: int}.  One packed sum: the h_{y,x} are added into one
        bucket per length l(y), bucket l is shifted by L - l digits (L =
        length(w0)), and the total is decoded once at offset -L.  Bound:
        every coefficient sums at most one coefficient per column entry, so
        (column size) x peak(x)."""
        length = self.group.length
        L = length[self.group.w0]
        bound = len(self.column_packed(x)) * self.column_peak(x)
        b = _width(bound)
        buckets = [0] * (L + 1)
        for y, p in _column_at(self, x, b).items():
            buckets[length[y]] += p
        packed = 0
        for part in buckets:  # bucket l ends up shifted by L - l digits
            packed = (packed << b) + part
        return _unpack(packed, -L, b, bound)

    def computed_columns(self) -> list[ElementId]:
        return sorted(self._cols)

    # -- the recursion ---------------------------------------------------------

    def _fill_column(self, x0: ElementId) -> None:
        g = self.group
        cols = self._cols
        length, left = g.length, g.left
        stack = [x0]
        while stack:
            x = stack[-1]
            if x in cols:
                stack.pop()
                continue
            s = g.first_left_descent(x)
            z = left[x][s]
            cz = cols.get(z)
            if cz is None:
                stack.append(z)
                continue
            pending = [
                y
                for y, p in cz.items()
                if length[left[y][s]] < length[y] and (p >> _B) & _MASK and y not in cols
            ]
            if pending:
                stack.extend(pending)
                continue
            cols[x] = self._combine(s, z, cz)
            self.unsaved = True
            stack.pop()

    def _combine(self, s: int, z: ElementId, cz: dict[int, int]) -> dict[int, int]:
        """Column of x = s z from the column of z, lengths descending."""
        g = self.group
        length, left = g.length, g.left
        acc: dict[int, int] = {}
        corrections = []
        for y, p in cz.items():
            sy = left[y][s]
            if length[sy] > length[y]:
                acc[sy] = acc.get(sy, 0) + p
                acc[y] = acc.get(y, 0) + (p << _B)  # + v h_{y,z}
            else:
                acc[sy] = acc.get(sy, 0) + p
                acc[y] = acc.get(y, 0) + (p >> _B)  # + v^-1 h_{y,z}; min exp >= 1 here
                mu = (p >> _B) & _MASK
                if mu:
                    corrections.append((y, mu))
        for y, mu in corrections:
            coly = self._cols[y]
            for yy, q in coly.items():
                r = acc.get(yy, 0) - mu * q
                if r:
                    acc[yy] = r
                else:
                    acc.pop(yy, None)
        x = left[z][s]
        if acc.get(x) != 1:
            raise KLLawError("KL recursion lost unitriangularity")
        return {y: p for y, p in acc.items() if p}


# -- elements -----------------------------------------------------------------


class HeckeElt(LinComb):
    """A Hecke algebra element, a finite sum of delta_x with RatFunc
    coefficients.  Immutable by convention.

    ``+``, ``-``, ``scale``, ``coefficient``, ``cleared``, ``integral``,
    ``==``, ``hash`` and ``repr`` are inherited from LinComb; elements over
    different group tables do not mix (ValueError)."""

    __slots__ = ("group",)

    def __init__(self, group: GroupTable, coeffs: dict[ElementId, RatFunc]):
        self.group = group
        self.coeffs = {x: c for x, c in coeffs.items() if not c.is_zero}

    def _rebuild(self, coeffs: dict[ElementId, RatFunc]) -> "HeckeElt":
        return HeckeElt(self.group, coeffs)

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

    def times_gen(self, s: int, side: str = "right") -> "HeckeElt":
        """Multiply by delta_s on the given side.

        delta_x delta_s = delta_{xs} if xs > x, else delta_{xs} +
        (v^-1 - v) delta_x; mirrored for the left action.
        """
        g = self.group
        table = g.right if side == "right" else g.left
        vdiff = RatFunc(LaurentPoly({-1: 1, 1: -1}))
        out: dict[int, RatFunc] = {}
        for x, c in self.coeffs.items():
            xs = table[x][s]
            out[xs] = out.get(xs, RatFunc.zero()) + c
            if g.length[xs] < g.length[x]:
                out[x] = out.get(x, RatFunc.zero()) + c * vdiff
        return HeckeElt(g, out)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if not self._peer(other):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return HeckeElt.zero(self.group)
        avec, ascale = self.integral()
        bvec, bscale = other.integral()
        prod = _unpacked(*_dense_product(self.group, avec, bvec))
        return HeckeElt(self.group, _rationals(prod, ascale * bscale))

    # -- involutions ---------------------------------------------------------------

    def bar(self) -> "HeckeElt":
        """The bar involution: v -> v^-1, delta_x -> delta_{x^-1}^-1.

        Cleared to scale * sum_x c_x delta_x with integer c_x, the result is
        bar(scale) * sum_x bar(c_x) bar(delta_x), with bar(delta_x) from
        _bar_std.  Bound: sum_x 3^length(x) ||c_x||_1.
        """
        if not self.coeffs:
            return self
        g = self.group
        length = g.length
        vec, scale = self.integral()
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
        return HeckeElt(g, _rationals(_unpacked(out, -hi - length[g.w0], bound), scale.bar()))


# -- integer standard-basis kernel ---------------------------------------------


def _dense_product(g: GroupTable, avec, bvec):
    """(sum_y avec[y] delta_y) (sum_z bvec[z] delta_z) over Z[v, v^-1] for
    {element: {exp: int}} vectors, as the (vec, off, bound) triple that
    _back_substitute takes.

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
    """b_x = sum_y h_{y,x} delta_y."""
    return HeckeElt(group, {y: RatFunc(p) for y, p in table.column(x).items()})


def _lift(vec: dict[int, dict[int, int]], table: KLTable) -> dict[int, dict[int, int]]:
    """sum_x vec[x] b_x as an integer standard-basis vector: one multiply
    _pack(c_x) h_{y,x} per column entry, at the lowest exponent of vec.
    Bound: sum_x peak(x) ||c_x||_1, peak(x) the largest coefficient of the
    column of x."""
    bound = sum(table.column_peak(x) * sum(map(abs, c.values())) for x, c in vec.items())
    b = _width(bound)
    off = min(e for c in vec.values() for e in c)
    out: dict[int, int] = {}
    get = out.get
    for x, c in vec.items():
        pc = _pack(c, off, b)
        for y, h in _column_at(table, x, b).items():
            out[y] = get(y, 0) + pc * h
    return dict(_unpacked(out, off, bound))


def _packed(vec: dict[int, dict[int, int]]):
    """(packed, off, bound) for _back_substitute from {y: {exp: int}}:
    bound is the largest |coefficient|, off the smallest exponent."""
    bound = max((abs(c) for d in vec.values() for c in d.values()), default=0)
    off = min((e for d in vec.values() for e in d), default=0)
    b = _width(bound)
    return {y: _pack(d, off, b) for y, d in vec.items()}, off, bound


def _back_substitute(vec: dict[int, int], off: int, bound: int, table: KLTable):
    """Yield the integer KL-basis coefficients (x, c_x), as {exp: int},
    with sum_x c_x b_x = sum_y vec[y] delta_y, in descending id order;
    consumes vec.  vec[y] is packed by _pack at exponent offset off and
    width _width(bound), and bound is at least every |coefficient| in vec.

    Descending ids: subtracting c_x b_x only touches y < x in Bruhat order,
    and those have strictly smaller ids in the enumeration.

    Bound: subtracting c_z b_z moves a coefficient by at most peak(z)
    ||c_z||_1, peak(z) being the largest coefficient of the column of z.
    So G = ||vec||_inf + the sum of peak(z) ||c_z||_1 over the z popped so
    far bounds every coefficient still in vec, c_x included, and each c_x
    is decoded under G.  Before a subtraction lets G reach 2^(b-1), the
    remaining vector is decoded under the old G and repacked at a wider
    digit, and the columns read from then on are repacked too."""
    b = _width(bound)
    for x in range(max(vec, default=-1), -1, -1):
        p = vec.get(x)
        if not p:
            continue
        c = _unpack(p, off, b, bound)
        yield x, c
        grown = bound + table.column_peak(x) * sum(map(abs, c.values()))
        if grown >= 1 << (b - 1):
            wide = _width(grown)
            for y, q in vec.items():
                if q:
                    vec[y] = _pack(_unpack(q, off, b, bound), off, wide)
            b, p = wide, vec[x]
        bound = grown
        get = vec.get
        for y, h in _column_at(table, x, b).items():
            vec[y] = get(y, 0) - p * h  # vec[x] becomes 0: h_{x,x} = 1
    if any(vec.values()):
        raise ArithmeticError("back-substitution left a nonzero residue")


def to_kl_basis(h: HeckeElt, table: KLTable, fc_only: bool = False) -> dict[ElementId, RatFunc]:
    """Coefficients of h in the KL basis, by back-substitution from the
    longest supported element down; with fc_only, only those of the fully
    commutative x (the others are computed but never become RatFunc)."""
    if not h.coeffs:
        return {}
    vec, scale = h.integral()
    keep = table.group.fc if fc_only else None
    return _rationals(_back_substitute(*_packed(vec), table), scale, keep)


def kl_multiply(a: LinComb, b: LinComb, table: KLTable) -> dict[ElementId, RatFunc]:
    """The fully commutative KL-basis coefficients of (sum_x a_x b_x)
    (sum_x b_x b_x) for linear combinations keyed by element ids: the
    product in TL_W, where the non-FC b_x span the ideal that is dropped.
    Each operand is cleared by LinComb.integral and lifted to the standard
    basis; _dense_product and back-substitution follow, and only the
    coefficients returned become RatFunc."""
    if not a.coeffs or not b.coeffs:
        return {}
    avec, ascale = a.integral()
    bvec, bscale = b.integral()
    prod = _dense_product(table.group, _lift(avec, table), _lift(bvec, table))
    return _rationals(_back_substitute(*prod, table), ascale * bscale, table.group.fc)


def kl_product_coeffs(table: KLTable, x: ElementId, s: int) -> dict[ElementId, LaurentPoly]:
    """KL-basis coefficients of b_x b_s, via the standard basis and
    back-substitution.  b_x b_s = sum_y h_{y,x} (delta_{ys} + v^(+-1)
    delta_y) is packed straight from the column at exponent offset -1;
    each of its coefficients sums at most two column coefficients."""
    g = table.group
    length, right = g.length, g.right
    bound = 2 * table.column_peak(x)
    b = _width(bound)
    acc: dict[int, int] = {}
    get = acc.get
    for y, p in _column_at(table, x, b).items():
        ys = right[y][s]
        acc[ys] = get(ys, 0) + (p << b)
        acc[y] = get(y, 0) + (p << 2 * b if length[ys] > length[y] else p)
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


def verify_bar_invariance(group: GroupTable, table: KLTable, elements=None) -> int:
    """Check bar(b_x) = b_x for every x (or the given ids), with bar(delta_y)
    from _bar_std, products of (delta_s + v - v^-1) along minimal words that
    share nothing with the KL recursion.  Returns the number of elements
    checked.

    bar(b_x) = sum_y bar(h_{y,x}) bar(delta_y) is summed per distinct
    polynomial: the bar(delta_y) with the same h_{y,x} are added first and
    multiplied once by bar(h_{y,x}), packed at offset -length(w0).  The
    total, at offset -2 length(w0), is compared with the packed column as
    integers.  Bound: the largest sum_y 3^length(y) ||h_{y,x}||_1 over the
    columns checked; it bounds every h_{y,x} too, so equal integers mean
    equal polynomials."""
    g = group
    todo = sorted(elements if elements is not None else range(g.size))
    if not todo:
        return 0
    length = g.length
    L = length[g.w0]
    pow3 = [3**k for k in range(L + 1)]
    norm: dict[int, int] = {}  # ||h||_1 per distinct packed h
    bound = 0
    for x in todo:
        n = 0
        for y, p in table.column_packed(x).items():
            k = norm.get(p)
            if k is None:
                k = norm[p] = sum(table.decoded(p).values())
            n += k * pow3[length[y]]
        bound = max(bound, n)
    b = _width(bound)
    bars = _bar_std(g, max(length[x] for x in todo), b)
    barred: dict[int, int] = {}  # bar(h) packed at offset -L, per distinct packed h
    for x in todo:
        sums: dict[int, dict[int, int]] = {}  # h -> sum of bar(delta_y) over h_{y,x} = h
        for y, p in table.column_packed(x).items():
            acc = sums.get(p)
            if acc is None:
                sums[p] = dict(bars[y])
                continue
            get = acc.get
            for z, q in bars[y].items():
                acc[z] = get(z, 0) + q
        got: dict[int, int] = {}
        get = got.get
        for p, acc in sums.items():
            hb = barred.get(p)
            if hb is None:
                hb = barred[p] = _pack({-e: c for e, c in table.decoded(p).items()}, -L, b)
            for z, q in acc.items():
                got[z] = get(z, 0) + hb * q
        expect = {z: h << (2 * L * b) for z, h in _column_at(table, x, b).items()}
        if {z: q for z, q in got.items() if q} != expect:
            raise KLLawError(f"b_{x} is not bar-invariant")
    return len(todo)


# -- on-disk cache ------------------------------------------------------------------


def _digest(body: list[str]) -> str:
    """sha256 of the lines, each ended by a newline, hashed in slices."""
    h = hashlib.sha256()
    for i in range(0, len(body), 4096):
        h.update(("\n".join(body[i : i + 4096]) + "\n").encode())
    return h.hexdigest()


def write_kl_cache(path: str, table: KLTable) -> int:
    """Write every computed column to ``path`` atomically.  Lines are
    sorted, the trailing record pins the line count and the sha256 of the
    entry lines, and a rewrite of the same table state is byte-identical.
    Entry lines stream to the file a column at a time, and each distinct
    polynomial is rendered once."""
    pres = table.group.presentation
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kltmp")
    digest = hashlib.sha256()
    bodies: dict[int, str] = {}
    count = 0
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(f"kltable 2 {pres.family} {pres.m_parameter}\n".encode())
            for x in table.computed_columns():
                col = table.column_packed(x)
                lines = []
                for y in sorted(col):
                    p = col[y]
                    body = bodies.get(p)
                    if body is None:
                        terms = table.decoded(p)
                        body = bodies[p] = " ".join(f"{e}:{terms[e]}" for e in sorted(terms))
                    lines.append(f"{x} {y} {body}\n")
                chunk = "".join(lines).encode()
                digest.update(chunk)
                f.write(chunk)
                count += len(lines)
            f.write(f"end {count} {digest.hexdigest()}\n".encode())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    table.unsaved = False
    return count


def load_kl_cache(path: str, table: KLTable) -> int:
    """Merge columns from ``path`` into the table after validating the
    header, every entry, the trailing line count and the checksum (which
    catches the edits the per-entry laws miss).  Raises CacheFormatError
    on any mismatch; returns the number of columns added.  Afterwards
    ``table.unsaved`` tells whether the table holds a column the file
    lacks."""
    g = table.group
    pres = g.presentation
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"undecodable bytes: {exc}") from exc
    if not raw:
        raise CacheFormatError("empty cache file")
    head = raw[0].split()
    if head != ["kltable", "2", pres.family, str(pres.m_parameter)]:
        raise CacheFormatError(f"header mismatch: {raw[0]!r}")
    trailer = raw[-1].split()
    if len(trailer) != 3 or trailer[0] != "end" or not trailer[1].isdecimal():
        raise CacheFormatError(f"bad trailing record: {raw[-1]!r}")
    declared = int(trailer[1])
    body = raw[1:-1]
    if declared != len(body):
        raise CacheFormatError(f"line count {len(body)} != declared {declared}")
    cols: dict[int, dict[int, int]] = {}
    # a table holds few distinct polynomials: each distinct term list is
    # checked once per length difference and packed once
    lawful: set[tuple[str, int | None]] = set()
    packed: dict[str, int] = {}
    try:
        for line in body:
            parts = line.split(None, 2)
            x, y = int(parts[0]), int(parts[1])
            if not (0 <= y < g.size and 0 <= x < g.size):
                raise CacheFormatError(f"element id out of range: {line!r}")
            text = parts[2] if len(parts) == 3 else ""
            # h_{x,x} = 1; for y != x, h_{y,x} lies in v^d Z[v^-2] and in v Z[v]
            d = None if y == x else g.length[x] - g.length[y]
            if (text, d) not in lawful:
                for item in text.split():
                    e, c = item.split(":")
                    e, c = int(e), int(c)
                    if d is None:
                        ok = e == 0 and c == 1
                    else:
                        ok = c > 0 and 1 <= e <= d and (d - e) % 2 == 0
                    if not ok:
                        raise CacheFormatError(f"invalid term {item!r} in h_{{{y},{x}}}")
                lawful.add((text, d))
            p = packed.get(text)
            if p is None:
                terms = {}
                for item in text.split():
                    e, c = item.split(":")
                    terms[int(e)] = int(c)
                p = packed[text] = _pk_encode(terms)
            if not p or y in cols.get(x, {}):
                raise CacheFormatError(f"empty or duplicate entry: {line!r}")
            cols.setdefault(x, {})[y] = p
    except CacheFormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise CacheFormatError(f"unparseable line: {exc}") from exc
    if _digest(body) != trailer[2]:
        raise CacheFormatError("checksum mismatch")
    added = 0
    for x, col in cols.items():
        if col.get(x) != 1:
            raise CacheFormatError(f"column {x} is not unitriangular")
        if x not in table._cols:
            table._cols[x] = col
            added += 1
    table.unsaved = any(x not in cols for x in table._cols)
    return added
