"""Finite Coxeter groups of types A, B, F4, H3, H4 and I2(m).

Each group is enumerated once into a ``GroupTable``: a flat array of
elements indexed 0..|W|-1, sorted by (length, ShortLex-minimal reduced
word), together with multiplication-by-generator tables, inverses,
lengths, minimal words, the longest element and fully-commutative flags.
Index 0 is always the identity and the last index is the longest element
w0.

Elements are concretely modelled per family, which keeps the enumeration
honest and the braid relations checkable.  Ids, words and every table
depend only on the group, not on the model:

  * types A, B, F4, H3, H4: permutations of the finite root system
    (n(n+1) roots in A_n, 2n^2 in B_n, 48 in F4, 30 in H3, 120 in H4).
    The roots are computed once per build, exactly, as the orbit of the
    simple roots under the reflections s_t(a_u) = a_u - c(u, t) a_t with
    c(u, t) = -2 cos(pi / m(u, t)), over Z[sqrt 2] (A, B, F4) or
    Z[(1 + sqrt 5)/2] (H3, H4).  The entry m = 4 gives -sqrt 2; it is
    used by the bond between generators 0 and 1 of B_n and between
    generators 1 and 2 of F4.  An element w is the tuple of root indices
    (w^-1(a_1), ..., w^-1(a_r)), so a generator step is one table lookup
    per entry (Casselman, "Machine calculations in Weyl groups", 1994);
  * type I2(m): pairs (rotation, reflection) in the dihedral group of
    order 2m, with s = (0, 1) and t = (m-1, 1) so that st = (1, 0).
    2 cos(pi / m) lies in neither ring above for general m, so I2 keeps
    this model of its own.

Type C is accepted as an alias of B.  Types D and E are rejected: the
Temperley-Lieb truncation downstream is not compatible with the
Kazhdan-Lusztig basis there (type D genuinely fails, type E is not
established), so this toolkit does not build those groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ElementId = int  # index into a GroupTable enumeration

LARGE_ORDER = 1152  # |F4|; groups at least this large need an explicit opt-in


class UnsupportedFamilyError(ValueError):
    """Requested a Coxeter family or rank outside the supported list."""


class LargeComputationError(RuntimeError):
    """Refused a large build that was not explicitly opted into."""


class EnumerationError(RuntimeError):
    """The enumerated group contradicts its classical order or has no
    unique longest element: the element model is wrong."""


@dataclass(frozen=True)
class CoxeterPresentation:
    """A supported family with its rank and Coxeter matrix."""

    family: str
    rank: int
    matrix: tuple[tuple[int, ...], ...]  # m(s, t); diagonal entries 1

    @property
    def m_parameter(self) -> int:
        """For I2(m) the defining m; for other families the label rank."""
        if self.family == "I2":
            return self.matrix[0][1]
        return self.rank


def _chain_matrix(rank: int, bonds: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    m = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 1
    for (i, j), val in bonds.items():
        m[i][j] = m[j][i] = val
    return tuple(tuple(row) for row in m)


def presentation(family: str, rank: int | None = None, m: int | None = None) -> CoxeterPresentation:
    """Build the presentation for a supported family.

    ``family`` is one of A, B, C (alias of B), F4, H3, H4, I2.  For I2 the
    parameter ``m`` >= 3 is required and ``rank``, if given, must be 2;
    other families take ``rank``.
    """
    fam = family.strip().upper()
    if fam in ("D", "E", "E6", "E7", "E8") or fam.startswith("D"):
        raise UnsupportedFamilyError(
            f"type {family} is not supported: the Temperley-Lieb truncation is not "
            "compatible with the Kazhdan-Lusztig basis in type D (some products of "
            "basis elements indexed by non-fully-commutative elements escape the "
            "ideal), and for type E no such compatibility is established"
        )
    if fam == "C":
        fam = "B"
    if fam == "I2":
        if m is None:
            raise UnsupportedFamilyError("family I2 requires the parameter m")
        if m < 3:
            raise UnsupportedFamilyError(f"I2(m) requires m >= 3, got m={m}")
        if rank not in (None, 2):
            raise UnsupportedFamilyError(f"type I2(m) has rank 2, got {rank}")
        return CoxeterPresentation("I2", 2, _chain_matrix(2, {(0, 1): m}))
    if fam == "A":
        if rank is None or rank < 1:
            raise UnsupportedFamilyError(f"type A requires rank >= 1, got {rank}")
        return CoxeterPresentation("A", rank, _chain_matrix(rank, {(i, i + 1): 3 for i in range(rank - 1)}))
    if fam == "B":
        if rank is None or rank < 2:
            raise UnsupportedFamilyError(f"type B requires rank >= 2, got {rank}")
        bonds = {(0, 1): 4}
        bonds.update({(i, i + 1): 3 for i in range(1, rank - 1)})
        return CoxeterPresentation("B", rank, _chain_matrix(rank, bonds))
    if fam == "F4":
        if rank not in (None, 4):
            raise UnsupportedFamilyError(f"type F4 has rank 4, got {rank}")
        return CoxeterPresentation("F4", 4, _chain_matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}))
    if fam == "H3":
        if rank not in (None, 3):
            raise UnsupportedFamilyError(f"type H3 has rank 3, got {rank}")
        return CoxeterPresentation("H3", 3, _chain_matrix(3, {(0, 1): 5, (1, 2): 3}))
    if fam == "H4":
        if rank not in (None, 4):
            raise UnsupportedFamilyError(f"type H4 has rank 4, got {rank}")
        return CoxeterPresentation("H4", 4, _chain_matrix(4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}))
    raise UnsupportedFamilyError(f"unknown Coxeter family {family!r}")


def classical_order(pres: CoxeterPresentation) -> int:
    """|W| by the classical product formulas."""
    if pres.family == "A":
        return math.factorial(pres.rank + 1)
    if pres.family == "B":
        return (2**pres.rank) * math.factorial(pres.rank)
    if pres.family == "F4":
        return 1152
    if pres.family == "H3":
        return 120
    if pres.family == "H4":
        return 14400
    if pres.family == "I2":
        return 2 * pres.m_parameter
    raise UnsupportedFamilyError(pres.family)


# -- concrete element models -------------------------------------------------


class _DihedralModel:
    """I2(m): pairs (rotation mod m, reflection bit)."""

    def __init__(self, m: int):
        self.m = m
        self._gens = ((0, 1), (m - 1, 1))

    def identity(self):
        return (0, 0)

    def apply_gen(self, x, s: int):
        a, e = x
        b, f = self._gens[s]
        return ((a + (b if e == 0 else -b)) % self.m, (e + f) % 2)


class _RootModel:
    """A, B, F4, H3, H4: permutations of the finite root system.

    Roots are vectors in the basis of simple roots with coefficients in
    Z[theta], stored as integer pairs (a, b) for a + b theta, where
    theta^2 = p theta + q: theta = sqrt 2 for A, B and F4 (p, q = 0, 2)
    and theta = (1 + sqrt 5)/2 for the H types (p, q = 1, 1).  Type A
    only needs the integer part; m = 4 (B and F4) needs -sqrt 2 and m = 5
    (H3, H4) needs -theta.  The root system is the orbit of the simple
    roots under the reflections s_t(a_u) = a_u - c(u, t) a_t, and
    perm[t][i] is the index of s_t(root i).

    An element w is the tuple (w^-1(a_1), ..., w^-1(a_r)) of root
    indices; it determines w because the simple roots are a basis, and
    right multiplication by s maps each entry i to perm[s][i].
    """

    _C = {
        # c(u, t) = -2 cos(pi / m(u, t)) in Z[theta]
        2: (0, 0),
        3: (-1, 0),
        4: (0, -1),  # -theta, theta = sqrt 2 (B and F4)
        5: (0, -1),  # -theta, theta = (1 + sqrt 5)/2 (H3 and H4)
    }

    def __init__(self, matrix: tuple[tuple[int, ...], ...], p: int, q: int):
        rank = len(matrix)
        c = [[(2, 0) if u == t else self._C[matrix[u][t]] for u in range(rank)] for t in range(rank)]
        roots = [tuple((1, 0) if u == i else (0, 0) for u in range(rank)) for i in range(rank)]
        index = {root: i for i, root in enumerate(roots)}
        perm: list[list[int]] = [[] for _ in range(rank)]
        i = 0
        while i < len(roots):  # roots grows until the orbit closes
            beta = roots[i]
            for t in range(rank):
                # k = sum_u b_u c(u, t), then s_t(beta) = beta - k a_t
                ka = kb = 0
                for (a, b), (e, f) in zip(beta, c[t]):
                    ka += a * e + q * b * f
                    kb += a * f + b * e + p * b * f
                img = list(beta)
                img[t] = (beta[t][0] - ka, beta[t][1] - kb)
                img = tuple(img)
                j = index.get(img)
                if j is None:
                    j = index[img] = len(roots)
                    roots.append(img)
                perm[t].append(j)
            i += 1
        self.roots = roots
        self.perm = [tuple(row) for row in perm]

    def identity(self):
        return tuple(range(len(self.perm)))

    def apply_gen(self, x, s: int):
        p = self.perm[s]
        return tuple([p[i] for i in x])


def _model_for(pres: CoxeterPresentation):
    if pres.family in ("A", "B", "F4"):
        return _RootModel(pres.matrix, 0, 2)
    if pres.family in ("H3", "H4"):
        return _RootModel(pres.matrix, 1, 1)
    if pres.family == "I2":
        return _DihedralModel(pres.m_parameter)
    raise UnsupportedFamilyError(pres.family)


# -- the enumerated group ----------------------------------------------------


class GroupTable:
    """A fully enumerated finite Coxeter group.

    Immutable after construction except for the Bruhat-order memo, which
    only ever gains entries and is deterministic.
    """

    def __init__(self, pres, size, length, word, right, left, inv, fc):
        self.presentation = pres
        self.size = size
        self.length = length  # list[int]
        self.word = word  # list[tuple[int, ...]], ShortLex-minimal reduced words
        self.right = right  # right[x][s] = x * s
        self.left = left  # left[x][s] = s * x
        self.inv = inv  # list[ElementId]
        self.fc = fc  # list[bool], fully commutative flags
        self.w0 = size - 1
        self.rank = pres.rank
        self._bruhat_memo: dict[tuple[int, int], bool] = {}

    # -- basic operations ----------------------------------------------------

    def multiply(self, x: ElementId, y: ElementId) -> ElementId:
        for s in self.word[y]:
            x = self.right[x][s]
        return x

    def word_str(self, x: ElementId) -> str:
        """The minimal word of x with 1-based generators; "e" for the identity."""
        return "".join(str(s + 1) for s in self.word[x]) or "e"

    def right_descents(self, x: ElementId):
        lx = self.length[x]
        return [s for s in range(self.rank) if self.length[self.right[x][s]] < lx]

    def first_left_descent(self, x: ElementId) -> int:
        lx = self.length[x]
        for s in range(self.rank):
            if self.length[self.left[x][s]] < lx:
                return s
        raise ValueError("identity has no descents")

    def is_fully_commutative(self, x: ElementId) -> bool:
        return self.fc[x]

    def fc_elements(self) -> list[ElementId]:
        return [x for x in range(self.size) if self.fc[x]]

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, y: ElementId, x: ElementId) -> bool:
        """y <= x in Bruhat order, by the descent recursion."""
        if y == x or y == 0:
            return True
        if self.length[y] >= self.length[x]:
            return False
        key = (y, x)
        memo = self._bruhat_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        s = self.first_left_descent(x)
        sx = self.left[x][s]
        sy = self.left[y][s]
        if self.length[sy] < self.length[y]:
            result = self.bruhat_leq(sy, sx)
        else:
            result = self.bruhat_leq(y, sx)
        memo[key] = result
        return result

    def bruhat_interval_below(self, x: ElementId) -> list[ElementId]:
        return [y for y in range(self.size) if self.bruhat_leq(y, x)]


def build_group(pres: CoxeterPresentation, allow_large: bool = False) -> GroupTable:
    """Enumerate the group and build all tables.

    Groups with at least LARGE_ORDER elements (F4, H4, A_n for n >= 6,
    B_n for n >= 5, I2(m) for m >= 576) are refused unless ``allow_large``
    is set.
    """
    order = classical_order(pres)
    if order >= LARGE_ORDER and not allow_large:
        raise LargeComputationError(
            f"{pres.family} rank {pres.rank} has {order} elements; "
            "pass allow_large=True (CLI: --allow-large) to build it"
        )

    model = _model_for(pres)
    rank = pres.rank
    ident = model.identity()
    ids: dict[object, int] = {ident: 0}
    word: list[tuple[int, ...]] = [()]
    length = [0]
    right: list[list[int]] = []  # right[x][s] = x * s

    # layered BFS; each new layer is sorted by its ShortLex-minimal word,
    # computed from minimal words of the previous layer.  The frontier is
    # the last numbered layer in id order, so its rows of right are
    # appended in id order; x * s is computed once per (x, s), and an id
    # in the next layer is filled in once that layer is numbered
    frontier = [ident]
    while frontier:
        discovered: dict[object, tuple[int, ...]] = {}
        up = []  # (row, s, x * s) with x * s in the next layer
        for x, elt in enumerate(frontier, len(right)):
            wx = word[x]
            row = [0] * rank
            for s in range(rank):
                y = model.apply_gen(elt, s)
                j = ids.get(y)
                if j is not None:
                    row[s] = j
                    continue
                up.append((row, s, y))
                cand = wx + (s,)
                best = discovered.get(y)
                if best is None or cand < best:
                    discovered[y] = cand
            right.append(row)
        frontier = []
        for elt, w in sorted(discovered.items(), key=lambda kv: kv[1]):
            ids[elt] = len(word)
            word.append(w)
            length.append(len(w))
            frontier.append(elt)
        for row, s, y in up:
            row[s] = ids[y]

    size = len(word)
    if size != order:
        raise EnumerationError(f"enumerated {size} elements, classical order is {order}")
    if length.count(length[-1]) != 1:
        raise EnumerationError("longest element is not unique")

    inv = [0] * size
    for x in range(size):
        z = 0
        for s in reversed(word[x]):
            z = right[z][s]
        inv[x] = z
    left = [[inv[right[inv[x]][s]] for s in range(rank)] for x in range(size)]

    fc = _fc_flags(pres.matrix, length, right)
    return GroupTable(pres, size, length, word, right, left, inv, fc)


# -- fully commutative elements ------------------------------------------------


def _fc_flags(matrix, length, right) -> list[bool]:
    """Fully commutative flags by one pass over the ids in length order.

    x is fully commutative iff no reduced word of x contains an
    alternating braid s t s ... of length m(s, t) >= 3 (Stembridge, "On
    the fully commutative elements of Coxeter groups", 1996).  A reduced
    word of x that contains one either ends in the braid, and then s and t
    are both right descents of x, or its last letter r is a right descent
    and the word of x r left after dropping r still contains the braid.
    Conversely a braid in a reduced word of x r stays in that word
    followed by r, and two right descents s, t with m(s, t) >= 3 give x a
    reduced word ending in the longest element of <s, t>, which is a
    braid.  So fc[x] holds iff fc[x s] holds for every right descent s and
    no two right descents s, t have m(s, t) >= 3; this needs O(|W| r^2)
    steps and no words.
    """
    rank = len(matrix)
    fc = [True] * len(length)
    for x in range(1, len(length)):
        row = right[x]
        desc = [s for s in range(rank) if length[row[s]] < length[x]]
        fc[x] = all(fc[row[s]] for s in desc) and all(
            matrix[s][t] == 2 for i, s in enumerate(desc) for t in desc[i + 1 :]
        )
    return fc


# -- brute-force Bruhat oracle (exported for verification suites) -------------


def bruhat_leq_subword(g: GroupTable, y: ElementId, x: ElementId) -> bool:
    """Independent subword-criterion check: y <= x iff y is a product of
    some subsequence of a fixed reduced word of x.  Exponential in
    length(x); only for small groups and cross-checks."""
    w = g.word[x]
    k = len(w)
    if k > 20:
        raise LargeComputationError(f"subword oracle refuses length {k}")
    for mask in range(1 << k):
        z = 0
        for i in range(k):
            if mask >> i & 1:
                z = g.right[z][w[i]]
        if z == y:
            return True
    return False
