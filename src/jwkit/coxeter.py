"""Finite Coxeter groups of types A, B, F4, H3, H4 and I2(m).

Each group is enumerated once into a ``GroupTable``: a flat array of
elements indexed 0..|W|-1, sorted by (length, ShortLex-minimal reduced
word), together with the table of right multiplication by generators,
inverses, lengths, minimal words, the longest element and
fully-commutative flags.  Index 0 is always the identity and the last
index is the longest element w0.  Every walk here and downstream,
the Bruhat order and the KL recursion included, multiplies on the
right; the last letter of the word of x is a right descent of x.

Every element is modelled the same way, which keeps the enumeration
honest and the braid relations checkable: as a permutation of the finite
root system (n(n+1) roots in A_n, 2n^2 in B_n, 48 in F4, 30 in H3, 120 in
H4, 2m in I2(m)).  The roots are computed once per build, exactly, as the
orbit of the simple roots under the simple reflections, and an element w
is the tuple of root indices (w^-1(a_1), ..., w^-1(a_r)), so a generator
step is one table lookup per entry (Casselman, "Machine calculations in
Weyl groups", 1994).  Ids, words and every table depend only on the
group, not on the model.  Roots are stored

  * for A, B, F4, H3, H4: in the basis of simple roots, with the
    reflections s_t(a_u) = a_u - c(u, t) a_t and c(u, t) = -2 cos(pi /
    m(u, t)), over Z[sqrt 2] (A, B, F4) or Z[(1 + sqrt 5)/2] (H3, H4).
    The entry m = 4 gives -sqrt 2; it is used by the bond between
    generators 0 and 1 of B_n and between generators 1 and 2 of F4;
  * for I2(m), where 2 cos(pi / m) lies in neither ring for general m:
    by angle, the root at angle k pi / m as k mod 2m, with a_1 = 0,
    a_2 = m - 1 and s_t sending k to (2 a_t + m - k) mod 2m.

The enumeration is one breadth-first pass in which an element takes the
next id when first seen, and the first parent found gives its word.

Type C is accepted as an alias of B.  Types D and E are rejected: the
Temperley-Lieb truncation downstream is not compatible with the
Kazhdan-Lusztig basis there (type D genuinely fails, type E is not
established), so this toolkit does not build those groups.
"""

from __future__ import annotations

from dataclasses import dataclass

ElementId = int  # index into a GroupTable enumeration

LARGE_ORDER = 1152  # |F4|; groups at least this large need an explicit opt-in
# No presentation of a larger group is built, opt-in or not: its enumeration
# alone would hold more than rank * MAX_ORDER table entries.
MAX_ORDER = 10**7
# Version of the element order above; KL cache files record it, since they
# store element ids.  Bump it whenever the ids of any group change.
ENUMERATION = 1


class UnsupportedFamilyError(ValueError):
    """Requested a Coxeter family or rank outside the supported list."""


class LargeComputationError(RuntimeError):
    """Refused a large build: one that was not explicitly opted into, or
    one of more than MAX_ORDER elements."""


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
    other families take ``rank``.  A group of more than MAX_ORDER elements
    is refused (LargeComputationError) before its Coxeter matrix is built.
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
        _refuse_beyond_max_order("I2", 2, m)
        return CoxeterPresentation("I2", 2, _chain_matrix(2, {(0, 1): m}))
    if fam == "A":
        if rank is None or rank < 1:
            raise UnsupportedFamilyError(f"type A requires rank >= 1, got {rank}")
        _refuse_beyond_max_order("A", rank)
        return CoxeterPresentation("A", rank, _chain_matrix(rank, {(i, i + 1): 3 for i in range(rank - 1)}))
    if fam == "B":
        if rank is None or rank < 2:
            raise UnsupportedFamilyError(f"type B requires rank >= 2, got {rank}")
        _refuse_beyond_max_order("B", rank)
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


def _order(family: str, rank: int, m: int | None = None) -> int:
    """|W| by the classical product formulas, exact up to MAX_ORDER; any
    larger order comes back as MAX_ORDER + 1, so a huge rank is never
    multiplied out."""
    fixed = {"F4": 1152, "H3": 120, "H4": 14400}
    if family in fixed:
        return fixed[family]
    if family == "I2":
        return min(2 * m, MAX_ORDER + 1)
    if family == "A":
        factors = range(2, rank + 2)  # (rank + 1)!
    elif family == "B":
        factors = range(2, 2 * rank + 1, 2)  # 2^rank rank! = 2 * 4 * ... * 2 rank
    else:
        raise UnsupportedFamilyError(family)
    order = 1
    for f in factors:
        order *= f
        if order > MAX_ORDER:
            return MAX_ORDER + 1
    return order


def _group_name(family: str, rank: int, m: int | None = None) -> str:
    """The group as the refusals name it: ``I2(600)``, ``A rank 3000``."""
    return f"I2({m})" if family == "I2" else f"{family} rank {rank}"


def _refuse_beyond_max_order(family: str, rank: int, m: int | None = None) -> None:
    if _order(family, rank, m) > MAX_ORDER:
        raise LargeComputationError(
            f"{_group_name(family, rank, m)} has more than {MAX_ORDER} elements; "
            "no group that large is built, with or without --allow-large"
        )


def classical_order(pres: CoxeterPresentation) -> int:
    """|W| by the classical product formulas."""
    return _order(pres.family, pres.rank, pres.m_parameter)


# -- the element model ---------------------------------------------------------


class _RootModel:
    """Every family as permutations of its finite root system.

    For A, B, F4, H3 and H4 a root is a vector in the basis of simple roots
    with coefficients in Z[theta], stored as integer pairs (a, b) for
    a + b theta, where theta^2 = p theta + q: theta = sqrt 2 for A, B and
    F4 (p, q = 0, 2) and theta = (1 + sqrt 5)/2 for the H types (p, q =
    1, 1).  Type A only needs the integer part; m = 4 (B and F4) needs
    -sqrt 2 and m = 5 (H3, H4) needs -theta.  s_t(a_u) = a_u - c(u, t) a_t.

    For I2(m), whose 2 cos(pi / m) lies in neither ring for general m, every
    root is a unit vector at an angle k pi / m, stored as k mod 2m: a_1 = 0
    and a_2 = m - 1, so the simple roots meet at the angle pi - pi / m, and
    s_t, the reflection in the line orthogonal to a_t, sends k to
    (2 a_t + m - k) mod 2m.

    The root system is the orbit of the simple roots under the reflections,
    and perm[t][i] is the index of s_t(root i).  An element w is the tuple
    (w^-1(a_1), ..., w^-1(a_r)) of root indices; it determines w because
    the simple roots are a basis, and right multiplication by s maps each
    entry i to perm[s][i].
    """

    _C = {
        # c(u, t) = -2 cos(pi / m(u, t)) in Z[theta]
        2: (0, 0),
        3: (-1, 0),
        4: (0, -1),  # -theta, theta = sqrt 2 (B and F4)
        5: (0, -1),  # -theta, theta = (1 + sqrt 5)/2 (H3 and H4)
    }

    def __init__(self, pres: CoxeterPresentation):
        rank = pres.rank
        if pres.family == "I2":
            m = pres.m_parameter
            simple = (0, m - 1)
            roots = list(simple)

            def reflect(k, t):
                return (2 * simple[t] + m - k) % (2 * m)

        else:
            p, q = (1, 1) if pres.family in ("H3", "H4") else (0, 2)
            c = [[(2, 0) if u == t else self._C[pres.matrix[u][t]] for u in range(rank)] for t in range(rank)]
            roots = [tuple((1, 0) if u == i else (0, 0) for u in range(rank)) for i in range(rank)]

            def reflect(beta, t):
                # k = sum_u b_u c(u, t), then s_t(beta) = beta - k a_t
                ka = kb = 0
                for (a, b), (e, f) in zip(beta, c[t]):
                    ka += a * e + q * b * f
                    kb += a * f + b * e + p * b * f
                img = list(beta)
                img[t] = (beta[t][0] - ka, beta[t][1] - kb)
                return tuple(img)

        index = {root: i for i, root in enumerate(roots)}
        perm: list[list[int]] = [[] for _ in range(rank)]
        for beta in roots:  # roots grows until the orbit closes
            for t in range(rank):
                img = reflect(beta, t)
                j = index.get(img)
                if j is None:
                    j = index[img] = len(roots)
                    roots.append(img)
                perm[t].append(j)
        self.roots = roots
        self.perm = [tuple(row) for row in perm]


# -- the enumerated group ----------------------------------------------------


class GroupTable:
    """A fully enumerated finite Coxeter group; immutable after
    construction."""

    def __init__(self, pres, size, length, word, right, inv, fc, rep, relabel):
        self.presentation = pres
        self.size = size
        self.length = length  # list[int]
        self.word = word  # list[tuple[int, ...]], ShortLex-minimal reduced words
        self.right = right  # right[x][s] = x * s
        self.inv = inv  # list[ElementId]
        self.fc = fc  # list[bool], fully commutative flags
        self.rep = rep  # list[ElementId], the least id in each element's orbit
        # relabel[x][y] = phi(y) for the symmetry phi with phi(rep[x]) = x
        self.relabel = relabel  # list[list[ElementId]]
        self.w0 = size - 1
        self.rank = pres.rank

    # -- basic operations ----------------------------------------------------

    def multiply(self, x: ElementId, y: ElementId) -> ElementId:
        for s in self.word[y]:
            x = self.right[x][s]
        return x

    def word_str(self, x: ElementId) -> str:
        """The minimal word of x with 1-based generators; "e" for the identity."""
        return "".join(str(s + 1) for s in self.word[x]) or "e"

    def is_element_id(self, x: object) -> bool:
        """True when x is an int (not a bool) in range(size)."""
        return type(x) is int and 0 <= x < self.size

    def is_fully_commutative(self, x: ElementId) -> bool:
        return self.fc[x]

    def fc_elements(self) -> list[ElementId]:
        return [x for x in range(self.size) if self.fc[x]]

    def representatives(self) -> list[ElementId]:
        """The least id of every orbit under inversion and the graph flip."""
        return [x for x in range(self.size) if self.rep[x] == x]

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, y: ElementId, x: ElementId) -> bool:
        """y <= x in Bruhat order, by the lifting property: for a right
        descent s of x, y <= x iff ys <= xs when ys < y, and iff y <= xs
        otherwise.  s is the last letter of the word of x."""
        length, right, word = self.length, self.right, self.word
        while y != 0 and y != x:
            if length[y] >= length[x]:
                return False
            s = word[x][-1]
            x = right[x][s]
            ys = right[y][s]
            if length[ys] < length[y]:
                y = ys
        return True

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
            f"{_group_name(pres.family, pres.rank, pres.m_parameter)} has {order} elements; "
            "pass allow_large=True (CLI: --allow-large) to build it"
        )

    perm = _RootModel(pres).perm
    elts = [tuple(range(pres.rank))]  # the identity
    ids = {elts[0]: 0}
    word: list[tuple[int, ...]] = [()]
    length = [0]
    right: list[list[int]] = []  # right[x][s] = x * s

    # One breadth-first pass over elts, which grows while it is read: x * s,
    # when first seen, takes the next id, the word word[x] + (s,) and the
    # length l(x) + 1 (elts is read in length order, so every element
    # shorter than x * s is seen before it).  The ids of one length come
    # out in ShortLex order, by induction on the length: a prefix of a
    # ShortLex-minimal reduced word is ShortLex-minimal for its own
    # element, so the word of y is the least word[x] + (s,) over x * s = y
    # with l(x) = l(y) - 1; the ids of length l(x) are in ShortLex order,
    # so the first (x, s) reached, least x and then least s, gives it, and
    # the ids of length l(y) are handed out in the order of those words.
    # No layer is sorted.
    for x, elt in enumerate(elts):
        row = []
        for s, p in enumerate(perm):
            y = tuple([p[i] for i in elt])
            j = ids.get(y)
            if j is None:
                j = ids[y] = len(elts)
                elts.append(y)
                word.append(word[x] + (s,))
                length.append(length[x] + 1)
            row.append(j)
        right.append(row)

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

    fc = _fc_flags(pres.matrix, length, right)
    rep, relabel = _orbits(pres.matrix, word, right, inv)
    return GroupTable(pres, size, length, word, right, inv, fc, rep, relabel)


def _orbits(matrix, word, right, inv):
    """(rep, relabel): the least id in the orbit of each element under the
    symmetries of the Coxeter system, and for each x the symmetry phi, as
    the list y -> phi(y), with phi(rep[x]) = x.

    The symmetries are inversion and, when the Coxeter matrix is
    palindromic (A_n, B2, F4, I2(m)), the graph flip s_i -> s_{r-1-i},
    which reverses the generator chain, with their product.  Each keeps
    lengths and the Bruhat order and fixes every KL polynomial, h_{phi y,
    phi x} = h_{y,x}; each is an involution, and they commute.  The flip
    of x is built from that of its parent x s, s the last letter of the
    word of x, which has a smaller id."""
    rank, size = len(matrix), len(word)
    maps = [list(range(size)), inv]
    flipped = tuple(row[::-1] for row in matrix[::-1])
    if rank > 1 and flipped == matrix:
        flip = [0] * size
        for x in range(1, size):
            s = word[x][-1]
            flip[x] = right[flip[right[x][s]]][rank - 1 - s]
        maps += [flip, [inv[y] for y in flip]]
    rep = [min(phi[x] for phi in maps) for x in range(size)]
    relabel = [next(phi for phi in maps if phi[rep[x]] == x) for x in range(size)]
    return rep, relabel


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
