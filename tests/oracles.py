"""Shared test helpers: cached group builders and independent oracles.

Everything here is deliberately naive (brute force, exponential) so that
it cross-checks the package's cleverer code paths without sharing logic.
"""

import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from jwkit import coxeter, hecke


@lru_cache(maxsize=None)
def grp(family, rank=None, m=None, allow_large=False):
    return coxeter.build_group(coxeter.presentation(family, rank=rank, m=m), allow_large=allow_large)


def left_table(g):
    """left[x][s] = s x, as (x^-1 s)^-1 from the group's inverses and its
    right multiplication table; the package keeps no left table."""
    inv, right = g.inv, g.right
    return [[inv[right[inv[x]][s]] for s in range(g.rank)] for x in range(g.size)]


def kl_coefficients(h, table, fc_only=False):
    """hecke.to_kl_basis as {x: RatFunc}, each coefficient canonicalised
    by RatFunc from the returned rows and denominator."""
    from jwkit.qpoly import LaurentPoly, RatFunc

    rows, den = hecke.to_kl_basis(h, table, fc_only)
    return {x: RatFunc(LaurentPoly(r), den) for x, r in rows.items()}


def packed_entry(table, y, x):
    """h_{y,x} packed at offset 0 and width hecke._B, as the table's
    polynomial store holds it."""
    return table.packed_at(hecke._B)[table.column_ids(x)[y]]


def store_entry(table, y, x, p):
    """Corrupt a table through its polynomial store: h_{y,x} becomes the
    polynomial packed as p at offset 0 and width hecke._B, in the stored
    column of the representative of x, so every column of its orbit changes.
    y moves from its group into the group of the new id, a group left
    empty is dropped, and the memoised W-graph and entry index of that
    column are dropped (storing p updates the table's peak)."""
    groups, phi = table.column_packed(x)
    y, i = phi[y], table._intern(p)  # phi is an involution
    for _, ys in groups:
        if y in ys:
            ys.remove(y)
    groups[:] = [(k, ys) for k, ys in groups if ys]
    target = next((ys for k, ys in groups if k == i), None)
    if target is None:
        groups.append((i, [y]))
    else:
        target.append(y)
    table._fc_graph = None
    table._at.pop(table.group.rep[x], None)


def reseal(lines):
    """The text of a KL cache file from its lines, the last of which is a
    stale trailer: a fresh trailer counts the body lines and hashes them."""
    head, *body, _ = lines
    text = "".join(line + "\n" for line in body)
    return f"{head}\n{text}end {len(body)} {hashlib.sha256(text.encode()).hexdigest()}\n"


def shortlex_words_bruteforce(g):
    """Minimal reduced word per element by trying all words in ShortLex
    order.  Exponential; small groups only."""
    best = {0: ()}
    maxlen = g.length[g.w0]
    for k in range(1, maxlen + 1):
        for w in itertools.product(range(g.rank), repeat=k):
            x = 0
            for s in w:
                x = g.right[x][s]
            if g.length[x] == k and x not in best:
                best[x] = w
        if len(best) == g.size:
            break
    return best


def catalan(k):
    out = 1
    for i in range(k):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


# -- independent Kazhdan-Lusztig oracle ---------------------------------------
#
# Solves for the bar-invariant unitriangular element directly, one bar
# violation at a time, using nothing but delta-multiplication implemented
# right here on {element: LaurentPoly} dicts.

from jwkit.qpoly import LaurentPoly

_ONE = LaurentPoly.one()
_VDIFF = LaurentPoly({1: 1, -1: -1})  # v - v^-1


def _vec_times_delta(g, vec, s):
    out = {}
    for y, p in vec.items():
        ys = g.right[y][s]
        out[ys] = out.get(ys, LaurentPoly.zero()) + p
        if g.length[ys] < g.length[y]:
            out[y] = out.get(y, LaurentPoly.zero()) - p * _VDIFF
    return {y: p for y, p in out.items() if not p.is_zero}


@lru_cache(maxsize=None)
def _bar_delta_table(g):
    # bar(delta_x) = product along the word of x of (delta_s + v - v^-1)
    table = {}
    for x in range(g.size):
        vec = {0: _ONE}
        for s in g.word[x]:
            shifted = _vec_times_delta(g, vec, s)
            for y, p in vec.items():
                shifted[y] = shifted.get(y, LaurentPoly.zero()) + p * _VDIFF
            vec = {y: p for y, p in shifted.items() if not p.is_zero}
        table[x] = vec
    return table


def _bar_vec(g, vec):
    bd = _bar_delta_table(g)
    out = {}
    for y, p in vec.items():
        pb = p.bar()
        for z, q in bd[y].items():
            out[z] = out.get(z, LaurentPoly.zero()) + pb * q
    return {z: p for z, p in out.items() if not p.is_zero}


def kl_basis_bruteforce(g, x):
    """The unique bar-invariant element delta_x + sum of vZ[v] multiples of
    lower delta_y, found by repairing the topmost bar violation until none
    remain.  Returns {y: LaurentPoly}."""
    c = {x: _ONE}
    while True:
        d = _bar_vec(g, c)
        for y, p in c.items():
            d[y] = d.get(y, LaurentPoly.zero()) - p
        d = {y: p for y, p in d.items() if not p.is_zero}
        if not d:
            return c
        ystar = max(d, key=lambda y: (g.length[y], y))
        r = d[ystar]
        assert r.bar() == -r, "violation is not antisymmetric"
        fix = LaurentPoly({e: co for e, co in r.items() if e > 0})
        c[ystar] = c.get(ystar, LaurentPoly.zero()) + fix


# -- dihedral graded ranks without KL data --------------------------------------------


def dihedral_grrk(length):
    """grrk(x) for x of the given length in I2(m), for any m > length,
    with no KL data: every y shorter than x lies below x in Bruhat order
    and h_{y,x} = v^(l(x) - l(y)), so grrk(x) = v^l + 2 sum_{k=1}^{l-1}
    v^(l-2k) + v^-l (and 1 at l = 0).  At l = m it is grrk(w0)."""
    if length == 0:
        return _ONE
    terms = {length - 2 * k: 2 for k in range(1, length)}
    terms[length] = terms[-length] = 1
    return LaurentPoly(terms)


# -- dict back-substitution --------------------------------------------------------
#
# The KL-basis expansion as it ran before the packed kernel: one {exp: int}
# dict operation per column entry, no digit widths and no bounds.


def back_substitute_dicts(vec, table):
    """[(x, c_x)] with sum_x c_x b_x = sum_y vec[y] delta_y for integer
    Laurent vectors {y: {exp: int}}, in descending id order."""
    vec = {y: dict(d) for y, d in vec.items() if d}
    out = []
    for x in range(max(vec, default=-1), -1, -1):
        c = vec.pop(x, None)
        if not c:
            continue
        out.append((x, c))
        for y, h in table.column(x).items():
            if y == x:
                continue
            tgt = vec.setdefault(y, {})
            for e2, c2 in h.items():
                for e1, c1 in c.items():
                    tgt[e1 + e2] = tgt.get(e1 + e2, 0) - c1 * c2
            vec[y] = {e: co for e, co in tgt.items() if co}
    assert not any(vec.values()), "back-substitution left a residue"
    return out


# -- dict TL_n product --------------------------------------------------------------
#
# Diagram composition by connected components of the stacked matchings, and
# the TL_n product as it ran before the packed kernel: one LaurentPoly
# multiply and add per diagram pair.  Nothing here calls jwkit.tl's
# composition.


def compose_components(p, q, n):
    """(partner, loops) for the matching p stacked below q on n strands.
    Nodes are ("a", i) for a bottom point of p, ("m", k) for glue point k
    (p's top point n + k, q's bottom point k) and ("b", j) for a top point
    of q; every component is a path between two outer nodes or a loop."""
    from collections import defaultdict

    def in_p(i):
        return ("a", i) if i < n else ("m", i - n)

    def in_q(i):
        return ("m", i) if i < n else ("b", i)

    adj = defaultdict(list)
    for i, j in enumerate(p):
        adj[in_p(i)].append(in_p(j))
    for i, j in enumerate(q):
        adj[in_q(i)].append(in_q(j))
    partner = [None] * (2 * n)
    loops = 0
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            u = todo.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        ends = [u[1] for u in comp if u[0] != "m"]
        if not ends:
            loops += 1
            continue
        assert len(ends) == 2, "a path component has two ends"
        i, j = ends
        partner[i], partner[j] = j, i
    return tuple(partner), loops


def multiply_tl_dicts(a, b):
    """a * b in TL_n or TL_n^-, one RatFunc product per pair of terms:
    no integer rows, no common denominator."""
    from jwkit.qpoly import RatFunc
    from jwkit.tl import Diagram, TLElt

    assert a.n == b.n and a.sign == b.sign
    n = a.n
    delta = LaurentPoly({1: a.sign, -1: a.sign})
    acc = {}
    for d1, ca in a.coeffs.items():
        for d2, cb in b.coeffs.items():
            partner, loops = compose_components(d1.partner, d2.partner, n)
            d = Diagram(n, partner)
            acc[d] = acc.get(d, RatFunc.zero()) + ca * cb * RatFunc(delta**loops)
    return TLElt(n, acc, a.sign)


def integer_scaled(terms):
    """(p, m) for a Laurent polynomial {exp: coefficient} over Q: m > 0 the
    lcm of the coefficient denominators and p = m times it, integral."""
    m = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return LaurentPoly({e: int(c * m) for e, c in terms.items()}), m


# -- operations no route of the package needs ---------------------------------------


def koszul(f):
    """The Koszul sign twist v -> -v^-1 of a LaurentPoly or a RatFunc."""
    from jwkit.qpoly import RatFunc

    if isinstance(f, RatFunc):
        return RatFunc(koszul(f.num), koszul(f.den))
    return LaurentPoly({-e: (c if e % 2 == 0 else -c) for e, c in f.items()})


def times_gen(h, s, side="right"):
    """h delta_s (side "right") or delta_s h (side "left") for a HeckeElt h:
    delta_x delta_s = delta_{xs} if xs > x, else delta_{xs} + (v^-1 - v)
    delta_x; mirrored for the left action."""
    from jwkit.hecke import HeckeElt
    from jwkit.qpoly import RatFunc

    g = h.group
    table = g.right if side == "right" else left_table(g)
    vdiff = RatFunc(LaurentPoly({-1: 1, 1: -1}))
    out = {}
    for x, c in h.coeffs.items():
        xs = table[x][s]
        out[xs] = out.get(xs, RatFunc.zero()) + c
        if g.length[xs] < g.length[x]:
            out[x] = out.get(x, RatFunc.zero()) + c * vdiff
    return HeckeElt(g, out)
