"""Hecke algebra: standard basis, bar involution, KL basis, antisymmetriser."""

import hashlib
import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwkit import coxeter, hecke
from jwkit.grank import grrk
from jwkit.gtl import gen_jw_closed
from jwkit.hecke import (
    CacheFormatError,
    HeckeElt,
    KLTable,
    antisymmetriser,
    kl_basis,
    kl_product_coeffs,
    load_kl_cache,
    t_w0_class,
    to_kl_basis,
    verify_bar_invariance,
    write_kl_cache,
)
from jwkit.qpoly import LaurentPoly, RatFunc, quantum_int

from oracles import (
    _bar_vec,
    back_substitute_dicts,
    grp,
    kl_coefficients,
    kl_basis_bruteforce,
    packed_entry,
    reseal,
    store_entry,
    times_gen,
)

v = LaurentPoly.gen()


def rand_elt(g, rng, nterms=3):
    coeffs = {}
    for _ in range(nterms):
        x = rng.randrange(g.size)
        num = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
        den = LaurentPoly({0: 1, rng.randint(1, 2): rng.randint(0, 1)})
        coeffs[x] = RatFunc(num, den)
    return HeckeElt(g, coeffs)


def mult_naive(a, b):
    """Multiply via repeated generator multiplication, word by word."""
    g = a.group
    out = HeckeElt.zero(g)
    for z, c in b.coeffs.items():
        t = a
        for s in g.word[z]:
            t = times_gen(t, s, "right")
        out = out + t.scale(c)
    return out


# groups for the hypothesis tests against the oracles, and their signed integer vectors
BACK_GROUPS = [("A", 3, None), ("B", 3, None), ("H3", 3, None), ("I2", 2, 5)]


@st.composite
def _signed_vectors(draw, g, big=1 << 8):
    support = draw(st.lists(st.integers(0, g.size - 1), min_size=1, max_size=4, unique=True))
    coeff = st.integers(-big, big).filter(bool)
    return {y: draw(st.dictionaries(st.integers(-6, 6), coeff, min_size=1, max_size=3)) for y in support}


# -- standard basis ------------------------------------------------------------


@pytest.mark.parametrize("family,rank,m", [("A", 2, None), ("B", 2, None), ("I2", None, 5)], ids=str)
def test_quadratic_relation(family, rank, m):
    g = grp(family, rank, m)
    one = HeckeElt.one(g)
    for s in range(g.rank):
        ds = HeckeElt.std(g, g.right[0][s])
        lhs = ds * ds
        rhs = one + ds.scale(RatFunc(v**-1 - v))
        assert lhs == rhs


def test_lengths_add():
    g = grp("A", 3)
    for x in range(g.size):
        for s in range(g.rank):
            xs = g.right[x][s]
            if g.length[xs] > g.length[x]:
                prod = HeckeElt.std(g, x) * HeckeElt.std(g, g.right[0][s])
                assert prod == HeckeElt.std(g, xs)


@pytest.mark.parametrize(
    "family,rank,m,scale",
    [
        pytest.param(*key, k, id="-".join(map(str, key)) + (f"-2^{k.bit_length() - 1}" if k > 1 else ""))
        for k in (1, 1 << 31, 1 << 40, 1 << 70)
        for key in (("A", 3, None), ("B", 2, None), ("I2", None, 5))
    ],
)
def test_dense_product_matches_naive(family, rank, m, scale):
    """Coefficients scaled past 2^31 run the product at a wider digit."""
    g = grp(family, rank, m)
    rng = random.Random(hash((family, rank, m)) & 0xFFFF)
    k = RatFunc(LaurentPoly.const(scale))
    for _ in range(8):
        a, b = rand_elt(g, rng).scale(k), rand_elt(g, rng).scale(k)
        assert a * b == mult_naive(a, b)


def test_times_gen_left_right_associate():
    g = grp("B", 2)
    rng = random.Random(7)
    a = rand_elt(g, rng)
    s0 = HeckeElt.std(g, g.right[0][0])
    assert times_gen(a, 0, "right") == a * s0
    assert times_gen(a, 0, "left") == s0 * a


# -- bar involution --------------------------------------------------------------


def test_bar_of_generator():
    g = grp("A", 2)
    ds = HeckeElt.std(g, g.right[0][0])
    assert ds.bar() == ds + HeckeElt.one(g).scale(RatFunc(v - v**-1))


@pytest.mark.parametrize("family,rank,m", [("A", 2, None), ("B", 2, None), ("I2", None, 4)], ids=str)
def test_bar_is_involutive_ring_map(family, rank, m):
    g = grp(family, rank, m)
    rng = random.Random(13)
    for _ in range(5):
        a, b = rand_elt(g, rng), rand_elt(g, rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


@pytest.mark.parametrize("family,rank,m", BACK_GROUPS, ids=str)
@settings(max_examples=20)
@given(data=st.data())
def test_bar_matches_oracle(family, rank, m, data):
    """HeckeElt.bar against the oracle's bar(delta) table, which shares no
    code with hecke._bar_std."""
    g = grp(family, rank, m)
    big = data.draw(st.sampled_from([1 << 8, 1 << 40]))
    polys = {y: LaurentPoly(d) for y, d in data.draw(_signed_vectors(g, big)).items()}
    got = HeckeElt(g, {y: RatFunc(p) for y, p in polys.items()}).bar()
    assert got == HeckeElt(g, {z: RatFunc(q) for z, q in _bar_vec(g, polys).items()})


def test_bar_fixes_identity():
    g = grp("A", 3)
    assert HeckeElt.one(g).bar() == HeckeElt.one(g)


# -- KL basis ---------------------------------------------------------------------


def test_kl_rank_one():
    g = grp("A", 1)
    t = KLTable(g)
    b = kl_basis(g, 1, t)
    assert b.coeffs == {1: RatFunc.one(), 0: RatFunc(v)}


def test_kl_w0_column_a2():
    g = grp("A", 2)
    t = KLTable(g)
    for y in range(g.size):
        assert t.h(y, g.w0) == v ** (3 - g.length[y])


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", None, 4), ("I2", None, 5), ("I2", None, 6)],
    ids=str,
)
def test_kl_matches_bruteforce_bar_invariant_solver(family, rank, m):
    g = grp(family, rank, m)
    t = KLTable(g)
    for x in range(g.size):
        expect = kl_basis_bruteforce(g, x)
        got = t.column(x)
        assert got == expect, f"column {x} differs from the independent solver"


def test_kl_b3_against_bruteforce_sample():
    g = grp("B", 3)
    t = KLTable(g)
    rng = random.Random(5)
    for x in rng.sample(range(g.size), 12) + [g.w0]:
        assert t.column(x) == kl_basis_bruteforce(g, x)


def test_dihedral_columns_closed_form():
    for m in (5, 7, 8):
        g = grp("I2", m=m)
        t = KLTable(g)
        for x in range(g.size):
            col = t.column(x)
            for y in range(g.size):
                if g.bruhat_leq(y, x):
                    assert col[y] == v ** (g.length[x] - g.length[y])
                else:
                    assert y not in col


def test_h_triangular_and_positive():
    g = grp("A", 3)
    t = KLTable(g)
    for x in range(g.size):
        col = t.column(x)
        assert col[x] == LaurentPoly.one()
        for y, p in col.items():
            assert g.bruhat_leq(y, x)
            if y != x:
                assert p.min_exponent() >= 1
            assert all(c > 0 for _, c in p.items())
            assert all((e - (g.length[x] - g.length[y])) % 2 == 0 for e, _ in p.items())


@pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H3", 3, None), ("I2", 2, 5)], ids=str)
def test_h_and_mu_agree_with_the_columns(family, rank, m):
    """KLTable.h and mu, read through the per-column index, give every
    entry of column(x), for representative and relabelled x alike, and
    zero for every y outside the Bruhat interval below x."""
    g = grp(family, rank, m)
    t = KLTable(g)
    assert any(g.rep[x] != x for x in range(g.size))
    for x in range(g.size):
        col = t.column(x)
        for y in range(g.size):
            p = col.get(y, LaurentPoly.zero())
            assert t.h(y, x) == p
            assert t.mu(y, x) == p.coefficient(1)


def test_mu_values_a2():
    g = grp("A", 2)
    t = KLTable(g)
    # mu(y, x) = 1 exactly when y covers or is covered with length gap one here
    for x in range(g.size):
        for y in range(g.size):
            expected = 1 if (g.bruhat_leq(y, x) and g.length[x] - g.length[y] == 1) else 0
            assert t.mu(y, x) == expected


def test_verify_bar_invariance_of_kl_basis():
    for key in (("A", 3, None), ("B", 2, None), ("I2", None, 6)):
        g = grp(*key)
        t = KLTable(g)
        assert verify_bar_invariance(g, t) == g.size


def test_to_kl_roundtrip():
    g = grp("B", 2)
    t = KLTable(g)
    for x in range(g.size):
        assert to_kl_basis(kl_basis(g, x, t), t) == ({x: {0: 1}}, LaurentPoly.one())
    rng = random.Random(3)
    for _ in range(5):
        a = rand_elt(g, rng)
        coeffs = kl_coefficients(a, t)
        rebuilt = HeckeElt.zero(g)
        for x, c in coeffs.items():
            rebuilt = rebuilt + kl_basis(g, x, t).scale(c)
        assert rebuilt == a


def test_to_kl_of_delta_s():
    g = grp("A", 2)
    t = KLTable(g)
    s = g.right[0][0]
    assert kl_coefficients(HeckeElt.std(g, s), t) == {s: RatFunc.one(), 0: RatFunc(-v)}
    assert to_kl_basis(HeckeElt.std(g, s), t) == ({s: {0: 1}, 0: {1: -1}}, LaurentPoly.one())


def test_hecke_elt_rejects_keys_that_are_not_element_ids():
    # an unchecked key -1 would multiply as w0 and print as d[121], yet
    # compare unequal to delta_w0 delta_s and break to_kl_basis
    g = grp("A", 2)
    for x in (-1, g.size, 1.0, True, "1", None):
        with pytest.raises(ValueError):
            HeckeElt(g, {x: RatFunc.one()})


@pytest.mark.parametrize("family", ["A", "B"])
def test_kl_readers_refuse_ids_that_are_not_element_ids(family):
    # list indexing used to read -1 as w0, -2 as the element before it and
    # True as 1, so grrk(-1) returned grrk(w0) and h(-1, -1) returned 1
    g = grp(family, 3)
    t = KLTable(g)
    bad = (-1, -2, g.size, True, 1.0, "1", None)
    readers = [
        lambda x: grrk(g, t, x),
        t.column,
        t.column_packed,
        t.column_ids,
        lambda x: kl_basis(g, x, t),
        lambda x: kl_product_coeffs(t, x, 0),
    ]
    readers += [lambda x, f=f: f(x, g.w0) for f in (t.h, t.mu)]
    readers += [lambda x, f=f: f(0, x) for f in (t.h, t.mu)]
    for read in readers:
        for x in bad:
            with pytest.raises(ValueError):
                read(x)
    for s in (-1, g.rank, True, 1.0, None):
        with pytest.raises(ValueError):
            kl_product_coeffs(t, 5, s)


def test_kl_product_coeffs_matches_naive():
    for key in (("A", 3, None), ("B", 2, None), ("B", 3, None), ("H3", None, None), ("I2", None, 5)):
        g = grp(*key)
        t = KLTable(g)
        for x in range(g.size):
            for s in range(g.rank):
                got = kl_product_coeffs(t, x, s)
                bs = kl_basis(g, g.right[0][s], t)
                expect = kl_coefficients(mult_naive(kl_basis(g, x, t), bs), t)
                assert {y: RatFunc(p) for y, p in got.items()} == expect


def test_kl_product_rule():
    g = grp("A", 3)
    t = KLTable(g)
    two = quantum_int(2)
    for x in range(g.size):
        for s in range(g.rank):
            got = kl_product_coeffs(t, x, s)
            xs = g.right[x][s]
            if g.length[xs] < g.length[x]:
                assert got == {x: two}
            else:
                assert got[xs] == LaurentPoly.one()
                for y, p in got.items():
                    if y != xs:
                        assert g.length[g.right[y][s]] < g.length[y]
                        assert p == LaurentPoly.const(t.mu(y, x))


# -- the symmetries h_{phi y, phi x} = h_{y,x}: one stored column per orbit ---------------


def _filled(g, order):
    """A table whose columns were requested in ``order``, and the x whose
    columns its recursion computed; every other column was relabelled."""
    t = KLTable(g)
    computed = []
    combine = t._combine

    def counting(s, z, cz):
        computed.append(g.right[z][s])
        return combine(s, z, cz)

    t._combine = counting
    for x in order:
        t.column_packed(x)
    return t, computed


def _polys(t, x):
    return {y: t.terms[i] for y, i in t.column_ids(x).items()}


def _by_words(g, letter, reverse=False):
    """The map x -> the product of letter(s) over the minimal word of x,
    reversed if asked, from the multiplication table alone."""
    out = []
    for x in range(g.size):
        z = 0
        for s in reversed(g.word[x]) if reverse else g.word[x]:
            z = g.right[z][letter(s)]
        out.append(z)
    return out


@lru_cache(maxsize=None)
def _symmetries(g):
    """Inversion and, when m(s_i, s_j) = m(s_{r-1-i}, s_{r-1-j}) for all i,
    j, the graph flip and its product with inversion, each as a list
    x -> phi(x) built from minimal words."""
    r = g.rank
    inverse = _by_words(g, lambda s: s, reverse=True)
    matrix = g.presentation.matrix
    if r == 1 or any(matrix[i][j] != matrix[r - 1 - i][r - 1 - j] for i in range(r) for j in range(r)):
        return [inverse]
    flip = _by_words(g, lambda s: r - 1 - s)
    return [inverse, flip, [inverse[y] for y in flip]]


def _orbit(g, x):
    return {x} | {phi[x] for phi in _symmetries(g)}


SYMMETRY_GROUPS = [
    ("A", 1, None),
    ("A", 2, None),
    ("A", 3, None),
    ("A", 4, None),
    ("A", 5, None),
    ("B", 2, None),
    ("B", 3, None),
    ("B", 4, None),
    ("H3", 3, None),
    ("I2", None, 5),
    ("I2", None, 6),
    ("I2", None, 7),
    ("F4", None, None),
]


@pytest.mark.parametrize("family,rank,m", SYMMETRY_GROUPS, ids=str)
def test_kl_columns_have_the_inverse_symmetry(family, rank, m):
    """In any fill order the recursion runs once per orbit, for its least
    id, only those columns are stored, and every column is its
    representative's relabelled by each symmetry."""
    g = grp(family, rank, m, allow_large=True)
    symmetries = _symmetries(g)
    flips = family in ("A", "I2", "F4") or (family, rank) == ("B", 2)  # palindromic matrices
    assert len(symmetries) == (3 if flips and g.rank > 1 else 1)
    reps = [x for x in range(g.size) if x == min(_orbit(g, x))]
    assert g.representatives() == reps
    up, computed_up = _filled(g, range(g.size))
    down, computed_down = _filled(g, sorted(range(g.size), key=lambda x: (g.length[x], -x)))
    assert sorted(computed_up) == sorted(computed_down) == reps[1:]
    assert up.computed_columns() == down.computed_columns() == reps
    for phi in symmetries:
        for x in range(g.size):
            assert _polys(down, phi[x]) == {phi[y]: h for y, h in _polys(up, x).items()}


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", None, 4), ("I2", None, 5), ("I2", None, 6)],
    ids=str,
)
def test_inverse_symmetry_matches_bruteforce(family, rank, m):
    g = grp(family, rank, m)
    t = KLTable(g)
    for x in range(g.size):
        expect = {g.inv[y]: p for y, p in kl_basis_bruteforce(g, x).items()}
        assert t.column(g.inv[x]) == expect


@pytest.mark.parametrize(
    "family,rank,m", [("A", 3, None), ("B", 2, None), ("I2", None, 5), ("I2", None, 6)], ids=str
)
def test_flip_symmetry_matches_bruteforce(family, rank, m):
    """h_{sigma y, sigma x} = h_{y,x} for the graph flip sigma and for sigma
    composed with inversion, by the bar-repair oracle, which shares no
    code with the relabelling; the table's relabelled columns agree."""
    g = grp(family, rank, m)
    t = KLTable(g)
    _, flip, both = _symmetries(g)
    assert flip != list(range(g.size))
    for phi in (flip, both):
        for x in range(g.size):
            expect = {phi[y]: p for y, p in kl_basis_bruteforce(g, x).items()}
            assert kl_basis_bruteforce(g, phi[x]) == expect
            assert t.column(phi[x]) == expect


def _count_combines(monkeypatch):
    calls = []
    combine = KLTable._combine
    monkeypatch.setattr(KLTable, "_combine", lambda self, *a: calls.append(a) or combine(self, *a))
    return calls


@pytest.mark.parametrize("family,rank,m", [("B", 4, None), ("H3", 3, None), ("F4", None, None)], ids=str)
def test_column_of_the_inverse_is_relabelled_not_computed(family, rank, m, monkeypatch):
    """Once a column is filled, every other column of its orbit is read
    without the recursion and without storing anything."""
    g = grp(family, rank, m, allow_large=True)
    calls = _count_combines(monkeypatch)
    moved = [x for x in range(g.size) if len(_orbit(g, x)) > 1]
    for x in random.Random(14).sample(moved, 4) + [moved[-1]]:
        t = KLTable(g)
        t.column_packed(x)
        assert calls
        stored = t.computed_columns()
        assert min(_orbit(g, x)) in stored
        calls.clear()
        for y in _orbit(g, x) - {x}:
            phi = next(phi for phi in _symmetries(g) if phi[x] == y)
            assert _polys(t, y) == {phi[w]: h for w, h in _polys(t, x).items()}
        assert t.computed_columns() == stored and not calls


@pytest.mark.parametrize(
    "family,rank,m,fill,combines",
    [("F4", None, None, "closure", 127), ("F4", None, None, "full", 344), ("A", 6, None, "full", 1387)],
    ids=str,
)
def test_every_stored_column_ran_the_recursion_once(monkeypatch, family, rank, m, fill, combines):
    """A stored column is a recursion run and nothing else: the growth of
    the stored columns counts the recursion, for the closure of the closed
    formula and for the full table."""
    g = grp(family, rank, m, allow_large=True)
    calls = _count_combines(monkeypatch)
    t = KLTable(g)
    if fill == "closure":
        gen_jw_closed(g, t)
    else:
        for x in range(g.size):
            t.column_packed(x)
    assert len(t.computed_columns()) - 1 == len(calls) == combines


@pytest.mark.parametrize("family,rank,m", [("A", 4, None), ("B", 4, None), ("H3", 3, None)], ids=str)
def test_fill_order_does_not_change_the_table(tmp_path, family, rank, m):
    g = grp(family, rank, m)
    ids = list(range(g.size))
    shuffled = ids[:]
    random.Random(14).shuffle(shuffled)
    orders = {"id": ids, "w0-down": ids[::-1], "shuffled": shuffled}
    tables = {name: _filled(g, order)[0] for name, order in orders.items()}
    ref = tables["id"]
    for t in tables.values():
        for x in ids:
            assert t.column(x) == ref.column(x)
            assert t.graded_sum(x) == ref.graded_sum(x)
        assert t.peak == ref.peak
    for src, t in tables.items():
        path = tmp_path / f"{src}.txt"
        write_kl_cache(str(path), t)
        t2 = KLTable(g)
        assert load_kl_cache(str(path), t2) == len(g.representatives()) - 1
        assert t2.computed_columns() == g.representatives()
        assert t2.terms == t.terms and t2.peak == ref.peak
        for x in ids:
            assert t2.column(x) == ref.column(x)


def test_recursion_rejects_a_column_that_is_not_a_bruhat_interval():
    g = grp("A", 3)
    t = KLTable(g)
    x = g.w0
    s = g.word[x][-1]
    z = g.right[x][s]
    cz = t.column_ids(z)
    y = next(y for y, i in cz.items() if g.length[g.right[y][s]] < g.length[y] and t._mu[i])
    # drop w and ws from the column of z, for a w that the mu-correction by y
    # subtracts: from the stored column that the column of z relabels
    w = next(w for w in t.column_ids(y) if {w, g.right[w][s]}.isdisjoint({y, z}))
    groups, phi = t.column_packed(z)
    kept = [(i, [k for k in ys if phi[k] not in (w, g.right[w][s])]) for i, ys in groups]
    t._cols[g.rep[z]] = [(i, ys) for i, ys in kept if ys]
    with pytest.raises(hecke.KLLawError, match="Bruhat interval"):
        t._combine(s, z, [(y, t._mu[cz[y]])])


# -- packed back-substitution against the dict oracle -------------------------------------


def _dense(vec, g):
    """(dense, off, bound) for _back_substitute: _packed's rows of vec in
    a list indexed by element id."""
    packed, off, bound = hecke._packed(vec)
    dense = [0] * g.size
    for y, p in packed.items():
        dense[y] = p
    return dense, off, bound


def _packed_back_substitute(vec, t):
    return list(hecke._back_substitute(*_dense(vec, t.group), t))


@pytest.mark.parametrize("family,rank,m", BACK_GROUPS, ids=str)
@settings(max_examples=40)
@given(data=st.data())
def test_back_substitute_matches_dict_oracle(family, rank, m, data):
    g = grp(family, rank, m)
    t = KLTable(g)
    vec = data.draw(_signed_vectors(g))
    assert _packed_back_substitute(vec, t) == back_substitute_dicts(vec, t)


@pytest.mark.parametrize("family,rank,m", BACK_GROUPS, ids=str)
@settings(max_examples=10)
@given(data=st.data())
def test_back_substitute_widens_past_31_bits(family, rank, m, data):
    """Coefficients of 2^31 and more start at a wider digit, and 2^30-sized
    ones widen in the middle of the run; both agree with the oracle."""
    g = grp(family, rank, m)
    t = KLTable(g)
    big = data.draw(st.sampled_from([1 << 30, 1 << 40, 1 << 70]))
    vec = data.draw(_signed_vectors(g, big))
    vec[g.w0] = {-3: big, 0: -big}  # b_w0 reaches every y, so the bound grows
    assert _packed_back_substitute(vec, t) == back_substitute_dicts(vec, t)


def test_back_substitute_widens_in_place():
    """A vector that fits 32-bit digits but whose bound crosses 2^31 after
    its first column is repacked at 64 bits, not decoded wrongly: the
    coefficient of b_e in delta_w0 is v^6 in A3, so 2^30 (delta_w0 + v^6
    delta_e) has c_e = 2^31 v^6."""
    g = grp("A", 3)
    t = KLTable(g)
    vec = {g.w0: {0: 1 << 30}, 0: {6: 1 << 30}}
    dense, off, bound = _dense(vec, g)
    assert hecke._width(bound) == 32
    got = list(hecke._back_substitute(dense, off, bound, t))
    assert got == back_substitute_dicts(vec, t)
    assert dict(got)[0] == {6: 1 << 31}


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3)])
def test_back_substitute_full_support_matches_dict_oracle(family, rank):
    """[T_w0] has every element in its support and in its KL expansion, so
    one run reads every stored column and every relabelled one."""
    g = grp(family, rank)
    t = KLTable(g)
    rows = t_w0_class(g).rows
    got = _packed_back_substitute(rows, t)
    assert got == back_substitute_dicts(rows, t)
    assert [x for x, _ in got] == list(range(g.size - 1, -1, -1))


@pytest.mark.parametrize("which", ["generator", "w0"])
def test_a_column_without_its_diagonal_leaves_a_residue(which):
    """A stored column that lacks its own entry h_{x,x} leaves delta_x in
    the vector once c_x b_x is subtracted, so the walk never finds the
    vector empty and to_kl_basis raises the residue error."""
    g = grp("A", 3)
    t = KLTable(g)
    x = g.w0 if which == "w0" else next(x for x in range(g.size) if g.length[x] == 1)
    groups, phi = t.column_packed(x)
    groups[:] = [(i, ys) for i, ys in ((i, [y for y in ys if phi[y] != x]) for i, ys in groups) if ys]
    with pytest.raises(ArithmeticError, match="residue"):
        to_kl_basis(HeckeElt.std(g, x), t)


@pytest.mark.parametrize(
    "read",
    [lambda g, t: kl_product_coeffs(t, g.w0, 0), lambda g, t: to_kl_basis(HeckeElt.std(g, g.w0), t)],
    ids=["kl_product_coeffs", "to_kl_basis"],
)
def test_a_column_corrupted_after_a_read_is_read_afresh(read):
    """A change to the stored column after a first read reaches the next
    read, which goes through the same grouped column: it sees h_{e,w0} =
    v^6 + v^2 in A3, not the v^6 of the first."""
    g = grp("A", 3)
    t = KLTable(g)
    first = read(g, t)
    store_entry(t, 0, g.w0, packed_entry(t, 0, g.w0) + (1 << (2 * hecke._B)))
    assert read(g, t) != first


@pytest.mark.parametrize("digit", [1 << 31, (1 << 32) - 1])
def test_decoded_rejects_digits_past_31_bits(digit):
    g = grp("A", 2)
    t = KLTable(g)
    with pytest.raises(OverflowError):
        store_entry(t, 0, g.w0, digit << hecke._B)  # h_{e,w0}: v^3 -> digit v
    assert t.h(0, g.w0) == v**3


def test_unpack_tripwire():
    with pytest.raises(OverflowError):
        hecke._unpack(hecke._pack({0: 5, 2: -7}, 0, 32), 0, 32, 6)
    assert hecke._unpack(hecke._pack({-1: 5, 2: -7}, -1, 32), -1, 32, 7) == {-1: 5, 2: -7}


# -- antisymmetriser ---------------------------------------------------------------


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 1, None), ("A", 2, None), ("A", 3, None), ("B", 2, None), ("I2", None, 3), ("I2", None, 5)],
    ids=str,
)
def test_antisymmetriser_laws(family, rank, m):
    g = grp(family, rank, m)
    t = KLTable(g)
    e = antisymmetriser(g, t)
    assert e * e == e
    mv = RatFunc(LaurentPoly({1: -1}))
    for s in range(g.rank):
        ds = HeckeElt.std(g, g.right[0][s])
        assert e * ds == e.scale(mv)
        bs = kl_basis(g, g.right[0][s], t)
        assert e * bs == HeckeElt.zero(g)
        assert bs * e == HeckeElt.zero(g)


def test_antisymmetriser_rank1_explicit():
    g = grp("A", 1)
    t = KLTable(g)
    e = antisymmetriser(g, t)
    den = v + v**-1
    assert e.coeffs == {0: RatFunc(v**-1, den), 1: RatFunc(-LaurentPoly.one(), den)}


def test_antisymmetriser_normalization_positive():
    for key in (("A", 2, None), ("B", 2, None), ("I2", None, 4)):
        g = grp(*key)
        t = KLTable(g)
        e = antisymmetriser(g, t)
        assert kl_coefficients(e, t)[0] == RatFunc.one()


def test_antisymmetriser_checks_parity_of_grrk_w0():
    """The normaliser grrk(w0) goes through jwkit.grank, whose parity check
    catches a corrupted w0 column."""
    g = grp("A", 2)
    t = KLTable(g)
    p = packed_entry(t, 0, g.w0) + (1 << (2 * hecke._B))  # h_{e,w0}: v^3 -> v^3 + v^2
    store_entry(t, 0, g.w0, p)
    with pytest.raises(hecke.KLLawError, match="parity"):
        antisymmetriser(g, t)


def test_t_w0_class_laws():
    # [T_w0]^2 = (-1)^length(w0) grrk(w0) [T_w0]: the sign comes from
    # [T_w0] delta_x = (-v)^length(x) [T_w0] applied across the expansion,
    # since (-v)^(2 length(x) - length(w0)) = (-1)^length(w0) v^(...).
    # With length(w0) even the sign factor disappears.
    for key in (("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 3, None)):
        g = grp(*key)
        t = KLTable(g)
        tw = t_w0_class(g)
        grrk_w0 = LaurentPoly.zero()
        for y, p in t.column(g.w0).items():
            grrk_w0 = grrk_w0 + p.shift(-g.length[y])
        sign = -1 if g.length[g.w0] % 2 else 1
        assert tw * tw == tw.scale(RatFunc(grrk_w0.scale(sign)))
        for s in range(g.rank):
            ds = HeckeElt.std(g, g.right[0][s])
            assert tw * ds == tw.scale(RatFunc(LaurentPoly({1: -1})))


# -- cache file ---------------------------------------------------------------------


def _full_table(g):
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    return t


def _copied_columns(t):
    """The stored columns of t, copied down to each group's ys."""
    return {x: [(i, list(ys)) for i, ys in groups] for x, groups in t._cols.items()}


def test_cache_roundtrip(tmp_path):
    g = grp("B", 2)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl_B_2.txt"
    n = write_kl_cache(str(path), t)
    assert n > 0
    t2 = KLTable(g)
    added = load_kl_cache(str(path), t2)
    assert added == len(g.representatives()) - 1  # identity column is pre-seeded
    assert t2.computed_columns() == g.representatives() == [0, 1, 3, 5, 7]
    for x in range(g.size):
        assert t2.column(x) == t.column(x)
    # a rewrite is byte-identical
    before = path.read_bytes()
    write_kl_cache(str(path), t2)
    assert path.read_bytes() == before


@pytest.mark.parametrize("fill", ["column", "polynomial"])
def test_cache_fills_only_a_fresh_table(tmp_path, fill):
    """A table that holds a column past the identity's, or a polynomial
    past 1, is refused before the file is read, and left unchanged."""
    g = grp("A", 3)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), _full_table(g))
    t = KLTable(g)
    if fill == "column":
        t.column_packed(g.w0)
    else:
        t._intern(1 << hecke._B)  # v
    cols, terms, peak = _copied_columns(t), list(t.terms), t.peak
    with pytest.raises(ValueError, match="fresh table only"):
        load_kl_cache(str(tmp_path / "absent.txt"), t)
    with pytest.raises(ValueError, match="fresh table only"):
        load_kl_cache(str(path), t)
    assert (t._cols, t.terms, t.peak, t.unsaved) == (cols, terms, peak, True)


def test_cache_without_polynomials_is_refused(tmp_path):
    """A file must store polynomial 1: with no h line, even one whose
    body is the identity's column alone or empty, it is refused."""
    g = grp("A", 2)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), KLTable(g))
    lines = path.read_text().splitlines()
    assert lines[1:3] == ["h 0:1", "c 0 0 0"]
    for body in (["c 0 0 0"], []):
        path.write_text(reseal([lines[0], *body, lines[-1]]))
        t = KLTable(g)
        with pytest.raises(CacheFormatError, match="no polynomial lines"):
            load_kl_cache(str(path), t)
        assert t.terms == [{0: 1}] and t.peak == 1


def _content_sha256(t):
    """sha256 of the full table rendered without polynomial ids: one line
    "x y e:c e:c ..." per entry h_{y,x}, x and y ascending."""
    g = t.group
    digest = hashlib.sha256()
    for x in range(g.size):
        col = t.column(x)
        for y in sorted(col):
            digest.update((f"{x} {y} " + " ".join(f"{e}:{c}" for e, c in sorted(col[y].items())) + "\n").encode())
    return digest.hexdigest()


# sha256 of the full tables' id-free rendering (_content_sha256): the
# polynomials themselves, whatever ids the fill gives them
CONTENT_SHA256 = {
    ("A", 3, None): "b54d4e710ca13001684b7bd62fc895c82f0d65a6213e37525d60bcb230ea1add",
    ("B", 4, None): "063dfef98a1c78bc35179a87cd2f3eaa5b2f40b6bd7ca1b485f67e215f69a99a",
    ("H3", 3, None): "875d7b7da95612bfdac778b73aa264cbad9b5e6efb27746c2ebcb51db3b79606",
    ("I2", None, 7): "2ca3d5556f6315542d8aa44f8460d1ef3ba5a196e9548d5b43042f6eaec27e44",
}

# sha256 of the full-table cache files, recorded from the format-5 writer
CACHE_SHA256 = {
    ("A", 3, None): "07a802368d04e6b435a6e2e57fe4109be23062239f80a3088fa67fb054992918",
    ("B", 4, None): "c08afd2e042e3f47f2769ec2133317cac82d78c3aecccc028c0e6b29f09a2435",
    ("H3", 3, None): "9bfd06fc225b16f4fa3876078b39dad1cc264118ac7d1198e9cb145b0af36f73",
    ("I2", None, 7): "c103d87ad2975340ea2936fc71cf78d0cc94c5cce39beb0a1e349d094238b99c",
}


@pytest.mark.parametrize("key", sorted(CACHE_SHA256, key=str), ids=str)
def test_cache_bytes_are_pinned(tmp_path, key):
    g = grp(*key)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    assert _content_sha256(t) == CONTENT_SHA256[key]
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[key]
    t2 = KLTable(g)
    load_kl_cache(str(path), t2)
    assert _content_sha256(t2) == CONTENT_SHA256[key]
    write_kl_cache(str(path), t2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[key]


def _check_column_form(t):
    """Every stored column is [(id, ys)] with distinct ids, no empty group,
    pairwise disjoint ys, and ys that together are the Bruhat interval
    below its x."""
    for x, groups in t._cols.items():
        ids = [i for i, _ in groups]
        assert len(set(ids)) == len(ids), f"column {x} repeats a polynomial id"
        assert all(ys for _, ys in groups), f"column {x} has an empty group"
        flat = [y for _, ys in groups for y in ys]
        assert len(set(flat)) == len(flat), f"column {x} lists a y twice"
        assert sorted(flat) == sorted(t.group.bruhat_interval_below(x)), f"column {x} is not its Bruhat interval"


def test_store_holds_each_polynomial_once(tmp_path):
    g = grp("B", 3)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    distinct = {tuple(sorted(h.items())) for x in range(g.size) for h in t.column(x).values()}
    assert len(t.terms) == len(distinct)
    wide = t.packed_at(64)
    assert [hecke._unpack(p, 0, 64, 1 << 31) for p in wide] == t.terms
    assert t.terms[0] == {0: 1}
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    t2 = KLTable(g)
    load_kl_cache(str(path), t2)
    for table in (t, t2):
        _check_column_form(table)


def test_failed_cache_load_leaves_table_unchanged(tmp_path):
    """A file whose column 5 lacks h_{5,5} passes every per-entry law and
    the checksum; the load fails before any column or polynomial is kept."""
    g = grp("A", 2)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    lines = path.read_text().splitlines()
    col5 = "c 5 0 3 1 2 2 2 3 1 4 1 5 0"
    lines[lines.index(col5)] = col5.removesuffix(" 5 0")
    path.write_text(reseal(lines))
    t2 = KLTable(g)
    with pytest.raises(CacheFormatError, match="column 5 is not unitriangular"):
        load_kl_cache(str(path), t2)
    assert t2._cols == {0: [(0, [0])]}
    assert t2.terms == [{0: 1}] and t2.peak == 1
    assert t2.packed_at(hecke._B) == [1]


def test_cache_rejects_corruption(tmp_path):
    g = grp("B", 2)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    good = path.read_text().splitlines()

    def expect_reject(lines, match=None):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheFormatError, match=match):
            load_kl_cache(str(path), KLTable(g))

    _, count, digest = good[-1].split()
    expect_reject(good[1:])  # missing header
    expect_reject(good[:-1], match="trailing record")  # missing trailing count
    expect_reject(good[:-1] + [f"end 999 {digest}"], match="line count")  # wrong count
    expect_reject(good[:-2] + [good[-1]], match="line count")  # a dropped column
    expect_reject(good[:-1] + [f"end {count} {'0' * 64}"], match="checksum")  # wrong checksum
    expect_reject(good[:-1] + [f"end \u00b2 {digest}"], match="trailing record")  # int() rejects it
    expect_reject(good + [good[1]], match="after the trailing record")
    expect_reject(["kltable 5 A 2 1"] + good[1:])  # wrong family
    expect_reject(["kltable 1 B 2"] + good[1:-1] + [good[-1].rsplit(" ", 1)[0]])  # format 1
    expect_reject(["kltable 2 B 2"] + good[1:], match="header mismatch")  # format 2
    expect_reject([f"kltable 3 B 2 {coxeter.ENUMERATION}"] + good[1:], match="header mismatch")  # format 3
    expect_reject([f"kltable 4 B 2 {coxeter.ENUMERATION}"] + good[1:], match="header mismatch")  # format 4
    other = f"kltable 5 B 2 {coxeter.ENUMERATION + 1}"  # ids from another enumeration
    expect_reject([other] + good[1:], match="header mismatch")
    bad = good.copy()
    bad[3] = bad[3].rsplit(" ", 1)[0] + " 2:x"
    expect_reject(bad)


A2_COLUMN_5 = "c 5 0 3 1 2 2 2 3 1 4 1 5 0"  # in A2, polynomial k is v^k


# each id names the edited entry h_{y,x} as the line "x y terms" before and after
@pytest.mark.parametrize(
    "rank,old,new",
    [
        # v^2 has the wrong parity for l(w0) - l(e) = 3
        pytest.param(2, "h 3:1", "h 2:1 3:1", id="2-5 0 3:1-5 0 2:1 3:1"),
        # h_{y,x} lies in v Z[v] for y != x
        pytest.param(3, "h 6:1", "h 0:1 2:1 4:5 6:1", id="3-23 0 6:1-23 0 0:1 2:1 4:5 6:1"),
        # degree above l(x) - l(y) = 2, and past l(w0)
        pytest.param(2, "h 2:1", "h 4:1", id="2-5 1 2:1-5 1 4:1"),
        # degree above l(x) - l(y) = 1, with the right parity
        pytest.param(
            2, A2_COLUMN_5, A2_COLUMN_5.replace("3 1 4", "3 3 4"), id="2-5 3 1:1-5 3 3:1"
        ),
        # h_{x,x} = 1
        pytest.param(2, "h 0:1", "h 0:2", id="2-5 5 0:1-5 5 0:2"),
        pytest.param(2, A2_COLUMN_5, A2_COLUMN_5.removesuffix("5 0") + "5 1", id="2-5 5 0:1-5 5 1:1"),
        # coefficients are positive
        pytest.param(2, "h 1:1", "h 1:0", id="2-3 1 1:1-3 1 1:0"),
        # v passed at l(x) - l(y) = 1 in columns 1 to 4; here it is 2
        pytest.param(2, A2_COLUMN_5, A2_COLUMN_5.replace("1 2 2", "1 1 2"), id="2-5 1 2:1-5 1 1:1"),
        # far past l(w0): rejected unpacked
        pytest.param(
            2, "h 3:1", "h 99999999999999999999:1", id="2-5 0 3:1-5 0 99999999999999999999:1"
        ),
        # exponents are nonnegative
        pytest.param(2, "h 3:1", "h -1:1", id="2-5 0 3:1-5 0 -1:1"),
    ],
)
def test_cache_rejects_entries_that_break_kl_laws(tmp_path, rank, old, new):
    g = grp("A", rank)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    lines = path.read_text().splitlines()
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError, match="invalid term"):
        load_kl_cache(str(path), KLTable(g))


def test_cache_header_for_i2(tmp_path):
    g = grp("I2", m=7)
    t = KLTable(g)
    t.column_packed(g.w0)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    assert path.read_text().splitlines()[0] == f"kltable 5 I2 7 {coxeter.ENUMERATION}"


def test_cache_rejects_coefficients_past_31_bits(tmp_path):
    """2^31 v^3 passes the per-entry laws and the checksum, but the table's
    32-bit digits cannot hold it."""
    g = grp("A", 2)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    lines = path.read_text().splitlines()
    lines[lines.index("h 3:1")] = f"h 3:{1 << 31}"
    path.write_text(reseal(lines))
    with pytest.raises(CacheFormatError, match="cannot pack"):
        load_kl_cache(str(path), KLTable(g))


def test_cache_checksum_catches_edits_within_the_kl_laws(tmp_path):
    # 2 v^3 has the degree and parity of h_{e,w0} in A2; only the checksum sees it
    g = grp("A", 2)
    t = KLTable(g)
    for x in range(g.size):
        t.column_packed(x)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    lines = path.read_text().splitlines()
    lines[lines.index("h 3:1")] = "h 3:2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError, match="checksum"):
        load_kl_cache(str(path), KLTable(g))


# two lines of the full B2 file, whose polynomials h 0:1 ... h 4:1 are v^0 ... v^4
B2_COLUMN_3 = "c 3 0 2 1 1 2 1 3 0"
B2_COLUMN_7 = "c 7 0 4 1 3 2 3 3 2 4 2 5 1 6 1 7 0"


@pytest.mark.parametrize(
    "old,new,match",
    [
        (B2_COLUMN_7, B2_COLUMN_7.replace("c 7 0 4", "c 7 0 5"), "polynomial id 5 out of range"),
        (B2_COLUMN_7, B2_COLUMN_7.replace("c 7 0 4", "c 7 0 -1"), "out of range"),
        (B2_COLUMN_7, B2_COLUMN_7 + " 8 1", "out of range"),  # B2 has 8 elements
        (B2_COLUMN_7, B2_COLUMN_7.replace("c 7 0 4", "c 7 -1 4"), "out of range"),
        (B2_COLUMN_3, f"{B2_COLUMN_3}\n{B2_COLUMN_3}", "column 3 out of range or given twice"),
        (B2_COLUMN_3, B2_COLUMN_3.removesuffix(" 0"), "odd token count"),
        (B2_COLUMN_3, B2_COLUMN_3.replace("2 1 3", "1 1 3"), "duplicate"),
        # h_{0,3} = v, out of order, would be checked at l(x) - l(y) = 1
        (B2_COLUMN_3, "c 3 1 1 0 1 2 1 3 0", "unsorted"),
        # a lawful column of 4 = ts, which relabels that of 3 = st
        (B2_COLUMN_3, f"{B2_COLUMN_3}\nc 4 0 2 1 1 2 1 4 0", "column 4 is not an orbit representative"),
        ("h 4:1", "h 4:1\nk 1:1", "unknown line tag"),
        ("h 4:1", "h 4:1\nh 4:1", "stored twice"),
    ],
)
def test_cache_rejects_malformed_lines(tmp_path, old, new, match):
    g = grp("B", 2)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), _full_table(g))
    lines = path.read_text().splitlines()
    i = lines.index(old)
    path.write_text(reseal(lines[:i] + new.split("\n") + lines[i + 1 :]))
    with pytest.raises(CacheFormatError, match=match):
        load_kl_cache(str(path), KLTable(g))


def test_cache_rejects_a_column_with_two_elements_of_its_length(tmp_path):
    """h_{1,2} = 1 in A3, though l(1) = l(2) = 1: the column of the
    representative 2 = s_2 is not unitriangular."""
    g = grp("A", 3)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), _full_table(g))
    lines = path.read_text().splitlines()
    lines[lines.index("c 2 0 1 2 0")] = "c 2 0 1 1 0 2 0"
    path.write_text(reseal(lines))
    with pytest.raises(CacheFormatError, match="column 2 is not unitriangular"):
        load_kl_cache(str(path), KLTable(g))


def test_cache_mutations_are_rejected_or_harmless(tmp_path):
    """Every line of the B2 file deleted, duplicated, or with one of its
    integers raised by 1: the load raises CacheFormatError or gives the
    computed table, never another exception, and a failed load leaves the
    table unchanged.  Resealed, the same edits reach the per-line checks;
    they may then load another lawful table, but raise nothing else."""
    g = grp("B", 2)
    t = _full_table(g)
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    good = path.read_text().splitlines()
    variants = []
    for i, line in enumerate(good):
        variants.append(good[:i] + good[i + 1 :])
        variants.append(good[: i + 1] + good[i:])
        for m in re.finditer(r"\b\d+\b", line):
            edited = f"{line[: m.start()]}{int(m.group()) + 1}{line[m.end() :]}"
            variants.append(good[:i] + [edited] + good[i + 1 :])
    for lines in variants:
        for text, resealed in (("\n".join(lines) + "\n", False), (reseal(lines), True)):
            path.write_text(text)
            t2 = KLTable(g)
            cols, terms = _copied_columns(t2), list(t2.terms)
            try:
                load_kl_cache(str(path), t2)
            except CacheFormatError:
                assert t2._cols == cols and t2.terms == terms
                continue
            if not resealed:
                assert all(t2.column(x) == t.column(x) for x in range(g.size))


# sha256 of the full F4 table's id-free rendering (_content_sha256)
F4_CONTENT_SHA256 = "344c7451260cc29810708e082af4cf3f5472ec19f4b856f404ec96d19f0b9d1d"
# sha256 of the full F4 cache file, recorded from the format-5 writer
F4_CACHE_SHA256 = "82f0f852cfdea41684310e06ab1fe8c4b6428b29d39f2e0a7b622f872ca23ba4"


def test_f4_cache_round_trip(tmp_path):
    g = grp("F4", allow_large=True)
    t = _full_table(g)
    assert _content_sha256(t) == F4_CONTENT_SHA256
    path = tmp_path / "kl.txt"
    write_kl_cache(str(path), t)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == F4_CACHE_SHA256
    t2 = KLTable(g)
    assert load_kl_cache(str(path), t2) == len(g.representatives()) - 1 == 344 and not t2.unsaved
    assert t2.computed_columns() == g.representatives()
    for x in range(g.size):
        assert _polys(t2, x) == _polys(t, x)
    assert _content_sha256(t2) == F4_CONTENT_SHA256
    write_kl_cache(str(path), t2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == F4_CACHE_SHA256
