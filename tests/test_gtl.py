"""Tests for generalised Temperley-Lieb algebras and their JW elements."""

import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwkit import coxeter
from jwkit.grank import grrk
from jwkit.gtl import (
    GTLElt,
    check_ideal_closure,
    gen_jw_closed,
    gen_jw_projection,
    gtl_multiply,
)
from jwkit.hecke import HeckeElt, KLTable, kl_basis, kl_multiply
from jwkit.qpoly import LaurentPoly, RatFunc, quantum_int
from jwkit.tl import TLElt, closed_jw, monomial

from oracles import dihedral_grrk, grp, integer_scaled, kl_coefficients


def _table(g):
    return KLTable(g)


def _by_word(g):
    return {g.word[x]: x for x in range(g.size)}


# -- the basis and its constraints ---------------------------------------------------


def test_beta_requires_fc():
    g = grp("A", 2)
    with pytest.raises(ValueError):
        GTLElt.beta(g, g.w0)  # s1 s2 s1 is not fully commutative
    GTLElt.beta(g, 1)


def test_gtl_elt_rejects_keys_that_are_not_element_ids():
    # in A1 an unchecked key -1 would print as beta[1] yet compare unequal to beta_s
    g = grp("A", 1)
    for x in (-1, g.size, 1.0, True):
        with pytest.raises(ValueError):
            GTLElt(g, {x: RatFunc.one()})


def test_linear_structure():
    g = grp("B", 2)
    a = GTLElt.beta(g, 1) + GTLElt.beta(g, 2).scale(RatFunc(LaurentPoly.gen()))
    assert a - a == GTLElt.zero(g)
    assert a.coefficient(1) == RatFunc.one()


# -- products --------------------------------------------------------------------------


def test_i24_products():
    g = grp("I2", 2, 4)
    t = _table(g)
    w = _by_word(g)
    two = RatFunc(quantum_int(2))
    s, u = GTLElt.beta(g, w[(0,)]), GTLElt.beta(g, w[(1,)])
    assert gtl_multiply(s, s, t) == s.scale(two)
    assert gtl_multiply(s, u, t) == GTLElt.beta(g, w[(0, 1)])
    sts = GTLElt.beta(g, w[(0, 1, 0)])
    assert gtl_multiply(sts, s, t) == sts.scale(two)


def test_unit_element():
    g = grp("B", 2)
    t = _table(g)
    one = GTLElt.one(g)
    for x in g.fc_elements():
        b = GTLElt.beta(g, x)
        assert gtl_multiply(one, b, t) == b
        assert gtl_multiply(b, one, t) == b


def test_product_matches_tl_in_type_a():
    # in type A the truncated KL product and the diagram algebra agree
    from jwkit.tl import TLElt, multiply_tl

    g = grp("A", 3)
    t = _table(g)
    rng = random.Random(5)
    fc = g.fc_elements()
    for _ in range(10):
        x, y = rng.choice(fc), rng.choice(fc)
        got = gtl_multiply(GTLElt.beta(g, x), GTLElt.beta(g, y), t)
        dg = multiply_tl(
            TLElt(4, {monomial(g, x): RatFunc.one()}),
            TLElt(4, {monomial(g, y): RatFunc.one()}),
        )
        transported = {monomial(g, z): c for z, c in got.coeffs.items()}
        assert transported == dg.coeffs


def test_associativity_random_triples():
    rng = random.Random(3)
    for args in [("B", 2, None), ("B", 3, None), ("I2", 2, 5)]:
        g = grp(*args)
        t = _table(g)
        fc = g.fc_elements()
        for _ in range(6):
            a = GTLElt.beta(g, rng.choice(fc))
            b = GTLElt.beta(g, rng.choice(fc))
            c = GTLElt.beta(g, rng.choice(fc))
            assert gtl_multiply(gtl_multiply(a, b, t), c, t) == gtl_multiply(
                a, gtl_multiply(b, c, t), t
            )


def _oracle_multiply(a, b, t):
    """The product by the public Hecke API alone: lift with kl_basis,
    multiply with HeckeElt *, expand with to_kl_basis, keep FC terms."""
    g = a.group

    def lift(e):
        return sum((kl_basis(g, x, t).scale(c) for x, c in e.coeffs.items()), HeckeElt.zero(g))

    kl = kl_coefficients(lift(a) * lift(b), t)
    return GTLElt(g, {x: c for x, c in kl.items() if g.is_fully_commutative(x)})


@lru_cache(maxsize=None)
def _shared_table(family, rank, m):
    return KLTable(grp(family, rank, m))


@st.composite
def _gtl_elements(draw, g):
    """Up to three FC terms; numerators with Fraction coefficients over
    the denominators 1, [2] or [3], written as integer numerators over
    integer-scaled denominators."""
    support = draw(st.lists(st.sampled_from(g.fc_elements()), max_size=3, unique=True))
    fractions = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
    coeffs = {}
    for x in support:
        num, m = integer_scaled(draw(st.dictionaries(st.integers(-2, 2), fractions, min_size=1, max_size=2)))
        coeffs[x] = RatFunc(num, quantum_int(draw(st.integers(1, 3))) * m)
    return GTLElt(g, coeffs)


@pytest.mark.parametrize(
    "family,rank,m", [("A", 3, None), ("B", 3, None), ("B", 4, None), ("H3", 3, None), ("I2", 2, 5)]
)
@settings(max_examples=40)
@given(data=st.data())
def test_gtl_multiply_matches_hecke_oracle(family, rank, m, data):
    g = grp(family, rank, m)
    t = _shared_table(family, rank, m)
    a, b = data.draw(_gtl_elements(g)), data.draw(_gtl_elements(g))
    assert gtl_multiply(a, b, t) == _oracle_multiply(a, b, t)


@pytest.mark.parametrize("k", [(1 << 31) - 1, 1 << 31, 1 << 70])
def test_gtl_multiply_wide_coefficients(k):
    # beta_{s1 s3} squared is [2]^2 beta_{s1 s3}: its middle coefficient is
    # twice that of the factor, so k = 2^31 - 1 needs a wider digit than k
    # itself; the other products are checked against the Hecke oracle
    g = grp("B", 3)
    t = _shared_table("B", 3, None)
    w = _by_word(g)
    x = w[(0, 2)]
    big = RatFunc(LaurentPoly.const(k))
    two = RatFunc(quantum_int(2))
    assert gtl_multiply(GTLElt(g, {x: big}), GTLElt.beta(g, x), t) == GTLElt(g, {x: big * two * two})
    a = GTLElt(g, {x: RatFunc(LaurentPoly({0: k, 1: -k})), w[(1,)]: RatFunc(LaurentPoly({-1: k}))})
    b = GTLElt(g, {x: RatFunc(LaurentPoly({2: k})), w[(1, 0)]: RatFunc.one()})
    assert gtl_multiply(a, b, t) == _oracle_multiply(a, b, t)
    assert gtl_multiply(b, a, t) == _oracle_multiply(b, a, t)


def test_kl_multiply_rejects_non_fc_keys():
    g = grp("B", 3)
    t = _table(g)
    one = GTLElt.one(g)
    for bad in (HeckeElt.std(g, g.w0), HeckeElt.one(g) + HeckeElt.std(g, g.w0)):
        with pytest.raises(ValueError):
            kl_multiply(bad, one, t)
        with pytest.raises(ValueError):
            kl_multiply(one, bad, t)


def test_empty_operands_give_the_empty_product():
    g = grp("H3")
    t = _table(g)
    zero, b = GTLElt.zero(g), GTLElt.beta(g, g.fc_elements()[-1])
    assert gtl_multiply(zero, b, t) == zero
    assert gtl_multiply(b, zero, t) == zero
    assert gtl_multiply(zero, zero, t) == zero
    assert kl_multiply(zero, b, t) == ({}, LaurentPoly.one()) == kl_multiply(b, zero, t)
    assert t.computed_columns() == [0]


def test_mixed_groups_rejected():
    g1, g2 = grp("B", 2), grp("I2", 2, 4)
    with pytest.raises(ValueError):
        gtl_multiply(GTLElt.one(g1), GTLElt.one(g2), _table(g1))


def test_table_of_another_group_rejected():
    """Over B3 with the KL table of A3, beta_1 beta_21 came out as beta_1;
    every route now refuses the table (tests/test_guards.py checks each
    public entry).  A second build of B3 has the same element ids, so its
    table serves."""
    b3 = grp("B", 3)
    w = _by_word(b3)
    a, b = GTLElt.beta(b3, w[(0,)]), GTLElt.beta(b3, w[(1, 0)])
    want = a + GTLElt.beta(b3, w[(0, 1, 0)])
    assert gtl_multiply(a, b, _table(b3)) == want
    twin = KLTable(coxeter.build_group(b3.presentation))
    assert gtl_multiply(a, b, twin) == want
    assert gen_jw_closed(b3, twin) == gen_jw_closed(b3, _table(b3))
    with pytest.raises(ValueError, match="KL table of A rank 3 used for B rank 3"):
        gtl_multiply(a, b, KLTable(grp("A", 3)))
    with pytest.raises(ValueError, match=r"KL table of I2\(5\) used for I2\(7\)"):
        grrk(grp("I2", 2, 7), KLTable(grp("I2", 2, 5)), 0)


@pytest.mark.parametrize("op", ["+", "-", "*"])
@pytest.mark.parametrize("kind", ["hecke", "tl", "gtl"])
def test_cross_algebra_mixing_raises(kind, op):
    """Elements of one class over different algebras (B3 vs A3, TL_4 vs
    TL_4^-) never combine; the check is an exception, so it holds under
    python -O too."""
    mul = operator.mul
    if kind == "tl":
        a, b = TLElt.one(4), TLElt.one(4, sign=-1)
    else:
        g1, g2 = grp("B", 3), grp("A", 3)
        cls = HeckeElt if kind == "hecke" else GTLElt
        a, b = cls.one(g1), cls.one(g2)
        if kind == "gtl":
            mul = lambda x, y: gtl_multiply(x, y, _table(g1))  # noqa: E731
    fn = {"+": operator.add, "-": operator.sub, "*": mul}[op]
    with pytest.raises(ValueError):
        fn(a, b)


# -- ideal closure -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,rank,m",
    [
        ("A", 2, None),
        ("A", 3, None),
        ("A", 4, None),
        ("B", 2, None),
        ("B", 3, None),
        ("H3", 3, None),
        ("I2", 2, 3),
        ("I2", 2, 4),
        ("I2", 2, 5),
        ("I2", 2, 6),
        ("I2", 2, 7),
        ("I2", 2, 8),
    ],
)
def test_ideal_closure(family, rank, m):
    g = grp(family, rank, m)
    non_fc = g.size - len(g.fc_elements())
    assert check_ideal_closure(g, _table(g)) == non_fc * g.rank


# -- generalised Jones-Wenzl elements ------------------------------------------------------


def test_gen_jw_identity_coefficient():
    for args in [("A", 2, None), ("B", 2, None), ("I2", 2, 5)]:
        g = grp(*args)
        t = _table(g)
        assert gen_jw_closed(g, t).coefficient(0) == RatFunc.one()
        assert gen_jw_projection(g, t).coefficient(0) == RatFunc.one()


def test_gen_jw_i24_generator_coefficient():
    g = grp("I2", 2, 4)
    t = _table(g)
    j = gen_jw_closed(g, t)
    num = LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    den = LaurentPoly({4: 1, 2: 2, 0: 2, -2: 2, -4: 1})
    w = _by_word(g)
    assert j.coefficient(w[(0,)]) == RatFunc(-num, den)
    assert j.coefficient(w[(1,)]) == RatFunc(-num, den)


def test_gen_jw_dihedral_full_support():
    for m in (3, 4, 5, 6, 7):
        g = grp("I2", 2, m)
        j = gen_jw_closed(g, _table(g))
        assert set(j.coeffs) == set(g.fc_elements())
        assert len(j.coeffs) == g.size - 1


@pytest.mark.parametrize("m", [97, 256])
def test_dihedral_jw_matches_kl_free_oracle(m):
    """In I2(m), grrk(x) depends on l(x) alone (oracles.dihedral_grrk, no
    KL data), so the coefficient of beta_x in j_W is
    (-1)^l(x) P(m - l(x)) / P(m) with P = dihedral_grrk.  Every grrk and
    every coefficient is compared."""
    g = grp("I2", 2, m)
    t = _table(g)
    for x in range(g.size):
        assert grrk(g, t, x).value == dihedral_grrk(g.length[x])
    pm = dihedral_grrk(m)
    want = [RatFunc((-1) ** l * dihedral_grrk(m - l), pm) for l in range(m)]
    j = gen_jw_closed(g, t)
    assert sorted(j.coeffs) == g.fc_elements() and len(j.coeffs) == g.size - 1
    for x, c in j.coeffs.items():
        assert c == want[g.length[x]]


@pytest.mark.parametrize(
    "family,rank,m",
    [
        ("A", 1, None),
        ("A", 2, None),
        ("A", 3, None),
        ("A", 4, None),
        ("B", 2, None),
        ("B", 3, None),
        ("H3", 3, None),
        ("I2", 2, 3),
        ("I2", 2, 4),
        ("I2", 2, 5),
        ("I2", 2, 6),
        ("I2", 2, 7),
        ("I2", 2, 8),
    ],
)
def test_gen_jw_closed_equals_projection(family, rank, m):
    g = grp(family, rank, m)
    t = _table(g)
    assert gen_jw_closed(g, t) == gen_jw_projection(g, t)


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 2, None), ("A", 3, None), ("B", 2, None), ("B", 3, None), ("I2", 2, 5), ("I2", 2, 6)],
)
def test_gen_jw_idempotent_and_annihilation(family, rank, m):
    g = grp(family, rank, m)
    t = _table(g)
    j = gen_jw_closed(g, t)
    assert gtl_multiply(j, j, t) == j
    for x in range(g.size):
        if g.length[x] == 1:
            assert gtl_multiply(j, GTLElt.beta(g, x), t) == GTLElt.zero(g)
            assert gtl_multiply(GTLElt.beta(g, x), j, t) == GTLElt.zero(g)


def test_gen_jw_matches_diagram_jw_in_type_a():
    for n in (2, 3, 4, 5):
        g = grp("A", n - 1)
        t = _table(g)
        j = gen_jw_closed(g, t)
        jd = closed_jw(n, g, t)
        assert {monomial(g, x): c for x, c in j.coeffs.items()} == jd.coeffs


def test_f4_jw_idempotent_and_annihilating():
    # ungated: the products read only the mu values of FC columns, and the
    # whole F4 check takes well under a second (gen_jw_closed fills most)
    g = grp("F4", 4, allow_large=True)
    t = KLTable(g)
    j = gen_jw_closed(g, t)
    assert gtl_multiply(j, j, t) == j
    for x in range(g.size):
        if g.length[x] == 1:
            assert gtl_multiply(j, GTLElt.beta(g, x), t) == GTLElt.zero(g)
            assert gtl_multiply(GTLElt.beta(g, x), j, t) == GTLElt.zero(g)


def _fc_closure(g):
    """The representatives a fresh table stores after filling exactly the
    columns of the fully commutative elements."""
    t = KLTable(g)
    for x in g.fc_elements():
        t.column_packed(x)
    return t.computed_columns()


def test_f4_jw_square_reads_only_fc_columns():
    g = grp("F4", 4, allow_large=True)
    j = gen_jw_closed(g, KLTable(g))
    t = KLTable(g)
    assert gtl_multiply(j, j, t) == j
    assert t.computed_columns() == _fc_closure(g)
    assert len(t.computed_columns()) == 37  # the product of the lifts in the Hecke algebra fills 285


def test_w_graph_is_built_once_per_table(monkeypatch):
    g = grp("B", 4)
    t = KLTable(g)
    fc = g.fc_elements()
    a, b = GTLElt.beta(g, fc[5]), GTLElt.beta(g, fc[-1])
    want = _oracle_multiply(a, b, KLTable(g)), _oracle_multiply(b, a, KLTable(g))
    assert gtl_multiply(a, b, t) == want[0]
    graph = t.fc_w_graph()
    reads = []
    real = KLTable.column_packed
    monkeypatch.setattr(KLTable, "column_packed", lambda self, x: reads.append(x) or real(self, x))
    assert (gtl_multiply(a, b, t), gtl_multiply(b, a, t)) == want
    assert reads == [] and t.fc_w_graph() is graph  # no column is read again


def test_h4_products_on_the_fc_w_graph():
    # ungated: the FC closure of H4 is 177 of its 7486 orbit representatives
    g = grp("H4", allow_large=True)
    t = KLTable(g)
    rng = random.Random(17)
    fc = g.fc_elements()
    two = RatFunc(quantum_int(2))
    one = GTLElt.one(g)

    # beta_w beta_s against the product rule, mu read through KLTable.mu
    for w in rng.sample(fc, 12):
        for s in range(g.rank):
            ws = g.right[w][s]
            got = gtl_multiply(GTLElt.beta(g, w), GTLElt.beta(g, g.right[0][s]), t)
            if g.length[ws] < g.length[w]:
                assert got == GTLElt.beta(g, w).scale(two)
                continue
            want = {ws: RatFunc.one()} if g.fc[ws] else {}
            for y in t.column(w):
                if g.fc[y] and g.length[g.right[y][s]] < g.length[y] and t.mu(y, w):
                    want[y] = RatFunc(LaurentPoly.const(t.mu(y, w)))
            assert got == GTLElt(g, want)

    def combo():
        xs = [0] + rng.sample(fc[1:], 3)
        return GTLElt(g, {x: RatFunc(LaurentPoly({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])})) for x in xs})

    for _ in range(6):
        a, b = combo(), combo()
        x = rng.choice(fc)
        assert gtl_multiply(one, GTLElt.beta(g, x), t) == GTLElt.beta(g, x) == gtl_multiply(GTLElt.beta(g, x), one, t)
        # beta_x -> [x = e] is a character of TL_W (the sign character of
        # the Hecke algebra kills every b_x with x != e)
        assert gtl_multiply(a, b, t).coefficient(0) == a.coefficient(0) * b.coefficient(0)
    for _ in range(3):
        a, b, c = combo(), combo(), combo()
        assert gtl_multiply(gtl_multiply(a, b, t), c, t) == gtl_multiply(a, gtl_multiply(b, c, t), t)
    assert set(t.computed_columns()) <= set(_fc_closure(g))
