"""Tests for graded ranks, interval Poincare polynomials, and JW coefficients."""

import pytest

from jwkit.coxeter import bruhat_leq_subword
from jwkit import grank, gtl
from jwkit.grank import GradedRank, grrk, grrk_w0, poincare_interval
from jwkit import hecke
from jwkit.gtl import gen_jw_closed
from jwkit.hecke import KLLawError, KLTable
from jwkit.qpoly import LaurentPoly, RatFunc, parity_class, quantum_factorial, quantum_int

from oracles import grp, left_table, packed_entry, store_entry

V = LaurentPoly.gen()
ONE = LaurentPoly.one()


def _table(g):
    return KLTable(g)


# -- GradedRank invariants ---------------------------------------------------------


def test_graded_rank_rejects_asymmetric():
    with pytest.raises(ValueError):
        GradedRank(V)
    GradedRank(V + V ** -1)


def test_total_rank():
    assert GradedRank(V + V ** -1).total_rank() == 2
    assert GradedRank(LaurentPoly.const(5)).total_rank() == 5


# -- grrk pinned values ------------------------------------------------------------


def test_grrk_identity_and_generator():
    g = grp("A", 2)
    t = _table(g)
    assert grrk(g, t, 0).value == ONE
    # generators are the length-1 elements
    for x in range(g.size):
        if g.length[x] == 1:
            assert grrk(g, t, x).value == V + V ** -1


def test_grrk_a2_longest():
    g = grp("A", 2)
    t = _table(g)
    assert grrk(g, t, g.w0).value == quantum_factorial(3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grrk_type_a_longest_is_quantum_factorial(n):
    g = grp("A", n - 1)
    t = _table(g)
    assert grrk(g, t, g.w0).value == quantum_factorial(n)


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 3, None), ("B", 2, None), ("B", 3, None), ("I2", 2, 5), ("H3", 3, None)],
)
def test_grrk_parity_and_bar_everywhere(family, rank, m):
    g = grp(family, rank, m)
    t = _table(g)
    for x in range(g.size):
        r = grrk(g, t, x)
        # constructor enforces bar symmetry; parity is re-checked here
        assert parity_class(r.value, g.length[x])


def test_grrk_longest_total_rank_is_group_order():
    for args in [("A", 3, None), ("B", 3, None), ("I2", 2, 7), ("H3", 3, None)]:
        g = grp(*args)
        t = _table(g)
        assert grrk(g, t, g.w0).total_rank() == g.size


# -- interval Poincare polynomials ---------------------------------------------------


def test_poincare_identity():
    g = grp("A", 2)
    assert poincare_interval(g, 0) == ONE


def test_poincare_a2_length_two():
    g = grp("A", 2)
    expect = V ** 2 + LaurentPoly.const(2) + V ** -2
    for x in range(g.size):
        if g.length[x] == 2:
            assert poincare_interval(g, x) == expect


# at m = 1200 each Bruhat test walks up to 1200 descents of w0, past the
# recursion limit of a test that recursed once per descent
@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 1200])
def test_poincare_dihedral_longest(m):
    g = grp("I2", 2, m, allow_large=True)
    poly = poincare_interval(g, g.w0)
    expect = {m: 1, -m: 1}
    for k in range(1, m):
        expect[m - 2 * k] = 2
    assert poly == LaurentPoly(expect)


@pytest.mark.parametrize("family,rank,m", [("A", 3, None), ("B", 2, None), ("I2", 2, 5)])
def test_poincare_against_subword_oracle(family, rank, m):
    g = grp(family, rank, m)
    for x in range(g.size):
        lx = g.length[x]
        terms = {}
        for y in range(g.size):
            if bruhat_leq_subword(g, y, x):
                e = lx - 2 * g.length[y]
                terms[e] = terms.get(e, 0) + 1
        assert poincare_interval(g, x) == LaurentPoly(terms)


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8])
def test_dihedral_grrk_is_interval_polynomial(m):
    # every dihedral Bruhat interval is "smooth": h_{y,x} is a single monomial
    g = grp("I2", 2, m)
    t = _table(g)
    for x in range(g.size):
        assert grrk(g, t, x).value == poincare_interval(g, x)


def test_grrk_longest_is_interval_polynomial():
    # the column of w0 is always smooth, in every type
    for args in [("A", 3, None), ("B", 3, None), ("H3", 3, None)]:
        g = grp(*args)
        t = _table(g)
        assert grrk(g, t, g.w0).value == poincare_interval(g, g.w0)


def test_grrk_detects_nonsmooth_interval():
    # in B3 at least one interval is not smooth, so the two computations differ
    g = grp("B", 3)
    t = _table(g)
    assert any(
        grrk(g, t, x).value != poincare_interval(g, x) for x in range(g.size)
    )


# -- Jones-Wenzl coefficients --------------------------------------------------------
#
# The coefficient of beta_x in j_W for FC x, (-1)^length(x) grrk(x w0) / grrk(w0),
# as gen_jw_closed builds it.


def test_jw_coefficient_identity_is_one():
    for args in [("A", 2, None), ("B", 2, None), ("I2", 2, 5)]:
        g = grp(*args)
        t = _table(g)
        assert gen_jw_closed(g, t).coefficient(0) == RatFunc(ONE)


def test_jw_coefficient_a2_table():
    g = grp("A", 2)
    j = gen_jw_closed(g, _table(g))
    two, three = quantum_int(2), quantum_int(3)
    by_word = {g.word[x]: x for x in range(g.size)}
    assert j.coefficient(by_word[(0,)]) == RatFunc(-two, three)
    assert j.coefficient(by_word[(1,)]) == RatFunc(-two, three)
    assert j.coefficient(by_word[(0, 1)]) == RatFunc(ONE, three)
    assert j.coefficient(by_word[(1, 0)]) == RatFunc(ONE, three)
    # ratio form equals the [n]!-denominator form from the interval polynomial
    fact = quantum_factorial(3)
    assert j.coefficient(by_word[(0,)]) == RatFunc(-(two * two), fact)


def test_jw_coefficient_bar_invariant():
    g = grp("B", 2)
    j = gen_jw_closed(g, _table(g))
    for x in g.fc_elements():
        c = j.coefficient(x)
        assert c.bar() == c


def test_jw_coefficient_sign_alternates_with_length():
    # numerator and denominator of grrk ratios have positive coefficients,
    # so the overall sign of the coefficient is (-1)^length(x)
    g = grp("A", 3)
    t = _table(g)
    j = gen_jw_closed(g, t)
    den = grrk(g, t, g.w0).value
    for x in g.fc_elements():
        num = grrk(g, t, g.multiply(x, g.w0)).value
        if g.length[x] % 2:
            num = -num
        assert j.coefficient(x) == RatFunc(num, den)


def test_grrk_w0_computed_once_per_table(monkeypatch):
    g = grp("B", 3)
    t = _table(g)
    expected = grrk(g, t, g.w0)
    calls = []

    def counting(g, cache, x):
        calls.append(x)
        return expected

    # gtl imports grrk by name; grrk_w0 calls grank's
    monkeypatch.setattr(grank, "grrk", counting)
    monkeypatch.setattr(gtl, "grrk", counting)
    fc = g.fc_elements()
    gen_jw_closed(g, t)
    assert len(calls) == len(fc) + 1  # one numerator each, one normaliser
    assert grrk_w0(g, t) == expected
    assert grrk_w0(g, _table(g)) == expected
    assert len(calls) == len(fc) + 2


# -- the packed sum against the LaurentPoly sum ------------------------------------------------


def _grrk_by_laurent_sum(g, t, x):
    total = LaurentPoly.zero()
    for y, h in t.column(x).items():
        total = total + h.shift(-g.length[y])
    return total


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", r, None) for r in range(1, 6)]
    + [("B", r, None) for r in (2, 3, 4)]
    + [("H3", 3, None), ("I2", 2, 5), ("F4", 4, None)],
    ids=str,
)
def test_packed_grrk_matches_laurent_sum(family, rank, m):
    g = grp(family, rank, m, allow_large=family == "F4")
    t = _table(g)
    for x in range(g.size):
        assert grrk(g, t, x).value == _grrk_by_laurent_sum(g, t, x)


def _scaled_w0_column(g, factor):
    """A table whose w0 column is factor times the true one: its graded rank
    is factor * grrk(w0), still bar symmetric and of the right parity."""
    t = _table(g)
    for y in list(t.column(g.w0)):
        store_entry(t, y, g.w0, factor * packed_entry(t, y, g.w0))
    return t


def test_packed_grrk_widens_past_31_bits():
    """In A2, grrk(w0) = v^-3 + 2 v^-1 + 2 v + v^3: at 2^30 times the true
    column, two entries meet in a digit of 2^31, past a 32-bit digit."""
    g = grp("A", 2)
    t = _scaled_w0_column(g, 1 << 30)
    assert len(t.column(g.w0)) * t.peak >= 1 << 31
    got = grrk(g, t, g.w0).value
    assert got == quantum_factorial(3).scale(1 << 30) == _grrk_by_laurent_sum(g, t, g.w0)


def test_packed_grrk_checks_laws_of_wide_sums():
    g = grp("A", 2)
    t = _scaled_w0_column(g, 1 << 30)
    p = packed_entry(t, 0, g.w0) + (1 << (2 * hecke._B))  # + v^2 in h_{e,w0}: breaks parity
    store_entry(t, 0, g.w0, p)
    with pytest.raises(KLLawError, match="parity"):
        grrk(g, t, g.w0)


# -- the W-graph recursion, an independent route to graded ranks ---------------------------


def _wgraph_grrk(g, t, extra=0):
    """grrk of every element by the W-graph recursion: applying delta_s -> v^-1
    to b_s b_z = b_x + sum mu(y, z) b_y (y < z, sy < y) gives grrk(x) =
    [2] grrk(z) - sum mu(y, z) grrk(y), with z = s x for the first left
    descent s of x: the side opposite to the package's recursion, on the
    left table of tests/oracles.py.  Only KLTable.mu and LaurentPoly
    arithmetic; ``extra`` is added at every step, for the control."""
    two = quantum_int(2)
    left, length = left_table(g), g.length
    ranks = [LaurentPoly.one()]
    for x in range(1, g.size):
        s = next(s for s in range(g.rank) if length[left[x][s]] < length[x])
        z = left[x][s]
        r = two * ranks[z] + LaurentPoly.const(extra)
        for y in range(z):  # ids are ordered by length, so y < z has a smaller id
            mu = t.mu(y, z)
            if mu and length[left[y][s]] < length[y]:
                r = r - ranks[y].scale(mu)
        ranks.append(r)
    return ranks


WGRAPH_GROUPS = [("A", 4, None), ("B", 4, None), ("H3", 3, None), ("I2", None, 7)]


@pytest.mark.parametrize("family,rank,m", WGRAPH_GROUPS, ids=str)
def test_wgraph_recursion_matches_grrk(family, rank, m):
    g = grp(family, rank, m)
    t = _table(g)
    ranks = _wgraph_grrk(g, t)
    assert [grrk(g, t, x).value for x in range(g.size)] == ranks


@pytest.mark.parametrize("family,rank,m", WGRAPH_GROUPS, ids=str)
def test_wgraph_recursion_control_fails(family, rank, m):
    """The same recursion with +1 at every step misses grrk on every element
    but e, so the check above can fail."""
    g = grp(family, rank, m)
    t = _table(g)
    ranks = _wgraph_grrk(g, t, extra=1)
    assert all(ranks[x] != grrk(g, t, x).value for x in range(1, g.size))
