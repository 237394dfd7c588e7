"""Tests for the diagram algebra and the Jones-Wenzl constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwkit import tl
from jwkit.hecke import HeckeElt, KLTable, antisymmetriser, kl_basis
from jwkit.qpoly import LaurentPoly, RatFunc, quantum_int
from jwkit.tl import (
    Diagram,
    TLElt,
    closed_jw,
    compose,
    fc_diagrams,
    jw_minus,
    monomial,
    multiply_tl,
    project_pi,
    wenzl_jw,
)

from oracles import catalan, compose_components, grp, integer_scaled, koszul, multiply_tl_dicts

V = LaurentPoly.gen()
DELTA = V + V ** -1


def _table(g):
    return KLTable(g)


# -- diagrams ---------------------------------------------------------------------


def test_identity_and_generator_diagrams():
    d = Diagram.identity(3)
    assert d.partner == (3, 4, 5, 0, 1, 2)
    assert d.through_strands() == 3
    u0 = Diagram.cupcap(3, 0)
    assert u0.partner == (1, 0, 5, 4, 3, 2)
    assert u0.through_strands() == 1


def test_diagram_validation():
    with pytest.raises(ValueError):
        Diagram(2, (1, 0, 2, 3))  # fixed points on top
    with pytest.raises(ValueError):
        Diagram(2, (3, 2, 1, 0))  # crossing strands
    with pytest.raises(ValueError):
        Diagram(2, (1, 0, 3))  # wrong length
    with pytest.raises(ValueError):
        Diagram.cupcap(3, 2)  # generator index out of range


def test_compose_loop():
    u = Diagram.cupcap(2, 0)
    d, loops, scalar = compose(u, u)
    assert d == u and loops == 1 and scalar == DELTA
    d, loops, scalar = compose(u, u, sign=-1)
    assert d == u and loops == 1 and scalar == -DELTA


def test_compose_snake():
    u1 = Diagram.cupcap(3, 0)
    u2 = Diagram.cupcap(3, 1)
    d, loops, scalar = compose(u1, u2)
    d, loops2, scalar2 = compose(d, u1)
    assert d == u1 and loops == loops2 == 0
    assert scalar.is_one and scalar2.is_one


def test_compose_identity_random():
    rng = random.Random(7)
    e = Diagram.identity(4)
    for _ in range(20):
        d = Diagram.identity(4)
        for _ in range(rng.randrange(5)):
            d, _, _ = compose(d, Diagram.cupcap(4, rng.randrange(3)))
        assert compose(e, d) == (d, 0, LaurentPoly.one())
        assert compose(d, e) == (d, 0, LaurentPoly.one())


def test_compose_strand_mismatch():
    with pytest.raises(ValueError):
        compose(Diagram.identity(2), Diagram.identity(3))


def _all_diagrams(n):
    if n == 1:
        return [Diagram.identity(1)]
    g = grp("A", n - 1)
    return sorted(monomial(g, x) for x in g.fc_elements())


def test_compose_kernel_on_all_tl5_pairs():
    """Every composite of two TL_5 diagrams from the unvalidated kernel is
    a valid diagram, and matches compose and the component oracle."""
    diagrams = _all_diagrams(5)
    assert len(diagrams) == catalan(5)
    for a in diagrams:
        for b in diagrams:
            partner, loops = tl._compose(a.partner, b.partner, 5)
            d = Diagram(5, partner)  # validates
            assert compose(a, b) == (d, loops, DELTA**loops)
            assert (partner, loops) == compose_components(a.partner, b.partner, 5)


# -- the generator-action index --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_action_index_matches_the_oracle(n):
    """The whole index of TL_n: Catalan(n) diagrams, every act[s][d] the
    component oracle's d u_s, a loop exactly where d has a top cap at s,
    each breadth-first word composing to its diagram without a loop, and
    each depth the length of the FC element whose monomial it is."""
    index = tl._actions(n)
    index.fill(n * n)
    diagrams = [d.partner for d in index.diagrams]
    assert len(diagrams) == catalan(n) == index.filled
    assert {p: i for i, p in enumerate(diagrams)} == index.ids
    gens = [Diagram.cupcap(n, s).partner for s in range(n - 1)]
    for s, u in enumerate(gens):
        assert len(index.act[s]) == len(diagrams)
        for p, (i, loops) in zip(diagrams, index.act[s]):
            assert (diagrams[i], loops) == compose_components(p, u, n)
            assert loops == (p[n + s] == n + s + 1)
    for i, p in enumerate(diagrams):
        word = []
        j = i
        while index.parent[j] is not None:
            j, s = index.parent[j]
            word.append(s)
        assert j == 0 and len(word) == index.depth[i]
        d = Diagram.identity(n).partner
        for s in reversed(word):
            d, loops = compose_components(d, gens[s], n)
            assert loops == 0
        assert d == p
    if n > 1:
        g = grp("A", n - 1, allow_large=n == 7)
        for x, d in fc_diagrams(g).items():
            assert index.depth[index.ids[d.partner]] == g.length[x]


def _sparse(n, terms):
    """sum c u_{i1} ... u_{ik} over the (c, word) pairs in terms, in TL_n,
    composed by the component oracle alone."""
    out = {}
    for c, word in terms:
        d = Diagram.identity(n).partner
        for s in word:
            d, loops = compose_components(d, Diagram.cupcap(n, s).partner, n)
            assert loops == 0
        out[Diagram(n, d)] = RatFunc(c)
    return TLElt(n, out)


def test_action_index_fills_lazily():
    """Products of generators on 16 strands index only the shallow levels
    they read: an eager index would hold all Catalan(16) = 35,357,670."""
    tl._actions.cache_clear()
    one = LaurentPoly.one()
    for a, b in (
        (_sparse(16, [(one, (0,))]), _sparse(16, [(one, (14,))])),
        (_sparse(16, [(one, (2,)), (V, (11,))]), _sparse(16, [(one, (7,))])),
    ):
        assert multiply_tl(a, b) == multiply_tl_dicts(a, b)
        assert multiply_tl(b, a) == multiply_tl_dicts(b, a)
    index = tl._actions(16)
    assert len(index.diagrams) <= 1 + 15 + 119  # levels 0-2
    a, b = _sparse(16, [(one, (3, 4))]), _sparse(16, [(one, (10, 9))])
    assert multiply_tl(a, b) == multiply_tl_dicts(a, b)
    assert max(index.depth[:index.filled]) == 3
    assert len(index.diagrams) == 3501  # levels 0-4


# -- algebra relations ---------------------------------------------------------------


def test_tl_relations():
    n = 5
    delta = RatFunc(DELTA)
    for i in range(n - 1):
        u = TLElt.gen(n, i)
        assert u * u == u.scale(delta)
        for j in range(n - 1):
            uj = TLElt.gen(n, j)
            if abs(i - j) == 1:
                assert u * uj * u == u
            elif abs(i - j) >= 2:
                assert u * uj == uj * u


def test_tl_minus_relations():
    n = 4
    delta = RatFunc(DELTA)
    for i in range(n - 1):
        u = TLElt.gen(n, i, sign=-1)
        assert u * u == u.scale(-delta)
        for j in range(n - 1):
            uj = TLElt.gen(n, j, sign=-1)
            if abs(i - j) == 1:
                assert u * uj * u == u


def test_tl_elt_rejects_keys_that_are_not_diagrams():
    # keys are diagrams, as HeckeElt and GTLElt keys are element ids
    for d in (5, None, (1, 0, 3, 2), "d"):
        with pytest.raises(ValueError, match="is not a diagram"):
            TLElt(2, {d: RatFunc.one()})
    with pytest.raises(ValueError, match="mixed strand counts"):
        TLElt(2, {Diagram.identity(3): RatFunc.one()})


def test_tl_mixed_sign_rejected():
    with pytest.raises(ValueError):
        multiply_tl(TLElt.gen(3, 0), TLElt.gen(3, 0, sign=-1))
    with pytest.raises(ValueError):
        multiply_tl(TLElt.gen(3, 0), TLElt.gen(4, 0))


# -- the packed product against the dict oracle ------------------------------------------

_DENS = [LaurentPoly.one(), quantum_int(2), quantum_int(3), V + 2, LaurentPoly.const(3)]


@st.composite
def _tl_elements(draw, n, sign, big=1):
    diagrams = _all_diagrams(n)
    picked = draw(st.lists(st.sampled_from(diagrams), min_size=1, max_size=6, unique=True))
    coeff = st.one_of(
        st.integers(-5, 5),
        st.integers(-big, big),
        st.fractions(-5, 5, max_denominator=6),
        st.builds(Fraction, st.integers(-big, big), st.integers(1, 7)),
    )
    out = {}
    for d in picked:
        num, m = integer_scaled(draw(st.dictionaries(st.integers(-4, 4), coeff, max_size=3)))
        out[d] = RatFunc(num, draw(st.sampled_from(_DENS)) * m)
    return TLElt(n, out, sign)


@settings(max_examples=60)
@given(data=st.data())
def test_multiply_tl_matches_dict_oracle(data):
    """Signed, negative-exponent and Fraction coefficients, TL_n and
    TL_n^-, and coefficients of 2^31 and more, which widen the digit."""
    n = data.draw(st.integers(1, 6))
    sign = data.draw(st.sampled_from([1, -1]))
    big = data.draw(st.sampled_from([1, 1 << 31, 1 << 70]))
    a = data.draw(_tl_elements(n, sign, big))
    b = data.draw(_tl_elements(n, sign, big))
    assert multiply_tl(a, b) == multiply_tl_dicts(a, b)


def test_multiply_tl_wide_digit():
    """A product whose bound passes 2^63 runs at 128-bit digits."""
    u = TLElt.gen(4, 1).scale(RatFunc(LaurentPoly({-1: 1 << 40, 2: -(1 << 35)})))
    j = wenzl_jw(4).scale(RatFunc(LaurentPoly({0: (1 << 33) + 1})))
    for x, y in ((u, j), (j, u), (u, u)):
        assert multiply_tl(x, y) == multiply_tl_dicts(x, y)


def test_multiply_tl_zero():
    assert multiply_tl(TLElt.zero(3), wenzl_jw(3)) == TLElt.zero(3)
    assert multiply_tl(TLElt.one(3, -1), TLElt.zero(3, -1)) == TLElt.zero(3, -1)


def test_tl_unit_and_linearity():
    n = 4
    one = TLElt.one(n)
    a = TLElt.gen(n, 0) + TLElt.gen(n, 2).scale(RatFunc(V))
    assert a * one == a and one * a == a
    b = TLElt.gen(n, 1)
    assert (a + b) * b == a * b + b * b


# -- the monomial basis ----------------------------------------------------------------


def test_monomial_small():
    g = grp("A", 2)
    assert monomial(g, 0) == Diagram.identity(3)
    by_word = {g.word[x]: x for x in range(g.size)}
    assert monomial(g, by_word[(0,)]) == Diagram.cupcap(3, 0)
    assert monomial(g, by_word[(1,)]) == Diagram.cupcap(3, 1)


def test_monomial_rejects_non_fc():
    g = grp("A", 2)
    with pytest.raises(ValueError):
        monomial(g, g.w0)  # s1 s2 s1 is not fully commutative
    with pytest.raises(ValueError):
        monomial(grp("B", 2), 1)  # wrong family


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_monomial_distinct_and_catalan(rank):
    g = grp("A", rank)
    diagrams = {monomial(g, x) for x in g.fc_elements()}
    assert len(diagrams) == len(g.fc_elements()) == catalan(rank + 1)


def _commutation_class(word):
    """All words reachable by swapping adjacent commuting letters (type A:
    letters commute iff they differ by at least 2)."""
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if abs(w[i] - w[i + 1]) >= 2:
                w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return seen


def test_monomial_word_independent():
    g = grp("A", 3)
    n = g.rank + 1
    for x in g.fc_elements():
        expect = monomial(g, x)
        for w in _commutation_class(g.word[x]):
            d = Diagram.identity(n)
            for s in w:
                d, loops, _ = compose(d, Diagram.cupcap(n, s))
                assert loops == 0
            assert d == expect


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_fc_diagrams_are_the_monomials_in_id_order(rank):
    g = grp("A", rank, allow_large=rank == 6)
    ds = fc_diagrams(g)
    assert list(ds) == g.fc_elements()
    assert ds == {x: monomial(g, x) for x in g.fc_elements()}


def test_fc_diagrams_reject_other_families():
    with pytest.raises(ValueError, match="type A"):
        fc_diagrams(grp("B", 3))


# -- Wenzl recursion --------------------------------------------------------------------


def test_wenzl_j1_j2():
    assert wenzl_jw(1) == TLElt.one(1)
    two = quantum_int(2)
    expect = TLElt.one(2) - TLElt.gen(2, 0).scale(RatFunc(LaurentPoly.one(), two))
    assert wenzl_jw(2) == expect
    with pytest.raises(ValueError):
        wenzl_jw(0)


def test_wenzl_j3_table():
    g = grp("A", 2)
    two, three = quantum_int(2), quantum_int(3)
    j = wenzl_jw(3)
    by_word = {g.word[x]: x for x in range(g.size)}
    assert j.coefficient(Diagram.identity(3)) == RatFunc.one()
    for w in [(0,), (1,)]:
        assert j.coefficient(monomial(g, by_word[w])) == RatFunc(-two, three)
    for w in [(0, 1), (1, 0)]:
        assert j.coefficient(monomial(g, by_word[w])) == RatFunc(
            LaurentPoly.one(), three
        )
    assert len(j.coeffs) == 5


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_wenzl_idempotent_and_annihilation(n):
    j = wenzl_jw(n)
    assert j * j == j
    for i in range(n - 1):
        u = TLElt.gen(n, i)
        assert (j * u).coeffs == {}
        assert (u * j).coeffs == {}


# -- closed formula ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_equals_wenzl(n):
    g = grp("A", n - 1)
    assert closed_jw(n, g, _table(g)) == wenzl_jw(n)


def test_closed_wrong_rank():
    g = grp("A", 2)
    with pytest.raises(ValueError):
        closed_jw(4, g, _table(g))


# -- the quotient map -------------------------------------------------------------------


def test_project_generators():
    g = grp("A", 2)
    t = _table(g)
    by_word = {g.word[x]: x for x in range(g.size)}
    for s in range(2):
        b = kl_basis(g, by_word[(s,)], t)
        assert project_pi(b, t) == TLElt.gen(3, s)
    # b_{s1 s2 s1} is indexed by a non-FC element, so it maps to zero
    assert project_pi(kl_basis(g, g.w0, t), t) == TLElt.zero(3)


def test_project_is_algebra_map():
    rng = random.Random(11)
    for rank in (2, 3):
        g = grp("A", rank)
        t = _table(g)
        for _ in range(8):
            x = rng.randrange(g.size)
            y = rng.randrange(g.size)
            a, b = kl_basis(g, x, t), kl_basis(g, y, t)
            assert project_pi(a * b, t) == multiply_tl(
                project_pi(a, t), project_pi(b, t)
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_project_sign_idempotent_is_jw(n):
    g = grp("A", n - 1)
    t = _table(g)
    assert project_pi(antisymmetriser(g, t), t) == wenzl_jw(n)


# -- the sign-twisted variant ---------------------------------------------------------


def test_jw_minus_small():
    g = grp("A", 1)
    t = _table(g)
    jm = jw_minus(2, g, t)
    two = quantum_int(2)
    expect = TLElt.one(2, sign=-1) + TLElt.gen(2, 0, sign=-1).scale(
        RatFunc(LaurentPoly.one(), two)
    )
    assert jm == expect


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jw_minus_idempotent_and_annihilation(n):
    g = grp("A", n - 1)
    jm = jw_minus(n, g, _table(g))
    assert jm * jm == jm
    assert jm.coefficient(Diagram.identity(n)) == RatFunc.one()
    for i in range(n - 1):
        u = TLElt.gen(n, i, sign=-1)
        assert (jm * u).coeffs == {}
        assert (u * jm).coeffs == {}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jw_minus_is_koszul_twist(n):
    # coefficientwise, j_n^- is the Koszul involution applied to j_n
    g = grp("A", n - 1)
    t = _table(g)
    j = closed_jw(n, g, t)
    jm = jw_minus(n, g, t)
    assert set(j.coeffs) == set(jm.coeffs)
    for d, c in j.coeffs.items():
        assert jm.coefficient(d) == koszul(c)
