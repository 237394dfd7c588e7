"""Exact Laurent-polynomial and rational-function arithmetic.

Canonical forms of rational functions are checked against sympy's
independent gcd machinery; ring axioms and involution laws are checked on
seeded random inputs.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jwkit import qpoly
from jwkit.hecke import HeckeElt
from jwkit.qpoly import (
    LaurentPoly,
    LinComb,
    RatFunc,
    _canonical,
    _coefficients,
    parity_class,
    quantum_factorial,
    quantum_int,
)
from jwkit.tl import TLElt, monomial

from oracles import grp, integer_scaled, koszul

v = LaurentPoly.gen()


def rand_poly(rng, nterms=4, span=6):
    """A random Laurent polynomial over Q as (p, m): p integral, m > 0,
    value p / m."""
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = rng.randint(-span, span)
        c = rng.randint(-9, 9)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 5))
        terms[e] = terms.get(e, 0) + c
    return integer_scaled(terms)


def rand_ratio(rng):
    """(a, b, f): the values a and b of two random rand_poly draws, as
    sympy expressions, and f = a / b as a RatFunc (None when b = 0)."""
    (pa, ma), (pb, mb) = rand_poly(rng), rand_poly(rng)
    f = None if pb.is_zero else RatFunc(pa * mb, pb * ma)
    return to_sympy(pa) / ma, to_sympy(pb) / mb, f


def to_sympy(p):
    x = sympy.Symbol("v")
    return sum(sympy.Integer(c) * x**e for e, c in p.items())


def all_int(*polys):
    return all(type(c) is int for p in polys for _, c in p.items())


# -- LaurentPoly ring --------------------------------------------------------


def test_basic_arith():
    assert (v + v**-1) * (v - v**-1) == v**2 - v**-2
    assert (v + 1) - (v + 1) == LaurentPoly.zero()
    assert v * v**-1 == LaurentPoly.one()
    assert 2 * v + v == 3 * v


def test_zero_one_identities():
    p = v**3 - 2 + v**-1
    assert p + LaurentPoly.zero() == p
    assert p * LaurentPoly.one() == p
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_pow():
    assert (v + 1) ** 2 == v**2 + 2 * v + 1
    assert v**0 == LaurentPoly.one()
    assert 1 / (2 * v) ** 2 == RatFunc(v**-2, 4)
    assert (-v) ** -3 == -(v**-3)
    with pytest.raises(ValueError):
        (v + 1) ** -1


def test_negative_powers_only_of_units():
    for p in (2 * v, -3 * v**2, LaurentPoly.const(2)):
        with pytest.raises(ValueError):
            p**-1


def test_ring_axioms_random():
    rng = random.Random(20260816)
    for _ in range(200):
        a, b, c = rand_poly(rng)[0], rand_poly(rng)[0], rand_poly(rng)[0]
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_laurent_poly_rejects_non_int_coefficients():
    for c in (Fraction(3, 2), Fraction(4, 2), 0.1, 1.0, "1", True, False):
        with pytest.raises(TypeError):
            LaurentPoly({1: c})
        with pytest.raises(TypeError):
            LaurentPoly.const(c)
        with pytest.raises(TypeError):
            v.scale(c)
    assert v.scale(2) == 2 * v and v.scale(0).is_zero


def test_laurent_poly_rejects_non_int_exponents():
    # coercing with int(e) would turn {1.9: 1, 1: 1} into v and {"3": 2} into 2 v^3
    for terms in ({1.9: 1, 1: 1}, {"3": 2}, {True: 1}, {Fraction(2): 1}):
        with pytest.raises(TypeError):
            LaurentPoly(terms)


# -- involutions -------------------------------------------------------------


def test_bar():
    assert v.bar() == v**-1
    assert (v**2 + 3 * v).bar() == v**-2 + 3 * v**-1
    assert quantum_int(4).bar() == quantum_int(4)


def test_koszul():
    assert koszul(v) == -(v**-1)
    assert koszul(quantum_int(2)) == -quantum_int(2)
    assert koszul(quantum_int(3)) == quantum_int(3)


def test_involutions_are_ring_maps_and_involutive():
    rng = random.Random(99)
    for _ in range(100):
        a, b = rand_poly(rng)[0], rand_poly(rng)[0]
        for f in (LaurentPoly.bar, koszul):
            assert f(a + b) == f(a) + f(b)
            assert f(a * b) == f(a) * f(b)
            assert f(f(a)) == a


# -- quantum integers --------------------------------------------------------


def test_quantum_int_values():
    assert quantum_int(1) == LaurentPoly.one()
    assert quantum_int(2) == v + v**-1
    assert quantum_int(3) == v**2 + 1 + v**-2


def test_quantum_factorial_values():
    assert quantum_factorial(1) == LaurentPoly.one()
    assert quantum_factorial(2) == v + v**-1
    assert quantum_factorial(3) == v**3 + 2 * v + 2 * v**-1 + v**-3


def test_quantum_int_pascal():
    # [m+1] = v[m] + v^-m, a telescoping identity usable as an oracle
    for m in range(1, 9):
        assert quantum_int(m + 1) == v * quantum_int(m) + v ** (-m)


def test_quantum_domain_errors():
    with pytest.raises(ValueError):
        quantum_int(0)
    with pytest.raises(ValueError):
        quantum_factorial(-1)


# -- parity classes ----------------------------------------------------------


def test_parity_class():
    assert parity_class(v**3 + v, 3)
    assert parity_class(v**3 + v, 5)
    assert not parity_class(v**3 + v, 4)
    assert not parity_class(v**3 + v, 1)  # exponent 3 exceeds 1
    assert parity_class(LaurentPoly.zero(), 0)
    assert parity_class(LaurentPoly.zero(), 17)
    assert parity_class(quantum_factorial(3), 3)


# -- RatFunc canonical form --------------------------------------------------


def test_canonical_form_spec_example():
    f = (v**2 + 1 + v**-2) / (v + v**-1)
    # denominator cleared of negative exponents, positive leading
    # coefficient, nonzero constant term
    assert f.den == v**2 + 1
    assert f.num == v**3 + v + v**-1
    assert f * (v + v**-1) == RatFunc(v**2 + 1 + v**-2)


def test_gcd_cancellation():
    f = ((v + 1) * (v - 1)) / ((v + 1) * (v + 2))
    assert f == (v - 1) / (v + 2)
    g = (v**2 - 1) / (v - 1)
    assert g.is_polynomial
    assert g.as_poly() == v + 1


def test_denominator_keeps_its_integer_content():
    f = v / (2 * v + 2)
    assert f.den == 2 * v + 2
    assert f.num == v
    g = (3 * v) / (-6 * v**2 - 6 * v)  # contents cancel to 1 over -2
    assert g.num == -1 and g.den == 2 * v + 2


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        RatFunc(v, LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        RatFunc(v) / RatFunc(0)


def test_canonical_form_random_vs_sympy():
    """num/den == sympy's cancel of the same fraction, and the canonical
    invariants hold: the denominator is a polynomial with a nonzero
    constant term and a positive leading coefficient, and numerator and
    denominator share no polynomial factor and no constant one."""
    rng = random.Random(4242)
    x = sympy.Symbol("v")
    checked = 0
    while checked < 60:
        a, b, f = rand_ratio(rng)
        if f is None:
            continue
        checked += 1
        ours = to_sympy(f.num) / to_sympy(f.den)
        theirs = sympy.cancel(a / b)
        assert sympy.simplify(ours - theirs) == 0
        if a != 0:
            # canonical invariants
            assert f.den.min_exponent() == 0
            assert f.den.coefficient(0) != 0
            assert f.den.coefficient(f.den.max_exponent()) > 0
            assert math.gcd(*(c for p in (f.num, f.den) for _, c in p.items())) == 1
            num_sym = sympy.Poly(to_sympy(f.num.shift(-f.num.min_exponent())), x)
            den_sym = sympy.Poly(to_sympy(f.den), x)
            assert sympy.degree(sympy.gcd(num_sym, den_sym), x) == 0


def test_field_axioms_random():
    rng = random.Random(777)
    made = 0
    while made < 60:
        f, g = rand_ratio(rng)[2], rand_ratio(rng)[2]
        if f is None or g is None:
            continue
        made += 1
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f
        if not g.is_zero:
            assert (f / g) * g == f


def test_ratfunc_involutions():
    f = (v**2 + 1 + v**-2) / (v + v**-1)
    assert f.bar() == f  # both [3] and [2] are bar-symmetric
    assert koszul(f) == -f  # [3] fixed, [2] negated
    assert f.bar().bar() == f


def test_equality_and_hash():
    f = (v**2 - 1) / (v - 1)
    g = RatFunc(v + 1)
    assert f == g
    assert hash(f) == hash(g)
    assert f != (v + 2) / LaurentPoly.one()


# every representation of one value: int, Fraction, LaurentPoly and RatFunc
REPRESENTATIONS = {
    "0": [0, Fraction(0), LaurentPoly.zero(), RatFunc(0), RatFunc.zero()],
    "1": [1, Fraction(1), LaurentPoly.one(), RatFunc(1), RatFunc(v, v)],
    "-3": [-3, Fraction(-3), LaurentPoly.const(-3), RatFunc(-3), RatFunc(6 * v + 6, -2 * v - 2)],
    "1/2": [Fraction(1, 2), RatFunc(1, 2), RatFunc(v + 1, 2 * v + 2)],
    "v": [v, RatFunc(v), RatFunc(2 * v**2, 2 * v)],
    "v/(v+1)": [RatFunc(v, v + 1), RatFunc(2 * v, 2 * v + 2), v / (v + 1)],
}


@pytest.mark.parametrize("value", sorted(REPRESENTATIONS))
def test_equal_values_hash_equal(value):
    for a in REPRESENTATIONS[value]:
        for b in REPRESENTATIONS[value]:
            assert a == b
            assert hash(a) == hash(b)
            assert a in {b}
        for other, reps in REPRESENTATIONS.items():
            if other != value:
                assert all(a != b for b in reps)


def test_scale_by_a_fraction():
    vec = _Vec({0: RatFunc(v), 1: RatFunc(1, v + 1)})
    assert vec.scale(Fraction(1, 2)) == vec.scale(RatFunc(1, 2))
    assert vec.scale(Fraction(1, 2)).coeffs[1] == RatFunc(1, 2 * v + 2)
    assert RatFunc(v) * Fraction(2, 3) == RatFunc(2 * v, 3)
    with pytest.raises(TypeError):
        vec.scale(0.5)


ints = st.integers(-(1 << 70), 1 << 70)
int_laurent = st.dictionaries(st.integers(-5, 5), ints, max_size=5).map(LaurentPoly)


@given(int_laurent, int_laurent, st.integers(-4, 4), ints)
def test_laurent_polynomials_hold_only_ints(a, b, k, c):
    """What ring operations, the involutions, shifts, the canonical form
    of RatFunc and the rows and denominator of a sum and of a construction
    over several denominators hold int coefficients only."""
    out = [a + b, a - b, -a, a * b, a**2, a.bar(), koszul(a), a.shift(k), a.scale(c)]
    out += [v**-k, (-v) ** -3]
    if not b.is_zero:
        f = RatFunc(a, b) * Fraction(1, 3) + RatFunc(c, b.shift(k))
        out += [f.num, f.den, f.bar().num, f.bar().den, koszul(f).num, koszul(f).den]
        r = RatFunc(a, b)
        out += [r.num, r.den]
        s = _Vec({0: RatFunc(a, b)}) + _Vec({0: RatFunc(1, b.shift(k) * 3), 1: RatFunc(a * b, b)})
        t = _Vec({0: RatFunc(a, b), 1: RatFunc(c, b.shift(k) * 3)})
        out += [*s.rows.values(), s.den, *t.rows.values(), t.den]
    assert all_int(*out)


# -- serialization -----------------------------------------------------------


def test_triples_roundtrip():
    p = 2 * v**3 - 1 + 2 * v**-2
    rows = p.to_triples()
    assert rows == [[3, 2, 1], [0, -1, 1], [-2, 2, 1]]
    assert LaurentPoly.from_triples(rows) == p
    half = RatFunc(p, 2)  # v^3 - 1/2 + v^-2
    assert half.to_triples() == {"num": rows, "den": [[0, 2, 1]]}
    rational_rows = [[3, 1, 1], [0, -1, 2], [-2, 1, 1]]
    assert RatFunc.from_triples({"num": rational_rows, "den": [[0, 1, 1]]}) == half
    with pytest.raises(ValueError):
        LaurentPoly.from_triples(rational_rows)
    f = half / (v + v**-1)
    assert RatFunc.from_triples(f.to_triples()) == f


def test_triples_rejects_unsorted():
    with pytest.raises(ValueError):
        LaurentPoly.from_triples([[0, 1, 1], [1, 1, 1]])


def test_ratfunc_from_triples_clears_rational_rows():
    assert RatFunc.from_triples({"num": [[0, 1, 2]], "den": [[0, 1, 1]]}) == RatFunc(1, 2)
    assert RatFunc.from_triples({"num": [[1, 1, 3]], "den": [[1, 1, 1], [0, 1, 2]]}) == RatFunc(
        2 * v, 6 * v + 3
    )
    with pytest.raises(ValueError):
        RatFunc.from_triples({"num": [[0, 1, 1], [1, 1, 1]], "den": [[0, 1, 1]]})


# -- the integer gcd kernel -----------------------------------------------------------

X = sympy.Symbol("v")

coeffs = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)
# a Laurent polynomial over Q as (p, m): p integral, m > 0, value p / m
rational = st.dictionaries(st.integers(-5, 5), coeffs, max_size=5).map(integer_scaled)
nonzero_rational = rational.filter(lambda pm: not pm[0].is_zero)
# integer polynomials of positive degree, constant term first
int_polys = st.lists(st.integers(-40, 40), min_size=2, max_size=7).filter(lambda f: f[-1] != 0)


def _times(f, g):
    """The product of two integer polynomials, constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly(f):
    """The LaurentPoly of an integer polynomial, constant term first."""
    return LaurentPoly(dict(enumerate(f)))


def _sympy_primitive_gcd(f, g):
    h = sympy.gcd(sympy.Poly(list(reversed(f)), X), sympy.Poly(list(reversed(g)), X))
    return qpoly._primitive([int(c) for c in reversed(h.all_coeffs())])


def _planted(a, b, c, k=0):
    """(num, den) with num / den = (a c) / (b c v^k) for (p, m) pairs:
    rational a and b, and the common factor c, over Z[v, v^-1]."""
    (pa, ma), (pb, mb), (pc, _) = a, b, c
    return pa * pc * mb, (pb * pc * ma).shift(k)


@given(rational, nonzero_rational, nonzero_rational, st.integers(-4, 4))
def test_canonical_form_matches_sympy_cancel(a, b, c, k):
    """num/den with a planted common factor c and a monomial shift reduces
    to sympy's cancelled fraction: the same value, and the denominator is
    sympy's cancelled denominator with its v^m factor dropped, made
    primitive with a positive leading coefficient, times a content coprime
    to the numerator's."""
    num, den = _planted(a, b, c, k)
    f = RatFunc(num, den)
    p, q = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    assert sympy.expand(to_sympy(f.num) * q - p * to_sympy(f.den)) == 0
    if num.is_zero:
        assert f.num.is_zero and f.den.is_one
        return
    q = sympy.Poly(q, X)
    m = min(e for (e,) in q.monoms())
    q0 = sympy.Poly(sympy.expand(q.as_expr() / X**m), X).primitive()[1]
    if q0.LC() < 0:
        q0 = -q0
    content = math.gcd(*(c for _, c in f.den.items()))
    assert sympy.expand(to_sympy(f.den) - content * q0.as_expr()) == 0
    assert f.den.min_exponent() == 0 and f.den.coefficient(f.den.max_exponent()) > 0
    assert math.gcd(*(c for _, c in f.num.items()), content) == 1
    assert all_int(f.num, f.den)


@given(int_polys, int_polys, int_polys)
def test_heuristic_gcd_prs_and_sympy_agree(a, b, c):
    """sympy's gcd of f and g with a planted common factor against the
    remainder sequence, the heuristic's cofactors, the reduction's
    cofactors and the canonical form of the RatFunc f / g."""
    f, g = qpoly._primitive(_times(a, c)), qpoly._primitive(_times(b, c))
    while not f[0]:
        f = f[1:]
    while not g[0]:
        g = g[1:]
    expected = _sympy_primitive_gcd(f, g)
    assert qpoly._prs_gcd(f, g) == expected
    bound = max(map(abs, f))
    b = qpoly._width(bound)
    vec, gx = {0: qpoly._eval(f, b)}, qpoly._eval(g, b)
    gq, rows = qpoly._heu_divided(vec, 0, b, bound, g, gx, {})
    h, fq = _poly(expected), LaurentPoly(rows[0])
    assert h * fq == _poly(f) and h * _poly(gq) == _poly(g)
    assert qpoly._divided(vec, 0, b, bound, 1, g, gx, {}) == (rows, _poly(gq))
    r = RatFunc(_poly(f), _poly(g))
    assert (r.num, r.den) == (fq, _poly(gq))


# at xi = 2^32, g(xi) is a multiple of f(xi) = xi + 1 (g(-1) = 2^32 + 1), so
# the heuristic's candidate is v + 1, which does not divide g
UNLUCKY_F, UNLUCKY_G = [1, 1], [3, -(2**31 - 1), 2**31 - 1]


def test_an_unlucky_point_falls_through_to_the_remainder_sequence(monkeypatch):
    """The heuristic is inconclusive at the one point it tries; the
    remainder sequence finds gcd 1, so RatFunc, .coeffs and a sum over g
    give f / g as it is.  A construction over f and g takes f g as its
    denominator."""
    f, g = UNLUCKY_F, UNLUCKY_G
    assert 2 * max(map(abs, g)) + 2 <= 1 << 32  # the heuristic applies at xi = 2^32
    assert qpoly._heu_divided({0: qpoly._eval(f, 32)}, 0, 32, 1, g, qpoly._eval(g, 32), {}) is None
    assert qpoly._prs_gcd(f, g) == [1] == _sympy_primitive_gcd(f, g)
    calls = []
    heu = qpoly._heu_divided
    monkeypatch.setattr(qpoly, "_heu_divided", lambda *args: calls.append(heu(*args)) or calls[-1])
    F, G = _poly(f), _poly(g)
    r = RatFunc(F, G)
    assert (r.num._terms, r.den._terms) == (F._terms, G._terms)
    coeffs = _coefficients({0: F._terms, 1: F.shift(-2)._terms}, G)
    assert [(q.num, q.den) for q in coeffs.values()] == [(F, G), (F.shift(-2), G)]
    s = _Vec({0: r}) + _Vec({1: RatFunc(F.shift(-2), G)})  # packed at xi = 2^32 too
    assert (s.rows, s.den) == ({0: F._terms, 1: F.shift(-2)._terms}, G)
    assert calls == [None] * 5
    assert _Vec({0: RatFunc(1, F), 1: RatFunc(1, G)}).den == F * G


@given(rational, nonzero_rational, nonzero_rational)
def test_remainder_sequence_fallback_gives_the_same_canonical_form(a, b, c):
    """With the heuristic forced inconclusive, RatFunc, .coeffs, a sum and
    a construction over several denominators give the same canonical
    forms through the remainder sequence."""
    num, den = _planted(a, b, c)
    dnorm = RatFunc(1, den).den

    def forms():
        f = RatFunc(num, den)
        out = [f.num._terms, f.den._terms]
        if not num.is_zero:
            rows = {0: num._terms, 1: (num * v + den)._terms, 2: {3: -6}}
            coeffs = _coefficients({k: r for k, r in rows.items() if r}, dnorm)
            out += [(k, q.num._terms, q.den._terms) for k, q in coeffs.items()]
            s = _Vec({0: RatFunc(1, num)}) + _Vec({1: RatFunc(1, den), 2: RatFunc(v, num * den)})
            t = _Vec({0: RatFunc(1, num), 1: RatFunc(1, den), 2: RatFunc(v, num * den)})
            out += [s.rows, s.den._terms, t.rows, t.den._terms]
        return out

    fast = forms()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(qpoly, "_heu_divided", lambda *args: None)
        assert forms() == fast


@given(int_polys, int_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_exact_quotient_raises_on_a_non_divisor(q, g, r):
    """f = q g + r with r nonzero and of lower degree than g: g does not
    divide f.  Nor does 1 + 2v divide 1 + v, nor 2 + v divide 1 + v."""
    r = r[: len(g) - 1]
    f = _times(q, g)
    assert qpoly._exact_quotient(f, g) == q
    if any(r):
        f = [x + (r[i] if i < len(r) else 0) for i, x in enumerate(f)]
        with pytest.raises(ArithmeticError):
            qpoly._exact_quotient(f, g)
    with pytest.raises(ArithmeticError):
        qpoly._exact_quotient([1, 1], [1, 2])


def test_canonical_form_cancels_the_primitive_gcd():
    """The primitive gcd cancels, contents and monomials aside: 2 v^-1 + 4 v
    = 2 v^-1 (2 v^2 + 1), and 2 v + 2, 4 v^2 - 4 share v + 1."""
    p = 2 * v**-1 + 4 * v
    for num, den, expected in (
        (p, 2 * v**2 + 1, (2 * v**-1, 1)),
        (2 * v**2 + 1, p, (v, 2)),
        (LaurentPoly.zero(), p, (0, 1)),
        (p, p, (1, 1)),
        (2 * v + 2, 4 * v**2 - 4, (1, 2 * v - 2)),
        (4 * v**2 - 4, -2 * v - 2, (-2 * v + 2, 1)),
    ):
        r = RatFunc(num, den)
        assert (r.num, r.den) == expected
        assert all_int(r.num, r.den)


def test_common_denominator_carries_the_lcm_of_the_contents():
    """The denominators 1/a and 1/b leave in a construction and in a sum:
    the lcm of a and b in Z[v, v^-1], contents included."""
    cases = [(a, a, expected) for a, expected in ((2 * v + 2, 2 * v + 2), (v + v**-1, v**2 + 1))]
    cases += [(a, 2 * a, 2 * expected) for a, _, expected in cases]
    cases += [(v + 1, v - 1, v**2 - 1), (6 * v + 6, -4 * v + 4, 12 * v**2 - 12)]
    for a, b, expected in cases:
        built = _Vec({0: RatFunc(1, a), 1: RatFunc(1, b)})
        summed = _Vec({0: RatFunc(1, a)}) + _Vec({1: RatFunc(1, b)})
        assert built.den == summed.den == expected
        assert built == summed


class _Vec(LinComb):
    __slots__ = ()

    def _algebra(self):
        return None

    def _label(self, key):
        return str(key)


@settings(max_examples=40)
@given(st.lists(st.tuples(rational, nonzero_rational), max_size=6), nonzero_rational)
def test_common_denominator_matches_pairwise_lcm(pairs, c):
    """Denominators share the planted factor c, so their product is not
    their lcm; the lcm is taken in Z[v], contents included, and shares no
    factor with all the rows at once."""
    vec = _Vec({k: RatFunc(*_planted(a, b, c)) for k, (a, b) in enumerate(pairs)})
    rows, den = vec.rows, vec.den
    expected = sympy.Integer(1)
    for f in vec.coeffs.values():
        expected = sympy.lcm(expected, to_sympy(f.den))
    assert sympy.expand(to_sympy(den) - expected) == 0
    assert set(rows) == set(vec.coeffs)
    common = to_sympy(den)
    for k, f in vec.coeffs.items():
        assert RatFunc(LaurentPoly(rows[k]), den) == f
        common = sympy.gcd(common, to_sympy(LaurentPoly(rows[k])))
    assert common in (1, -1)


wide = st.dictionaries(st.integers(-4, 4), ints, min_size=1, max_size=4).map(LaurentPoly).filter(bool)
wide_ratfunc = st.builds(RatFunc, wide, wide)
wide_coeffs = st.dictionaries(st.integers(0, 4), wide_ratfunc, max_size=4)


@settings(max_examples=30)
@given(wide_coeffs, wide_coeffs, wide_ratfunc)
def test_wide_digits_in_sums_scalings_and_constructions(x, y, c):
    """Coefficients up to 2^70 in the numerators, the denominators and the
    scalar, and negative exponents in the scalar: a construction over
    several denominators, a sum and a scaling have the coefficients that
    RatFunc arithmetic gives, key by key."""
    a, b = _Vec(x), _Vec(y)
    zero = RatFunc.zero()
    for elt, expected in (
        (a, x),
        (a + b, {k: x.get(k, zero) + y.get(k, zero) for k in {*x, *y}}),
        (a.scale(c), {k: f * c for k, f in x.items()}),
    ):
        assert _coefficients(elt.rows, elt.den) == {k: f for k, f in expected.items() if f}


S3 = grp("A", 2)
# keys of both algebras: the six elements of S_3, and the five TL_3
# diagrams of its fully commutative elements
BOUNDARY_KEYS = {
    "hecke": (list(range(S3.size)), lambda c: HeckeElt(S3, c)),
    "tl": ([monomial(S3, x) for x in S3.fc_elements()], lambda c: TLElt(3, c)),
}
DENOMINATORS = [1, 3, quantum_int(2), quantum_int(3), v + 2, (v + 2) * quantum_int(2)]


@settings(max_examples=60)
@given(
    st.sampled_from(sorted(BOUNDARY_KEYS)),
    st.lists(st.tuples(rational, st.sampled_from(DENOMINATORS)), max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
@example("hecke", [], [True] * 6)
@example("tl", [((LaurentPoly.zero(), 1), 3)], [True] * 6)
def test_rows_and_coeffs_round_trip(algebra, entries, flags):
    """(1 / den) sum_k rows[k] k rebuilds the element, over Fraction
    coefficients (integer numerators over integer-scaled denominators),
    several distinct denominators, negative exponents and the zero
    element; coefficients built from the rows equal the given ones, and
    the rows a kernel keeps (keep) reduce to the element of those
    coefficients alone."""
    keys, build = BOUNDARY_KEYS[algebra]
    elt = build({keys[i]: RatFunc(p, d * m) for i, ((p, m), d) in enumerate(entries[: len(keys)])})
    rows, den = elt.rows, elt.den
    assert set(rows) == set(elt.coeffs)
    assert all(type(c) is int and c for r in rows.values() for c in r.values())
    rebuilt = build({k: RatFunc(LaurentPoly(r)) for k, r in rows.items()}).scale(RatFunc(1, den))
    assert rebuilt == elt
    assert _coefficients(rows, den) == elt.coeffs
    assert elt._rebuild(rows, den).coeffs == elt.coeffs
    keep = dict(zip(keys, flags))
    kept = build({k: c for k, c in elt.coeffs.items() if keep[k]})
    assert _canonical({k: r for k, r in rows.items() if keep[k]}, den) == (kept.rows, kept.den)


def test_monomial_rows_share_one_denominator_per_content_gcd():
    """Monomial rows whose contents have the same gcd t with the content
    of den get one denominator object, (den / t) with its monomial dropped."""
    den = LaurentPoly({0: 6, 2: 6})  # 6 (1 + v^2)
    coeffs = _coefficients({0: {1: 4}, 1: {-2: 2}, 2: {0: 3}, 3: {5: 9}, 4: {0: 1, 1: 1}}, den)
    assert coeffs == {k: RatFunc(LaurentPoly(r), den) for k, r in
                      {0: {1: 4}, 1: {-2: 2}, 2: {0: 3}, 3: {5: 9}, 4: {0: 1, 1: 1}}.items()}
    assert coeffs[0].den is coeffs[1].den and coeffs[2].den is coeffs[3].den
    assert coeffs[0].den == LaurentPoly({0: 3, 2: 3}) and coeffs[2].den == LaurentPoly({0: 2, 2: 2})


def _walked(steps, right, left, matrices):
    """qpoly._walk on the integer action vec t_s = vec matrices[s], with
    the naive sum of right[x] (a T_x) from the recursion itself, and the
    number of calls of step."""
    calls = []

    def step(s, vec):
        calls.append(s)
        out = {}
        for k, p in vec.items():
            for j, c in matrices[s][k]:
                out[j] = out.get(j, 0) + c * p
        return out

    def naive(x):
        if x == 0:
            return dict(left)
        s, xp, corrections = steps[x]
        vec = step(s, naive(xp))
        for y, mu in corrections:
            for k, q in naive(y).items():
                vec[k] = vec.get(k, 0) - mu * q
        return vec

    frozen = dict(left)
    got = qpoly._walk(left, right, steps, step)
    built = len(calls)
    want = {}
    for x, c in right.items():
        for k, p in naive(x).items():
            want[k] = want.get(k, 0) + c * p
    assert left == frozen  # the root vector is read, never written
    return {k: p for k, p in got.items() if p}, {k: p for k, p in want.items() if p}, built


@pytest.mark.parametrize("flip", [False, True], ids=["A-first", "B-first"])
def test_walk_builds_corrections_on_demand_and_keeps_shared_vectors(flip):
    """Two branches under the root, 0 -> 1 -> 3 and 0 -> 2 -> 4, where 3
    takes a correction from 4 and 4 one from 1.  Whichever branch the
    preorder visits first, one correction names a vector its user reaches
    before the walk does, so that vector is built on demand; 1 is used by
    its child 3 and by the correction of 4, so it must outlive its first
    use.  Every vector is built once: step runs once per x in steps."""
    matrices = [
        [[(0, 1), (1, 2)], [(1, -1), (2, 3)], [(0, 5), (2, 1)]],
        [[(2, 1)], [(0, 2), (1, 1)], [(1, -4), (2, 2)]],
    ]
    steps = {1: (0, 0, ()), 3: (1, 1, ((4, 5),)), 2: (1, 0, ()), 4: (0, 2, ((1, 2),))}
    if flip:
        steps = dict(reversed(list(steps.items())))
    left = {0: 3, 1: -1, 2: 2}
    for right in ({0: 7, 3: 1, 4: -2}, {3: 1}, {4: 1}, {0: 1}, {1: 2, 2: 3, 3: 5, 4: 7}):
        got, want, built = _walked(steps, right, left, matrices)
        assert got == want and built == len(steps)
    assert qpoly._walk(left, {0: 2}, {}, None) == {k: 2 * p for k, p in left.items()}


def test_doctests():
    import doctest

    import jwkit.qpoly as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
