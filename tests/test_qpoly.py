"""Exact Laurent-polynomial and rational-function arithmetic.

Canonical forms of rational functions are checked against sympy's
independent gcd machinery; ring axioms and involution laws are checked on
seeded random inputs.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jwkit import qpoly
from jwkit.qpoly import (
    LaurentPoly,
    LinComb,
    RatFunc,
    parity_class,
    poly_exact_div,
    poly_gcd,
    poly_lcm,
    quantum_factorial,
    quantum_int,
)

v = LaurentPoly.gen()


def rand_poly(rng, nterms=4, span=6):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = rng.randint(-span, span)
        c = rng.randint(-9, 9)
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(1, 5))
        terms[e] = terms.get(e, 0) + c
    return LaurentPoly(terms)


def to_sympy(p):
    x = sympy.Symbol("v")
    return sum(sympy.Rational(Fraction(c)) * x**e for e, c in p.items())


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
    assert (2 * v) ** -2 == LaurentPoly({-2: Fraction(1, 4)})
    with pytest.raises(ValueError):
        (v + 1) ** -1


def test_ring_axioms_random():
    rng = random.Random(20260816)
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_fraction_coefficients_collapse_to_int():
    p = LaurentPoly({1: Fraction(3, 2)})
    q = p + p
    assert q.coefficient(1) == 3
    assert isinstance(q.coefficient(1), int)


# -- involutions -------------------------------------------------------------


def test_bar():
    assert v.bar() == v**-1
    assert (v**2 + 3 * v).bar() == v**-2 + 3 * v**-1
    assert quantum_int(4).bar() == quantum_int(4)


def test_koszul():
    assert v.koszul() == -(v**-1)
    assert quantum_int(2).koszul() == -quantum_int(2)
    assert quantum_int(3).koszul() == quantum_int(3)


def test_involutions_are_ring_maps_and_involutive():
    rng = random.Random(99)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        for f in (LaurentPoly.bar, LaurentPoly.koszul):
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
    # denominator cleared of negative exponents, monic, nonzero constant term
    assert f.den == v**2 + 1
    assert f.num == v**3 + v + v**-1
    assert f * (v + v**-1) == RatFunc(v**2 + 1 + v**-2)


def test_gcd_cancellation():
    f = ((v + 1) * (v - 1)) / ((v + 1) * (v + 2))
    assert f == (v - 1) / (v + 2)
    g = (v**2 - 1) / (v - 1)
    assert g.is_polynomial
    assert g.as_poly() == v + 1


def test_monic_denominator():
    f = v / (2 * v + 2)
    assert f.den == v + 1
    assert f.num == LaurentPoly({1: Fraction(1, 2)})


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        RatFunc(v, LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        RatFunc(v) / RatFunc(0)


def test_canonical_form_random_vs_sympy():
    """num/den == sympy's cancel of the same fraction, and the canonical
    denominator matches sympy's monic cancelled denominator up to the
    monomial v^k that our form pushes into the numerator."""
    rng = random.Random(4242)
    x = sympy.Symbol("v")
    checked = 0
    while checked < 60:
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero:
            continue
        checked += 1
        f = a / b
        ours = to_sympy(f.num) / to_sympy(f.den)
        theirs = sympy.cancel(to_sympy(a) / to_sympy(b))
        assert sympy.simplify(ours - theirs) == 0
        if not a.is_zero:
            # canonical invariants
            assert f.den.min_exponent() == 0
            assert f.den.coefficient(0) != 0
            assert f.den.coefficient(f.den.max_exponent()) == 1
            num_sym = sympy.Poly(to_sympy(f.num.shift(-f.num.min_exponent())), x)
            den_sym = sympy.Poly(to_sympy(f.den), x)
            assert sympy.degree(sympy.gcd(num_sym, den_sym), x) == 0


def test_field_axioms_random():
    rng = random.Random(777)
    made = 0
    while made < 60:
        a, b, c, d = (rand_poly(rng) for _ in range(4))
        if b.is_zero or d.is_zero:
            continue
        made += 1
        f, g = a / b, c / d
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) - g == f
        if not g.is_zero:
            assert (f / g) * g == f


def test_ratfunc_involutions():
    f = (v**2 + 1 + v**-2) / (v + v**-1)
    assert f.bar() == f  # both [3] and [2] are bar-symmetric
    assert f.koszul() == -f  # [3] fixed, [2] negated
    assert f.bar().bar() == f


def test_equality_and_hash():
    f = (v**2 - 1) / (v - 1)
    g = RatFunc(v + 1)
    assert f == g
    assert hash(f) == hash(g)
    assert f != (v + 2) / LaurentPoly.one()


# -- serialization -----------------------------------------------------------


def test_triples_roundtrip():
    p = v**3 - LaurentPoly({0: Fraction(1, 2)}) + v**-2
    rows = p.to_triples()
    assert rows == [[3, 1, 1], [0, -1, 2], [-2, 1, 1]]
    assert LaurentPoly.from_triples(rows) == p
    f = p / (v + v**-1)
    assert RatFunc.from_triples(f.to_triples()) == f


def test_triples_rejects_unsorted():
    with pytest.raises(ValueError):
        LaurentPoly.from_triples([[0, 1, 1], [1, 1, 1]])


# -- the integer gcd kernel -----------------------------------------------------------

X = sympy.Symbol("v")

coeffs = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)
laurent = st.dictionaries(st.integers(-5, 5), coeffs, max_size=5).map(LaurentPoly)
nonzero_laurent = laurent.filter(lambda p: not p.is_zero)
# integer polynomials of positive degree, constant term first
int_polys = st.lists(st.integers(-40, 40), min_size=2, max_size=7).filter(lambda f: f[-1] != 0)


def _sympy_primitive_gcd(f, g):
    h = sympy.gcd(sympy.Poly(list(reversed(f)), X), sympy.Poly(list(reversed(g)), X))
    return qpoly._primitive([int(c) for c in reversed(h.all_coeffs())])


@given(laurent, nonzero_laurent, nonzero_laurent, st.integers(-4, 4))
def test_canonical_form_matches_sympy_cancel(a, b, c, k):
    """num/den with a planted common factor c and a monomial shift reduces
    to sympy's cancelled fraction: the same value, and the denominator is
    sympy's cancelled denominator with its v^m factor dropped, made monic."""
    f = RatFunc(a * c, (b * c).shift(k))
    p, q = sympy.fraction(sympy.cancel(to_sympy(a * c) / to_sympy((b * c).shift(k))))
    assert sympy.expand(to_sympy(f.num) * q - p * to_sympy(f.den)) == 0
    if a.is_zero:
        assert f.num.is_zero and f.den.is_one
        return
    q = sympy.Poly(q, X)
    m = min(e for (e,) in q.monoms())
    q0 = sympy.Poly(sympy.expand(q.as_expr() / X**m), X).monic()
    assert sympy.expand(to_sympy(f.den) - q0.as_expr()) == 0
    assert f.den.min_exponent() == 0 and f.den.coefficient(f.den.max_exponent()) == 1
    # a coefficient is a Fraction exactly when it is not integral
    for p in (f.num, f.den):
        for _, x in p.items():
            assert isinstance(x, int) or x.denominator != 1


@given(int_polys, int_polys, int_polys)
def test_heuristic_gcd_prs_and_sympy_agree(a, b, c):
    f, g = qpoly._primitive(qpoly._mul(a, c)), qpoly._primitive(qpoly._mul(b, c))
    while not f[0]:
        f = f[1:]
    while not g[0]:
        g = g[1:]
    expected = _sympy_primitive_gcd(f, g)
    assert qpoly._prs_gcd(f, g) == expected
    if len(f) > 1 and len(g) > 1:
        h, fq, gq = qpoly._heu_gcd(f, g)
        assert h == expected
        assert qpoly._mul(h, fq) == f and qpoly._mul(h, gq) == g


def test_heuristic_gcd_retries_after_an_unlucky_point(monkeypatch):
    # at xi = 32, f(xi) = 31 divides g(xi) = 62, so the first candidate is
    # v - 1, which does not divide v + 30; a larger xi finds gcd 1
    f, g = [-1, 1], [30, 1]
    assert qpoly._heu_gcd(f, g) == ([1], f, g)
    monkeypatch.setattr(qpoly, "_HEU_TRIES", 1)
    assert qpoly._heu_gcd(f, g) is None
    assert qpoly._poly_gcd(f, g) == ([1], f, g)  # through the remainder sequence


@given(laurent, nonzero_laurent, nonzero_laurent)
def test_remainder_sequence_fallback_gives_the_same_canonical_form(a, b, c):
    f = RatFunc(a * c, b * c)
    heu = qpoly._heu_gcd
    try:
        qpoly._heu_gcd = lambda f, g: None
        g = RatFunc(a * c, b * c)
    finally:
        qpoly._heu_gcd = heu
    assert (f.num._terms, f.den._terms) == (g.num._terms, g.den._terms)


@given(int_polys, int_polys, st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_exact_quotient_raises_on_a_non_divisor(q, g, r):
    """f = q g + r with r nonzero and of lower degree than g: g does not
    divide f.  Nor does 1 + 2v divide 1 + v, nor 2 + v divide 1 + v."""
    r = r[: len(g) - 1]
    f = qpoly._mul(q, g)
    assert qpoly._exact_quotient(f, g) == q
    if any(r):
        f = [x + (r[i] if i < len(r) else 0) for i, x in enumerate(f)]
        with pytest.raises(ArithmeticError):
            qpoly._exact_quotient(f, g)
    with pytest.raises(ArithmeticError):
        qpoly._exact_quotient([1, 1], [1, 2])
    with pytest.raises(ArithmeticError):
        poly_exact_div(v + 1, v + 2)


def test_poly_gcd_with_a_zero_argument_is_monic():
    p = 2 * v**-1 + 4 * v
    half = LaurentPoly({2: 1, 0: Fraction(1, 2)})
    assert poly_gcd(LaurentPoly.zero(), p) == half
    assert poly_gcd(p, LaurentPoly.zero()) == half
    assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()).is_zero
    assert poly_gcd(2 * v + 2, 4 * v**2 - 4) == v + 1


def test_poly_lcm_of_equal_arguments_is_monic():
    for a, expected in ((2 * v + 2, v + 1), (v + v**-1, v**2 + 1)):
        assert poly_lcm(a, a) == expected
        assert poly_lcm(a, 2 * a) == expected
    assert poly_lcm(v + 1, v - 1) == v**2 - 1


class _Vec(LinComb):
    __slots__ = ()

    def __init__(self, coeffs):
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def _rebuild(self, coeffs):
        return _Vec(coeffs)

    def _algebra(self):
        return None

    def _label(self, key):
        return str(key)


@settings(max_examples=40)
@given(st.lists(st.tuples(laurent, nonzero_laurent), max_size=6), nonzero_laurent)
def test_cleared_matches_pairwise_lcm(pairs, c):
    """Denominators share the planted factor c, so their product is not
    their lcm."""
    vec = _Vec({k: RatFunc(a, b * c) for k, (a, b) in enumerate(pairs)})
    polys, den = vec.cleared()
    expected = sympy.Integer(1)
    for c in vec.coeffs.values():
        expected = sympy.lcm(expected, to_sympy(c.den))
    expected = sympy.Poly(expected, X).monic().as_expr() if vec.coeffs else 1
    assert sympy.expand(to_sympy(den) - expected) == 0
    assert set(polys) == set(vec.coeffs)
    for k, c in vec.coeffs.items():
        assert RatFunc(polys[k], den) == c


def test_doctests():
    import doctest

    import jwkit.qpoly as mod

    failures, _ = doctest.testmod(mod)
    assert failures == 0
