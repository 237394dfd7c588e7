"""Linear combinations over Q(v): pinned products and the canonical form.

The product pin serialises a fixed set of kernel results, every
coefficient as the canonical RatFunc read through ``.coeffs``, and
compares the sha256 of that text with a value recorded while every
element still held one canonical RatFunc per coefficient.  A change of
representation must leave every coefficient byte-identical.

The canonical form of ``LinComb`` (integer rows over one denominator D,
D normalised and sharing no factor with all the rows) is checked with
sympy's gcd, which shares no code with ``jwkit.qpoly``.
"""

import hashlib
import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jwkit import qpoly
from jwkit.gtl import GTLElt, gen_jw_closed, gen_jw_projection, gtl_multiply
from jwkit.hecke import HeckeElt, KLTable, antisymmetriser, to_kl_basis
from jwkit.qpoly import LaurentPoly, RatFunc, quantum_int
from jwkit.tl import TLElt, closed_jw, jw_minus, monomial, project_pi, wenzl_jw

from oracles import grp

v = LaurentPoly.gen()

# denominators with a content, a non-cyclotomic factor and shared factors
PIN_DENOMINATORS = [1, 1, 2, quantum_int(2), quantum_int(3), v**2 + 2, 3 * quantum_int(2)]


def _coefficient(rng):
    terms = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in rng.sample(range(-2, 3), rng.randint(1, 2))}
    return RatFunc(LaurentPoly(terms), rng.choice(PIN_DENOMINATORS))


def _random(rng, keys, support):
    return {k: _coefficient(rng) for k in rng.sample(keys, min(support, len(keys)))}


def _doc(label, elt, key):
    coeffs = elt.coeffs
    return [label, [[key(k), coeffs[k].to_triples()] for k in sorted(coeffs)]]


def pinned_products():
    """[label, [[key, {"num": rows, "den": rows}], ...]] for every pinned
    product, keys sorted."""
    rng = random.Random(20261019)
    out = []
    for n in (4, 5, 6):
        g = grp("A", n - 1)
        t = KLTable(g)
        diagrams = [monomial(g, x) for x in g.fc_elements()]
        for sign, j in ((1, closed_jw(n, g, t)), (-1, jw_minus(n, g, t))):
            def elt(support, sign=sign):
                return TLElt(n, _random(rng, diagrams, support), sign)

            for i in range(3):
                a = elt(4)
                out.append(_doc(f"TL{n}^{sign} j*a[{i}]", j * a, lambda d: d.partner))
                out.append(_doc(f"TL{n}^{sign} a*j[{i}]", a * j, lambda d: d.partner))
            for i in range(3):
                x, y = elt(5), elt(5)
                out.append(_doc(f"TL{n}^{sign} x*y[{i}]", x * y, lambda d: d.partner))
    for family, rank, m in (("B", 4, None), ("H3", 3, None), ("F4", 4, None), ("I2", 2, 7)):
        g = grp(family, rank, m, allow_large=True)
        t = KLTable(g)
        fc = g.fc_elements()
        for i in range(4):
            x, y = GTLElt(g, _random(rng, fc, 4)), GTLElt(g, _random(rng, fc, 4))
            out.append(_doc(f"{family}{rank} x*y[{i}]", gtl_multiply(x, y, t), int))
        if family != "F4":
            j = gen_jw_closed(g, t)
            a = GTLElt(g, _random(rng, fc, 4))
            out.append(_doc(f"{family}{rank} j*a", gtl_multiply(j, a, t), int))
            out.append(_doc(f"{family}{rank} a*j", gtl_multiply(a, j, t), int))
    for family, rank in (("A", 3), ("B", 3)):
        g = grp(family, rank)
        keys = list(range(g.size))
        for i in range(4):
            x, y = HeckeElt(g, _random(rng, keys, 5)), HeckeElt(g, _random(rng, keys, 5))
            out.append(_doc(f"{family}{rank} hecke x*y[{i}]", x * y, int))
            out.append(_doc(f"{family}{rank} hecke bar(x)[{i}]", x.bar(), int))
            out.append(_doc(f"{family}{rank} hecke bar(x*y)[{i}]", (x * y).bar(), int))
    return out


PINNED_SHA256 = "dd20b5dc360dca007e31514fb8d967d4c8ee1248548d75fd2daf569aeadd81fd"


def test_products_are_pinned():
    text = json.dumps(pinned_products(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# -- the canonical form --------------------------------------------------------------

X = sympy.Symbol("v")
ONE = LaurentPoly.one()


def _sympy(terms):
    """An integer Laurent polynomial {exp: int} times v^-(lowest exponent)."""
    low = min(terms)
    return sum(c * X ** (e - low) for e, c in terms.items())


def assert_canonical(rows, den, name=""):
    """D has no negative exponents, a nonzero constant term and a positive
    leading coefficient; no nonunit of Z[v, v^-1] divides D and every row."""
    d = den._terms
    assert all(r and all(type(c) is int and c for c in r.values()) for r in rows.values()), name
    assert min(d) == 0 and d[max(d)] > 0, name
    if not rows:
        assert d == {0: 1}, name
    common = _sympy(d)
    for r in rows.values():
        common = sympy.gcd(common, _sympy(r))
    assert common in (1, -1), (name, common)


S3, B2, B3 = grp("A", 2), grp("B", 2), grp("B", 3)
B3_TABLE, B2_TABLE = KLTable(B3), KLTable(B2)
DENOMINATORS = [1, 2, 6, quantum_int(2), quantum_int(3), v**2 + 2, 3 * quantum_int(2), 2 * v + 1, v - 2,
                quantum_int(2) * quantum_int(3)]

# name -> (keys, build from {key: RatFunc}, product)
ALGEBRAS = {
    "tl": ([monomial(S3, x) for x in S3.fc_elements()], lambda c: TLElt(3, c), lambda a, b: a * b),
    "tl-": ([monomial(S3, x) for x in S3.fc_elements()], lambda c: TLElt(3, c, -1), lambda a, b: a * b),
    "gtl": (B3.fc_elements(), lambda c: GTLElt(B3, c), lambda a, b: gtl_multiply(a, b, B3_TABLE)),
    "hecke": (list(range(B2.size)), lambda c: HeckeElt(B2, c), lambda a, b: a * b),
}

coefficients = st.builds(
    lambda terms, den: RatFunc(LaurentPoly(terms), den),
    st.dictionaries(st.integers(-3, 3), st.one_of(st.integers(-6, 6), st.sampled_from([1 << 40, -(1 << 70)])),
                    max_size=3),
    st.sampled_from(DENOMINATORS),
)
scalars = st.one_of(coefficients, st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]))

# each algebra once as it runs, and once with the heuristic gcd forced
# inconclusive, so that every reduction takes the remainder sequence (no
# workload reaches it otherwise)
REDUCTIONS = [pytest.param(a, False, id=a) for a in sorted(ALGEBRAS)] + [
    pytest.param(a, True, id=f"{a}-prs") for a in sorted(ALGEBRAS)
]


@contextmanager
def reduction(prs):
    """A context in which _heu_divided always gives up when prs is set."""
    with pytest.MonkeyPatch.context() as m:
        if prs:
            m.setattr(qpoly, "_heu_divided", lambda *args: None)
        yield


@st.composite
def elements(draw, algebra):
    keys, build, _ = ALGEBRAS[algebra]
    support = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return build({k: draw(coefficients) for k in support})


def _results(algebra, a, b, c):
    """(name, (rows, den)) for every kernel result, sum and scale of a, b."""
    mul = ALGEBRAS[algebra][2]
    out = {"a + b": a + b, "a - b": a - b, "a - a": a - a, "a.scale(c)": a.scale(c),
           "a * b": mul(a, b), "b * a": mul(b, a), "-a": -a}
    if algebra == "hecke":
        out.update({"bar(a)": a.bar(), "bar(a * b)": mul(a, b).bar()})
    out = {k: (e.rows, e.den) for k, e in out.items()}
    if algebra == "hecke":
        out["to_kl_basis(a)"] = to_kl_basis(a, B2_TABLE)
        out["to_kl_basis(a * b), FC part"] = to_kl_basis(mul(a, b), B2_TABLE, fc_only=True)
    return out


@pytest.mark.parametrize("algebra, prs", REDUCTIONS)
@settings(max_examples=30)
@given(data=st.data())
def test_kernel_results_sums_and_scales_are_canonical(algebra, prs, data):
    with reduction(prs):
        a, b = data.draw(elements(algebra)), data.draw(elements(algebra))
        c = data.draw(scalars)
        for name, (rows, den) in _results(algebra, a, b, c).items():
            assert_canonical(rows, den, name)
        for e in (a, b):
            assert_canonical(e.rows, e.den)


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@settings(max_examples=20)
@given(data=st.data())
def test_l1_is_the_norm_of_the_rows(algebra, data):
    """Every constructor and result starts its memoised ||rows||_1 empty: a
    norm read on an operand never carries over to a sum, scale or product."""
    mul = ALGEBRAS[algebra][2]
    a, b = data.draw(elements(algebra)), data.draw(elements(algebra))
    c = data.draw(scalars)
    assert a.l1 >= 0 and b.l1 >= 0
    results = [a, b, a + b, a - b, a - a, a.scale(c), -a, mul(a, b), mul(b, a)]
    if algebra == "hecke":
        results.append(a.bar())
    for e in results:
        assert e.l1 == sum(abs(x) for r in e.rows.values() for x in r.values())


@pytest.mark.parametrize("algebra, prs", REDUCTIONS)
@settings(max_examples=30)
@given(data=st.data())
def test_eq_and_hash_agree_with_the_coefficients(algebra, prs, data):
    """Kernel results against elements built from their own coefficients,
    and pairs of elements compared coefficient by coefficient as RatFuncs."""
    keys, build, mul = ALGEBRAS[algebra]
    with reduction(prs):
        a, b = data.draw(elements(algebra)), data.draw(elements(algebra))
        for e in (mul(a, b), mul(b, a), a + b, a - b, a.scale(Fraction(1, 2))):
            same = build(dict(e.coeffs))
            assert e == same and hash(e) == hash(same)
            assert (e.rows, e.den) == (same.rows, same.den)
        for x, y in ((a, b), (a + b, b + a), ((a + b) - b, a), (mul(a, b), mul(b, a))):
            equal = all(x.coefficient(k) == y.coefficient(k) for k in keys)
            assert (x == y) == equal
            if equal:
                assert hash(x) == hash(y)


def test_zero_cancellation_and_scalars():
    u = TLElt.gen(3, 0)
    zero = TLElt.zero(3)
    assert (zero.rows, zero.den) == ({}, ONE) and repr(zero) == "0" and zero.coeffs == {}
    half = TLElt.one(3).scale(Fraction(1, 2))
    assert (half.rows, half.den) == ({TLElt.one(3).rows.popitem()[0]: {0: 1}}, LaurentPoly.const(2))
    assert half.scale(2) == TLElt.one(3) and half.scale(2).den == ONE
    assert half + half == TLElt.one(3)
    for e in (u - u, u.scale(0), half.scale(0), u.scale(Fraction(0))):
        assert (e.rows, e.den) == ({}, ONE) and e == zero and hash(e) == hash(zero)
    # a kernel result that cancels to zero, and one whose rows lose a
    # factor of D: 1/(v+1) + v/(v+1) = 1
    j = closed_jw(3, S3, KLTable(S3))
    assert ((j * u).rows, (j * u).den) == ({}, ONE)
    w = TLElt(3, {d: RatFunc(1, v + 1) for d in u.coeffs}) + TLElt(3, {d: RatFunc(v, v + 1) for d in u.coeffs})
    assert (w.rows, w.den) == (u.rows, ONE)


def test_mixed_algebras_are_refused():
    for a, b in (
        (TLElt.one(3), TLElt.one(4)),
        (TLElt.one(3), TLElt.one(3, -1)),
        (GTLElt.one(B2), GTLElt.one(B3)),
        (HeckeElt.one(B2), HeckeElt.one(B3)),
    ):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(ValueError):
                op(a, b)
        assert a != b


def test_jones_wenzl_constructions_are_canonical():
    t = KLTable(grp("A", 3))
    g = t.group
    for j in (closed_jw(4, g, t), jw_minus(4, g, t), wenzl_jw(4), project_pi(antisymmetriser(g, t), t),
              gen_jw_closed(g, t), gen_jw_projection(g, t), antisymmetriser(g, t)):
        assert_canonical(j.rows, j.den)
    # the closed-formula rows +-grrk(x w0) share [2] with grrk(w0) in S_3
    j3 = gen_jw_closed(S3, KLTable(S3))
    assert j3.den == quantum_int(3).shift(2)


def test_reduction_past_the_quotient_bound():
    """2^30 (v^3 - 1) over (v - 1)(v + 2) packs at 32-bit digits, but its
    quotient by v - 1 has digits 2^30, past what the packed division can
    confirm at that width: the fallback reduces it."""
    num = {3: 1 << 30, 0: -(1 << 30)}
    den = (v - 1) * (v + 2)
    vec, off, bound = qpoly._packed({0: num})
    assert qpoly._width(bound) == 32
    g = [-2, 1, 1]
    assert qpoly._heu_divided(vec, off, 32, bound, g, qpoly._eval(g, 32), {}) is None
    assert qpoly._canonical({0: num}, den) == ({0: {2: 1 << 30, 1: 1 << 30, 0: 1 << 30}}, v + 2)


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@settings(max_examples=20)
@given(data=st.data())
def test_packed_reduction_and_its_fallback_agree(algebra, data):
    """The reduction on packed integers and the polynomial gcd fallback
    give the same canonical form."""
    a, b = data.draw(elements(algebra)), data.draw(elements(algebra))
    c = data.draw(scalars)
    fast = _results(algebra, a, b, c)
    with reduction(prs=True):
        slow = _results(algebra, a, b, c)
    assert fast == slow


def test_monomial_rows_need_no_gcd(monkeypatch):
    """Every row of the B4 sign idempotent is +-v^k over grrk(w0): reading
    its 384 coefficients makes no heuristic gcd call, and each coefficient
    is the canonical RatFunc of its row."""
    g = grp("B", 4)
    e = antisymmetriser(g, KLTable(g))
    assert len(e.rows) == 384 and all(len(r) == 1 and abs(*r.values()) == 1 for r in e.rows.values())
    calls = []
    heu = qpoly._heu_divided
    monkeypatch.setattr(qpoly, "_heu_divided", lambda *args: calls.append(args) or heu(*args))
    coeffs = e.coeffs
    assert calls == []
    monkeypatch.undo()
    assert coeffs == {x: RatFunc(LaurentPoly(r), e.den) for x, r in e.rows.items()}
