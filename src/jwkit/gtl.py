"""Generalised Temperley-Lieb algebras for all supported Coxeter types.

For a finite Coxeter group W of type A, B, F4, H3, H4 or I2(m), the
generalised Temperley-Lieb algebra TL_W is the quotient of the Hecke
algebra by the two-sided ideal J spanned by the KL basis elements b_x
with x not fully commutative (FC).  That span really is an ideal for
these types (and fails for type D, which :mod:`jwkit.coxeter` refuses to
build), so the images beta_x of b_x for FC x form a basis, and the right
action of a generator is the FC part of the W-graph (Kazhdan-Lusztig
1979; Green-Losonczy, "Canonical bases for Hecke algebra quotients",
1999):

    beta_w beta_s = [2] beta_w                                  if ws < w,
    beta_w beta_s = beta_{ws} + sum_y mu(y, w) beta_y           otherwise,

the first term only when ws is FC, the sum over FC y < w with ys < y.
This is b_w b_s in the KL basis with the components in J dropped, and
it is a product rule only because J is a two-sided ideal: the terms
dropped at one step never feed back into FC terms later.  Products run on
integers (:func:`jwkit.hecke.kl_multiply`): on the integer Laurent rows of
the factors over the product of their common denominators, a beta_x is
reached from a beta_{xs} by one step of the rule and the mu-corrections,
and the resulting rows are reduced once against that denominator.
Only the KL columns of FC elements are read (and the columns their
recursion rests on); no element outside the FC set is multiplied.

:func:`check_ideal_closure` verifies the ideal property exhaustively
for a built group: for every non-FC x and every generator s, the KL
expansion of b_x b_s must be supported on non-FC elements.  This is
the computational fact that makes the truncated product well defined.
It runs in the Hecke algebra (back-substitution over all of W), not on
the W-graph rule, which takes the property for granted.

In type A, beta_x corresponds to the monomial diagram u_x; the module
:mod:`jwkit.tl` realizes that case diagrammatically and the test suite
checks the two against each other.

The generalised Jones-Wenzl element j_W comes in two constructions
that must agree:

* gen_jw_projection: push the sign idempotent e_sign of the Hecke
  algebra through the quotient;
* gen_jw_closed: write down the closed formula, coefficient of beta_x
  equal to (-1)^length(x) grrk(x w0) / grrk(w0), as the rows
  +-grrk(x w0) over grrk(w0), reduced once.
"""

from __future__ import annotations

from .coxeter import ElementId, GroupTable
from .grank import grrk, grrk_w0
from .hecke import KLTable, antisymmetriser, kl_multiply, kl_product_coeffs, to_kl_basis
from .qpoly import LinComb, RatFunc, _canonical


class IdealClosureError(RuntimeError):
    """The non-FC span failed to be an ideal: some b_x b_s with x not
    fully commutative has a fully commutative component."""


class GTLElt(LinComb):
    """An element of TL_W in the basis {beta_x : x fully commutative},
    built from a sparse map from element ids to RatFunc coefficients.

    ``+``, ``-``, ``scale``, ``coefficient``, ``coeffs``, ``rows``, ``den``,
    ``==``, ``hash`` and ``repr`` are inherited from LinComb; elements over
    different group tables do not mix (ValueError).  The structure
    constants come from Kazhdan-Lusztig data that the element does not
    carry, so products go through ``gtl_multiply(a, b, cache)`` rather
    than the ``*`` operator."""

    __slots__ = ("group",)

    def __init__(self, group: GroupTable, coeffs: dict[ElementId, RatFunc]):
        self.group = group
        LinComb.__init__(self, coeffs)
        for x in self.rows:
            if not (group.is_element_id(x) and group.is_fully_commutative(x)):
                raise ValueError(
                    f"{x!r} is not a fully commutative element id; beta_x is not defined"
                )

    def _algebra(self) -> int:
        return id(self.group)

    def _label(self, x: ElementId) -> str:
        return f"beta[{self.group.word_str(x)}]"

    @classmethod
    def zero(cls, group: GroupTable) -> "GTLElt":
        return cls(group, {})

    @classmethod
    def one(cls, group: GroupTable) -> "GTLElt":
        return cls(group, {0: RatFunc.one()})

    @classmethod
    def beta(cls, group: GroupTable, x: ElementId) -> "GTLElt":
        return cls(group, {x: RatFunc.one()})


def gtl_multiply(a: GTLElt, b: GTLElt, cache: KLTable) -> GTLElt:
    """The product in TL_W on the FC basis by the W-graph rule of the
    module docstring: a beta_x is built along the word of x, one
    generator at a time, from the mu values in the KL columns of FC
    elements.  It equals the Hecke product of the lifts, re-expanded in
    the KL basis with the components in the ideal J dropped, because J
    is a two-sided ideal (:func:`check_ideal_closure`).  Factors over
    different groups, or a table of another group: ValueError."""
    if a.group is not b.group:
        raise ValueError("elements live over different groups")
    cache.check_group(a.group)
    return a._rebuild(*kl_multiply(a, b, cache))


def check_ideal_closure(g: GroupTable, cache: KLTable) -> int:
    """Exhaustively verify that span{b_x : x not FC} is closed under right
    multiplication by every b_s, which makes gtl_multiply well defined.

    Returns the number of (x, s) pairs checked; raises IdealClosureError
    on the first violation, and ValueError for a table of another group.
    """
    cache.check_group(g)
    checked = 0
    for x in range(g.size):
        if g.is_fully_commutative(x):
            continue
        for s in range(g.rank):
            for z, coeff in kl_product_coeffs(cache, x, s).items():
                if not coeff.is_zero and g.is_fully_commutative(z):
                    raise IdealClosureError(
                        f"b_{x} b_s{s} has FC component at {z}: {coeff!r}"
                    )
            checked += 1
    return checked


# -- generalised Jones-Wenzl elements ---------------------------------------------


def gen_jw_closed(g: GroupTable, cache: KLTable) -> GTLElt:
    """j_W by the closed formula: the coefficient of beta_x is
    (-1)^length(x) grrk(x w0) / grrk(w0) over the FC elements.  Both
    sides are multiplied by v^length(w0), which normalises grrk(w0) (its
    lowest term is v^-length(w0)), and the rows are reduced once: they can
    share a factor with grrk(w0), [2] in type A_2."""
    lw0 = g.length[g.w0]
    rows = {}
    for x in g.fc_elements():
        r = grrk(g, cache, g.multiply(x, g.w0)).value.shift(lw0)
        rows[x] = (-r if g.length[x] % 2 else r)._terms
    return GTLElt.zero(g)._rebuild(*_canonical(rows, grrk_w0(g, cache).value.shift(lw0)))


def gen_jw_projection(g: GroupTable, cache: KLTable) -> GTLElt:
    """j_W as the image of the sign idempotent e_sign under the quotient
    map: expand e_sign in the KL basis and truncate to FC support."""
    return GTLElt.zero(g)._rebuild(*to_kl_basis(antisymmetriser(g, cache), cache, fc_only=True))
