"""Generalised Temperley-Lieb algebras for all supported Coxeter types.

For a finite Coxeter group W of type A, B, F4, H3, H4 or I2(m), the
generalised Temperley-Lieb algebra TL_W is the quotient of the Hecke
algebra by the two-sided ideal J spanned by the KL basis elements b_x
with x not fully commutative.  That span really is an ideal for these
types (and fails for type D, which :mod:`jwkit.coxeter` refuses to
build), so the images beta_x of b_x for fully commutative x form a
basis and multiplication is: lift to the Hecke algebra, multiply,
expand in the KL basis, discard every non-fully-commutative component.
It runs on integers (:func:`jwkit.hecke.kl_multiply`): each factor is
cleared by ``LinComb.integral`` to integer Laurent rows over one scale,
the rows are lifted to the standard basis through the packed KL columns
(beta_x -> b_x), the two lifts are multiplied by the integer Hecke
kernel and the product is expanded in the KL basis by
back-substitution.  The non-FC components are computed, since the
back-substitution needs them, but only the fully commutative ones are
rebuilt as RatFunc, times the product of the scales, by
``jwkit.qpoly._rationals``.

:func:`check_ideal_closure` verifies the ideal property exhaustively
for a built group: for every non-FC x and every generator s, the KL
expansion of b_x b_s must be supported on non-FC elements.  This is
the computational fact that makes the truncated product well defined.

In type A, beta_x corresponds to the monomial diagram u_x; the module
:mod:`jwkit.tl` realizes that case diagrammatically and the test suite
checks the two against each other.

The generalised Jones-Wenzl element j_W comes in two constructions
that must agree:

* gen_jw_projection: push the sign idempotent e_sign of the Hecke
  algebra through the quotient;
* gen_jw_closed: write down the closed formula, coefficient of beta_x
  equal to (-1)^length(x) grrk(x w0) / grrk(w0).
"""

from __future__ import annotations

from .coxeter import ElementId, GroupTable, UnsupportedFamilyError
from .grank import jw_coefficient
from .hecke import KLTable, antisymmetriser, kl_multiply, kl_product_coeffs, to_kl_basis
from .qpoly import LinComb, RatFunc

_SUPPORTED = {"A", "B", "F4", "H3", "H4", "I2"}


class IdealClosureError(RuntimeError):
    """The non-FC span failed to be an ideal: some b_x b_s with x not
    fully commutative has a fully commutative component."""


def _require_supported(g: GroupTable) -> None:
    fam = g.presentation.family
    if fam not in _SUPPORTED:
        raise UnsupportedFamilyError(
            f"generalised Temperley-Lieb algebras are not available for type {fam}"
        )


class GTLElt(LinComb):
    """An element of TL_W in the basis {beta_x : x fully commutative},
    stored as a sparse map from element ids to RatFunc coefficients.

    ``+``, ``-``, ``scale``, ``coefficient``, ``cleared``, ``integral``,
    ``==``, ``hash`` and ``repr`` are inherited from LinComb; elements over
    different group tables do not mix (ValueError).  The structure
    constants come from Kazhdan-Lusztig data that the element does not
    carry, so products go through ``gtl_multiply(a, b, cache)`` rather
    than the ``*`` operator."""

    __slots__ = ("group",)

    def __init__(self, group: GroupTable, coeffs: dict[ElementId, RatFunc]):
        _require_supported(group)
        self.group = group
        self.coeffs = {x: c for x, c in coeffs.items() if not c.is_zero}
        for x in self.coeffs:
            if not group.is_fully_commutative(x):
                raise ValueError(
                    f"element {x} is not fully commutative; beta_x is not defined"
                )

    def _rebuild(self, coeffs: dict[ElementId, RatFunc]) -> "GTLElt":
        return GTLElt(self.group, coeffs)

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
    """The product in TL_W: multiply the lifts in the Hecke algebra,
    re-expand in the KL basis, and drop the non-FC components (they lie
    in the defining ideal J)."""
    if a.group is not b.group:
        raise ValueError("elements live over different groups")
    return GTLElt(a.group, kl_multiply(a, b, cache))


def check_ideal_closure(g: GroupTable, cache: KLTable) -> int:
    """Exhaustively verify that span{b_x : x not FC} is closed under right
    multiplication by every b_s, which makes gtl_multiply well defined.

    Returns the number of (x, s) pairs checked.  Raises
    IdealClosureError on the first violation.
    """
    _require_supported(g)
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
    (-1)^length(x) grrk(x w0) / grrk(w0) over the FC elements."""
    _require_supported(g)
    return GTLElt(g, {x: jw_coefficient(g, cache, x) for x in g.fc_elements()})


def gen_jw_projection(g: GroupTable, cache: KLTable) -> GTLElt:
    """j_W as the image of the sign idempotent e_sign under the quotient
    map: expand e_sign in the KL basis and truncate to FC support."""
    _require_supported(g)
    return GTLElt(g, to_kl_basis(antisymmetriser(g, cache), cache, fc_only=True))
