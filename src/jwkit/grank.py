"""Graded ranks of indecomposable objects and Jones-Wenzl coefficients.

For x in a finite Coxeter group W the graded rank of the indecomposable
object attached to x is computed entirely from Kazhdan-Lusztig data:

    grrk(x) = sum_y v^(-length(y)) h_{y,x}

where h_{y,x} is the KL polynomial in the normalization of :mod:`jwkit.hecke`
(so h_{y,x} has nonnegative integer coefficients, h_{x,x} = 1, and the sum
runs over y <= x in Bruhat order since h_{y,x} = 0 otherwise).

Two facts about grrk drive everything downstream and are enforced here:

* bar symmetry: grrk(x) is fixed by v -> v^(-1);
* parity: grrk(x) lies in v^(length(x)) Z[v^(-2)], i.e. every exponent
  is at most length(x) and congruent to it mod 2.

When the Schubert-like interval below x is "smooth" the polynomial h_{y,x}
collapses to v^(length(x) - length(y)) and grrk(x) becomes the Poincare
polynomial of the Bruhat interval [id, x], normalized symmetrically:

    [x] = sum_{y <= x} v^(length(x) - 2 length(y)).

This always happens in dihedral groups, which gives a cheap cross-check.

The coefficient of the basis element indexed by a fully commutative x in
the generalised Jones-Wenzl element is the ratio

    (-1)^(length(x)) grrk(x w0) / grrk(w0),

a bar-invariant rational function (:func:`jwkit.gtl.gen_jw_closed`).  In
type A_{n-1} the denominator is the balanced quantum factorial [n]!.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import ElementId, GroupTable
from .hecke import KLLawError, KLTable, _check_id
from .qpoly import LaurentPoly, parity_class


@dataclass(frozen=True)
class GradedRank:
    """A graded rank: a bar-symmetric Laurent polynomial in v.

    The constructor checks bar symmetry, which every graded rank of a
    self-dual object must satisfy.  Parity relative to the element the
    rank was computed from is checked by :func:`grrk`, not here, because
    the length is not part of the value.
    """

    value: LaurentPoly

    def __post_init__(self) -> None:
        if self.value.bar() != self.value:
            raise ValueError("graded rank must be bar symmetric")

    def total_rank(self) -> int:
        """The ungraded rank, i.e. the value at v = 1."""
        return sum(c for _, c in self.value.items())

    def __str__(self) -> str:
        return str(self.value)


def grrk(g: GroupTable, cache: KLTable, x: ElementId) -> GradedRank:
    """Graded rank of the indecomposable object attached to x.

    Computed as sum_y v^(-length(y)) h_{y,x} over the KL column of x, in
    one packed sum (:meth:`KLTable.graded_sum`).

    The result is checked against the parity constraint, it must lie in
    v^(length(x)) Z[v^(-2)], and against bar symmetry; a violation of
    either raises KLLawError.  A table of another group, or an x that is
    not an element id: ValueError.
    """
    cache.check_group(g)
    total = LaurentPoly(cache.graded_sum(x))
    if not parity_class(total, g.length[x]):
        raise KLLawError(f"graded rank of element {x} violates the parity constraint")
    try:
        return GradedRank(total)
    except ValueError as exc:
        raise KLLawError(f"graded rank of element {x}: {exc}") from exc


def grrk_w0(g: GroupTable, cache: KLTable) -> GradedRank:
    """grrk(w0), the Jones-Wenzl normaliser, computed through :func:`grrk`
    once per KL table (of g's group, or ValueError) and memoised on it."""
    cache.check_group(g)
    if cache.w0_rank is None:
        cache.w0_rank = grrk(g, cache, g.w0)
    return cache.w0_rank


def poincare_interval(g: GroupTable, x: ElementId) -> LaurentPoly:
    """Symmetrized Poincare polynomial of the Bruhat interval [id, x].

    Returns sum_{y <= x} v^(length(x) - 2 length(y)).  Agrees with
    grrk(x).value exactly when every h_{y,x} is the single monomial
    v^(length(x) - length(y)); in dihedral groups this holds for all x.
    """
    _check_id(g, x)
    lx = g.length[x]
    terms: dict[int, int] = {}
    for y in g.bruhat_interval_below(x):
        e = lx - 2 * g.length[y]
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)

