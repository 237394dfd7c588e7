"""Jones-Wenzl idempotents, exactly, for finite Coxeter groups.

The package computes Jones-Wenzl idempotents of Temperley-Lieb algebras
(classical and generalised) by a closed formula in Kazhdan-Lusztig
polynomials, and cross-checks the result against independent
constructions: the Wenzl recursion on diagrams and the image of the
Hecke-algebra antisymmetriser.
"""

from jwkit.coxeter import GroupTable, build_group, presentation
from jwkit.grank import GradedRank, grrk, poincare_interval
from jwkit.gtl import GTLElt, gen_jw_closed, gen_jw_projection, gtl_multiply
from jwkit.hecke import HeckeElt, KLTable, antisymmetriser, kl_basis, to_kl_basis
from jwkit.qpoly import LaurentPoly, RatFunc, parity_class, quantum_factorial, quantum_int
from jwkit.tl import (
    Diagram,
    TLElt,
    closed_jw,
    jw_minus,
    monomial,
    multiply_tl,
    project_pi,
    wenzl_jw,
)

__all__ = [
    "LaurentPoly",
    "RatFunc",
    "quantum_int",
    "quantum_factorial",
    "parity_class",
    "presentation",
    "build_group",
    "GroupTable",
    "KLTable",
    "HeckeElt",
    "kl_basis",
    "to_kl_basis",
    "antisymmetriser",
    "GradedRank",
    "grrk",
    "poincare_interval",
    "Diagram",
    "TLElt",
    "multiply_tl",
    "monomial",
    "wenzl_jw",
    "closed_jw",
    "project_pi",
    "jw_minus",
    "GTLElt",
    "gtl_multiply",
    "gen_jw_closed",
    "gen_jw_projection",
]

__version__ = "0.1.0"
