"""Bracket polynomials of knots and links by frontier scanning.

The computation folds a diagram one crossing at a time over the basis of
noncrossing matchings of the scan frontier, keeping memory proportional to
Catalan(girth/2) instead of 2^crossings, and checks the structural
invariants of the state (mod-4 exponent grading, span and storage bounds)
at every step.
"""

from .construct import (
    add_kink,
    braid_closure,
    braid_tangle,
    connected_sum,
    disjoint_union,
    pretzel,
    torus_link,
    twist_region_tangle,
)
from .cutorder import Cutting, exact_min_girth, greedy_cutting, improve_cutting, sqrt_bound_check
from .engine import (
    BracketResult,
    TangleExpansion,
    check_mod4_link,
    compute_bracket,
    compute_jones,
    compute_pkbp,
    expand_tangle,
)
from .laurent import DELTA, DELTA_PLUS, LaurentPoly
from .matchings import Matching, catalan
from .oracle import brute_force_bracket, brute_force_tangle_expansion
from .planar import Checkerboarding, Diagram, checkerboard, parse_pd, trace_faces, writhe
from .skein import BRACKET, PKBP, Birth, Cap, Cross, SkeinState
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "BRACKET",
    "PKBP",
    "Birth",
    "BracketResult",
    "Cap",
    "Checkerboarding",
    "Cross",
    "Cutting",
    "DELTA",
    "DELTA_PLUS",
    "Diagram",
    "LaurentPoly",
    "Matching",
    "SkeinState",
    "TangleExpansion",
    "add_kink",
    "braid_closure",
    "braid_tangle",
    "brute_force_bracket",
    "brute_force_tangle_expansion",
    "catalan",
    "check_mod4_link",
    "checkerboard",
    "compute_bracket",
    "compute_jones",
    "compute_pkbp",
    "connected_sum",
    "disjoint_union",
    "exact_min_girth",
    "expand_tangle",
    "greedy_cutting",
    "improve_cutting",
    "parse_pd",
    "pretzel",
    "run_verify",
    "sqrt_bound_check",
    "torus_link",
    "trace_faces",
    "twist_region_tangle",
    "writhe",
]
