"""Exact inflection calculator for scrolls over smooth curves.

Formula side: an exact L/F intersection algebra with polynomial
coefficients in the formal degree and genus, the Chern/Segre product
pipeline for the osculating bundle, and the closed-form class, degree and
classification results.  Oracle side: explicit decomposable scrolls over
the projective line with exact jet matrices, Wronskian weight counting,
determinant divisors and seeded rank scans, cross-validated against the
formulas.
"""

from .chern import (
    osculating_chern,
    rank_profile,
    segre_closed_form,
    segre_term,
)
from .chow import ChowClass, CoeffPoly, D, G
from .formulas import (
    ScrollParams,
    classify_uninflected,
    curve_inflection_degree,
    double_point_check,
    inflectional_class,
    inflectional_degree,
)
from .scanner import (
    DEFAULT_SEED,
    HYPOTHESIS_VIOLATED,
    MATCH,
    MISMATCH,
    CrossValidationReport,
    DeterminantDivisor,
    GenericRankFailure,
    InconsistentCharts,
    InflectedSample,
    ScanReport,
    WronskianReport,
    cross_validate,
    determinant_divisor,
    rank_scan,
    scan_points,
    wronskian_weights,
)
from .scrollmodel import (
    BASE_INF,
    BASE_ZERO,
    DecomposableScroll,
    ScrollPoint,
    exact_rank,
    fiber_coordinate,
    full_support_rank,
    jet_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_INF",
    "BASE_ZERO",
    "ChowClass",
    "CoeffPoly",
    "CrossValidationReport",
    "D",
    "DEFAULT_SEED",
    "DecomposableScroll",
    "DeterminantDivisor",
    "G",
    "GenericRankFailure",
    "HYPOTHESIS_VIOLATED",
    "InconsistentCharts",
    "InflectedSample",
    "MATCH",
    "MISMATCH",
    "ScanReport",
    "ScrollParams",
    "ScrollPoint",
    "WronskianReport",
    "classify_uninflected",
    "cross_validate",
    "curve_inflection_degree",
    "determinant_divisor",
    "double_point_check",
    "exact_rank",
    "fiber_coordinate",
    "full_support_rank",
    "inflectional_class",
    "inflectional_degree",
    "jet_matrix",
    "osculating_chern",
    "rank_profile",
    "rank_scan",
    "scan_points",
    "segre_closed_form",
    "segre_term",
    "wronskian_weights",
]
