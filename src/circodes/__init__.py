"""Locating and identifying codes in circulant graphs.

The package builds circulant graphs C(n; d1,...,dk), verifies dominating,
locating, and identifying codes with concrete witnesses, evaluates exact
rational shares, constructs tight periodic code families for C(n;1,3),
and runs exhaustive symmetry-reduced searches for exact optima.  Locating
and identifying optima of C(n;1,3), n >= 13, are read from stored
transfer-matrix proofs (``circodes.proofs``); the solver that computes
them, ``circodes.transfer``, is not imported here.
"""

from .circulant import CirculantGraph
from .codes import (
    Code,
    IDENTIFYING_HEAVY_PROFILES,
    IDENTIFYING_HEAVY_THRESHOLD,
    Kind,
    LOCATING_HEAVY_PROFILES,
    LOCATING_HEAVY_THRESHOLD,
    Status,
    VerificationResult,
    heavy_profile_violations,
)
from .constructions import (
    PERIODIC_IDENTIFYING_CODE,
    PERIODIC_LOCATING_CODE,
    PeriodicCode,
    construct_A,
    construct_B,
    density,
    identifying_code_for,
    identifying_code_size,
    locating_code_for,
    locating_code_size,
    verify_periodic,
)
from .errors import (
    BudgetExceeded,
    CircodesError,
    DuplicateOffset,
    NotInCode,
    OffsetOutOfRange,
    OracleTooLarge,
    ShareUndefined,
    UnsupportedOrder,
    VertexOutOfRange,
)
from .search import (
    BoundReport,
    DEFAULT_SEARCH_BUDGETS,
    Optimum,
    SearchResult,
    SearchStats,
    exists_code_of_size,
    lower_bound,
    min_code_size,
    naive_min_code_size,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "CirculantGraph",
    "CircodesError",
    "Code",
    "DEFAULT_SEARCH_BUDGETS",
    "DuplicateOffset",
    "IDENTIFYING_HEAVY_PROFILES",
    "IDENTIFYING_HEAVY_THRESHOLD",
    "Kind",
    "LOCATING_HEAVY_PROFILES",
    "LOCATING_HEAVY_THRESHOLD",
    "NotInCode",
    "OffsetOutOfRange",
    "Optimum",
    "OracleTooLarge",
    "PERIODIC_IDENTIFYING_CODE",
    "PERIODIC_LOCATING_CODE",
    "PeriodicCode",
    "SearchResult",
    "SearchStats",
    "ShareUndefined",
    "Status",
    "UnsupportedOrder",
    "VerificationResult",
    "VertexOutOfRange",
    "construct_A",
    "construct_B",
    "density",
    "exists_code_of_size",
    "heavy_profile_violations",
    "identifying_code_for",
    "identifying_code_size",
    "locating_code_for",
    "locating_code_size",
    "lower_bound",
    "min_code_size",
    "naive_min_code_size",
    "verify_periodic",
]
