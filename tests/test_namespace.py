"""The package namespace: each module's ``__all__`` is its one list of public names.

``circodes`` re-exports ``circulant``, ``codes``, ``constructions``,
``errors`` and ``search`` with ``from .m import *``, so a name is public
exactly when its module lists it, and the package keeps the same 39 names.
"""

import circodes
from circodes import circulant, codes, constructions, errors, search

MODULES = [circulant, codes, constructions, errors, search]

NAMES = {
    "BoundReport", "BudgetExceeded", "CirculantGraph", "CircodesError", "Code",
    "DEFAULT_SEARCH_BUDGETS", "DuplicateOffset", "IDENTIFYING_HEAVY_PROFILES",
    "IDENTIFYING_HEAVY_THRESHOLD", "Kind", "LOCATING_HEAVY_PROFILES",
    "LOCATING_HEAVY_THRESHOLD", "NotInCode", "OffsetOutOfRange", "Optimum", "OracleTooLarge",
    "PERIODIC_IDENTIFYING_CODE", "PERIODIC_LOCATING_CODE", "PeriodicCode", "SearchResult",
    "SearchStats", "ShareUndefined", "Status", "UnsupportedOrder", "VerificationResult",
    "VertexOutOfRange", "construct_A", "construct_B", "density", "exists_code_of_size",
    "heavy_profile_violations", "identifying_code_for", "identifying_code_size",
    "locating_code_for", "locating_code_size", "lower_bound", "min_code_size",
    "naive_min_code_size", "verify_periodic",
}


def test_package_exports_the_39_names():
    assert len(NAMES) == 39 and len(circodes.__all__) == 39
    assert set(circodes.__all__) == NAMES


def test_package_names_are_the_union_of_the_module_lists():
    assert set(circodes.__all__) == {name for m in MODULES for name in m.__all__}


def test_each_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(circodes, name) is getattr(m, name), (m.__name__, name)


def test_module_helpers_stay_out_of_the_package():
    for name in ("defects", "check_int"):
        assert not hasattr(circodes, name), name
