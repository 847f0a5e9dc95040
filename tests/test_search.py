from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from circodes import search
from circodes import (
    BudgetExceeded,
    CirculantGraph,
    Kind,
    NoneAtSize,
    Optimum,
    OracleTooLarge,
    exists_code_of_size,
    lower_bound,
    min_code_size,
    naive_min_code_size,
)


def C(n, offsets=(1, 3)):
    return CirculantGraph(n, offsets)


# -- lower bounds -------------------------------------------------------------

def test_lower_bound_locating():
    report = lower_bound(14, Kind.LOCATING)
    assert report.general_bound == 4   # ceil(2*14/7)
    assert report.specific_bound == 5     # ceil(14/3)
    assert report.effective == 5


def test_lower_bound_identifying():
    report = lower_bound(22, Kind.IDENTIFYING)
    assert report.general_bound == 8   # ceil(2*22/6) = 8
    assert report.specific_bound == 8     # ceil(4*22/11)
    assert report.effective == 8


def test_lower_bound_small_n_no_specific_bound():
    report = lower_bound(7, Kind.LOCATING)
    assert report.specific_bound is None  # the n/3 bound needs n >= 13
    assert report.effective == 2


def test_lower_bound_dominating():
    report = lower_bound(15, Kind.DOMINATING)
    assert report.effective == 3  # ceil(n/(deg+1))


def test_effective_bound_dominates_components():
    for n in range(7, 40):
        for kind in Kind:
            r = lower_bound(n, kind)
            assert r.effective >= r.general_bound
            if r.specific_bound is not None:
                assert r.effective >= r.specific_bound


# -- existence at a fixed size ---------------------------------------------------

def test_no_locating_code_of_size_5_in_c14():
    assert exists_code_of_size(C(14), Kind.LOCATING, 5) is None


def test_no_identifying_code_of_size_7_in_c19():
    assert exists_code_of_size(C(19), Kind.IDENTIFYING, 7) is None


def test_identifying_code_of_size_4_in_c11():
    code = exists_code_of_size(C(11), Kind.IDENTIFYING, 4)
    assert code is not None
    assert len(code) == 4
    assert code.is_identifying()


def test_exists_full_size_always():
    code = exists_code_of_size(C(9), Kind.IDENTIFYING, 9)
    assert code is not None and len(code) == 9


def test_exists_rejects_bad_k():
    with pytest.raises(ValueError):
        exists_code_of_size(C(9), Kind.LOCATING, 0)
    with pytest.raises(ValueError):
        exists_code_of_size(C(9), Kind.LOCATING, 10)


# -- exact minima -----------------------------------------------------------------

def test_small_locating_minima():
    expected = {7: 3, 8: 6, 9: 4, 10: 4, 11: 4, 12: 5}
    for n, k in expected.items():
        result = min_code_size(C(n), Kind.LOCATING)
        assert isinstance(result.outcome, Optimum)
        assert result.outcome.size == k, n
        assert result.outcome.certificate.is_locating()
        assert result.proved


def test_small_identifying_minima():
    expected = {7: 4, 8: 6, 9: 4, 10: 4}
    for n, k in expected.items():
        result = min_code_size(C(n), Kind.IDENTIFYING)
        assert result.outcome.size == k, n
        assert result.outcome.certificate.is_identifying()


def test_certificate_is_canonical_and_sound():
    result = min_code_size(C(12), Kind.LOCATING)
    cert = result.outcome.certificate
    assert 0 in cert.members
    assert cert.is_locating()
    assert len(cert) == 5


def test_matches_naive_oracle_sample():
    # the full n <= 16 sweep runs in the acceptance suite
    for n in (7, 9, 11, 13):
        for kind in Kind:
            fast = min_code_size(C(n), kind).outcome.size
            slow = naive_min_code_size(C(n), kind).outcome.size
            assert fast == slow, (n, kind)


def test_determinism_across_thread_counts():
    a = min_code_size(C(13), Kind.IDENTIFYING, threads=1)
    b = min_code_size(C(13), Kind.IDENTIFYING, threads=2)
    assert a.outcome.size == b.outcome.size
    assert a.outcome.certificate.members == b.outcome.certificate.members


def test_dominating_minimum():
    # gamma(C(n;1,3)) = ceil(n/5) is attained for n = 10
    result = min_code_size(C(10), Kind.DOMINATING)
    assert result.outcome.size == 2


# -- budget handling -----------------------------------------------------------

def test_budget_exceeded_carries_partial():
    # {1,4} has no stored proof, so its orders stay with the budgeted search
    with pytest.raises(BudgetExceeded) as exc_info:
        min_code_size(C(60, (1, 4)), Kind.IDENTIFYING)
    partial = exc_info.value.partial
    assert partial is not None
    assert not partial.proved


def test_budget_override_allows_larger_n(monkeypatch):
    monkeypatch.setenv("CIRCODES_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        min_code_size(C(12), Kind.LOCATING)
    monkeypatch.delenv("CIRCODES_BUDGET")
    assert min_code_size(C(12), Kind.LOCATING, budget=12).outcome.size == 5


def test_partial_without_construction_reports_bound():
    with pytest.raises(BudgetExceeded) as exc_info:
        min_code_size(C(40, (1, 4)), Kind.LOCATING, budget=20)
    partial = exc_info.value.partial
    assert partial is not None and not partial.proved


# -- graphs with twin vertices -------------------------------------------------

TWINS = [(5, (1, 2), (0, 1)), (3, (1,), (0, 1)), (6, (2,), (0, 2))]


@pytest.mark.parametrize("n, offsets, pair", TWINS)
def test_no_identifying_code_with_twins(n, offsets, pair):
    g = C(n, offsets)
    for result in (min_code_size(g, Kind.IDENTIFYING), naive_min_code_size(g, Kind.IDENTIFYING)):
        assert result.outcome is None
        assert result.proved
        assert f"vertices {pair[0]} and {pair[1]} have equal closed neighbourhoods" \
            in result.note
    for k in range(1, n + 1):
        assert exists_code_of_size(g, Kind.IDENTIFYING, k) is None
    # twins do not stop locating codes: the full set is one
    assert min_code_size(g, Kind.LOCATING).outcome is not None


# -- naive oracle ----------------------------------------------------------------

def test_naive_values():
    assert naive_min_code_size(C(7), Kind.IDENTIFYING).outcome.size == 4
    assert naive_min_code_size(C(10), Kind.IDENTIFYING).outcome.size == 4
    assert naive_min_code_size(C(9), Kind.IDENTIFYING).outcome.size == 4


def test_naive_rejects_large_n():
    with pytest.raises(OracleTooLarge):
        naive_min_code_size(C(17), Kind.LOCATING)


# -- other offset sets --------------------------------------------------------------

def test_search_works_for_other_offsets():
    g = C(10, (1, 2))
    result = min_code_size(g, Kind.LOCATING)
    assert result.outcome.certificate.is_locating()
    naive = naive_min_code_size(g, Kind.LOCATING)
    assert result.outcome.size == naive.outcome.size


def test_stats_populated():
    result = min_code_size(C(11), Kind.LOCATING)
    assert result.stats.examined > 0
    assert result.stats.wall_time >= 0


def test_construction_errors_propagate(monkeypatch):
    # a proved order returns the construction: its errors are not swallowed
    from circodes import constructions

    def broken(n):
        raise RuntimeError("broken table row")

    monkeypatch.setattr(constructions, "identifying_code_for", broken)
    with pytest.raises(RuntimeError, match="broken table row"):
        min_code_size(C(60), Kind.IDENTIFYING)


# -- pinned search counts -----------------------------------------------------------

# (offsets, n, kind, k, examined, pruned_symmetry, pruned_bound, certificate)
# at the optimum and one below it, as the search counted them before the
# verdict cache: cached rows must change neither counts nor answers.
# pruned_symmetry is live: nonzero on {1,4} and {2,5}.
DOM, LOC, IDE = Kind.DOMINATING, Kind.LOCATING, Kind.IDENTIFYING
PINNED = [
    ((1, 2), 18, DOM, 4, 62, 0, 49, (0, 3, 8, 13)),
    ((1, 2), 18, DOM, 3, 15, 0, 15, None),
    ((1, 2), 18, LOC, 6, 287, 0, 328, (0, 2, 6, 8, 12, 14)),
    ((1, 2), 18, LOC, 5, 95, 0, 133, None),
    ((1, 2), 18, IDE, 9, 698, 0, 1176, (0, 2, 4, 6, 8, 10, 12, 14, 16)),
    ((1, 2), 18, IDE, 8, 355, 0, 758, None),
    ((1, 3), 22, DOM, 5, 223, 0, 292, (0, 2, 7, 12, 17)),
    ((1, 3), 22, DOM, 4, 67, 0, 109, None),
    ((1, 3), 22, LOC, 8, 1036, 0, 1795, (0, 1, 2, 6, 11, 12, 13, 17)),
    ((1, 3), 22, LOC, 7, 1285, 0, 2429, None),
    ((1, 3), 22, IDE, 8, 2091, 0, 3523, (0, 1, 4, 5, 11, 12, 15, 16)),
    ((1, 3), 22, IDE, 7, 1142, 0, 2189, None),
    ((1, 4), 25, DOM, 6, 1200, 0, 2085, (0, 2, 7, 9, 16, 18)),
    ((1, 4), 25, DOM, 5, 325, 0, 703, None),
    ((1, 4), 25, LOC, 9, 2422, 0, 3960, (0, 1, 2, 3, 8, 10, 14, 16, 18)),
    ((1, 4), 25, LOC, 8, 11605, 0, 18938, None),
    ((1, 4), 25, IDE, 10, 1872, 0, 3317, (0, 1, 2, 3, 4, 9, 11, 15, 17, 19)),
    ((1, 4), 25, IDE, 9, 24728, 7, 38349, None),
    ((2, 5), 22, DOM, 6, 170, 0, 189, (0, 1, 2, 5, 13, 14)),
    ((2, 5), 22, DOM, 5, 458, 0, 949, None),
    ((2, 5), 22, LOC, 8, 248, 0, 215, (0, 1, 2, 3, 4, 10, 11, 14)),
    ((2, 5), 22, LOC, 7, 4788, 3, 6525, None),
    ((2, 5), 22, IDE, 8, 2289, 0, 3050, (0, 1, 2, 5, 11, 13, 16, 17)),
    ((2, 5), 22, IDE, 7, 3791, 0, 6712, None),
    ((1, 3), 26, DOM, 6, 708, 0, 908, (0, 1, 6, 11, 16, 21)),
    ((1, 3), 26, DOM, 5, 253, 0, 374, None),
    ((1, 3), 26, LOC, 10, 3544, 0, 6202, (0, 1, 2, 3, 8, 9, 14, 15, 20, 21)),
    ((1, 3), 26, LOC, 9, 13132, 0, 21919, None),
    ((1, 3), 26, IDE, 10, 3277, 0, 5854, (0, 1, 2, 3, 8, 11, 12, 17, 18, 21)),
    ((1, 3), 26, IDE, 9, 11270, 0, 19825, None),
]


def _counts(g, kind, k, threads=1):
    code, stats = search._search_at_size(g, kind, k, threads=threads)
    members = None if code is None else tuple(sorted(code.members))
    return stats.examined, stats.pruned_symmetry, stats.pruned_bound, members


@pytest.mark.parametrize("offsets, n, kind, k, examined, sym, bound, cert", PINNED)
def test_pinned_search_counts(offsets, n, kind, k, examined, sym, bound, cert):
    assert _counts(C(n, offsets), kind, k) == (examined, sym, bound, cert)


def test_window_table_cold_and_warm_agree():
    for offsets, n, ks in (((1, 3), 26, (9, 10)), ((1, 5), 22, (7, 8))):
        g = C(n, offsets)
        search._VERDICTS.clear()
        cold = [_counts(g, Kind.IDENTIFYING, k) for k in ks]
        assert search._VERDICTS[(offsets, Kind.IDENTIFYING)]
        warm = [_counts(g, Kind.IDENTIFYING, k) for k in ks]
        assert cold == warm, offsets


def _reference_prunes(window, gap, offsets, kind):
    """Whether placing a member gap after the window's top bit prunes.

    The settled vertices dmax .. pos + gap - dmax need nonempty shadows, and
    no two of them within 2*dmax may share one (locating: non-members only).
    """
    dmax = offsets[-1]
    pos = window.bit_length() - 1
    members = {v for v in range(pos + 1) if window >> v & 1} | {pos + gap}
    pattern = (0,) + tuple(s * d for d in offsets for s in (1, -1))
    shadow = {v: frozenset(v + p for p in pattern) & members
              for v in range(dmax, pos + gap - dmax + 1)}
    if not all(shadow.values()):
        return True
    if kind is Kind.DOMINATING:
        return False
    return any(shadow[u] == shadow[v] for u in shadow for v in shadow
               if 0 < v - u <= 2 * dmax
               and not (kind is Kind.LOCATING and (u in members or v in members)))


@st.composite
def _windows(draw):
    dmax = draw(st.integers(1, 6))
    offsets = tuple(sorted({dmax} | draw(st.sets(st.integers(1, dmax)))))
    # pos < 4*dmax - 1 is a prefix window, pos = 4*dmax - 1 a steady one
    pos = draw(st.integers(0, 4 * dmax - 1))
    window = draw(st.integers(0, (1 << pos) - 1)) | 1 << pos
    return offsets, window, draw(st.sampled_from(list(Kind)))


@given(_windows())
@settings(max_examples=300, deadline=None)
def test_cached_rows_match_reference(question):
    offsets, window, kind = question
    dmax = offsets[-1]
    pattern = C(4 * dmax + 1, offsets).pattern
    row = search._prune_row(window, pattern, dmax, kind)
    expected = sum(1 << gap for gap in range(1, 2 * dmax + 2)
                   if _reference_prunes(window, gap, offsets, kind))
    assert row == expected


def test_dmax_five_matches_naive_oracle():
    for n in range(11, 15):
        g = C(n, (1, 5))
        for kind in Kind:
            fast = min_code_size(g, kind)
            assert fast.outcome.size == naive_min_code_size(g, kind).outcome.size, (n, kind)
            assert fast.outcome.certificate.verify(kind).ok


@pytest.mark.parametrize("kind, k", [(Kind.IDENTIFYING, 8), (Kind.IDENTIFYING, 7),
                                     (Kind.LOCATING, 8), (Kind.LOCATING, 7)])
def test_parallel_counts_equal_serial(kind, k):
    g = C(22)
    assert _counts(g, kind, k, threads=2) == _counts(g, kind, k, threads=1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs tasks inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_capped_at_partition_count(monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    g = C(22)
    assert _counts(g, Kind.LOCATING, 7, threads=1000) == _counts(g, Kind.LOCATING, 7)
    # C(12) has no stored proof, so exists_code_of_size searches
    assert exists_code_of_size(C(12), Kind.LOCATING, 5, threads=3) is not None
    # {1,3} splits into 28 partitions by the first two gaps
    assert _RecordingPool.sizes == [28, 3]


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(monkeypatch, threads):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(ValueError, match="threads must be at least 1"):
        exists_code_of_size(C(13), Kind.LOCATING, 5, threads=threads)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        min_code_size(C(13), Kind.LOCATING, threads=threads)
    # rejected before the budget check, too
    with pytest.raises(ValueError, match="threads must be at least 1"):
        min_code_size(C(40), Kind.LOCATING, threads=threads)
    assert _RecordingPool.sizes == []
