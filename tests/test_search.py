import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from circodes import search
from circodes import (
    BudgetExceeded,
    CirculantGraph,
    Kind,
    Optimum,
    OracleTooLarge,
    exists_code_of_size,
    lower_bound,
    min_code_size,
    naive_min_code_size,
)
from circodes.codes import defects


def C(n, offsets=(1, 3)):
    return CirculantGraph(n, offsets)


# -- lower bounds -------------------------------------------------------------

def test_lower_bound_locating():
    # offset order does not matter: (3, 1) is the graph C(n;1,3)
    for offsets in ((1, 3), (3, 1)):
        report = lower_bound(14, Kind.LOCATING, offsets)
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
    # threads=2 is accepted where a stored proof answers and no search starts
    for n in (13, 31):
        a = min_code_size(C(n), Kind.IDENTIFYING, threads=1)
        b = min_code_size(C(n), Kind.IDENTIFYING, threads=2)
        assert a.engine == b.engine == "proof"
        assert a.outcome.size == b.outcome.size
        assert a.outcome.certificate.members == b.outcome.certificate.members


def test_dominating_minimum():
    # gamma(C(n;1,3)) = ceil(n/5) is attained for n = 10
    result = min_code_size(C(10), Kind.DOMINATING)
    assert result.outcome.size == 2


# -- budget handling -----------------------------------------------------------

def test_budget_exceeded_carries_partial():
    # {1,4} has no stored proof, so its orders stay with the budgeted search;
    # what is known short of a search is the order, the budget and the bound
    with pytest.raises(BudgetExceeded) as exc_info:
        min_code_size(C(60, (1, 4)), Kind.IDENTIFYING)
    assert str(exc_info.value) == "order 60 exceeds search budget 33; lower bound 20"


def test_partial_without_construction_reports_bound():
    with pytest.raises(BudgetExceeded) as exc_info:
        min_code_size(C(40, (1, 4)), Kind.LOCATING, budget=20)
    assert str(exc_info.value) == "order 40 exceeds search budget 20; lower bound 12"


def test_budget_override_allows_larger_n():
    with pytest.raises(BudgetExceeded):
        min_code_size(C(12), Kind.LOCATING, budget=10)
    assert min_code_size(C(12), Kind.LOCATING, budget=12).outcome.size == 5


@pytest.mark.parametrize("n", [12, 13, 40])
@pytest.mark.parametrize("budget", [-1, -40])
def test_negative_budget_rejected(n, budget):
    # proved (13, 40) or searched (12): a negative budget is an error, never
    # silently ignored by a proof answer
    message = f"budget must be at least 0, got {budget}"
    for kind in (Kind.LOCATING, Kind.IDENTIFYING):
        with pytest.raises(ValueError, match=message):
            min_code_size(C(n), kind, budget=budget)
        with pytest.raises(ValueError, match=message):
            search._code_of_size(C(n), kind, 6, budget=budget)


def test_zero_budget_searches_nothing():
    # proof answers need no budget; a search at budget 0 would exceed it
    assert min_code_size(C(13), Kind.LOCATING, budget=0).engine == "proof"
    assert search._code_of_size(C(13), Kind.LOCATING, 6, budget=0).engine == "proof"
    with pytest.raises(BudgetExceeded, match="order 12 exceeds search budget 0"):
        min_code_size(C(12), Kind.LOCATING, budget=0)
    with pytest.raises(BudgetExceeded, match="order 12 exceeds search budget 0"):
        search._code_of_size(C(12), Kind.LOCATING, 6, budget=0)


def test_search_deeper_than_the_stack_exceeds_its_budget():
    # the walk nests one call per member: C(1100;1,4) at k = 1099 runs out
    # of depth long before it runs out of candidates
    with pytest.raises(BudgetExceeded, match=r"^size k=1099 exceeds the search's depth$"):
        exists_code_of_size(C(1100, (1, 4)), Kind.LOCATING, 1099)
    # the search still answers afterwards, at every depth it reaches
    assert len(exists_code_of_size(C(40, (1, 4)), Kind.LOCATING, 39)) == 39


# -- graphs with twin vertices -------------------------------------------------

TWINS = [(5, (1, 2), (0, 1)), (3, (1,), (0, 1)), (6, (2,), (0, 2))]


@pytest.mark.parametrize("n, offsets, pair", TWINS)
def test_no_identifying_code_with_twins(n, offsets, pair):
    g = C(n, offsets)
    for result in (min_code_size(g, Kind.IDENTIFYING), naive_min_code_size(g, Kind.IDENTIFYING)):
        assert result.outcome is None
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


def test_proof_without_a_table_construction_is_searched(monkeypatch):
    # the certificate is picked by (offsets, kind): a stored dominating proof
    # of C(n;1,3) answers below its minimum, and the search finds the code
    from circodes import constructions, proofs, transfer

    proof = transfer.solve((1, 3), Kind.DOMINATING)
    monkeypatch.setitem(proofs.PROOFS, ((1, 3), Kind.DOMINATING), proof)

    def broken(n):
        raise RuntimeError("no table construction for dominating codes")

    monkeypatch.setattr(constructions, "locating_code_for", broken)
    monkeypatch.setattr(constructions, "identifying_code_for", broken)
    g, minimum = C(20), proof.minimum(20)
    result = min_code_size(g, "dominating")
    assert (result.outcome.size, result.engine) == (minimum, "dfs")
    assert result.outcome.certificate.verify(Kind.DOMINATING)

    def no_search(*args, **kwargs):
        raise AssertionError("searched below the proved minimum")

    monkeypatch.setattr(search, "_search_at_size", no_search)
    assert exists_code_of_size(g, Kind.DOMINATING, minimum - 1) is None


# -- pinned search counts -----------------------------------------------------------

# (offsets, n, kind, k, deep, pruned_symmetry, pruned_bound, certificate)
# at the optimum and one below it; cached rows must change neither counts
# nor answers.  The search examines the root, one node per first gap it
# visits, gaps 1..min(2*dmax + 1, n - k + 1) up to the certificate's first
# gap when a code is found, and the ``deep`` nodes below them, so
# examined = deep + 1 + first gaps visited.  pruned_symmetry is live:
# nonzero on {1,4} and {2,5}.
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


def _counts(g, kind, k):
    code, stats = search._search_at_size(g, kind, k)
    members = None if code is None else tuple(sorted(code.members))
    return stats.examined, stats.pruned_symmetry, stats.pruned_bound, members


@pytest.mark.parametrize("offsets, n, kind, k, deep, sym, bound, cert", PINNED)
def test_pinned_search_counts(offsets, n, kind, k, deep, sym, bound, cert):
    first_gaps = min(2 * offsets[-1] + 1, n - k + 1) if cert is None else cert[1]
    assert _counts(C(n, offsets), kind, k) == (deep + 1 + first_gaps, sym, bound, cert)


@pytest.mark.parametrize("k, first_gaps", [(8, 9), (9, 1)])
def test_progress_reports_once_per_first_gap(k, first_gaps):
    # C(25;1,4) has no locating code of size 8, so all first gaps 1..9 are
    # walked; at size 9 the code found under first gap 1 ends the walk
    reports = []
    code, stats = search._search_at_size(C(25, (1, 4)), Kind.LOCATING, k,
                                         progress=lambda count, _: reports.append(count))
    assert (code is None) == (k == 8)
    assert len(reports) == first_gaps
    assert reports == sorted(reports)
    assert reports[-1] == stats.examined


def test_window_table_cold_and_warm_agree():
    # C(25;1,4) leaves walk past n through the rows; the others do not
    for offsets, n, ks in (((1, 3), 26, (9, 10)), ((1, 5), 22, (7, 8)), ((1, 4), 25, (9, 10))):
        g = C(n, offsets)
        search._VERDICTS.clear()
        cold = [_counts(g, Kind.IDENTIFYING, k) for k in ks]
        assert search._VERDICTS[(offsets, Kind.IDENTIFYING)]
        warm = [_counts(g, Kind.IDENTIFYING, k) for k in ks]
        assert cold == warm, offsets


@pytest.mark.parametrize("kind, rows", [(Kind.IDENTIFYING, 9506), (Kind.LOCATING, 5117)])
def test_cold_search_fills_only_the_rows_it_reads(monkeypatch, kind, rows):
    # folding a child's row into its parent's entry reads the child's row,
    # as the leaf's own first read did: the same rows get filled
    monkeypatch.setattr(search, "_VERDICTS", {})
    min_code_size(C(25, (1, 4)), kind)
    assert {key: len(table) for key, table in search._VERDICTS.items()} == {((1, 4), kind): rows}


# the PINNED questions whose leaves walk past n: n >= 6*dmax + 1
WALKED = [(offsets, n, kind, k, cert) for offsets, n, kind, k, *_, cert in PINNED
          if n >= 6 * offsets[-1] + 1]


@pytest.mark.parametrize("offsets, n, kind, k, cert", WALKED)
def test_leaf_check_runs_only_on_the_certificate(monkeypatch, offsets, n, kind, k, cert):
    g = C(n, offsets)
    _counts(g, kind, k)  # fills every row the search below reads
    checked = []

    def leaf_check(n, mask, *args):
        checked.append(mask)
        return defects(n, mask, *args)

    monkeypatch.setattr(search, "defects", leaf_check)
    code, stats = search._search_at_size(g, kind, k)
    assert (code is None) == (cert is None)
    assert checked == ([] if code is None else [code.mask])
    assert stats.leaf_checks == (0 if code is None else 1)


@st.composite
def _leaves(draw):
    """A valid code with 0 as a member and a wrap gap of at most 2*dmax + 1."""
    dmax = draw(st.integers(1, 4))
    offsets = tuple(sorted({dmax} | draw(st.sets(st.integers(1, dmax)))))
    n = draw(st.integers(6 * dmax + 1, 8 * dmax))
    kind = draw(st.sampled_from(list(Kind)))
    pattern = C(n, offsets).pattern
    mask = (1 << n) - 1
    assume(next(defects(n, mask, pattern, kind), None) is None)  # no twins
    tail = (1 << n) - (1 << (n - 2 * dmax - 1))  # where the last member must sit
    # drop members in a random order, but for a few kept ones, while the
    # code stays a valid leaf
    keep = draw(st.sets(st.integers(1, n - 1), max_size=n // 4))
    for v in draw(st.permutations([v for v in range(1, n) if v not in keep])):
        smaller = mask & ~(1 << v)
        if smaller & tail and next(defects(n, smaller, pattern, kind), None) is None:
            mask = smaller
    return offsets, n, kind, mask


@given(_leaves())
@settings(max_examples=300, deadline=None)
def test_walk_never_rejects_a_valid_code(leaf):
    offsets, n, kind, mask = leaf
    rows = search._Rows(C(n, offsets).pattern, offsets[-1], kind)
    assert rows.passes(n, mask)


def _reference_search(g, kind, k):
    """The search with one call per node and per leaf, each gap tested alone.

    Reads the same rows as ``search._search_at_size``; returns the
    certificate's mask or None, and examined, pruned_symmetry, pruned_bound
    and leaf_checks.
    """
    n, pattern, dmax = g.n, g.pattern, g.offsets[-1]
    if k >= n:
        valid = next(defects(n, (1 << n) - 1, pattern, kind), None) is None
        return ((1 << n) - 1 if valid else None), (0, 0, 0, 0)
    cap, steady = 2 * dmax + 1, 4 * dmax - 1
    rows = search._VERDICTS.setdefault((g.offsets, kind), search._Rows(pattern, dmax, kind))
    walk = n >= 6 * dmax + 1
    counts = [0, 0, 0, 0]
    found = []

    def dfs(pos, count, mask, g0):
        counts[0] += 1
        if count == k:
            wrap = n - pos
            if wrap < g0:
                counts[1] += 1
                return False
            if wrap > cap:
                counts[2] += 1
                return False
            if walk and not rows.passes(n, mask):
                return False
            counts[3] += 1
            if next(defects(n, mask, pattern, kind), None) is None:
                found.append(mask)
                return True
            return False
        row = rows[mask >> (pos - steady) if pos > steady else mask]
        for gap in range(g0 or 1, min(cap, n - 1 - pos - (k - count - 1)) + 1):
            if row >> gap & 1:
                counts[2] += 1
                continue
            if dfs(pos + gap, count + 1, mask | 1 << (pos + gap), g0 or gap):
                return True
        return False

    dfs(0, 1, 1, 0)
    return (found[0] if found else None), tuple(counts)


@st.composite
def _questions(draw):
    dmax = draw(st.integers(1, 4))
    offsets = tuple(sorted({dmax} | draw(st.sets(st.integers(1, dmax)))))
    n = draw(st.integers(2 * dmax + 1, 26))
    return offsets, n, draw(st.sampled_from(list(Kind))), draw(st.integers(1, n))


@given(_questions())
@settings(max_examples=300, deadline=None)
def test_search_matches_one_call_per_leaf(question):
    # the bulk leaf closing visits the same tree: same code, same counts
    offsets, n, kind, k = question
    g = C(n, offsets)
    code, stats = search._search_at_size(g, kind, k)
    mask = None if code is None else code.mask
    counts = (stats.examined, stats.pruned_symmetry, stats.pruned_bound, stats.leaf_checks)
    assert (mask, counts) == _reference_search(g, kind, k)


def _matches_reference(offsets, n, kind, k):
    g = C(n, offsets)
    code, stats = search._search_at_size(g, kind, k)
    mask = None if code is None else code.mask
    counts = (stats.examined, stats.pruned_symmetry, stats.pruned_bound, stats.leaf_checks)
    return (mask, counts) == _reference_search(g, kind, k)


# walked questions where some leaves pass the walk's first read and reach
# the rest of the walk
@pytest.mark.parametrize("k", [9, 10])
def test_first_read_survivors_match_one_call_per_leaf(k):
    assert _matches_reference((1, 4), 30, Kind.LOCATING, k)


@pytest.mark.extended
@pytest.mark.parametrize("n, kind, k", [
    (31, Kind.IDENTIFYING, 11), (31, Kind.IDENTIFYING, 12),
    (33, Kind.IDENTIFYING, 11), (33, Kind.IDENTIFYING, 12),
    (33, Kind.LOCATING, 10), (33, Kind.LOCATING, 11),
])
def test_larger_walked_questions_match_one_call_per_leaf(n, kind, k):
    assert _matches_reference((1, 4), n, kind, k)


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
    row = search._Rows(pattern, dmax, kind)[window]
    expected = sum(1 << gap for gap in range(1, 2 * dmax + 2)
                   if _reference_prunes(window, gap, offsets, kind))
    assert row == expected


@given(_windows(), st.integers(0), st.integers(0))
@settings(max_examples=300, deadline=None)
def test_folded_entry_layout(question, first, second):
    # an entry keeps its own row in the low bits and each folded child's
    # row in its own field; folds add up
    offsets, window, kind = question
    dmax = offsets[-1]
    cap, steady = 2 * dmax + 1, 4 * dmax - 1
    gaps = (2 << cap) - 2
    pattern = C(4 * dmax + 1, offsets).pattern
    rows = search._Rows(pattern, dmax, kind)
    rows.fold(window, first & gaps)
    entry = rows.fold(window, second & gaps)
    assert entry == rows[window]
    assert entry & ((2 << cap) - 1) == search._Rows(pattern, dmax, kind)[window]
    assert entry >> rows.folded == (first | second) & gaps
    top = window.bit_length() - 1
    for gap in range(1, cap + 1):
        field = entry >> gap * (cap + 2) & ((4 << cap) - 1)
        if entry >> (rows.folded + gap) & 1:
            last = top + gap
            child = (window | 1 << last) >> max(last - steady, 0)
            assert field == search._Rows(pattern, dmax, kind)[child], gap
        else:
            assert field == 0, gap


def test_dmax_five_matches_naive_oracle():
    for n in range(11, 15):
        g = C(n, (1, 5))
        for kind in Kind:
            fast = min_code_size(g, kind)
            assert fast.outcome.size == naive_min_code_size(g, kind).outcome.size, (n, kind)
            assert fast.outcome.certificate.verify(kind).ok


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        min_code_size(C(13), Kind.LOCATING, threads=threads)
    # rejected before the budget check, too
    with pytest.raises(ValueError, match="threads must be at least 1"):
        min_code_size(C(40), Kind.LOCATING, threads=threads)


def test_threads_above_one_rejected_where_search_starts():
    # C(12) has no stored proof, so a search would start
    with pytest.raises(ValueError, match="threads must be 1: the search runs in one "
                                         "process, got 2"):
        min_code_size(C(12), Kind.LOCATING, threads=2)
    # after the proof routing, before the budget check
    with pytest.raises(ValueError, match="threads must be 1"):
        min_code_size(C(40, (1, 4)), Kind.LOCATING, threads=2)


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(search.__file__))
    code = ("import sys, circodes, circodes.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
