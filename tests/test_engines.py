"""Differentials between the engines: the pruned search, the naive oracle and
the transfer-matrix solver must give the same minima."""

import pytest
from hypothesis import example, given, settings, strategies as st

from circodes import CirculantGraph, Kind, min_code_size, naive_min_code_size
from circodes import search, transfer


@st.composite
def _graphs(draw):
    n = draw(st.integers(3, 13))
    offsets = draw(st.sets(st.integers(1, (n - 1) // 2), min_size=1, max_size=3))
    return CirculantGraph(n, sorted(offsets)), draw(st.sampled_from(list(Kind)))


@given(_graphs())
@settings(max_examples=100, deadline=None)
@example((CirculantGraph(5, (1, 2)), Kind.IDENTIFYING))  # twins: no code
@example((CirculantGraph(6, (2,)), Kind.IDENTIFYING))
@example((CirculantGraph(13, (1, 3)), Kind.LOCATING))    # answered by a proof
def test_search_matches_naive_oracle(question):
    g, kind = question
    fast, slow = min_code_size(g, kind), naive_min_code_size(g, kind)
    if slow.outcome is None:
        assert fast.outcome is None
        return
    assert fast.outcome.size == slow.outcome.size
    for result in (fast, slow):
        assert len(result.outcome.certificate) == result.outcome.size
        assert result.outcome.certificate.verify(kind).ok


def _check_against_solver(offsets):
    for kind in Kind:
        proof = transfer.solve(offsets, kind)
        for n in range(proof.first, 25):
            g = CirculantGraph(n, offsets)
            size = proof.minimum(n)
            if size is None:  # no code at all: not even the full vertex set
                assert search._search_at_size(g, kind, n)[0] is None, (kind, n)
                continue
            code = search._search_at_size(g, kind, size)[0]
            assert code is not None and code.verify(kind).ok, (kind, n)
            if size > 1:
                assert search._search_at_size(g, kind, size - 1)[0] is None, (kind, n)


@pytest.mark.parametrize("offsets", [(1,), (2,), (1, 2)])
def test_search_matches_solver(offsets):
    _check_against_solver(offsets)


@pytest.mark.extended
@pytest.mark.parametrize("offsets", [(3,), (2, 3), (1, 2, 3)])
def test_search_matches_solver_dmax_three(offsets):
    _check_against_solver(offsets)
