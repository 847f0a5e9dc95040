import os
import subprocess
import sys

import pytest

import circodes
from circodes import CirculantGraph, DuplicateOffset, OffsetOutOfRange, VertexOutOfRange


def test_basic_construction():
    g = CirculantGraph(7, [1, 3])
    assert g.n == 7
    assert g.offsets == (1, 3)
    assert g.degree == 4


def test_default_offsets():
    assert CirculantGraph(10).offsets == (1, 3)


def test_adjacency_by_circular_difference():
    g = CirculantGraph(9, [1, 3])
    assert g.is_adjacent(0, 1)
    assert g.is_adjacent(0, 8)  # difference 8 wraps to 1
    assert g.is_adjacent(0, 3)
    assert g.is_adjacent(0, 6)  # wraps to 3
    assert not g.is_adjacent(0, 2)
    assert not g.is_adjacent(0, 4)
    assert not g.is_adjacent(4, 4)


def test_closed_neighborhood():
    g = CirculantGraph(14, [1, 3])
    assert g.closed_neighborhood(0) == frozenset({11, 13, 0, 1, 3})
    assert g.closed_neighborhood(5) == frozenset({2, 4, 5, 6, 8})
    assert sorted(g.neighbors(5)) == [2, 4, 6, 8]


def test_every_vertex_has_degree_four():
    for n in range(7, 30):
        g = CirculantGraph(n, [1, 3])
        assert all(len(g.neighbors(u)) == 4 for u in range(n))


def test_small_n_collapses_degree():
    # in C(7;1,3) the offsets stay distinct, n=7 is the smallest 4-regular case
    g = CirculantGraph(7, [1, 3])
    assert len(g.neighbors(0)) == 4


def test_offset_validation():
    with pytest.raises(OffsetOutOfRange):
        CirculantGraph(6, [1, 3])  # 3 = 6/2 is excluded
    with pytest.raises(OffsetOutOfRange):
        CirculantGraph(10, [0, 2])
    with pytest.raises(OffsetOutOfRange):
        CirculantGraph(10, [-1])
    with pytest.raises(OffsetOutOfRange):
        CirculantGraph(10, [5])
    with pytest.raises(DuplicateOffset):
        CirculantGraph(10, [1, 1])
    with pytest.raises(ValueError):
        CirculantGraph(10, [])
    with pytest.raises(ValueError):
        CirculantGraph(2, [1])


def test_non_integral_order_or_offset_is_rejected():
    # a float or bool equals an int cache key of the kernel and the search,
    # so one accepted graph would break every later check of that order; the
    # sequence runs in its own process so that a poisoned cache stays there
    script = """
from circodes import CirculantGraph, Code, Kind, identifying_code_for, min_code_size
for n, offsets in ((13.0, (1, 3)), (13.5, (1, 3)), (13, (1, 3.0)), (13, (True, 3))):
    try:
        Code.from_mask(CirculantGraph(n, offsets), 1).verify(Kind.LOCATING)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
print(identifying_code_for(13).verify(Kind.IDENTIFYING).status.value)
print(min_code_size(CirculantGraph(13), Kind.DOMINATING).outcome.size)
"""
    src = os.path.dirname(os.path.dirname(circodes.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.stdout, done.stderr) == (
        "OffsetOutOfRange: n must be an integer, got 13.0\n"
        "OffsetOutOfRange: n must be an integer, got 13.5\n"
        "OffsetOutOfRange: offset must be an integer, got 3.0\n"
        "OffsetOutOfRange: offset must be an integer, got True\n"
        "valid\n"
        "3\n", "")


def test_offsets_sorted_and_deduped_order():
    g = CirculantGraph(11, [3, 1])
    assert g.offsets == (1, 3)


def test_vertex_validation():
    g = CirculantGraph(9, [1, 3])
    with pytest.raises(VertexOutOfRange):
        g.neighbors(9)
    with pytest.raises(VertexOutOfRange):
        g.neighbors(-1)
    with pytest.raises(VertexOutOfRange):
        g.closed_neighborhood(100)


def test_edge_count_matches_regularity():
    for n in (8, 11, 20):
        g = CirculantGraph(n, [1, 3])
        edges = g.edges()
        assert len(edges) == 2 * n  # 4-regular
        assert all(g.is_adjacent(x, y) for x, y in edges)
        assert all(x < y for x, y in edges)


def test_ball():
    g = CirculantGraph(20, [1, 3])
    assert g.ball(0, 0) == frozenset({0})
    assert g.ball(0, 1) == g.closed_neighborhood(0)
    b2 = g.ball(0, 2)
    assert b2 == frozenset({0, 1, 2, 3, 4, 6, 14, 16, 17, 18, 19})
    # radius large enough covers everything
    assert g.ball(0, 10) == frozenset(range(20))


def test_ball_monotone_in_radius():
    g = CirculantGraph(15, [1, 3])
    prev = frozenset()
    for r in range(6):
        cur = g.ball(4, r)
        assert prev <= cur
        prev = cur


def test_repr_and_equality():
    g = CirculantGraph(14, [1, 3])
    assert repr(g) == "C(14; 1,3)"
    assert g == CirculantGraph(14, [3, 1])
    assert g != CirculantGraph(15, [1, 3])
    assert hash(g) == hash(CirculantGraph(14, [1, 3]))


def test_other_offset_sets():
    g = CirculantGraph(10, [1, 2])
    assert sorted(g.neighbors(0)) == [1, 2, 8, 9]
    assert g.degree == 4
    g5 = CirculantGraph(11, [2])
    assert sorted(g5.neighbors(0)) == [2, 9]
