"""Property-based checks of the structural invariants.

Codes are drawn as random subsets of Z_n for 7 <= n <= 40 (up to 60, with
other offsets, against the all-pairs reference); every property here is
exact (no tolerances), so shrinking produces readable counterexamples.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from circodes import CirculantGraph, Code, Kind, Status
from circodes.codes import valid_mask

settings.register_profile("default", deadline=None, max_examples=150)
settings.load_profile("default")


@st.composite
def graph_and_code(draw, min_n=7, max_n=40, nonempty=False):
    n = draw(st.integers(min_n, max_n))
    lo = 1 if nonempty else 0
    members = draw(st.sets(st.integers(0, n - 1), min_size=lo, max_size=n))
    return CirculantGraph(n), frozenset(members)


@st.composite
def dominating_code(draw):
    """Random dominating code: a random subset padded greedily to dominate."""
    n = draw(st.integers(7, 40))
    g = CirculantGraph(n)
    members = set(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    code = Code(g, members)
    while True:
        result = code.is_dominating()
        if result.ok:
            return code
        u = result.witness
        members.add(rng.choice(sorted(g.closed_neighborhood(u))))
        code = Code(g, members)


@given(dominating_code())
def test_sum_of_shares_equals_n(code):
    assert code.sum_of_shares() == code.graph.n


@given(graph_and_code())
def test_implication_chain(gc):
    g, members = gc
    code = Code(g, members)
    if code.is_identifying():
        assert code.is_locating()
    if code.is_locating():
        assert code.is_dominating()


@given(graph_and_code(), st.integers(0, 100))
def test_rotation_invariance(gc, c):
    g, members = gc
    rotated = frozenset((v + c) % g.n for v in members)
    for kind in Kind:
        assert Code(g, members).verify(kind).ok == \
               Code(g, rotated).verify(kind).ok


@given(graph_and_code())
def test_reflection_invariance(gc):
    g, members = gc
    mirrored = frozenset((-v) % g.n for v in members)
    for kind in Kind:
        assert Code(g, members).verify(kind).ok == \
               Code(g, mirrored).verify(kind).ok


@given(graph_and_code())
def test_shadow_locality(gc):
    g, members = gc
    code = Code(g, members)
    for u in range(g.n):
        for s in code.shadow(u):
            d = abs(s - u)
            assert min(d, g.n - d) <= 3


@given(graph_and_code(nonempty=True))
def test_distant_pairs_never_collide(gc):
    g, members = gc
    code = Code(g, members)
    for u in range(g.n):
        su = code.shadow(u)
        if not su:
            continue
        for v in range(u + 1, g.n):
            d = min(v - u, g.n - (v - u))
            if d > 6 and code.shadow(v):
                assert code.shadow(v) != su


def reference_verify(n, offsets, members, kind):
    """Status and witness from the definitions, comparing all O(n^2) pairs."""
    shadows = [frozenset(x for x in {u, *((u + d) % n for d in offsets),
                                     *((u - d) % n for d in offsets)} if x in members)
               for u in range(n)]
    for u in range(n):
        if not shadows[u]:
            return Status.NOT_DOMINATING, u
    if kind is Kind.DOMINATING:
        return Status.VALID, None
    eligible = [u for u in range(n) if kind is Kind.IDENTIFYING or u not in members]
    for i, u in enumerate(eligible):
        for v in eligible[i + 1:]:
            if shadows[u] == shadows[v]:
                status = Status.NOT_LOCATING if kind is Kind.LOCATING else Status.NOT_IDENTIFYING
                return status, (u, v)
    return Status.VALID, None


@st.composite
def offsets_and_code(draw):
    """Random offsets and n <= 60, with random or periodic members.

    Periodic members come close to valid codes, so their witnesses are
    often pairs that wrap around the cycle, (i, i + n - d).
    """
    offsets = draw(st.one_of(
        st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 5), (1, 3, 5)]),
        st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(tuple)))
    n = draw(st.integers(2 * max(offsets) + 1, 60))
    if draw(st.booleans()):
        members = draw(st.sets(st.integers(0, n - 1), max_size=n))
    else:
        period = draw(st.integers(2, 12))
        residues = draw(st.sets(st.integers(0, period - 1), min_size=1))
        shift = draw(st.integers(0, n - 1))
        members = {(v + shift) % n for v in range(n) if v % period in residues}
    return CirculantGraph(n, offsets), frozenset(members)


@given(offsets_and_code())
@example((CirculantGraph(8, (1, 3)), frozenset({0, 7})))           # witness (0, 7)
@example((CirculantGraph(6, (1, 2)), frozenset({0, 1, 4, 5})))     # witness (0, 5)
@example((CirculantGraph(13, (1, 3, 5)), frozenset({2, 3, 8})))    # witness (0, 11)
def test_verifier_matches_all_pairs_reference(gc):
    g, members = gc
    n = g.n
    code = Code(g, members)
    for kind in Kind:
        status, witness = reference_verify(n, g.offsets, members, kind)
        result = code.verify(kind)
        assert (result.status, result.witness) == (status, witness)
        assert valid_mask(n, code.mask, g._closed_masks, 2 * g.offsets[-1], kind) == \
               (status is Status.VALID)
    for u in range(n):
        nbhd = g.closed_neighborhood(u)
        assert code.shadow(u) == nbhd & members
        assert code.profile(u) == tuple(sorted(len(g.closed_neighborhood(x) & members)
                                               for x in nbhd))
    if code.is_dominating():
        for u in members:
            assert code.share(u) == sum(Fraction(1, len(g.closed_neighborhood(x) & members))
                                        for x in g.closed_neighborhood(u))


@given(st.integers(7, 40), st.integers(0, 39), st.integers(0, 6))
def test_ball_growth(n, u, r):
    g = CirculantGraph(n)
    u %= n
    assert g.ball(u, r) <= g.ball(u, r + 1)
    if r >= n:  # diameter is well below n
        assert g.ball(u, r) == frozenset(range(n))


@given(st.integers(7, 40), st.integers(0, 39))
def test_neighborhood_rotation_equivariance(n, u):
    g = CirculantGraph(n)
    u %= n
    shifted = frozenset((x + 1) % n for x in g.closed_neighborhood(u))
    assert g.closed_neighborhood((u + 1) % n) == shifted


@given(st.integers(7, 40), st.integers(0, 39), st.integers(0, 39))
def test_adjacency_symmetric(n, u, v):
    g = CirculantGraph(n)
    u, v = u % n, v % n
    assert g.is_adjacent(u, v) == g.is_adjacent(v, u)


@given(graph_and_code(min_n=7, max_n=20))
def test_witnesses_are_verifiable(gc):
    g, members = gc
    code = Code(g, members)
    for kind in Kind:
        result = code.verify(kind)
        if result.ok:
            continue
        w = result.witness
        if isinstance(w, tuple):
            u, v = w
            assert code.shadow(u) == code.shadow(v)
        else:
            assert code.shadow(w) == frozenset()
