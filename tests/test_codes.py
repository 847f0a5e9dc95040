import math
import pickle
import random
import tracemalloc
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from circodes import (
    PERIODIC_IDENTIFYING_CODE,
    PERIODIC_LOCATING_CODE,
    CirculantGraph,
    Code,
    Kind,
    NotInCode,
    ShareUndefined,
    Status,
    VertexOutOfRange,
    exists_code_of_size,
    heavy_profile_violations,
    identifying_code_for,
    locating_code_for,
    lower_bound,
    min_code_size,
    naive_min_code_size,
    verify_periodic,
)
from circodes import codes, search, transfer
from circodes.circulant import set_of
from circodes.codes import defects


def C(n):
    return CirculantGraph(n, [1, 3])


# -- shadows ---------------------------------------------------------------

def test_shadow_direct_evaluation():
    code = Code(C(11), {0, 4, 5, 6})
    assert code.shadow(1) == frozenset({0, 4})  # N[1] = {0,1,2,4,9}
    assert code.shadow(0) == frozenset({0})     # N[0] = {0,1,3,8,10}
    assert code.shadow(5) == frozenset({4, 5, 6})


def test_empty_code_has_empty_shadows():
    code = Code(C(9), set())
    assert all(code.shadow(u) == frozenset() for u in range(9))


def test_shadow_is_within_code_and_neighborhood():
    code = Code(C(13), {0, 1, 6, 7, 10})
    for u in range(13):
        s = code.shadow(u)
        assert s <= code.members
        assert s <= code.graph.closed_neighborhood(u)


# -- verification ----------------------------------------------------------

def test_single_vertex_not_dominating():
    result = Code(C(7), {0}).is_dominating()
    assert result.status is Status.NOT_DOMINATING
    assert result.witness == 2  # N[2] = {1,2,3,5,6} misses 0
    assert not result


def test_dominating_valid():
    result = Code(C(11), {0, 4, 5, 6}).is_dominating()
    assert result.status is Status.VALID
    assert result.witness is None
    assert result


def test_full_vertex_set_always_valid():
    for n in (7, 10, 16):
        code = Code(C(n), range(n))
        assert code.is_dominating()
        assert code.is_locating()   # no non-code vertices to collide
        assert code.is_identifying()  # distinct closed neighbourhoods


def test_locating_valid_block_code():
    assert Code(C(18), {0, 1, 6, 7, 12, 13}).is_locating()


def test_locating_invalid_below_minimum():
    # the locating number of C(12;1,3) is 5, so no 4-subset can work
    result = Code(C(12), {0, 1, 6, 7}).is_locating()
    assert not result
    assert result.status in (Status.NOT_DOMINATING, Status.NOT_LOCATING)


def test_identifying_six_vertex_code_in_c14():
    assert Code(C(14), {0, 4, 5, 6, 11, 12}).is_identifying()
    assert Code(C(14), {0, 1, 4, 5, 11, 12}).is_identifying()


def test_identifying_collision_witness_is_smallest_pair():
    # {0,4,5,6} dominates C(11) but vertices 0 and 10 see the same shadow
    result = Code(C(11), {0, 4, 5, 6}).is_identifying()
    assert result.status is Status.NOT_IDENTIFYING
    assert result.witness == (0, 10)
    code = Code(C(11), {0, 4, 5, 6})
    assert code.shadow(0) == code.shadow(10) != frozenset()


def test_identifying_too_small():
    assert not Code(C(11), {0, 4, 5}).is_identifying()


def test_corrected_block_pattern_is_identifying():
    assert Code(C(11), {0, 1, 4, 5}).is_identifying()


def test_witness_pair_shadows_verifiably_equal():
    code = Code(C(15), {0, 1, 2, 3, 4})
    result = code.verify(Kind.IDENTIFYING)
    if not result.ok and isinstance(result.witness, tuple):
        u, v = result.witness
        assert code.shadow(u) == code.shadow(v)


def test_verify_dispatch_matches_named_methods():
    code = Code(C(13), {0, 1, 6, 7, 10})
    assert code.verify(Kind.DOMINATING).status == code.is_dominating().status
    assert code.verify(Kind.LOCATING).status == code.is_locating().status
    assert code.verify(Kind.IDENTIFYING).status == code.is_identifying().status


# -- profiles ----------------------------------------------------------------

def test_profile_full_and_empty():
    g = C(10)
    full = Code(g, range(10))
    empty = Code(g, set())
    for u in range(10):
        assert full.profile(u) == (5, 5, 5, 5, 5)
        assert empty.profile(u) == (0, 0, 0, 0, 0)


def test_profile_matches_brute_force():
    code = Code(C(18), {0, 1, 6, 7, 12, 13})
    g = code.graph
    for u in range(18):
        expected = tuple(sorted(
            len(code.members & g.closed_neighborhood(x))
            for x in g.closed_neighborhood(u)))
        assert code.profile(u) == expected


def test_profile_ascending():
    code = Code(C(22), {0, 1, 4, 5, 11, 12, 15, 16})
    for u in range(22):
        p = code.profile(u)
        assert list(p) == sorted(p)


def reference_profiles(g, members):
    """Every vertex's profile from frozenset shadows."""
    sizes = [len(g.closed_neighborhood(x) & members) for x in range(g.n)]
    return [tuple(sorted(sizes[x] for x in g.closed_neighborhood(u))) for u in range(g.n)]


@pytest.mark.parametrize("offsets", [(1, 3), (1, 4), (2, 5), (1, 2, 3)])
def test_profile_keys_match_shadows_on_random_codes(offsets):
    rng = random.Random(sum(offsets))
    empty_entries = 0
    for n in (13, 17, 24, 31, 40):
        g = CirculantGraph(n, offsets)
        # sparse draws leave vertices undominated, so 0 entries appear too
        for density in (0.1, 0.3, 0.5, 0.9):
            members = frozenset(u for u in range(n) if rng.random() < density)
            code = Code(g, members)
            profiles = [code.profile(u) for u in range(n)]
            assert profiles == reference_profiles(g, members)
            empty_entries += sum(p.count(0) for p in profiles)
    assert empty_entries


# -- shares -------------------------------------------------------------------

def test_share_of_full_code_is_one():
    code = Code(C(9), range(9))
    assert all(code.share(u) == 1 for u in range(9))


def test_share_values_follow_profile():
    # share = sum of reciprocals of the profile entries
    code = Code(C(11), {0, 1, 4, 5})
    for u in code.members:
        expected = sum(Fraction(1, p) for p in code.profile(u))
        assert code.share(u) == expected
    assert code.share(0) == Fraction(17, 6)  # profile (1,2,2,2,3)


def test_share_requires_membership():
    code = Code(C(11), {0, 1, 4, 5})
    with pytest.raises(NotInCode):
        code.share(2)


def test_share_defined_for_members_even_without_domination():
    # every x in N[u] sees u itself, so a member's share always exists
    code = Code(C(14), {0})
    assert code.share(0) == 5  # five shadows, each exactly {0}


def test_sum_of_shares_equals_n():
    assert Code(C(11), {0, 4, 5, 6}).sum_of_shares() == 11
    assert Code(C(18), {0, 1, 6, 7, 12, 13}).sum_of_shares() == 18
    assert Code(C(9), range(9)).sum_of_shares() == 9


def test_sum_of_shares_requires_domination():
    with pytest.raises(ShareUndefined):
        Code(C(14), {0, 1}).sum_of_shares()


# -- heavy vertices ------------------------------------------------------------

def test_no_heavy_vertices_in_full_code():
    assert Code(C(9), range(9)).heavy_vertices(1) == []


def test_heavy_vertices_strict_inequality():
    code = Code(C(9), range(9))
    assert code.heavy_vertices(Fraction(99, 100)) == list(range(9))
    assert code.heavy_vertices(1) == []


def test_heavy_vertices_at_infinite_thresholds():
    code = Code(C(22), {0, 1, 4, 5, 11, 12, 15, 16})
    assert code.heavy_vertices(math.inf) == []
    assert code.heavy_vertices(-math.inf) == [0, 1, 4, 5, 11, 12, 15, 16]
    with pytest.raises(ValueError, match="threshold nan"):
        code.heavy_vertices(math.nan)
    with pytest.raises(ShareUndefined):
        Code(C(22), {0}).heavy_vertices(-math.inf)


@pytest.mark.parametrize("threshold", ["3", b"3", [3], None, 3j])
def test_heavy_threshold_that_is_not_a_number_is_rejected(threshold):
    # a sequence times the share scale would repeat, not scale
    code = Code(C(22), {0, 1, 4, 5, 11, 12, 15, 16})
    with pytest.raises(ValueError) as info:
        code.heavy_vertices(threshold)
    assert str(info.value) == f"threshold {threshold!r} is not a number"
    assert code.heavy_vertices(Decimal(3)) == code.heavy_vertices(3)


def test_heavy_profiles_read_three_tables(monkeypatch):
    built = []
    rotated_sum = codes._rotated_sum

    def counted(*args):
        built.append(args[1])
        return rotated_sum(*args)
    construction = identifying_code_for(10**5)
    monkeypatch.setattr(codes, "_rotated_sum", counted)
    code = Code.from_mask(construction.graph, construction.mask)
    heavy = code.heavy_vertices(Fraction(11, 4))
    profiles = {code.profile(u) for u in heavy}
    assert len(heavy) > 10**4 and profiles == {(1, 2, 2, 2, 3)}
    # shadow sizes, share units and profile keys, each built once
    assert built == [1, 2, 2]


def test_locating_heavy_profiles():
    code = Code(C(18), {0, 1, 6, 7, 12, 13})
    for u in code.heavy_vertices(3):
        assert code.profile(u) in {(1, 1, 2, 2, 3), (1, 1, 2, 3, 4)}
    assert heavy_profile_violations(code, Kind.LOCATING) == []


def test_identifying_heavy_profiles():
    code = Code(C(22), {0, 1, 4, 5, 11, 12, 15, 16})
    heavy = code.heavy_vertices(Fraction(11, 4))
    assert heavy  # the block pattern does produce heavy vertices
    for u in heavy:
        assert code.profile(u) == (1, 2, 2, 2, 3)
    assert heavy_profile_violations(code, Kind.IDENTIFYING) == []


def test_heavy_profile_violations_rejects_dominating_kind():
    code = Code(C(11), {0, 1, 4, 5})
    with pytest.raises(ValueError):
        heavy_profile_violations(code, Kind.DOMINATING)


# -- plumbing -----------------------------------------------------------------

def test_mask_roundtrip():
    g = C(13)
    code = Code(g, {0, 1, 6, 7, 10})
    assert Code(g, set_of(code.mask)) == code
    assert len(code) == 5
    assert 6 in code and 2 not in code


def test_member_validation():
    with pytest.raises(Exception):
        Code(C(9), {0, 9})


def test_leaf_predicate_agrees_with_verify():
    # the exhaustive search accepts a leaf when defects yields nothing
    g = C(13)
    for members in [{0, 1, 6, 7, 10}, {0, 1, 2}, {0, 4, 8}, set(range(13))]:
        code = Code(g, members)
        for kind in Kind:
            leaf_ok = next(defects(13, code.mask, g.pattern, kind), None) is None
            assert leaf_ok == code.verify(kind).ok


def test_defects_stops_at_undominated_vertices():
    # N[0] = {0, 1, 3, 10, 12}: every other vertex has an empty shadow
    undominated = sum(1 << u for u in range(13) if u not in {0, 1, 3, 10, 12})
    for kind in Kind:
        assert list(defects(13, 1, C(13).pattern, kind)) == [(0, undominated)]


def test_defects_marks_every_colliding_pair():
    for n, members in [(11, {0, 4, 5, 6}), (13, {0, 1, 6, 7, 10}), (14, {0, 1, 2, 7, 8, 9})]:
        g = C(n)
        code = Code(g, members)
        assert code.is_dominating()
        for kind in (Kind.LOCATING, Kind.IDENTIFYING):
            expected = []
            for d in range(1, 7):
                bits = sum(1 << u for u in range(n)
                           if code.shadow(u) == code.shadow((u + d) % n)
                           and (kind is Kind.IDENTIFYING or not {u, (u + d) % n} & members))
                if bits:
                    expected.append((d, bits))
            assert list(defects(n, code.mask, g.pattern, kind)) == expected
            assert bool(expected) != code.verify(kind).ok


def test_shadow_sizes_wider_than_one_byte():
    # 128 offsets give |N[x]| = 257, past what one byte per vertex can count,
    # and profile keys in base 258, wider than any memoryview format
    g = CirculantGraph(300, range(1, 129))
    members = set(range(0, 300, 2))
    assert Code(g, members).sum_of_shares() == 300
    rng = random.Random(128)
    for members in (members, {u for u in range(300) if rng.random() < 0.4}):
        code = Code(g, members)
        assert [code.profile(u) for u in range(300)] == reference_profiles(g, members)
        assert isinstance(code._profile_keys, list)


def test_verify_memory_is_linear_in_n():
    n = 10**6
    members = locating_code_for(n).members
    tracemalloc.start()
    try:
        code = Code(CirculantGraph(n), members)
        result = code.verify(Kind.LOCATING)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    # Per-vertex neighbourhood masks would need n * n / 8 bytes (125 GB);
    # the whole-code kernel holds a few dozen n-bit integers.
    assert peak < 16 * 2**20


# -- ingestion ------------------------------------------------------------------

class Vertex(IntEnum):
    TWO = 2
    PAST_END = 13


ODD_MEMBERS = [True, -1, 13, 2.0, "3", Vertex.PAST_END]


def first_rejection(g, members):
    """The message of check_vertex on the first member it rejects, in iteration order."""
    for v in members:
        try:
            g.check_vertex(v)
        except VertexOutOfRange as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("odd", ODD_MEMBERS)
def test_member_validation_names_the_first_rejected_member(odd):
    g = C(13)
    lone = frozenset([odd])
    # 0 hashes to slot 0 and is inserted first, so it is iterated first
    crowd = frozenset([0, 4, 5, 9, 11, odd])
    assert next(iter(crowd)) != odd
    for members in (lone, crowd, frozenset([0, 4, 5, *ODD_MEMBERS])):
        expected = first_rejection(g, members)
        assert expected is not None
        with pytest.raises(VertexOutOfRange) as info:
            Code(g, members)
        assert str(info.value) == expected
    assert first_rejection(g, crowd) == f"vertex {odd!r} not in 0..12"


def test_int_subclass_members_are_accepted():
    g = C(13)
    for members in ([Vertex.TWO], [0, Vertex.TWO, 5, 9, 11]):
        code = Code(g, members)
        plain = Code(g, map(int, members))
        assert code.mask == plain.mask == sum(1 << v for v in members)
        assert code == plain


@pytest.mark.parametrize("odd", ODD_MEMBERS)
def test_profile_rejects_what_member_validation_rejects(odd):
    code = Code(C(13), {0, 4, 5, 9, 11})
    with pytest.raises(VertexOutOfRange) as info:
        code.profile(odd)
    assert str(info.value) == f"vertex {odd!r} not in 0..12"
    assert code.profile(Vertex.TWO) == code.profile(2)


def test_code_pickles_after_shares():
    code = Code(C(22), {0, 1, 4, 5, 11, 12, 15, 16})
    shares = [code.share(u) for u in sorted(code.members)]
    profiles = [code.profile(u) for u in range(22)]
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and copy.mask == code.mask
    assert [copy.share(u) for u in sorted(copy.members)] == shares
    assert [copy.profile(u) for u in range(22)] == profiles


# -- mask-first representation -----------------------------------------------

REPRESENTED = [
    (13, {0, 1, 6, 7, 10}),
    (22, {0, 1, 4, 5, 11, 12, 15, 16}),
    (20, set()),
    (17, set(range(17))),
]


@pytest.mark.parametrize("n, members", REPRESENTED)
def test_mask_and_members_give_the_same_code(n, members):
    g = C(n)
    packed = Code(g, sorted(members, reverse=True))
    from_mask = Code.from_mask(g, sum(1 << v for v in members))
    assert from_mask == packed and hash(from_mask) == hash(packed)
    listed = ",".join(map(str, sorted(members)))
    assert repr(from_mask) == repr(packed) == f"Code({g!r}, {{{listed}}})"
    assert len(from_mask) == len(packed) == len(members)
    assert [u in from_mask for u in range(-1, n + 1)] == [u in members for u in range(-1, n + 1)]
    assert (Vertex.TWO in from_mask) is (2 in members)
    assert (True in from_mask) is (1 in members) and "1" not in from_mask
    copy = pickle.loads(pickle.dumps(from_mask))
    assert copy == packed and copy.mask == packed.mask and copy.members == frozenset(members)
    assert from_mask.members == packed.members == frozenset(members)
    if from_mask.is_dominating():
        assert from_mask.sum_of_shares() == packed.sum_of_shares() == n
        assert [from_mask.share(u) for u in sorted(members)] == \
            [packed.share(u) for u in sorted(members)]
        assert from_mask.heavy_vertices(2) == packed.heavy_vertices(2)


def test_codes_on_other_graphs_differ():
    assert Code.from_mask(C(13), 3) != Code.from_mask(C(14), 3)
    assert Code.from_mask(C(13), 3) != Code.from_mask(C(13), 5)


@pytest.mark.parametrize("mask", [-1, -(1 << 20), 1 << 13, (1 << 13) | 1, 1 << 40])
def test_mask_entry_point_rejects_masks_outside_the_graph(mask):
    with pytest.raises((ValueError, VertexOutOfRange)):
        Code.from_mask(C(13), mask)


def test_mask_entry_point_names_the_top_bit():
    with pytest.raises(VertexOutOfRange, match=r"vertex 13 not in 0\.\.12"):
        Code.from_mask(C(13), (1 << 13) | 1)
    with pytest.raises(ValueError) as info:
        Code.from_mask(C(13), -1)
    assert str(info.value) == "mask must be at least 0, got -1"
    assert Code.from_mask(C(13), (1 << 13) - 1).members == frozenset(range(13))


def test_list_rejection_names_the_first_bad_member_in_the_order_given():
    g = C(13)
    for members, bad in (([0, 13, -1], 13), ([0, -1, 13], -1), ([2, True, 14], True)):
        with pytest.raises(VertexOutOfRange) as info:
            Code(g, members)
        assert str(info.value) == f"vertex {bad!r} not in 0..12"
    assert len(Code(g, iter([3, 3, 5]))) == 2


def test_share_readers_run_no_kernel_pass(monkeypatch):
    # domination is read from the shadow-size table: no defects pass on a
    # fresh, a verified or a non-dominating code
    calls = []

    def counted(n, mask, pattern, kind, anchors=None):
        calls.append(kind)
        return defects(n, mask, pattern, kind, anchors)
    monkeypatch.setattr(codes, "defects", counted)
    members = {0, 1, 4, 5, 11, 12, 15, 16}
    fresh = Code(C(22), members)
    assert fresh.sum_of_shares() == 22 and fresh.heavy_vertices(Fraction(11, 4)) == [0, 5, 11, 16]
    assert calls == []
    verified = Code(C(22), members)
    assert verified.verify(Kind.IDENTIFYING)
    assert verified.sum_of_shares() == 22 and verified.heavy_vertices(3) == []
    assert calls == [Kind.IDENTIFYING]
    for verify in (False, True):
        sparse = Code(C(22), {0})
        if verify:
            assert not sparse.verify(Kind.LOCATING)
        with pytest.raises(ShareUndefined):
            sparse.sum_of_shares()
        with pytest.raises(ShareUndefined):
            sparse.heavy_vertices(2)
    assert calls == [Kind.IDENTIFYING, Kind.LOCATING]


def test_members_are_plain_ints():
    g = C(13)
    for members in (frozenset([0, Vertex.TWO]), [0, Vertex.TWO], iter([Vertex.TWO, 0])):
        code = Code(g, members)
        assert code.members == {0, 2} and {type(v) for v in code.members} == {int}
        assert repr(code) == "Code(C(13; 1,3), {0,2})"


# -- kinds given by value ------------------------------------------------------

def _search_answer(result):
    return result.outcome.size, result.outcome.certificate, result.stats.examined


# Every public entry point that takes a kind, as a function of the kind alone
KIND_ENTRY_POINTS = {
    "verify": lambda kind: [code.verify(kind) for code in (
        locating_code_for(30), identifying_code_for(30), Code(C(22), {0}),
        Code(C(11), {0, 4, 5, 6}))],
    "lower_bound": lambda kind: [lower_bound(30, kind), lower_bound(30, kind, (1, 2, 3))],
    "min_code_size": lambda kind: _search_answer(min_code_size(CirculantGraph(20, (1, 4)), kind)),
    "exists_code_of_size": lambda kind: [exists_code_of_size(CirculantGraph(20, (1, 4)), kind, k)
                                         for k in (6, 7)],
    "naive_min_code_size": lambda kind: _search_answer(naive_min_code_size(C(12), kind)),
    "verify_periodic": lambda kind: [verify_periodic(p, kind) for p in (
        PERIODIC_LOCATING_CODE, PERIODIC_IDENTIFYING_CODE)],
    "heavy_profile_violations": lambda kind: heavy_profile_violations(locating_code_for(30), kind),
    "solve": lambda kind: (proof := transfer.solve((1, 2), kind), type(proof.kind)),
    "allowed_windows": lambda kind: transfer.allowed_windows((1, 2), kind),
}


def _outcome(entry, kind):
    try:
        return KIND_ENTRY_POINTS[entry](kind)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", KIND_ENTRY_POINTS)
def test_kind_given_by_value(monkeypatch, entry):
    # the value runs the member's check: "locating" is Kind.LOCATING everywhere,
    # and a search by value fills the member's pruning rows, not another kind's
    monkeypatch.setattr(search, "_VERDICTS", {})
    by_value = {kind: _outcome(entry, kind.value) for kind in Kind}
    assert by_value == {kind: _outcome(entry, kind) for kind in Kind}
    with pytest.raises(ValueError, match="'covering' is not a valid Kind"):
        KIND_ENTRY_POINTS[entry]("covering")
