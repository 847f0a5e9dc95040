"""The library's seven value types: reprs, immutability, equality, pickling.

``VerificationResult``, ``BoundReport``, ``SearchStats``, ``Optimum`` and
``SearchResult`` are ``NamedTuple`` records; ``Code`` and ``PeriodicCode``
are plain classes that refuse attribute assignment and compare and hash by
their fields, and ``CirculantGraph`` refuses assignment too: all three derive
from ``circulant._Frozen``.  The reprs are pinned as the library has always
printed them.
"""

import pickle

import pytest

from circodes import (
    BoundReport,
    CirculantGraph,
    Code,
    Kind,
    Optimum,
    PERIODIC_IDENTIFYING_CODE,
    PeriodicCode,
    SearchResult,
    SearchStats,
    Status,
    locating_code_for,
    lower_bound,
    min_code_size,
)

G = CirculantGraph(13)
CODE = locating_code_for(13)  # members 0, 1, 6, 7, 10
PAIR = Code(G, {0, 1, 6, 7}).verify(Kind.LOCATING)
STATS = SearchStats(7, 1, 3, 0.5, 2)
PROVED = min_code_size(G, Kind.LOCATING)

REPRS = [
    (Code(G, {0, 1}).verify(Kind.DOMINATING),
     "VerificationResult(status=<Status.NOT_DOMINATING: 'not-dominating'>, witness=5)"),
    (PAIR, "VerificationResult(status=<Status.NOT_LOCATING: 'not-locating'>, witness=(2, 11))"),
    (CODE.verify(Kind.IDENTIFYING),
     "VerificationResult(status=<Status.VALID: 'valid'>, witness=None)"),
    (CODE, "Code(C(13; 1,3), {0,1,6,7,10})"),
    (PERIODIC_IDENTIFYING_CODE, "PeriodicCode(period=11, residues=[0, 1, 4, 5])"),
    (lower_bound(13, Kind.LOCATING),
     "BoundReport(general_bound=4, specific_bound=5, effective=5)"),
    (STATS, "SearchStats(examined=7, pruned_symmetry=1, pruned_bound=3, wall_time=0.5, "
            "leaf_checks=2)"),
    (Optimum(5, CODE), "Optimum(size=5, certificate=Code(C(13; 1,3), {0,1,6,7,10}))"),
    (PROVED,
     "SearchResult(kind=<Kind.LOCATING: 'locating'>, n=13, outcome=Optimum(size=5, "
     "certificate=Code(C(13; 1,3), {0,1,6,7,10})), stats=SearchStats(examined=0, "
     "pruned_symmetry=0, pruned_bound=0, wall_time=0.0, leaf_checks=0), "
     "note='proved minimum 5', engine='proof')"),
]

VALUES = [value for value, _ in REPRS]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v in VALUES])
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [CODE, PERIODIC_IDENTIFYING_CODE, G],
                         ids=["Code", "PeriodicCode", "CirculantGraph"])
@pytest.mark.parametrize("name", ["graph", "mask", "members", "period", "residues", "n",
                                  "offsets", "pattern", "other"])
def test_codes_refuse_assignment_and_deletion(value, name):
    before = repr(value), hash(value)
    with pytest.raises(AttributeError):
        setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert (repr(value), hash(value)) == before


def test_graphs_are_slot_only():
    # a graph costs O(k) memory; a base class without __slots__ = () would
    # give every graph a __dict__.  Code keeps one for its cached tables.
    assert not hasattr(CirculantGraph(13), "__dict__")
    assert hasattr(CODE, "__dict__")


def test_code_compares_and_hashes_by_graph_and_mask():
    same = Code.from_mask(CirculantGraph(13), CODE.mask)
    assert same == CODE and hash(same) == hash(CODE)
    assert Code.from_mask(CirculantGraph(13, (1, 4)), CODE.mask) != CODE
    assert Code.from_mask(G, CODE.mask | 4) != CODE
    assert CODE != (CODE.graph, CODE.mask) and (CODE.graph, CODE.mask) != CODE


def test_periodic_code_compares_and_hashes_by_period_and_residues():
    same = PeriodicCode(11, (5, 4, 1, 0, 0))
    assert same == PERIODIC_IDENTIFYING_CODE and hash(same) == hash(PERIODIC_IDENTIFYING_CODE)
    assert PeriodicCode(12, (0, 1, 4, 5)) != PERIODIC_IDENTIFYING_CODE
    assert PeriodicCode(11, (0, 1, 4)) != PERIODIC_IDENTIFYING_CODE
    assert PERIODIC_IDENTIFYING_CODE != (11, frozenset({0, 1, 4, 5}))


def test_records_are_named_tuples():
    status, witness = PAIR
    assert (status, witness) == (Status.NOT_LOCATING, (2, 11)) == PAIR
    assert not PAIR and PAIR[1] == PAIR.witness
    assert STATS._asdict() == {"examined": 7, "pruned_symmetry": 1, "pruned_bound": 3,
                               "wall_time": 0.5, "leaf_checks": 2}
    assert STATS.merged(STATS) == SearchStats(14, 2, 6, 1.0, 4)
    assert BoundReport(4, None, 4) == (4, None, 4)
    assert isinstance(PROVED, SearchResult) and PROVED.outcome.certificate == CODE


@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_every_value_type_pickles(protocol):
    for value in VALUES:
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is type(value) and copy == value and repr(copy) == repr(value)
