from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from circodes import constructions
from circodes import (
    CirculantGraph,
    Code,
    Kind,
    PERIODIC_IDENTIFYING_CODE,
    PERIODIC_LOCATING_CODE,
    PeriodicCode,
    Status,
    UnsupportedOrder,
    construct_A,
    construct_B,
    density,
    identifying_code_for,
    identifying_code_size,
    locating_code_for,
    locating_code_size,
    verify_periodic,
)


# -- block families ----------------------------------------------------------

def test_construct_A_values():
    a3 = construct_A(3)
    assert a3.members == frozenset({0, 1, 6, 7, 12, 13})
    assert a3.graph.n == 18
    assert a3.is_locating()
    a4 = construct_A(4)
    assert len(a4) == 8
    assert a4.graph.n == 24
    assert a4.is_locating()


def test_construct_A_rejects_degenerate_graph():
    # C(6;1,3) does not exist: offset 3 equals 6/2
    with pytest.raises(UnsupportedOrder):
        construct_A(1)
    with pytest.raises(UnsupportedOrder):
        construct_A(0)


def test_construct_A_size_and_shape():
    for t in range(2, 8):
        code = construct_A(t)
        assert len(code) == 2 * t
        assert code.members == frozenset(
            6 * i + j for i in range(t) for j in (0, 1))


def test_construct_A_two_blocks_not_locating():
    # wraparound in C(12) collapses shadows; 4 < optimum 5 anyway
    assert not construct_A(2).is_locating()


def test_construct_B_values():
    b1 = construct_B(1)
    assert b1.members == frozenset({0, 1, 4, 5})
    assert b1.graph.n == 11
    assert b1.is_identifying()
    b2 = construct_B(2)
    assert b2.members == frozenset({0, 1, 4, 5, 11, 12, 15, 16})
    assert b2.graph.n == 22
    assert b2.is_identifying()
    assert len(b2) == 8


def test_construct_B_rejects_degenerate_graph():
    with pytest.raises(UnsupportedOrder):
        construct_B(0)


def test_construct_B_blocks_identifying_for_all_t():
    for t in range(1, 9):
        code = construct_B(t)
        assert len(code) == 4 * t
        assert code.is_identifying()


def test_shifted_block_pattern_fails():
    # residues {0,4,5,6} per period 11 dominate but do not identify
    g = CirculantGraph(22)
    bad = Code(g, {0, 4, 5, 6, 11, 15, 16, 17})
    assert bad.is_dominating()
    assert not bad.is_identifying()


# -- per-order table codes -----------------------------------------------------

def test_locating_code_for_small_orders():
    assert locating_code_for(13).members == frozenset({0, 1, 6, 7, 10})
    assert locating_code_for(14).members == frozenset({0, 1, 6, 7, 12, 13})
    assert locating_code_for(17).members == frozenset({0, 1, 6, 7, 12, 13, 16})


def test_locating_code_for_rejects_small_n():
    for n in range(7, 13):
        with pytest.raises(UnsupportedOrder):
            locating_code_for(n)
    with pytest.raises(UnsupportedOrder):
        locating_code_size(12)


def test_locating_sizes():
    assert locating_code_size(13) == 5   # ceil(13/3)
    assert locating_code_size(14) == 6   # ceil(14/3) + 1
    assert locating_code_size(15) == 6   # ceil(15/3) + 1
    assert locating_code_size(16) == 6
    assert locating_code_size(17) == 7
    assert locating_code_size(18) == 6
    assert locating_code_size(22) == 8
    assert locating_code_size(24) == 8


def test_locating_codes_valid_with_advertised_size():
    for n in range(13, 120):
        code = locating_code_for(n)
        assert code.is_locating(), n
        assert len(code) == locating_code_size(n), n


def test_unpatched_6t5_variant_fails():
    # appending n-7 instead of n-1 to the blocks breaks every 6t+5 order
    g = CirculantGraph(17)
    bad = Code(g, {0, 1, 6, 7, 10, 12, 13})
    result = bad.is_locating()
    assert not result
    assert result.witness == (14, 16)


def test_identifying_code_for_small_orders():
    assert identifying_code_for(11).members == frozenset({0, 1, 4, 5})
    assert identifying_code_for(12).members == frozenset({0, 1, 4, 5, 11})
    assert identifying_code_for(13).members == frozenset({0, 1, 6, 7, 10})
    assert identifying_code_for(19).members == frozenset(
        {0, 1, 4, 5, 11, 12, 15, 16})


def test_identifying_code_for_rejects_small_n():
    for n in range(7, 11):
        with pytest.raises(UnsupportedOrder):
            identifying_code_for(n)
    with pytest.raises(UnsupportedOrder):
        identifying_code_size(10)


def test_identifying_sizes():
    assert identifying_code_size(11) == 4   # ceil(44/11)
    assert identifying_code_size(12) == 5
    assert identifying_code_size(13) == 5
    assert identifying_code_size(19) == 8   # ceil(76/11) + 1, class 8 mod 11
    assert identifying_code_size(22) == 8
    assert identifying_code_size(24) == 9   # class 2: tight through n=35
    assert identifying_code_size(35) == 13
    assert identifying_code_size(46) == 18  # class 2: +1 from n=46 on
    assert identifying_code_size(27) == 10  # class 5: tight through n=27
    assert identifying_code_size(38) == 15  # class 5: +1 from n=38 on


def test_identifying_codes_valid_with_advertised_size():
    for n in range(11, 120):
        code = identifying_code_for(n)
        assert code.is_identifying(), n
        assert len(code) == identifying_code_size(n), n


# -- the sizes against the closed forms ------------------------------------------

# The size functions read the stored transfer-matrix proofs; these closed
# forms are the independent check, written out residue class by residue class.

def _locating_closed_form(n):
    """ceil(n/3), plus one when n is 2, 3, or 5 mod 6."""
    return -(-n // 3) + (1 if n % 6 in (2, 3, 5) else 0)


def _identifying_closed_form(n):
    """ceil(4n/11), plus one in class 8 (mod 11) and in classes 2 and 5 past
    their last thin orders (35 and 27)."""
    r = n % 11
    extra = r == 8 or (r == 2 and n > 35) or (r == 5 and n > 27)
    return -(-4 * n // 11) + (1 if extra else 0)


@pytest.mark.parametrize("size, closed_form, first, period", [
    (locating_code_size, _locating_closed_form, 13, 6),
    (identifying_code_size, _identifying_closed_form, 11, 11),
], ids=["locating", "identifying"])
def test_sizes_match_the_closed_forms(size, closed_form, first, period):
    orders = [*range(first, 5001), *range(10**4, 10**4 + period),
              *range(10**6, 10**6 + period)]
    assert [size(n) for n in orders] == [closed_form(n) for n in orders]


@pytest.mark.parametrize("size, n, message", [
    (locating_code_size, 12, "no general locating construction for n=12 < 13"),
    (identifying_code_size, 10, "no general identifying construction for n=10 < 11"),
    (locating_code_size, 13.0, "n must be an integer, got 13.0"),
    (identifying_code_size, "11", "n must be an integer, got '11'"),
])
def test_size_errors_are_worded(size, n, message):
    with pytest.raises(UnsupportedOrder) as caught:
        size(n)
    assert str(caught.value) == message


# -- periodic codes ---------------------------------------------------------

def test_periodic_validation():
    with pytest.raises(ValueError):
        PeriodicCode(0, [0])
    with pytest.raises(ValueError):
        PeriodicCode(6, [0, 6])
    with pytest.raises(ValueError):
        PeriodicCode(6, [-1])
    assert PeriodicCode(6, [0, 0]).residues == frozenset({0})


def test_periodic_membership():
    p = PeriodicCode(6, [0, 1])
    assert 0 in p and 1 in p and 6 in p and 7 in p and -6 in p and -5 in p
    assert 2 not in p and 5 not in p and -1 not in p


def test_density_values():
    assert density(PeriodicCode(6, [0, 1])) == Fraction(1, 3)
    assert density(PeriodicCode(11, [0, 1, 4, 5])) == Fraction(4, 11)
    assert density(PeriodicCode(11, [0, 4, 5, 6])) == Fraction(4, 11)
    assert density(PeriodicCode(5, [0, 1, 2, 3, 4])) == 1


def test_canonical_periodic_codes():
    assert PERIODIC_LOCATING_CODE.period == 6
    assert sorted(PERIODIC_LOCATING_CODE.residues) == [0, 1]
    assert PERIODIC_IDENTIFYING_CODE.period == 11
    assert sorted(PERIODIC_IDENTIFYING_CODE.residues) == [0, 1, 4, 5]
    assert density(PERIODIC_LOCATING_CODE) == Fraction(1, 3)
    assert density(PERIODIC_IDENTIFYING_CODE) == Fraction(4, 11)


def test_verify_periodic_tight_patterns():
    assert verify_periodic(PERIODIC_LOCATING_CODE, Kind.LOCATING)
    assert verify_periodic(PERIODIC_IDENTIFYING_CODE, Kind.IDENTIFYING)


def test_verify_periodic_rejects_shifted_pattern():
    result = verify_periodic(PeriodicCode(11, [0, 4, 5, 6]), Kind.IDENTIFYING)
    assert not result
    assert result.witness == (10, 11)


def test_verify_periodic_sparse_patterns_fail():
    assert not verify_periodic(PeriodicCode(6, [0]), Kind.IDENTIFYING)
    assert not verify_periodic(PeriodicCode(4, [0]), Kind.LOCATING)


def test_verify_periodic_witness_is_concrete():
    result = verify_periodic(PeriodicCode(4, [0]), Kind.LOCATING)
    assert result.witness is not None


def periodic_reference(p, kind):
    """Status and witness from the definition, comparing shadows on a window of Z.

    By periodicity every constraint has a copy whose smaller vertex u lies
    below the period.  Each such u is compared with every v > u in the
    window; the witness is the pair with the smallest u, then the smallest v.
    """
    shadow = [frozenset(y for y in (x - 3, x - 1, x, x + 1, x + 3) if y in p)
              for x in range(2 * p.period + 20)]
    for u in range(p.period):
        if not shadow[u]:
            return Status.NOT_DOMINATING, u
    if kind is Kind.DOMINATING:
        return Status.VALID, None
    for u in range(p.period):
        for v in range(u + 1, len(shadow)):
            if kind is Kind.LOCATING and (u in p or v in p):
                continue
            if shadow[u] == shadow[v]:
                fail = Status.NOT_LOCATING if kind is Kind.LOCATING else Status.NOT_IDENTIFYING
                return fail, (u, v)
    return Status.VALID, None


def test_verify_periodic_matches_reference():
    for period in range(1, 11):
        for chosen in range(1 << period):
            p = PeriodicCode(period, [r for r in range(period) if chosen >> r & 1])
            for kind in Kind:
                result = verify_periodic(p, kind)
                assert (result.status, result.witness) == periodic_reference(p, kind), (p, kind)


@st.composite
def _periodic_codes(draw):
    period = draw(st.integers(1, 40))
    return PeriodicCode(period, draw(st.sets(st.integers(0, period - 1))))


@given(_periodic_codes())
@settings(max_examples=200, deadline=None)
def test_verify_periodic_matches_explicit_lift(p):
    # the lift verify_periodic checks, with its members listed one by one
    n = -(-(p.period + 12) // p.period) * p.period
    members = [i * p.period + r for i in range(n // p.period) for r in sorted(p.residues)]
    lift = Code(CirculantGraph(n), members)
    for kind in Kind:
        assert verify_periodic(p, kind).status == lift.verify(kind).status, kind


def test_periodic_agrees_with_finite_beyond_validity_floor():
    # blocks tile the cycle exactly, so wraparound adds no new collisions
    for t in range(3, 13):
        assert construct_A(t).is_locating()
    for t in range(1, 13):
        assert construct_B(t).is_identifying()


def test_wrong_table_row_raises(monkeypatch):
    # an explicit check, so it also holds under python -O
    monkeypatch.setitem(constructions._IDENTIFYING_SPECIALS, 13, (0, 1, 6, 7))
    with pytest.raises(RuntimeError, match="n=13 produced size 4, expected 5"):
        identifying_code_for(13)


# -- block repetition against block arithmetic ---------------------------------

def _reference(n, period, block, rows):
    """The construction's members by arithmetic: whole blocks, then the tail patch."""
    members = {period * i + r for i in range(n // period) for r in block}
    return sorted(members | {n + o for o in rows[n % period]})


NEAR_10K = [10**4 + r for r in range(11)]


@pytest.mark.parametrize("kind", [Kind.LOCATING, Kind.IDENTIFYING])
def test_block_repetition_matches_block_arithmetic(kind):
    # certificates must stay byte-identical to the member-by-member build
    if kind is Kind.LOCATING:
        build, first, period, block, rows = (locating_code_for, 13, 6, (0, 1),
                                             constructions._LOCATING_ROWS)
    else:
        build, first, period, block, rows = (identifying_code_for, 11, 11, (0, 1, 4, 5),
                                             constructions._IDENTIFYING_ROWS)
    for n in [*range(first, 401), *NEAR_10K]:
        code = build(n)
        special = constructions._IDENTIFYING_SPECIALS.get(n) if period == 11 else None
        expected = sorted(special) if special else _reference(n, period, block, rows)
        assert sorted(code.members) == expected, n
        assert code.graph == CirculantGraph(n) and len(code) == len(expected)


def test_block_families_match_block_arithmetic():
    for t in range(2, 60):
        assert sorted(construct_A(t).members) == _reference(6 * t, 6, (0, 1), {0: ()})
    for t in range(1, 40):
        assert sorted(construct_B(t).members) == _reference(11 * t, 11, (0, 1, 4, 5), {0: ()})
