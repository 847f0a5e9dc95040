"""Every public entry point holds one contract for its integer arguments.

An order, offset, vertex, radius, mask, period, residue, block count t,
size k, budget or ``threads`` is an ``int`` or an int subclass, and an
``IntEnum`` member gets the same answer as its plain int.  Anything else
(``bool``, a float, a string, ``None``) and an int out of range raise a
``CircodesError`` or ``ValueError`` whose message names the value's
``repr``: never a ``TypeError`` or ``AttributeError``, and never an answer.
"""

import re
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from circodes import (
    BudgetExceeded,
    CircodesError,
    CirculantGraph,
    Code,
    Kind,
    PeriodicCode,
    SearchResult,
    UnsupportedOrder,
    construct_A,
    construct_B,
    exists_code_of_size,
    identifying_code_for,
    identifying_code_size,
    locating_code_for,
    locating_code_size,
    lower_bound,
    min_code_size,
)
from circodes import transfer
from circodes.circulant import set_of
from circodes.proofs import PROOFS

C = CirculantGraph
LOC, IDE = Kind.LOCATING, Kind.IDENTIFYING
PROOF = PROOFS[((1, 3), LOC)]
CODE = locating_code_for(13)  # members 0, 1, 6, 7, 10

# name: (call with the argument under test, least valid int, greatest or None)
ENTRY_POINTS = {
    "graph-order": (C, 3, None),
    "graph-offset": (lambda v: C(13, (v,)), 1, 6),
    "closed-neighborhood": (lambda v: C(13).closed_neighborhood(v), 0, 12),
    "is-adjacent": (lambda v: C(13).is_adjacent(0, v), 0, 12),
    "ball-centre": (lambda v: C(13).ball(v, 1), 0, 12),
    "ball-radius": (lambda v: C(13).ball(0, v), 0, None),
    "code-member": (lambda v: Code(C(13), [v]), 0, 12),
    "profile": (CODE.profile, 0, 12),
    "share": (CODE.share, 0, 12),
    # the width check names the top bit, so only masks below 0 are out of range
    "from-mask": (lambda v: Code.from_mask(C(13), v), 0, None),
    "set-of": (set_of, 0, None),
    "period": (lambda v: PeriodicCode(v, [0]), 1, None),
    "residue": (lambda v: PeriodicCode(6, [v]), 0, 5),
    "construct-A": (construct_A, 2, None),
    "construct-B": (construct_B, 1, None),
    "locating-size": (locating_code_size, 13, None),
    "identifying-size": (identifying_code_size, 11, None),
    "locating-code": (locating_code_for, 13, None),
    "identifying-code": (identifying_code_for, 11, None),
    "lower-bound": (lambda v: lower_bound(v, LOC), 3, None),
    "lower-bound-offset": (lambda v: lower_bound(13, LOC, (v,)), 1, 6),
    "window-offset": (lambda v: transfer.allowed_windows((v,), LOC), 1, 3),
    "proof-minimum": (PROOF.minimum, 13, None),
    "exists-k": (lambda v: exists_code_of_size(C(12), LOC, v), 1, 12),
    "budget": (lambda v: min_code_size(C(12), LOC, budget=v), 0, None),
    "threads": (lambda v: min_code_size(C(13), LOC, threads=v), 1, None),
}

NOT_INTEGERS = [True, False, 1.0, 13.0, 13.5, "13"]


def assert_rejected(call, value):
    """``call(value)`` raises a package or value error naming ``repr(value)``."""
    try:
        result = call(value)
    except BudgetExceeded as exc:
        pytest.fail(f"{value!r} read as a budget: {exc}")
    except (CircodesError, ValueError) as exc:
        # the repr as a whole word: 'True' inside "'0Trueb'" names nothing
        named = rf"(?<!\w){re.escape(repr(value))}(?!\w)"
        assert re.search(named, str(exc)), f"{type(exc).__name__}: {exc}"
    else:
        pytest.fail(f"{value!r} accepted: {result!r}")


@pytest.mark.parametrize("value", [*NOT_INTEGERS, None])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_non_integer_argument_is_rejected_by_name(name, value):
    if not (name == "budget" and value is None):
        assert_rejected(ENTRY_POINTS[name][0], value)


def bad_values(name):
    _, lo, hi = ENTRY_POINTS[name]
    out_of_range = st.integers(max_value=lo - 1)
    if hi is not None:
        out_of_range |= st.integers(min_value=hi + 1)
    values = st.sampled_from(NOT_INTEGERS) | st.floats() | st.text(max_size=3) | out_of_range
    # budget=None is the default, the kind's own budget
    return values if name == "budget" else values | st.none()


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_integer_argument_is_rejected_by_name(name, data):
    assert_rejected(ENTRY_POINTS[name][0], data.draw(bad_values(name)))


def outcome(call, value):
    """What ``call(value)`` gives or raises, with search timings left out."""
    try:
        result = call(value)
    except (CircodesError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, SearchResult):
        return result.outcome, result.note, result.engine
    return result, repr(result)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_int_enum_argument_answers_as_its_int(name, data):
    call, lo, hi = ENTRY_POINTS[name]
    value = data.draw(st.integers(lo, lo + 30 if hi is None else hi))
    member = IntEnum("Argument", {"VALUE": value}).VALUE
    assert outcome(call, member) == outcome(call, value)


# Calls that were accepted, or that failed with a TypeError or AttributeError,
# with a message that does not name the value, or by reading a float budget.
# density(PeriodicCode(6.0, ...)) and verify_periodic(PeriodicCode(True, ...),
# ...) broke only after PeriodicCode accepted the period.
REPORTED = [("period", 6.0), ("period", True), ("from-mask", 1.0), ("from-mask", True),
            ("exists-k", True), ("exists-k", 4.0), ("budget", 2.5), ("budget", 12.5),
            ("locating-size", 13.5), ("lower-bound", 13.5), ("ball-radius", True),
            ("construct-A", 3.0), ("proof-minimum", 20.0),
            ("solve-offsets", 3.0), ("lower-bound-offsets", 5),
            ("lower-bound-first-offset", 3.0)]

# Reported calls with the value inside a set of offsets: solve((1, 3.0))
# named the window width 13.0, and lower_bound answered both, the second
# from the {1,3} proof.
OFFSET_SETS = {
    "solve-offsets": lambda v: transfer.solve((1, v), LOC),
    "lower-bound-offsets": lambda v: lower_bound(7, LOC, (1, v)),
    "lower-bound-first-offset": lambda v: lower_bound(20, IDE, (v, 1)),
}


@pytest.mark.parametrize("name, value", REPORTED,
                         ids=[f"{name}-{value!r}" for name, value in REPORTED])
def test_reported_call_is_rejected_by_name(name, value):
    call = OFFSET_SETS[name] if name in OFFSET_SETS else ENTRY_POINTS[name][0]
    assert_rejected(call, value)


# A range message compares the value with the range: said of a non-integer
# ("n=13.5 < 13", "residue 1.5 outside [0, 6)") it was false.
NON_INTEGERS_IN_RANGE = [("locating-size", 13.5, "n"), ("identifying-size", True, "n"),
                         ("locating-code", "20", "n"), ("residue", 1.5, "residue")]


@pytest.mark.parametrize("name, value, what", NON_INTEGERS_IN_RANGE,
                         ids=[f"{name}-{value!r}" for name, value, _ in NON_INTEGERS_IN_RANGE])
def test_non_integer_gets_the_generic_wording(name, value, what):
    with pytest.raises((UnsupportedOrder, ValueError)) as info:
        ENTRY_POINTS[name][0](value)
    assert str(info.value) == f"{what} must be an integer, got {value!r}"
    assert (type(info.value) is UnsupportedOrder) == (what == "n")
