"""Explicit code families: periodic blocks, per-order tables, and densities.

Finite constructions come in two layers.  ``construct_A``/``construct_B``
build the pure block codes on C(6t;1,3) and C(11t;1,3).  The per-order
functions ``locating_code_for`` and ``identifying_code_for`` extend the
blocks with a residue-dependent tail patch so that every order in range
gets a verified code of the smallest size this library knows how to build.

Periodic codes on the infinite graph (vertex set Z, offsets {1,3}) are
modeled by ``PeriodicCode``; the window check in ``verify_periodic`` is
exact because shadows only reach three steps in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circulant import CirculantGraph
from .codes import Code, Kind, Status, VerificationResult
from .errors import UnsupportedOrder

__all__ = [
    "PeriodicCode",
    "PERIODIC_LOCATING_CODE",
    "PERIODIC_IDENTIFYING_CODE",
    "construct_A",
    "construct_B",
    "locating_code_for",
    "identifying_code_for",
    "locating_code_size",
    "identifying_code_size",
    "density",
    "verify_periodic",
]

# Block patterns, one period each.  The locating block is {0,1} every six
# vertices; the identifying block is {0,1,4,5} every eleven.  The identifying
# residues are the unique (up to rotation and reflection) four-element
# pattern whose infinite tiling is an identifying code.
LOCATING_BLOCK_PERIOD = 6
LOCATING_BLOCK = (0, 1)
IDENTIFYING_BLOCK_PERIOD = 11
IDENTIFYING_BLOCK = (0, 1, 4, 5)

# Tail patches by residue class, as offsets relative to n.  A row (b, patch)
# means: tile full blocks over [0, n - 11*b - r) and add {n + o : o in patch}.
# Every row is verified across its whole supported range by the test suite.
_LOCATING_ROWS: dict[int, tuple[int, ...]] = {
    0: (),
    1: (-3,),
    2: (-2, -1),
    3: (-3, -2),
    4: (-4, -3),
    5: (-5, -4, -1),
}

_IDENTIFYING_ROWS: dict[int, tuple[int, ...]] = {
    0: (),
    1: (-1,),
    2: (-2, -1),
    3: (-3, -2),
    4: (-4, -3),
    5: (-5, -4, -3),
    6: (-6, -5, -3),
    7: (-7, -6, -4),
    8: (-8, -7, -4, -3),
    9: (-9, -8, -6, -5),
    10: (-10, -9, -6, -5),
}

# Orders where a code one vertex smaller than the general family exists.
# These were found by exhaustive search and are stored verbatim; from the
# next order in the same residue class onward no code of this size exists.
_IDENTIFYING_SPECIALS: dict[int, tuple[int, ...]] = {
    13: (0, 1, 6, 7, 10),
    24: (0, 1, 2, 6, 9, 10, 15, 16, 19),
    35: (0, 1, 2, 6, 10, 11, 12, 17, 20, 21, 26, 27, 30),
    16: (0, 1, 4, 7, 10, 11),
    27: (0, 1, 2, 6, 9, 12, 13, 18, 19, 22),
}


@dataclass(frozen=True)
class PeriodicCode:
    """A periodic vertex set {i*period + r : i in Z, r in residues}."""

    period: int
    residues: frozenset[int]

    def __init__(self, period: int, residues):
        if period < 1:
            raise ValueError(f"period must be positive, got {period}")
        res = frozenset(residues)
        for r in res:
            if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r < period:
                raise ValueError(f"residue {r!r} outside [0, {period})")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", res)

    def __contains__(self, x: int) -> bool:
        return x % self.period in self.residues

    def __repr__(self) -> str:
        return f"PeriodicCode(period={self.period}, residues={sorted(self.residues)})"


PERIODIC_LOCATING_CODE = PeriodicCode(LOCATING_BLOCK_PERIOD, LOCATING_BLOCK)
PERIODIC_IDENTIFYING_CODE = PeriodicCode(IDENTIFYING_BLOCK_PERIOD, IDENTIFYING_BLOCK)


def density(p: PeriodicCode) -> Fraction:
    """Density of a periodic set: residues per period, in lowest terms."""
    return Fraction(len(p.residues), p.period)


def _infinite_shadow(p: PeriodicCode, x: int) -> frozenset[int]:
    return frozenset(y for y in (x - 3, x - 1, x, x + 1, x + 3) if y in p)


def verify_periodic(p: PeriodicCode, kind: Kind) -> VerificationResult:
    """Check a periodic set as a code of the infinite circulant with offsets {1,3}.

    Shadows sit inside [x-3, x+3], so one period of anchor vertices compared
    against partners up to six steps away covers every constraint exactly.
    Witnesses are plain integers (vertices of the infinite graph).
    """
    fail = Status.NOT_LOCATING if kind is Kind.LOCATING else Status.NOT_IDENTIFYING
    for u in range(p.period):
        if not _infinite_shadow(p, u):
            return VerificationResult(Status.NOT_DOMINATING, u)
    if kind is Kind.DOMINATING:
        return VerificationResult(Status.VALID, None)
    for u in range(p.period):
        su = _infinite_shadow(p, u)
        for v in range(u + 1, u + 7):
            if kind is Kind.LOCATING and (u in p or v in p):
                continue
            if su == _infinite_shadow(p, v):
                return VerificationResult(fail, (u, v))
    return VerificationResult(Status.VALID, None)


def _blocks(period: int, pattern: tuple[int, ...], count: int) -> list[int]:
    return [period * i + r for i in range(count) for r in pattern]


def construct_A(t: int) -> Code:
    """The locating block code {6i, 6i+1 : 0 <= i < t} on C(6t;1,3).

    Needs t >= 2: C(6;1,3) does not exist because the offset 3 equals n/2.
    The code is a valid locating code for t >= 3.
    """
    if t < 2:
        raise UnsupportedOrder(
            f"construct_A requires t >= 2; C({6 * t};1,3) is not a valid graph"
        )
    g = CirculantGraph(6 * t)
    return Code(g, _blocks(6, LOCATING_BLOCK, t))


def construct_B(t: int) -> Code:
    """The identifying block code {11i + r : 0 <= i < t, r in {0,1,4,5}} on C(11t;1,3).

    Valid identifying code for every t >= 1.
    """
    if t < 1:
        raise UnsupportedOrder("construct_B requires t >= 1")
    g = CirculantGraph(11 * t)
    return Code(g, _blocks(11, IDENTIFYING_BLOCK, t))


def locating_code_size(n: int) -> int:
    """Size of the code locating_code_for(n) returns.

    ceil(n/3), plus one when n is 2, 3, or 5 mod 6.  For every order where
    exhaustive search has been run, this equals the true minimum; in
    particular no code of size ceil(n/3) exists for n = 15, 21, 27, 33.
    """
    if n < 13:
        raise UnsupportedOrder(f"no general locating construction for n={n} < 13")
    return -(-n // 3) + (1 if n % 6 in (2, 3, 5) else 0)


def identifying_code_size(n: int) -> int:
    """Size of the code identifying_code_for(n) returns.

    ceil(4n/11) in most residue classes.  One more in class 8 (mod 11), and
    in classes 2 and 5 (mod 11) past their last thin orders (35 and 27): at
    n = 38 and n = 46 exhaustive search shows the thin size is impossible.
    """
    if n < 11:
        raise UnsupportedOrder(f"no general identifying construction for n={n} < 11")
    r = n % 11
    extra = r == 8 or (r == 2 and n > 35) or (r == 5 and n > 27)
    return -(-4 * n // 11) + (1 if extra else 0)


def _checked(code: Code, size: int) -> Code:
    """Return code, or raise if a table row disagrees with the size formula."""
    if len(code) != size:
        raise RuntimeError(f"table row for n={code.graph.n} produced size "
                           f"{len(code)}, expected {size}")
    return code


def _tiled_code(n: int, period: int, pattern: tuple[int, ...], patch: tuple[int, ...]) -> Code:
    members = set(_blocks(period, pattern, n // period))
    for o in patch:
        members.add(n + o)
    return Code(CirculantGraph(n), members)


def locating_code_for(n: int) -> Code:
    """A minimum-size-known locating code in C(n;1,3) for n >= 13.

    Residue classes 0, 1, 4 (mod 6) get size ceil(n/3); classes 2, 3, 5 get
    ceil(n/3) + 1, which exhaustive search shows is optimal wherever it has
    reached (all n <= 38 in class 2 mod 3, and n <= 33 in class 3 mod 6).
    """
    size = locating_code_size(n)  # raises UnsupportedOrder below 13
    return _checked(_tiled_code(n, 6, LOCATING_BLOCK, _LOCATING_ROWS[n % 6]), size)


def identifying_code_for(n: int) -> Code:
    """A minimum-size-known identifying code in C(n;1,3) for n >= 11.

    Uses the stored exhaustive-search optima for the five thin orders in
    residue classes 2 and 5 (mod 11), and the block-plus-patch family
    everywhere else.
    """
    size = identifying_code_size(n)  # raises UnsupportedOrder below 11
    if n in _IDENTIFYING_SPECIALS:
        code = Code(CirculantGraph(n), _IDENTIFYING_SPECIALS[n])
    else:
        code = _tiled_code(n, 11, IDENTIFYING_BLOCK, _IDENTIFYING_ROWS[n % 11])
    return _checked(code, size)
