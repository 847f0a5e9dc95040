"""Explicit code families: periodic blocks, per-order tables, and densities.

Finite constructions come in two layers.  ``construct_A``/``construct_B``
build the pure block codes on C(6t;1,3) and C(11t;1,3).  The per-order
functions ``locating_code_for`` and ``identifying_code_for`` extend the
blocks with a residue-dependent tail patch so that every order in range
gets a verified code.  Its size is read from the stored transfer-matrix
proofs (``proofs``), the one statement of the paper's theorem: for n >= 13
the minimum, ceil(n/3) + c locating and ceil(4n/11) + c' identifying, with
c, c' in {0, 1}.  ``_checked`` holds every table row to that size.

Every block code is built as a mask, with no loop over members: the
block's base-2 numeral, repeated once per whole block and parsed once,
with the tail patch's bits set after it (``Code.from_mask``).  Only the
five thin identifying orders in ``_IDENTIFYING_SPECIALS`` are stored as
member lists.  A code's members are unpacked only when read.

Periodic codes on the infinite graph (vertex set Z, offsets {1,3}) are
modeled by ``PeriodicCode``.  ``verify_periodic`` runs the whole-code kernel
``codes.defects`` on a finite cycle that the periodic code tiles, long
enough that no constraint wraps around it.
"""

from __future__ import annotations

from fractions import Fraction

from .circulant import CirculantGraph, _Frozen
from .codes import (_FAIL_STATUS, Code, Kind, Status, VerificationResult, _as_kind, _lowest_bit,
                    defects)
from .errors import UnsupportedOrder, check_int
from .proofs import PROOFS

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

# Orders where the block-plus-patch family is one vertex above the proved
# minimum (classes 2 and 5 mod 11, through n = 35 and 27).  These codes were
# found by exhaustive search and are stored verbatim; from the next order in
# the same residue class onward the proof's excess digit is 1.
_IDENTIFYING_SPECIALS: dict[int, tuple[int, ...]] = {
    13: (0, 1, 6, 7, 10),
    24: (0, 1, 2, 6, 9, 10, 15, 16, 19),
    35: (0, 1, 2, 6, 10, 11, 12, 17, 20, 21, 26, 27, 30),
    16: (0, 1, 4, 7, 10, 11),
    27: (0, 1, 2, 6, 9, 12, 13, 18, 19, 22),
}


class PeriodicCode(_Frozen):
    """A periodic vertex set {i*period + r : i in Z, r in residues}.

    Immutable; equal, and hashed alike, when period and residues are.
    """

    period: int
    residues: frozenset[int]

    def __init__(self, period: int, residues):
        period = check_int(period, "period", 1)
        outside = f"residue {{value!r}} outside [0, {period})"
        res = frozenset(check_int(r, "residue", 0, period - 1, message=outside)
                        for r in residues)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "residues", res)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.period == other.period and self.residues == other.residues

    def __hash__(self) -> int:
        return hash((self.period, self.residues))

    def __contains__(self, x: int) -> bool:
        return x % self.period in self.residues

    def __repr__(self) -> str:
        return f"PeriodicCode(period={self.period}, residues={sorted(self.residues)})"


PERIODIC_LOCATING_CODE = PeriodicCode(LOCATING_BLOCK_PERIOD, LOCATING_BLOCK)
PERIODIC_IDENTIFYING_CODE = PeriodicCode(IDENTIFYING_BLOCK_PERIOD, IDENTIFYING_BLOCK)


def _numeral(period: int, residues) -> str:
    """One period of a periodic set as a base-2 numeral, residue 0 last.

    Repeated t times and parsed once, it is the mask of t periods from
    vertex 0: linear in t * period, with no loop over members.
    """
    return format(sum(1 << r for r in residues), f"0{period}b")


_LOCATING_NUMERAL = _numeral(LOCATING_BLOCK_PERIOD, LOCATING_BLOCK)
_IDENTIFYING_NUMERAL = _numeral(IDENTIFYING_BLOCK_PERIOD, IDENTIFYING_BLOCK)


def density(p: PeriodicCode) -> Fraction:
    """Density of a periodic set: residues per period, in lowest terms."""
    return Fraction(len(p.residues), p.period)


def verify_periodic(p: PeriodicCode, kind: Kind) -> VerificationResult:
    """Check a periodic set as a code of the infinite circulant with offsets {1,3}.

    Two compared shadows span at most 4*dmax + 1 = 13 consecutive vertices.
    On the lift to C(N;1,3), N the first multiple of the period that is at
    least period + 12, those vertices stay distinct, so the lift breaks a
    constraint at u exactly where the infinite graph does.  Witnesses are
    plain integers (vertices of the infinite graph) with the smallest
    first vertex, which lies below the period.
    """
    kind = _as_kind(kind)
    lift = CirculantGraph(-(-(p.period + 12) // p.period) * p.period)
    mask = int(_numeral(p.period, p.residues) * (lift.n // p.period), 2)
    pairs = []
    for d, bits in defects(lift.n, mask, lift.pattern, kind):
        u = _lowest_bit(bits)
        if not d:
            return VerificationResult(Status.NOT_DOMINATING, u)
        pairs.append((u, u + d))
    if pairs:
        return VerificationResult(_FAIL_STATUS[kind], min(pairs))
    return VerificationResult(Status.VALID)


def construct_A(t: int) -> Code:
    """The locating block code {6i, 6i+1 : 0 <= i < t} on C(6t;1,3).

    Needs t >= 2: C(6;1,3) does not exist because the offset 3 equals n/2.
    The code is a valid locating code for t >= 3.
    """
    t = check_int(t, "t", 2, error=UnsupportedOrder)
    return _tiled_code(6 * t, _LOCATING_NUMERAL, ())


def construct_B(t: int) -> Code:
    """The identifying block code {11i + r : 0 <= i < t, r in {0,1,4,5}} on C(11t;1,3).

    Valid identifying code for every t >= 1.
    """
    t = check_int(t, "t", 1, error=UnsupportedOrder)
    return _tiled_code(11 * t, _IDENTIFYING_NUMERAL, ())


def locating_code_size(n: int) -> int:
    """Size of the code locating_code_for(n) returns: the exact minimum.

    The stored transfer-matrix proof's minimum (``proofs``, recomputed by
    ``circodes prove``), ceil(n/3) + c with c in {0, 1}.
    """
    n = check_int(n, "n", 13, error=UnsupportedOrder,
                  message="no general locating construction for n={value!r} < {lo}")
    return PROOFS[(1, 3), Kind.LOCATING].minimum(n)


def identifying_code_size(n: int) -> int:
    """Size of the code identifying_code_for(n) returns.

    The stored transfer-matrix proof's minimum for n >= 13 (``proofs``,
    recomputed by ``circodes prove``), ceil(4n/11) + c' with c' in {0, 1};
    ceil(4n/11) at n = 11 and 12, below the proof's range.
    """
    n = check_int(n, "n", 11, error=UnsupportedOrder,
                  message="no general identifying construction for n={value!r} < {lo}")
    return PROOFS[(1, 3), Kind.IDENTIFYING].minimum(n) if n >= 13 else -(-4 * n // 11)


def _checked(code: Code, size: int) -> Code:
    """Return code, or raise if a table row disagrees with the stored proof's size."""
    if len(code) != size:
        raise RuntimeError(f"table row for n={code.graph.n} produced size "
                           f"{len(code)}, expected {size}")
    return code


def _tiled_code(n: int, numeral: str, patch: tuple[int, ...]) -> Code:
    """Full blocks from vertex 0, with the tail patch {n + o : o in patch} set."""
    mask = int(numeral * (n // len(numeral)), 2)
    for o in patch:
        mask |= 1 << (n + o)
    return Code.from_mask(CirculantGraph(n), mask)


def locating_code_for(n: int) -> Code:
    """A minimum locating code in C(n;1,3) for n >= 13.

    Whole blocks plus the tail patch of n's residue class (mod 6), of the
    size ``locating_code_size`` reads from the stored proof.
    """
    size = locating_code_size(n)  # checks n: UnsupportedOrder below 13
    return _checked(_tiled_code(n, _LOCATING_NUMERAL, _LOCATING_ROWS[n % 6]), size)


def identifying_code_for(n: int) -> Code:
    """An identifying code in C(n;1,3) for n >= 11, minimum for n >= 13.

    Uses the stored exhaustive-search optima for the five thin orders in
    residue classes 2 and 5 (mod 11), and the block-plus-patch family
    everywhere else, of the size ``identifying_code_size`` reads from the
    stored proof.
    """
    size = identifying_code_size(n)  # checks n: UnsupportedOrder below 11
    if n in _IDENTIFYING_SPECIALS:
        code = Code(CirculantGraph(n), _IDENTIFYING_SPECIALS[n])
    else:
        code = _tiled_code(n, _IDENTIFYING_NUMERAL, _IDENTIFYING_ROWS[n % 11])
    return _checked(code, size)
