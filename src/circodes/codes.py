"""Codes (vertex subsets) and the dominating/locating/identifying verifiers.

Terminology: given a code S, the *shadow* of a vertex u is S intersected
with the closed neighbourhood N[u] = u + P, where P is the graph's closed
pattern (0, +-d_1, ..., +-d_k).  S is dominating when every shadow is
nonempty, a locating code when additionally the shadows of vertices
outside S are pairwise distinct, and an identifying code when the shadows
of *all* vertices are pairwise distinct.

Every whole-code check reads one kernel, ``defects``, on the code's n-bit
mask, with no loop over vertices.  Rotating the mask down by q gives the
vertices u with u + q in S, so:

* u is undominated iff no rotation of the mask by an element of P has
  bit u;
* u and u + d have equal shadows iff S misses u + (P symmetric-difference
  (P + d)), i.e. iff no rotation by an element of that set has bit u.

Equal nonempty shadows share a member, so only d <= 2*dmax can collide.
Each check is a few dozen shifts and ORs of n-bit integers: linear in n.
``Code.verify`` picks its witness from the kernel's bits, the exhaustive
search fills its pruning rows from it and asks it whether a leaf that the
rows pass is valid, and ``verify_periodic`` runs it on a finite lift of the
periodic code.

Shares are exact rationals (`fractions.Fraction`): the thresholds used by
the heavy-vertex classifiers (3 and 11/4) must be compared exactly.  Every
share is a multiple of 1/L, L = lcm(1..degree+1), so a code keeps two
whole-code tables, each built once by one helper, ``_rotated_sum``: a
string of per-vertex digits, summed over its rotations by the pattern.

* Shadow sizes: the membership digits summed over P give |S & (x + P)|.
* Share units: each size s mapped to L // s, summed over P, give
  L * share(u) for every u (entries of vertices with empty shadows count
  0, so every member's entry is exact in any code).

Readers index the tables: ``share`` makes one ``Fraction``,
``sum_of_shares`` adds the members' entries, and ``heavy_vertices``
compares each entry with floor(threshold * L) as integers.  The code's
mask is packed while its members are validated, in one pass.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .circulant import CirculantGraph
from .errors import NotInCode, ShareUndefined

__all__ = [
    "Kind",
    "Status",
    "VerificationResult",
    "Code",
    "LOCATING_HEAVY_THRESHOLD",
    "IDENTIFYING_HEAVY_THRESHOLD",
    "LOCATING_HEAVY_PROFILES",
    "IDENTIFYING_HEAVY_PROFILES",
    "heavy_profile_violations",
    "defects",
]


class Kind(str, Enum):
    """The three code properties, ordered by strength."""

    DOMINATING = "dominating"
    LOCATING = "locating"
    IDENTIFYING = "identifying"


class Status(str, Enum):
    VALID = "valid"
    NOT_DOMINATING = "not-dominating"
    NOT_LOCATING = "not-locating"
    NOT_IDENTIFYING = "not-identifying"


_FAIL_STATUS = {Kind.LOCATING: Status.NOT_LOCATING, Kind.IDENTIFYING: Status.NOT_IDENTIFYING}

# Share thresholds beyond which a code vertex is called heavy, and the
# only shadow-size profiles a heavy vertex can then have (n >= 13).
LOCATING_HEAVY_THRESHOLD = Fraction(3)
IDENTIFYING_HEAVY_THRESHOLD = Fraction(11, 4)
LOCATING_HEAVY_PROFILES = frozenset({(1, 1, 2, 2, 3), (1, 1, 2, 3, 4)})
IDENTIFYING_HEAVY_PROFILES = frozenset({(1, 2, 2, 2, 3)})


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a code-property check, with a concrete refutation.

    ``witness`` is None when valid, the smallest vertex with an empty
    shadow when domination fails, and otherwise the lexicographically
    smallest pair (u, v), u < v, of vertices with equal shadows.
    """

    status: Status
    witness: int | tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status is Status.VALID

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Code:
    """A candidate code: a vertex subset of a circulant graph."""

    graph: CirculantGraph
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        n = self.graph.n
        digits = bytearray(b"0") * n
        for v in members:
            if type(v) is not int or not 0 <= v < n:
                self.graph.check_vertex(v)  # raises, unless v is an int subclass
            digits[v] = 49  # ord("1")
        digits.reverse()  # a base-2 numeral, vertex 0 last
        object.__setattr__(self, "mask", int(digits, 2))

    def __reduce__(self):
        # the cached tables are memoryviews, which do not pickle
        return type(self), (self.graph, self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __repr__(self) -> str:
        return f"Code({self.graph!r}, {{{','.join(map(str, sorted(self.members)))}}})"

    # -- shadows and profiles -------------------------------------------

    def shadow(self, u: int) -> frozenset[int]:
        """S intersected with N[u]: the code vertices visible from u."""
        members = self.members
        return frozenset(x for x in self.graph.closed_neighborhood(u) if x in members)

    @cached_property
    def _shadow_sizes(self) -> Sequence[int]:
        """|shadow(x)| for every vertex x, indexed by x."""
        g = self.graph
        n = g.n
        width = _digit_width(len(g.pattern))
        digits = bytearray(n * width)
        low = 0 if _ORDER == "little" else width - 1  # a digit's low byte
        # byte x of the reversed numeral is 1 iff x is a member
        digits[low::width] = f"{self.mask:0{n}b}".encode()[::-1].translate(_BITS)
        return _rotated_sum(digits, width, g.pattern, n)

    def profile(self, u: int) -> tuple[int, ...]:
        """Shadow sizes over N[u], in ascending order."""
        n = self.graph.n
        if type(u) is not int or not 0 <= u < n:
            self.graph.check_vertex(u)  # raises, unless u is an int subclass
        sizes = self._shadow_sizes
        return tuple(sorted([sizes[(u + p) % n] for p in self.graph.pattern]))

    # -- shares ----------------------------------------------------------

    @cached_property
    def _share_scale(self) -> int:
        """L = lcm(1..degree+1): every share is an integer multiple of 1/L."""
        return math.lcm(*range(1, len(self.graph.pattern) + 1))

    @cached_property
    def _share_units(self) -> Sequence[int]:
        """L times the share of u, for every vertex u, indexed by u.

        Each shadow size s maps to the digit L // s (0 for an empty shadow),
        and the digits summed over N[u] = u + P give L * share(u).  A member
        u lies in the shadow of every x in N[u], so its entry never meets an
        empty shadow.
        """
        g = self.graph
        scale = self._share_scale
        sizes = self._shadow_sizes
        width = _digit_width(len(g.pattern) * scale)
        digit = [(scale // s if s else 0).to_bytes(width, _ORDER)
                 for s in range(len(g.pattern) + 1)]
        if isinstance(sizes, bytes):
            # one byte per size: translate maps every vertex at once, a byte
            # of the digit at a time
            units = bytearray(g.n * width)
            for j in range(width):
                units[j::width] = sizes.translate(bytes(d[j] for d in digit).ljust(256, b"\0"))
        else:
            units = b"".join(map(digit.__getitem__, sizes))
        return _rotated_sum(units, width, g.pattern, g.n)

    def share(self, u: int) -> Fraction:
        """Sum of 1/|shadow(x)| over x in N[u], for a code vertex u.

        Every x in N[u] has u in its shadow, so a member's share exists in
        any code, dominating or not; a non-member raises ``NotInCode``.
        """
        self.graph.check_vertex(u)
        if u not in self.members:
            raise NotInCode(f"vertex {u} is not in the code")
        return Fraction(self._share_units[u], self._share_scale)

    def sum_of_shares(self) -> Fraction:
        """Total share of all code vertices; equals n for dominating codes."""
        if not self.is_dominating():
            raise ShareUndefined("shares are only defined for dominating codes")
        units = self._share_units
        return Fraction(sum([units[u] for u in self.members]), self._share_scale)

    def heavy_vertices(self, threshold: Fraction | int) -> list[int]:
        """Code vertices whose share strictly exceeds the threshold."""
        if not self.is_dominating():
            raise ShareUndefined("shares are only defined for dominating codes")
        # units are integers: units > threshold * L iff units > floor(threshold * L)
        limit = math.floor(threshold * self._share_scale)
        units = self._share_units
        return sorted([u for u in self.members if units[u] > limit])

    # -- verification ------------------------------------------------------

    def verify(self, kind: Kind) -> VerificationResult:
        """Check the code property, returning a witness on failure."""
        n = self.graph.n
        pairs = []  # the smallest colliding pair for each d and side of the wrap
        for d, bits in defects(n, self.mask, self.graph.pattern, kind):
            if not d:
                return VerificationResult(Status.NOT_DOMINATING, _lowest_bit(bits))
            # u < n - d gives the pair (u, u + d); a wrapping u = i + n - d
            # gives (i, i + n - d).  Both grow with u, so each side's lowest
            # set bit names its smallest pair.
            split = n - d
            head = bits & ((1 << split) - 1)
            if head:
                u = _lowest_bit(head)
                pairs.append((u, u + d))
            tail = bits >> split
            if tail:
                i = _lowest_bit(tail)
                pairs.append((i, i + split))
        if pairs:
            return VerificationResult(_FAIL_STATUS[kind], min(pairs))
        return VerificationResult(Status.VALID)

    def is_dominating(self) -> VerificationResult:
        return self.verify(Kind.DOMINATING)

    def is_locating(self) -> VerificationResult:
        return self.verify(Kind.LOCATING)

    def is_identifying(self) -> VerificationResult:
        return self.verify(Kind.IDENTIFYING)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# Tables are strings of fixed-width digits in the machine's byte order, so
# that memoryview.cast reads them; _FORMATS maps a width to its format.
_ORDER = sys.byteorder
_FORMATS = {struct.calcsize(f): f for f in "QIHB"}
_BITS = bytes.maketrans(b"01", b"\0\1")


def _digit_width(top: int) -> int:
    """Bytes per digit for values up to ``top``: a power of two."""
    return 1 << ((top.bit_length() + 7) // 8 - 1).bit_length()


def _rotated_sum(digits: bytes, width: int, pattern: tuple[int, ...], n: int) -> Sequence[int]:
    """Digit x of the result is the sum of digits x + p (mod n) over p in P.

    ``digits`` holds n digits of ``width`` bytes, wide enough that no sum
    carries into the next digit, so one sum of big integers adds every
    digit at once.  The result is indexed by x.
    """
    size = n * width
    doubled = memoryview(digits * 2)
    total = 0
    for p in pattern:
        k = (p % n) * width
        total += int.from_bytes(doubled[k:k + size], _ORDER)
    out = total.to_bytes(size, _ORDER)
    if width == 1:
        return out
    if width in _FORMATS:
        return memoryview(out).cast(_FORMATS[width])
    # wider than any memoryview format: share units from degree 42 up
    return [int.from_bytes(out[i:i + width], _ORDER) for i in range(0, size, width)]


@lru_cache(maxsize=64)
def _probes(n: int, pattern: tuple[int, ...]):
    """The rotations ``defects`` ORs, all in 0..n-1.

    P itself, then for each d <= 2*dmax the symmetric difference of P and P + d.
    """
    base = {p % n for p in pattern}
    return tuple(base), tuple(
        (d, tuple(base.symmetric_difference({(p + d) % n for p in base})))
        for d in range(1, min(2 * max(pattern), n - 1) + 1))


def defects(n: int, mask: int, pattern: tuple[int, ...], kind: Kind,
            anchors: int | None = None) -> Iterator[tuple[int, int]]:
    """The constraints that the code ``mask`` on Z_n with closed pattern P breaks.

    Yields ``(0, undominated)`` and stops if some shadow is empty.  Otherwise,
    for locating and identifying codes, yields ``(d, equal)`` for each
    d <= 2*dmax where bit u of ``equal`` marks u and u + d (mod n) with equal
    shadows (for locating codes, only pairs outside the code).  A valid
    code yields nothing.

    ``anchors``, a mask of vertices, restricts the checks to those u: the
    shadow of u and its pairs (u, u + d).  Such a check reads only the bits
    u - dmax .. u + 3*dmax, so on n = 4*dmax + 1 with the single anchor dmax
    it is the check of one window of a longer cycle.
    """
    dominate, collide = _probes(n, pattern)
    full = (1 << n) - 1 if anchors is None else anchors
    doubled = mask | mask << n  # bit u of doubled >> q is member u + q mod n
    seen = 0
    for q in dominate:
        seen |= doubled >> q
    if seen & full != full:
        yield 0, full & ~seen
        return
    if kind is Kind.DOMINATING:
        return
    locating = kind is Kind.LOCATING
    for d, probe in collide:
        # a locating code exempts the pair when u or u + d is a member
        seen = mask | doubled >> d if locating else 0
        for q in probe:
            seen |= doubled >> q
        if seen & full != full:
            yield d, full & ~seen


def heavy_profile_violations(code: Code, kind: Kind) -> list[tuple[int, tuple[int, ...]]]:
    """Vertices breaking the heavy-vertex profile classification.

    In a valid locating code every vertex with share > 3 must have
    profile (1,1,2,2,3) or (1,1,2,3,4); in a valid identifying code every
    vertex with share > 11/4 must have profile (1,2,2,2,3).  Returns the
    offending (vertex, profile) pairs, empty when the classifier holds.
    """
    if kind is Kind.LOCATING:
        threshold, allowed = LOCATING_HEAVY_THRESHOLD, LOCATING_HEAVY_PROFILES
    elif kind is Kind.IDENTIFYING:
        threshold, allowed = IDENTIFYING_HEAVY_THRESHOLD, IDENTIFYING_HEAVY_PROFILES
    else:
        raise ValueError("heavy-vertex profiles apply to locating/identifying codes")
    out = []
    for u in code.heavy_vertices(threshold):
        prof = code.profile(u)
        if prof not in allowed:
            out.append((u, prof))
    return out
