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
search asks it whether a leaf is valid, and ``verify_periodic`` runs it on
a finite lift of the periodic code.

Shares are exact rationals (`fractions.Fraction`): the thresholds used by
the heavy-vertex classifiers (3 and 11/4) must be compared exactly.  The
shadow sizes behind them come from one sum of rotated membership digits,
computed once per code.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .circulant import CirculantGraph, mask_of, set_of
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
        if not (all(type(v) is int for v in members)
                and 0 <= min(members, default=0) and max(members, default=0) < n):
            for v in members:
                self.graph.check_vertex(v)  # raises on the offending vertex

    @classmethod
    def from_mask(cls, graph: CirculantGraph, mask: int) -> "Code":
        return cls(graph, set_of(mask))

    @cached_property
    def mask(self) -> int:
        return mask_of(self.members)

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
        """|shadow(x)| for every vertex x, indexed by x.

        One digit per vertex holds its membership bit; the sum of the
        digit strings rotated by each pattern element counts, in digit x,
        the members of x + P.  Digits are wide enough that no sum carries.
        """
        g = self.graph
        n = g.n
        width = (len(g.pattern).bit_length() + 7) // 8
        digits = bytearray(n * width)
        for v in self.members:
            digits[v * width] = 1
        digits = bytes(digits)
        total = 0
        for p in g.pattern:
            k = (p % n) * width
            total += int.from_bytes(digits[k:] + digits[:k], "little")
        sizes = total.to_bytes(n * width, "little")
        if width == 1:
            return sizes
        return [int.from_bytes(sizes[i:i + width], "little")
                for i in range(0, n * width, width)]

    def profile(self, u: int) -> tuple[int, ...]:
        """Shadow sizes over N[u], in ascending order."""
        sizes = self._shadow_sizes
        return tuple(sorted(sizes[x] for x in self.graph.closed_neighborhood(u)))

    # -- shares ----------------------------------------------------------

    @cached_property
    def _share_scale(self) -> int:
        """L = lcm(1..degree+1): every share is an integer multiple of 1/L."""
        return math.lcm(*range(1, len(self.graph.pattern) + 1))

    def _share_units(self, u: int) -> int:
        """L times the share of u: the sum of L // |shadow(x)| over x in N[u]."""
        sizes = self._shadow_sizes
        scale = self._share_scale
        n = self.graph.n
        total = 0
        for p in self.graph.pattern:
            x = (u + p) % n
            size = sizes[x]
            if size == 0:
                raise ShareUndefined(f"vertex {x} has an empty shadow")
            total += scale // size
        return total

    def share(self, u: int) -> Fraction:
        """Sum of 1/|shadow(x)| over x in N[u], for a code vertex u.

        Defined only for members of a dominating code; the empty-shadow
        and non-member cases raise rather than returning a junk value.
        """
        self.graph.check_vertex(u)
        if u not in self.members:
            raise NotInCode(f"vertex {u} is not in the code")
        return Fraction(self._share_units(u), self._share_scale)

    def sum_of_shares(self) -> Fraction:
        """Total share of all code vertices; equals n for dominating codes."""
        if not self.is_dominating():
            raise ShareUndefined("shares are only defined for dominating codes")
        return Fraction(sum(map(self._share_units, self.members)), self._share_scale)

    def heavy_vertices(self, threshold: Fraction | int) -> list[int]:
        """Code vertices whose share strictly exceeds the threshold."""
        if not self.is_dominating():
            raise ShareUndefined("shares are only defined for dominating codes")
        limit = threshold * self._share_scale
        return [u for u in sorted(self.members) if self._share_units(u) > limit]

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
