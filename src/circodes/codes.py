"""Codes (vertex subsets) and the dominating/locating/identifying verifiers.

Terminology: given a code S, the *shadow* of a vertex u is S intersected
with the closed neighbourhood N[u] = u + P, where P is the graph's closed
pattern (0, +-d_1, ..., +-d_k).  S is dominating when every shadow is
nonempty, a locating code when additionally the shadows of vertices
outside S are pairwise distinct, and an identifying code when the shadows
of *all* vertices are pairwise distinct.

``Code.verify`` checks a whole code at once on its n-bit mask, with no
loop over vertices.  Rotating the mask down by q gives the vertices u
with u + q in S, so:

* u is undominated iff no rotation of the mask by an element of P has
  bit u;
* u and u + d have equal shadows iff S misses u + (P symmetric-difference
  (P + d)), i.e. iff no rotation by an element of that set has bit u.

Equal nonempty shadows share a member, so only d <= 2*dmax can collide.
Each check is a few dozen shifts and ORs of n-bit integers: linear in n.

Shares are exact rationals (`fractions.Fraction`): the thresholds used by
the heavy-vertex classifiers (3 and 11/4) must be compared exactly.  The
shadow sizes behind them come from one sum of rotated membership digits,
computed once per code.

``valid_mask`` is the exhaustive search's leaf check on precomputed
per-vertex masks; at the small n the search reaches it is faster than
the whole-code kernel, and the test suite holds the two to the same
verdicts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

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
    "valid_mask",
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
        g = self.graph
        n = g.n
        mask = self.mask
        full = (1 << n) - 1
        rotations: dict[int, int] = {}

        def seen_from(q: int) -> int:
            """Bit u set iff u + q (mod n) is a member."""
            q %= n
            r = rotations.get(q)
            if r is None:
                r = rotations[q] = ((mask >> q) | (mask << (n - q))) & full
            return r

        pattern = {p % n for p in g.pattern}
        dominated = 0
        for p in pattern:
            dominated |= seen_from(p)
        if dominated != full:
            return VerificationResult(Status.NOT_DOMINATING, _lowest_bit(full & ~dominated))
        if kind is Kind.DOMINATING:
            return VerificationResult(Status.VALID)

        pairs = []  # the smallest colliding pair for each d and side of the wrap
        for d in range(1, min(2 * g.offsets[-1], n - 1) + 1):
            differ = 0
            for q in pattern.symmetric_difference({(p + d) % n for p in pattern}):
                differ |= seen_from(q)
            equal = full & ~differ  # bit u: shadow(u) == shadow(u + d mod n)
            if kind is Kind.LOCATING:
                equal &= ~(mask | seen_from(d))
            # u < n - d gives the pair (u, u + d); a wrapping u = i + n - d
            # gives (i, i + n - d).  Both grow with u, so each side's lowest
            # set bit names its smallest pair.
            split = n - d
            head = equal & ((1 << split) - 1)
            if head:
                u = _lowest_bit(head)
                pairs.append((u, u + d))
            tail = equal >> split
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


def valid_mask(n: int, mask: int, nbhd, reach: int, kind: Kind) -> bool:
    """Boolean-only verifier on raw bitmasks, for search inner loops.

    ``nbhd`` is the tuple of closed-neighbourhood masks and ``reach`` the
    collision window 2*dmax.  Semantics match Code.verify exactly.
    """
    for u in range(n):
        if mask & nbhd[u] == 0:
            return False
    if kind is Kind.DOMINATING:
        return True
    reach = min(reach, n - 1)
    skip_code = kind is Kind.LOCATING
    for u in range(n):
        if skip_code and (mask >> u) & 1:
            continue
        su = mask & nbhd[u]
        for d in range(1, reach + 1):
            v = u + d
            if v >= n:
                v -= n
            if skip_code and (mask >> v) & 1:
                continue
            if su == mask & nbhd[v]:
                return False
    return True


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
