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
share is a multiple of 1/L, L = lcm(1..degree+1).  A code keeps three
whole-code tables, each built once by one helper, ``_tabulate``: each
vertex's membership byte or shadow size is mapped to a fixed-width digit,
and the string of digits is summed over its rotations by the pattern.

* Shadow sizes: the membership digits summed over P give |S & (x + P)|.
* Share units: each size s mapped to L // s, summed over P, give
  L * share(u) for every u (entries of vertices with empty shadows count
  0, so every member's entry is exact in any code).
* Profile keys: each size s mapped to b ** s, b = |P| + 1, summed over P,
  give a key whose base-b digit s counts the x in N[u] with shadow size s.
  The key is the profile of u as a multiset.

Readers index the tables: ``share`` makes one ``Fraction``,
``sum_of_shares`` adds the members' entries, picked by
``itertools.compress`` over the membership bytes, ``heavy_vertices``
compares each member's entry with floor(threshold * L) as integers, and
``profile`` decodes one key through a small cache.  ``sum_of_shares`` and
``heavy_vertices`` read domination from the shadow-size table (a code
dominates iff no size is 0), so they run no kernel pass and ``verify``
stays a pure check.

A code is mask-first: the mask is its only state.  ``Code(graph,
members)`` packs the iterable in one validating pass, in the order given,
and ``Code.from_mask`` takes a mask that the constructions and the search
build directly.  The membership bytes (``circulant._flags``: byte u is 1
when u is a member), the member frozenset (``circulant.set_of``, which
unpacks those bytes by ``compress`` in C) and the tables are derived from
the mask when first read.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from numbers import Number
from typing import NamedTuple

from .circulant import CirculantGraph, _flags, _Frozen, set_of
from .errors import NotInCode, ShareUndefined, VertexOutOfRange, check_int

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
]


class Kind(str, Enum):
    """The three code properties, ordered by strength."""

    DOMINATING = "dominating"
    LOCATING = "locating"
    IDENTIFYING = "identifying"


def _as_kind(kind) -> Kind:
    """The member ``kind`` names: a member as it is, a value such as "locating" by lookup."""
    return kind if type(kind) is Kind else Kind(kind)


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


class VerificationResult(NamedTuple):
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


class Code(_Frozen):
    """A candidate code: a vertex subset of a circulant graph, held as its mask.

    Bit u of ``mask`` is set when vertex u is a member.  ``Code(graph,
    members)`` packs and validates an iterable of vertices, ``from_mask``
    takes the mask itself, and ``members`` is unpacked from the mask when
    first read.  Equality, hashing, ``len``, ``in`` and pickling read the
    mask, never the member set.  A code is immutable: assigning or deleting
    an attribute raises ``AttributeError``.
    """

    graph: CirculantGraph
    mask: int

    def __init__(self, graph: CirculantGraph, members: Iterable[int]):
        n = graph.n
        digits = bytearray(b"0") * n
        for v in members:
            if type(v) is not int or not 0 <= v < n:
                graph.check_vertex(v)  # raises, unless v is an int subclass
            digits[v] = 49  # ord("1")
        digits.reverse()  # a base-2 numeral, vertex 0 last
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "mask", int(digits, 2))

    @classmethod
    def from_mask(cls, graph: CirculantGraph, mask: int) -> Code:
        """The code whose members are the set bits of ``mask``, 0 <= mask < 2**n."""
        mask = check_int(mask, "mask", 0)
        if mask.bit_length() > graph.n:
            raise VertexOutOfRange(f"vertex {mask.bit_length() - 1} not in 0..{graph.n - 1}")
        code = object.__new__(cls)
        object.__setattr__(code, "graph", graph)
        object.__setattr__(code, "mask", mask)
        return code

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.graph == other.graph

    def __hash__(self) -> int:
        return hash((self.graph, self.mask))

    def __reduce__(self):
        # the cached tables are memoryviews, which do not pickle
        return type(self).from_mask, (self.graph, self.mask)

    @cached_property
    def _membership(self) -> bytes:
        """Byte u is 1 when u is a member, else 0: n bytes, indexed by u."""
        return _flags(self.mask).ljust(self.graph.n, b"\0")

    @cached_property
    def members(self) -> frozenset[int]:
        """The member vertices, unpacked from the mask in C on first read."""
        return set_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v) -> bool:
        if type(v) is int:
            return 0 <= v < self.graph.n and self._membership[v] == 1
        return v in self.members  # as a set compares: True, 2.0, an IntEnum

    def __repr__(self) -> str:
        return f"Code({self.graph!r}, {{{','.join(map(str, sorted(self.members)))}}})"

    # -- shadows and profiles -------------------------------------------

    def shadow(self, u: int) -> frozenset[int]:
        """S intersected with N[u]: the code vertices visible from u."""
        flags = self._membership
        return frozenset(x for x in self.graph.closed_neighborhood(u) if flags[x])

    @cached_property
    def _shadow_sizes(self) -> Sequence[int]:
        """|shadow(x)| for every vertex x, indexed by x."""
        return _tabulate(self._membership, (0, 1), self.graph)

    @cached_property
    def _profile_keys(self) -> Sequence[int]:
        """The sum of b ** |shadow(x)| over x in N[u], for every vertex u.

        With b = |P| + 1, base-b digit s of u's key counts the x in N[u]
        with |shadow(x)| = s: the multiset that ``profile`` lists.
        """
        size = len(self.graph.pattern)
        return _tabulate(self._shadow_sizes, [(size + 1) ** s for s in range(size + 1)],
                         self.graph)

    def profile(self, u: int) -> tuple[int, ...]:
        """Shadow sizes over N[u], in ascending order."""
        g = self.graph
        if type(u) is not int or not 0 <= u < g.n:
            g.check_vertex(u)  # raises, unless u is an int subclass
        return _profile_of(self._profile_keys[u], len(g.pattern))

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
        scale = self._share_scale
        return _tabulate(self._shadow_sizes,
                         [scale // s if s else 0 for s in range(len(self.graph.pattern) + 1)],
                         self.graph)

    def share(self, u: int) -> Fraction:
        """Sum of 1/|shadow(x)| over x in N[u], for a code vertex u.

        Every x in N[u] has u in its shadow, so a member's share exists in
        any code, dominating or not; a non-member raises ``NotInCode``.
        """
        u = self.graph.check_vertex(u)
        if not self._membership[u]:
            raise NotInCode(f"vertex {u} is not in the code")
        return Fraction(self._share_units[u], self._share_scale)

    def sum_of_shares(self) -> Fraction:
        """Total share of all code vertices, n; ``ShareUndefined`` if a shadow size is 0."""
        if 0 in self._shadow_sizes:
            raise ShareUndefined("shares are only defined for dominating codes")
        units = self._share_units
        return Fraction(sum(compress(units, self._membership)), self._share_scale)

    def heavy_vertices(self, threshold: Fraction | int) -> list[int]:
        """Members with share > threshold, ascending; ``ShareUndefined`` if a shadow size is 0."""
        if 0 in self._shadow_sizes:
            raise ShareUndefined("shares are only defined for dominating codes")
        # units are integers: units > threshold * L iff units > floor(threshold * L)
        try:
            if not isinstance(threshold, Number):
                raise TypeError  # "3" * L would repeat the string
            limit = math.floor(threshold * self._share_scale)
        except OverflowError:  # an infinite threshold
            if threshold > 0:
                return []
            limit = -1  # a member's units, L times a share of at least 1, exceed it
        except (TypeError, ValueError):  # not a number, or NaN
            raise ValueError(f"threshold {threshold!r} is not a number") from None
        units = self._share_units
        return sorted([u for u in self.members if units[u] > limit])

    # -- verification ------------------------------------------------------

    def verify(self, kind: Kind) -> VerificationResult:
        """Check the code property, returning a witness on failure."""
        kind = _as_kind(kind)
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


def _digit_width(top: int) -> int:
    """Bytes per digit for values up to ``top``: a power of two."""
    return 1 << ((top.bit_length() + 7) // 8 - 1).bit_length()


def _tabulate(keys: Sequence[int], values: Sequence[int], graph: CirculantGraph) -> Sequence[int]:
    """Entry x of the result is the sum of values[keys[x + p]] (mod n) over p in P.

    Each key maps to its value as a fixed-width digit, then ``_rotated_sum``
    adds the rotations.  Keys held as bytes map by ``bytes.translate``, which
    maps every vertex at once, one byte of the digit at a time.
    """
    pattern = graph.pattern
    width = _digit_width(len(pattern) * max(values))
    digit = [v.to_bytes(width, _ORDER) for v in values]
    if isinstance(keys, bytes):
        # byte j of every digit, in key order: the table that maps byte j
        table = b"".join(digit)
        digits = bytearray(graph.n * width)
        for j in range(width):
            digits[j::width] = keys.translate(table[j::width].ljust(256, b"\0"))
    else:
        digits = b"".join(map(digit.__getitem__, keys))
    return _rotated_sum(digits, width, pattern, graph.n)


@lru_cache(maxsize=256)
def _profile_of(key: int, size: int) -> tuple[int, ...]:
    """The ascending shadow sizes that a profile key counts, |P| = ``size``.

    A profile on a 5-element pattern is a multiset of five sizes in 0..5,
    one of C(10, 5) = 252, so the cache holds every profile of a ``{1,3}``
    code.
    """
    out = []
    for s in range(size + 1):
        key, count = divmod(key, size + 1)
        out += [s] * count
    return tuple(out)


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
    # wider than any memoryview format: share units from degree 42 up, and
    # profile keys from 8 offsets up
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
    kind = _as_kind(kind)
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
