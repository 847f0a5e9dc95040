"""Circulant graphs on Z_n and their neighbourhood/distance queries.

A circulant graph C(n; d_1,...,d_k) has vertex set Z_n = {0,...,n-1},
with x and y adjacent exactly when the circular difference
min(|x-y|, n-|x-y|) is one of the offsets d_i.  Offsets must satisfy
1 <= d < n/2, so the graph is simple, loop-free and 2k-regular.

A graph stores only n, its offsets and its closed pattern
(0, +d_1, -d_1, ..., +d_k, -d_k): N[u] is u plus the pattern, mod n, so
every neighbourhood query costs O(degree) and a graph costs O(k) memory
whatever n is.  No library code reads per-vertex closed-neighbourhood
bitmasks; ``_closed_masks`` builds them for the benchmark's trace counter
(``bench/spans.py``) only.

Vertex subsets are handled as int bitmasks (bit u set means vertex u is
in the set); ``mask_of`` and ``set_of`` convert in linear time.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import DuplicateOffset, OffsetOutOfRange, VertexOutOfRange

__all__ = ["CirculantGraph", "mask_of", "set_of"]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack nonnegative vertices into a bitmask, in linear time.

    One ASCII digit per vertex, read as a base-2 numeral.
    """
    vertices = list(vertices)
    if not vertices:
        return 0
    if min(vertices) < 0:
        raise ValueError(f"vertices must be nonnegative, got {min(vertices)}")
    digits = bytearray(b"0") * (max(vertices) + 1)
    for v in vertices:
        digits[v] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def set_of(mask: int) -> frozenset[int]:
    """Unpack a nonnegative bitmask into a frozenset of vertices, in linear time."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    return frozenset(i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")


class CirculantGraph:
    """The circulant graph C(n; d_1,...,d_k).

    Immutable after construction; all query methods are pure, so
    instances are safe to share between threads.
    """

    __slots__ = ("n", "offsets", "pattern")

    def __init__(self, n: int, offsets: Iterable[int] = (1, 3)):
        offsets = tuple(offsets)
        if n < 3:
            raise OffsetOutOfRange(f"need n >= 3, got n={n}")
        if not offsets:
            raise OffsetOutOfRange("offset set must be nonempty")
        if len(set(offsets)) != len(offsets):
            raise DuplicateOffset(f"duplicate offsets in {offsets}")
        for d in offsets:
            if d <= 0 or 2 * d >= n:
                raise OffsetOutOfRange(
                    f"offset {d} out of range: need 1 <= d < n/2 = {n / 2}"
                )
        self.n = n
        self.offsets = tuple(sorted(offsets))
        # N[u] = {u + p mod n : p in pattern}.  The 2k+1 residues are
        # distinct because every offset is below n/2.
        pattern = [0]
        for d in self.offsets:
            pattern += (d, -d)
        self.pattern = tuple(pattern)

    @property
    def _closed_masks(self) -> tuple[int, ...]:
        """Closed-neighbourhood bitmask of every vertex: O(n^2) bits.

        No library code reads it: the search takes its pruning from
        ``codes.defects``.  It stays only because the benchmark's trace
        counter (``bench/spans.py``) reads it, once per graph.
        """
        n = self.n
        return tuple(sum(1 << (u + p) % n for p in self.pattern) for u in range(n))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Common degree 2k of every vertex."""
        return 2 * len(self.offsets)

    def check_vertex(self, u: int) -> None:
        """Reject anything that is not a canonical residue 0..n-1.

        Negative inputs are rejected rather than normalized: silently
        aliasing -3 to n-3 would make bad test vectors undetectable.
        """
        if not isinstance(u, int) or isinstance(u, bool) or not 0 <= u < self.n:
            raise VertexOutOfRange(f"vertex {u!r} not in 0..{self.n - 1}")

    def is_adjacent(self, x: int, y: int) -> bool:
        self.check_vertex(x)
        self.check_vertex(y)
        diff = abs(x - y)
        return min(diff, self.n - diff) in self.offsets

    def closed_neighborhood(self, u: int) -> frozenset[int]:
        """N[u] as a frozenset."""
        self.check_vertex(u)
        n = self.n
        return frozenset((u + p) % n for p in self.pattern)

    def neighbors(self, u: int) -> frozenset[int]:
        """Open neighbourhood N(u)."""
        return self.closed_neighborhood(u) - {u}

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted pairs (x, y) with x < y, in ascending order."""
        n = self.n
        return sorted((min(x, y), max(x, y))
                      for x in range(n) for y in ((x + d) % n for d in self.offsets))

    def ball(self, u: int, r: int) -> frozenset[int]:
        """Vertices at graph distance <= r from u (the set N_r[u]).

        ball(u, 0) == {u} and ball(u, 1) == closed_neighborhood(u);
        the ball stabilizes at all of Z_n once r reaches the diameter.
        """
        self.check_vertex(u)
        if r < 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        n = self.n
        seen = {u}
        frontier = [u]
        for _ in range(r):
            frontier = [y for y in {(x + p) % n for x in frontier for p in self.pattern}
                        if y not in seen]
            if not frontier:
                break
            seen.update(frontier)
        return frozenset(seen)

    # -- dunder --------------------------------------------------------

    def __repr__(self) -> str:
        return f"C({self.n}; {','.join(map(str, self.offsets))})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CirculantGraph)
            and self.n == other.n
            and self.offsets == other.offsets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.offsets))
