"""Circulant graphs on Z_n and their neighbourhood/distance queries.

A circulant graph C(n; d_1,...,d_k) has vertex set Z_n = {0,...,n-1},
with x and y adjacent exactly when the circular difference
min(|x-y|, n-|x-y|) is one of the offsets d_i.  Offsets must satisfy
1 <= d < n/2, so the graph is simple, loop-free and 2k-regular.  The
order, the offsets, vertices and radii are checked by ``errors.check_int``.

A graph stores only n, its offsets and its closed pattern
(0, +d_1, -d_1, ..., +d_k, -d_k): N[u] is u plus the pattern, mod n, so
every neighbourhood query costs O(degree) and a graph costs O(k) memory
whatever n is.  No library code reads per-vertex closed-neighbourhood
bitmasks; ``_closed_masks`` builds them for the benchmark's trace counter
(``bench/spans.py``) only.

Vertex subsets are handled as int bitmasks (bit u set means vertex u is
in the set).  ``Code`` packs its members into one; ``set_of``, a helper
of this module that the package does not export, unpacks a mask in
linear time, through ``_flags``, one byte per vertex made from the mask's
base-2 numeral, which ``itertools.compress`` turns into the vertices in C.
``Code.members`` is ``set_of`` of the code's mask, and ``Code`` reads the
same bytes for its share tables.

The three value types, ``CirculantGraph``, ``codes.Code`` and
``constructions.PeriodicCode``, derive from ``_Frozen``, the one
definition of their immutability.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, count

from .errors import DuplicateOffset, OffsetOutOfRange, VertexOutOfRange, check_int

__all__ = ["CirculantGraph"]


def set_of(mask: int) -> frozenset[int]:
    """Unpack a nonnegative bitmask into a frozenset of vertices, in linear time."""
    return frozenset(compress(count(), _flags(check_int(mask, "mask", 0))))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """Byte x is 1 where bit x of the nonnegative ``mask`` is set, else 0.

    The mask's base-2 numeral, reversed so that byte x stands for bit x,
    with its digits mapped to 0 and 1: one byte per bit up to the top set
    bit (one zero byte for 0).  ``compress`` over these bytes picks the
    set bits in ascending order, in C.
    """
    return bin(mask)[:1:-1].encode().translate(_BITS)


class _Frozen:
    """Base of the immutable value types: assigning or deleting an attribute raises.

    Its ``__slots__`` is empty, so a slotted subclass such as
    ``CirculantGraph`` gets no ``__dict__``.  Constructors use
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CirculantGraph(_Frozen):
    """The circulant graph C(n; d_1,...,d_k).

    Immutable after construction; all query methods are pure, so
    instances are safe to share between threads.
    """

    __slots__ = ("n", "offsets", "pattern")

    def __init__(self, n: int, offsets: Iterable[int] = (1, 3)):
        n = check_int(n, "n", 3, None, OffsetOutOfRange)
        offsets = tuple([check_int(d, "offset", 1, (n - 1) // 2, OffsetOutOfRange)
                         for d in offsets])
        if not offsets:
            raise OffsetOutOfRange("offset set must be nonempty")
        if len(set(offsets)) != len(offsets):
            raise DuplicateOffset(f"duplicate offsets in {offsets}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "offsets", tuple(sorted(offsets)))
        # N[u] = {u + p mod n : p in pattern}.  The 2k+1 residues are
        # distinct because every offset is below n/2.
        object.__setattr__(self, "pattern", (0, *[p for d in self.offsets for p in (d, -d)]))

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

    def check_vertex(self, u: int) -> int:
        """``u`` as a plain int; anything but a canonical residue 0..n-1 is rejected.

        Negative inputs are rejected rather than normalized: silently
        aliasing -3 to n-3 would make bad test vectors undetectable.
        """
        return check_int(u, "vertex", 0, self.n - 1, VertexOutOfRange,
                         "vertex {value!r} not in 0..{hi}", any_value=True)

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
        u = self.check_vertex(u)
        r = check_int(r, "radius", 0)
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

    def __reduce__(self):
        # slots without __getstate__ do not pickle at protocols 0 and 1
        return CirculantGraph, (self.n, self.offsets)
