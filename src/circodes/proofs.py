"""Stored transfer-matrix proofs of the exact minimum code size.

A ``Proof`` is what ``transfer.solve`` computes for one offset set and one
kind: the min-plus distance matrix D(m) of its window graph (see
``transfer``) satisfies D(m + period) = D(m) + increment for every
m >= onset, so for every n >= first the minimum code size of C(n; offsets)
is read from the minima stored for first <= n < max(onset, first) + period,
shifted by whole periods.  ``circodes prove`` recomputes an artifact and
compares it with the one stored here.

The search answers the minimum of a proved (offsets, kind) from this table
without searching; this module holds only the literals and their lookup,
so reading it costs neither the solver nor its memory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .codes import Kind
from .errors import check_int

__all__ = ["Proof", "PROOFS", "proof_for"]


class Proof(NamedTuple):
    """One transfer-matrix proof: the minimum code size for every n >= first."""

    offsets: tuple[int, ...]
    kind: Kind
    live_states: int    # window-graph states left once dead ends are trimmed
    onset: int          # first m with D(m + period) = D(m) + increment
    period: int
    increment: int
    first: int          # smallest n the window graph models: 4*dmax + 1
    minima: tuple       # minimum size for n = first, first + 1, ...; None: no code

    @property
    def density(self) -> Fraction:
        """The least density of a code on the infinite graph: increment / period."""
        return Fraction(self.increment, self.period)

    def minimum(self, n: int) -> int | None:
        """The minimum code size of C(n; offsets), n >= first (None: no code exists)."""
        n = check_int(n, "n", self.first)
        end = self.first + len(self.minima)
        steps = max(0, -(-(n - end + 1) // self.period))
        size = self.minima[n - steps * self.period - self.first]
        return None if size is None else size + steps * self.increment


PROOFS = {
    ((1, 3), Kind.LOCATING): Proof(
        offsets=(1, 3), kind=Kind.LOCATING, live_states=2908, onset=66,
        period=6, increment=2, first=13, minima=(
            5, 6, 6, 6, 7, 6, 7, 8, 8, 8, 9, 8, 9, 10, 10, 10, 11, 10, 11, 12, 12,
            12, 13, 12, 13, 14, 14, 14, 15, 14, 15, 16, 16, 16, 17, 16, 17, 18, 18,
            18, 19, 18, 19, 20, 20, 20, 21, 20, 21, 22, 22, 22, 23, 22, 23, 24, 24,
            24, 25,
        )),
    ((1, 3), Kind.IDENTIFYING): Proof(
        offsets=(1, 3), kind=Kind.IDENTIFYING, live_states=2834, onset=107,
        period=11, increment=4, first=13, minima=(
            5, 6, 6, 6, 7, 7, 8, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 12, 12, 12, 12,
            13, 13, 14, 14, 15, 15, 15, 16, 16, 16, 16, 17, 18, 18, 18, 19, 19, 19,
            20, 20, 20, 20, 21, 22, 22, 22, 23, 23, 23, 24, 24, 24, 24, 25, 26, 26,
            26, 27, 27, 27, 28, 28, 28, 28, 29, 30, 30, 30, 31, 31, 31, 32, 32, 32,
            32, 33, 34, 34, 34, 35, 35, 35, 36, 36, 36, 36, 37, 38, 38, 38, 39, 39,
            39, 40, 40, 40, 40, 41, 42, 42, 42, 43, 43, 43,
        )),
}


def proof_for(offsets: tuple[int, ...], kind: Kind, n: int) -> Proof | None:
    """The stored proof that covers C(n; offsets), or None."""
    proof = PROOFS.get((tuple(sorted(offsets)), kind))
    return proof if proof is not None and n >= proof.first else None
