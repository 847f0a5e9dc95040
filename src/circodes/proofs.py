"""Stored transfer-matrix proofs of the exact minimum code size.

A ``Proof`` is what ``transfer.solve`` computes for one offset set and one
kind, stored as the theorem it proves: for every n >= first the minimum
code size of C(n; offsets) is ceil(n * increment / period) plus an excess
digit.  The digits of first <= n < max(onset, first) + period are stored;
past them the digit repeats with the period, since D(m + period) = D(m) +
increment for m >= onset (see ``transfer``) and ceil((n + p) * c / p) =
ceil(n * c / p) + c.  ``circodes prove`` recomputes an artifact and
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
    excess: str         # minimum - ceil(n * density) for n = first, first + 1, ...; "-": no code

    @classmethod
    def from_minima(cls, offsets, kind, live_states, onset, period, increment, first, minima):
        """The proof whose minimum sizes for n = first, first + 1, ... are ``minima``."""
        excess = "".join("-" if size is None else str(size + n * increment // -period)
                         for n, size in enumerate(minima, first))
        return cls(offsets, kind, live_states, onset, period, increment, first, excess)

    @property
    def density(self) -> Fraction:
        """The least density of a code on the infinite graph: increment / period."""
        return Fraction(self.increment, self.period)

    @property
    def minima(self) -> tuple:
        """The minimum size for n = first, first + 1, ... over the stored digits."""
        return tuple(map(self.minimum, range(self.first, self.first + len(self.excess))))

    def minimum(self, n: int) -> int | None:
        """The minimum code size of C(n; offsets), n >= first (None: no code exists)."""
        n = check_int(n, "n", self.first)
        i, end = n - self.first, len(self.excess)
        digit = self.excess[i if i < end else end - self.period + (i - end) % self.period]
        return None if digit == "-" else int(digit) - n * self.increment // -self.period


PROOFS = {(proof.offsets, proof.kind): proof for proof in (
    Proof((1, 3), Kind.LOCATING, live_states=2908, onset=66, period=6, increment=2, first=13,
          excess="01101001101001101001101001101001101001101001101001101001101"),
    Proof((1, 3), Kind.IDENTIFYING, live_states=2834, onset=107, period=11, increment=4,
          first=13, excess="00000010000000000100000001001000010010010000100100100001"
                           "0010010000100100100001001001000010010010000100100"),
)}


def proof_for(offsets: tuple[int, ...], kind: Kind, n: int) -> Proof | None:
    """The stored proof that covers C(n; offsets), or None."""
    proof = PROOFS.get((tuple(sorted(offsets)), kind))
    return proof if proof is not None and n >= proof.first else None
