"""Min-plus transfer-matrix solver for codes in C(n; offsets) with dmax <= 3.

Every constraint of a code is anchored at a vertex u and reads only the
W = 4*dmax + 1 bits u - dmax .. u + 3*dmax: the shadow of u, and for each
collision partner u + d, d <= 2*dmax, the shadow of u + d.  For n >= W a
code on Z_n is therefore a closed walk of length n in a de Bruijn-style
graph on the (W - 1)-bit words: an edge appends one bit, is allowed when its
W-bit window passes the checks anchored at the window's vertex dmax
(``codes.defects`` with that single anchor), and costs the appended bit.
The minimum code size is the smallest diagonal entry of the min-plus power
D(n) = A^n.  Only live states count: those with a live predecessor and a
live successor, found by filtering the states to a fixpoint.  Every closed
walk stays among them.

Min-plus powers of an irreducible matrix are eventually periodic (Cohen,
Dubois, Quadrat and Viot, 1985): D(m + p) = D(m) + c from some onset on.
``solve`` does not rely on the theorem.  It steps D(m) until the first exact
repeat up to such a shift, and since D(m + 1) = D(m) A, one repeat at the
onset gives it for every later m.  Every offset set with dmax <= 3 and every
kind repeats within 120 steps.  The minima below onset + p then give the
exact minimum for every n >= W; ``proofs.Proof`` stores their excess digits.
This is the transfer-matrix method of Junnila and Laihonen, *Optimal
identifying codes in cycles and paths*, Graphs Combin. 2012.

D(m) is held column by column in pure Python: for each target state t, a
tuple of cumulative bitsets over the start states, entry c holding the
starts s with D(m)[s][t] <= base + c, base being the smallest entry of
D(m).  A min-plus step is then an OR of the predecessors' tuples, and every
state has at most two predecessors.  dmax = 4 would need 2^16 states, so
larger offsets stay with the exhaustive search.

Each distinct column is interned once in a table that gives it an id (the
unique table of Bryant, 1986), so D(m) is a tuple of ids, a step builds each
distinct (cost, predecessor ids) column once, and the one pass that collects
the minima finds the repeat exactly, by comparing id tuples.
"""

from __future__ import annotations

from itertools import count

from .circulant import CirculantGraph
from .codes import Kind, _as_kind, defects
from .errors import OffsetOutOfRange, check_int
from .proofs import Proof

__all__ = ["MAX_DMAX", "allowed_windows", "live_graph", "solve"]

MAX_DMAX = 3


def _window_graph(offsets: tuple[int, ...]) -> CirculantGraph:
    """C(4*dmax + 1; offsets), the graph one window reads, for dmax <= MAX_DMAX.

    Each offset is checked here; the graph rejects an empty or repeated set.
    """
    offsets = tuple(sorted(check_int(d, "offset", 1, None, OffsetOutOfRange)
                           for d in offsets))
    dmax = offsets[-1] if offsets else 1  # an empty set is the graph's to reject
    if dmax > MAX_DMAX:
        raise ValueError(f"the transfer-matrix solver needs dmax <= {MAX_DMAX}, "
                         f"got offsets {offsets}")
    return CirculantGraph(4 * dmax + 1, offsets)


def allowed_windows(offsets: tuple[int, ...], kind: Kind) -> list[bool]:
    """Whether each (4*dmax + 1)-bit window passes the checks anchored at bit dmax.

    Bit j of a window is the code bit of vertex u - dmax + j.  A code on
    Z_n, n >= 4*dmax + 1, is valid iff the window around every vertex passes.
    """
    g, kind = _window_graph(offsets), _as_kind(kind)
    anchor = 1 << g.offsets[-1]
    return [next(defects(g.n, w, g.pattern, kind, anchor), None) is None
            for w in range(1 << g.n)]


def live_graph(offsets: tuple[int, ...], kind: Kind) -> tuple[list[int], list[tuple[int, ...]]]:
    """The live states of the window graph and their live predecessors.

    Returns ``(states, preds)``: the live words in increasing order, and for
    each the indices of the live states with an allowed edge into it.  A
    state's appended bit, and so the cost of every edge into it, is its top
    bit.  The live states are those that some closed walk passes: a filter
    keeps each state with a live successor and a live predecessor, and
    repeats until no state drops.
    """
    allowed = allowed_windows(offsets, kind)
    bits = len(allowed).bit_length() - 2
    size = 1 << bits
    low = size - 1
    # edge s -> t = w >> 1 for the window w = s | b << bits
    succ = [[w >> 1 for w in (s, s | size) if allowed[w]] for s in range(size)]
    pred = [[w & low for w in (t << 1, t << 1 | 1) if allowed[w]] for t in range(size)]
    live = set(range(size))
    while dropped := {s for s in live
                      if live.isdisjoint(succ[s]) or live.isdisjoint(pred[s])}:
        live -= dropped
    states = sorted(live)
    index = {s: i for i, s in enumerate(states)}
    preds = [tuple(index[r] for r in pred[t] if r in live) for t in states]
    return states, preds


def solve(offsets: tuple[int, ...], kind: Kind) -> Proof:
    """Compute the transfer-matrix proof for C(n; offsets), every n >= 4*dmax + 1."""
    offsets, kind = _window_graph(offsets).offsets, _as_kind(kind)
    states, preds = live_graph(offsets, kind)
    top = 4 * offsets[-1] - 1
    costs = [s >> top & 1 for s in states]
    first = top + 2
    # the column table: ids[column] is its id, columns[id] the column.  A
    # column keeps no trailing repeats, so equal columns are equal tuples.
    columns = [(1 << t,) for t in range(len(states))]
    ids = {col: i for i, col in enumerate(columns)}
    matrix = tuple(range(len(states)))  # D(0): the identity
    base = 0
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    minima = []
    end = None
    for m in count():
        if end is None:
            if matrix in seen:
                onset, onset_base = seen[matrix]
                period, increment = m - onset, base - onset_base
                end = max(onset, first) + period
            else:
                seen[matrix] = m, base
        if m == end:
            break
        best = None
        for t, i in enumerate(matrix):
            bit = 1 << t
            for c, starts in enumerate(columns[i]):
                if starts & bit:
                    if best is None or c < best:
                        best = c
                    break
        minima.append(None if best is None else base + best)
        # D(m + 1) = D(m) A: each distinct (cost, predecessor ids) column once
        keys = [(cost, *[matrix[p] for p in ps]) for ps, cost in zip(preds, costs)]
        new = {}
        for key in dict.fromkeys(keys):
            cost, *pair = key
            col = columns[pair[0]]
            if len(pair) == 2:
                other = columns[pair[1]]
                if len(other) > len(col):
                    col, other = other, col
                last = other[-1]
                col = tuple([x | y for x, y in zip(col, other)]
                            + [x | last for x in col[len(other):]])
                while len(col) > 1 and col[-1] == col[-2]:
                    col = col[:-1]
            # an empty column stays (0,): no level to shift
            new[key] = (0,) + col if cost and col[-1] else col
        if not any(col[0] for col in new.values()):
            base += 1
            new = {key: col[1:] or (0,) for key, col in new.items()}
        for key, col in new.items():
            if col not in ids:
                ids[col] = len(columns)
                columns.append(col)
            new[key] = ids[col]
        matrix = tuple([new[key] for key in keys])
    return Proof.from_minima(offsets, kind, len(states), onset, period, increment, first,
                             minima[first:])
