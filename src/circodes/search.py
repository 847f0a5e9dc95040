"""Exact minimum code sizes: stored proofs first, then exhaustive search.

Two engines answer.  For locating and identifying codes of C(n;1,3) with
n >= 13, ``proofs`` stores a transfer-matrix proof of the minimum for every
n (computed by ``transfer``, re-run by ``circodes prove``).  There
``_from_proof`` answers every question, the minimum and a fixed size k
alike, from one lookup: no code below the proved minimum, and at or above
it the table construction padded with non-members, once ``Code.verify``
passes; no search and no budget.  Every other question (dominating codes,
n < 13, other offsets, a construction that fails its check) runs the
exhaustive search below; ``min_code_size`` bounds it by an order budget,
``budget=`` or else ``DEFAULT_SEARCH_BUDGETS[kind]``.  The engine follows
from the question alone.

The searcher walks gap sequences: a code {0, v1, v2, ...} is encoded by the
gaps between consecutive members around the cycle.  Fixing 0 as a member and
requiring the first gap to be the minimum gap picks at least one canonical
rotation per code orbit, cutting the space by a factor of about n.

Pruning is incremental.  A vertex v is "settled" once the frontier passes
v + dmax: its shadow can no longer change, so an empty shadow or a shadow
equal to that of a nearby settled vertex kills the branch.  No gap can
exceed 2*dmax + 1, because a longer run of non-members leaves its midpoint
undominated.  Every leaf that the pruning passes is re-checked by the full
verifier, so pruning bugs can only lose solutions, never invent them; the
test suite compares against an unpruned oracle to guard the other
direction.

With the last member at pos, a placement at pos + gap settles the vertices
up to pos + gap - dmax.  Their checks read only the gap and the code bits
max(pos - 4*dmax + 1, 0) .. pos, whatever n is, so one table per
(offsets, kind), a ``_Rows``, maps each such window to the row of gaps that
prune, for every dmax; it holds the window geometry that the DFS, the fills
and the walk read.  A miss fills the row with two ``codes.defects`` calls on
one cycle that holds all 2*dmax + 1 placements as disjoint copies, anchored
at each copy's settled vertices: domination, then the pairs of the copies
that passed.  Vertices settled earlier pass again, as they did when they
settled, so the counts are those of checking the new vertices alone.

A leaf closes through the same rows.  After its symmetry and gap-cap
checks, the walk (``_Rows.passes``) goes on past n along the code's
periodic extension, placing the code's own members 0, m1, ... at n, n + m1,
..., and reads each window's row, until a member at or past n + 4*dmax - 1
settles the last pair of Z_n.  The leaf is rejected at the first pruning
bit; one that passes still gets the full ``codes.defects`` pass, so a
certificate never rests on the rows alone.  The walk runs only where
n >= 6*dmax + 1: only there does its first window lie inside one period,
where it is the window of a DFS node and shared with other leaves and
nodes.  The windows across the wrap are each leaf's own, so a cold search
fills more rows, and a warm one skips the full pass on nearly every leaf
that fails.  Below that order every window straddles the wrap, and leaves
go straight to the full pass.

A node one member short of k closes its leaf children itself, with no call
per leaf.  It steps only over the set bits of its unpruned gaps, counts
the row-pruned ones, the gap-cap prunes (gaps below n - pos - cap) and the
symmetry prunes (gaps above n - pos - g0) by popcount.  Each remaining
leaf at gap g then gets the walk's first read, the row of its own window
at bit n - last, and all of them get it at once: the node's entry holds,
beside its own row, the rows of its children, folded in the first time a
leaf needs them (see ``_Rows``), so one multiply spreads the live gaps
onto the bits that hold the reads and one AND keeps the survivors.  Only
those, lowest gap first, take the rest of the walk and the full pass.
The counts are those of visiting every node and leaf alone, in gap order.

The search runs in one process, as one depth-first walk from the root:
member 0 with no gap placed.  The walk stops at the first code it reaches,
and ``progress`` reports the running count of examined nodes after each
first-gap subtree, the one holding the code included.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import NamedTuple

from . import constructions
from .circulant import CirculantGraph
from .codes import Code, Kind, _as_kind, defects
from .errors import BudgetExceeded, OracleTooLarge, check_int
from .proofs import proof_for

__all__ = [
    "BoundReport",
    "SearchStats",
    "Optimum",
    "SearchResult",
    "lower_bound",
    "exists_code_of_size",
    "min_code_size",
    "naive_min_code_size",
    "DEFAULT_SEARCH_BUDGETS",
]

# Orders up to which min_code_size searches when no budget= is given.
# Beyond these, a question the stored proofs do not answer raises
# BudgetExceeded naming the lower bound.
DEFAULT_SEARCH_BUDGETS = {Kind.LOCATING: 38, Kind.IDENTIFYING: 33, Kind.DOMINATING: 38}

NAIVE_LIMIT = 16

# (offsets, kind) -> {window: row with bit g set for each gap g that prunes,
# and above it the rows of some children (see _Rows)}.
# A cache of a pure function, kept for the life of the process.
_VERDICTS: dict[tuple[tuple[int, ...], Kind], _Rows] = {}


class _Rows(dict):
    """The entries of one (offsets, kind) by window; a miss fills its row.

    The table is the search's one model of a window: its top bit is the
    last member, at most ``steady`` = 4*dmax - 1 (``width`` masks a window
    of that top bit out of a longer code), and no gap exceeds
    ``cap`` = 2*dmax + 1.  An entry is laid out as

    - bits 0..cap: the window's row, as ``__missing__`` fills it;
    - bit g*(cap + 2) + h, for g in 1..cap: bit h of the row of child g,
      the window after one more member at gap g;
    - bit ``folded`` + g: child g's row is folded in.

    A miss fills the row alone; ``fold`` adds the children a leaf's first
    read needs, reading each child's row through this table, so it fills
    only rows that the child's own read would fill.  Every reader masks to
    ``row_bits`` or reads only gaps 1..cap, so folded rows never read as
    prunes.
    """

    __slots__ = ("pattern", "kind", "cap", "steady", "width", "row_bits", "stride", "folded",
                 "diag", "spread", "cycle", "top", "repeat", "step", "gather", "anchors")

    def __init__(self, pattern: tuple[int, ...], dmax: int, kind: Kind):
        super().__init__()
        self.pattern, self.kind = pattern, kind
        self.cap = cap = 2 * dmax + 1
        self.steady = steady = 4 * dmax - 1  # the top bit of a window past the prefix
        self.width = (2 << steady) - 1
        self.row_bits = (2 << cap) - 1
        self.stride = cap + 2
        self.folded = (cap + 1) * self.stride
        # gaps * spread & diag moves each gap g to bit g*(cap + 1), where an
        # entry shifted by s holds bit s - g of child g's row: the other
        # products miss diag, and none meet unless gaps holds both 0 and cap
        self.diag = sum(1 << g * (cap + 1) for g in range(cap + 1))
        self.spread = sum(1 << g * cap for g in range(cap + 1))
        # The cycle a miss checks, with the last member at pos: copy g - 1
        # holds the placement of gap g, in bits (g - 1)*span onward.
        # ``repeat`` repeats a window into every copy (bit 0 of each),
        # ``step << pos`` are the new members, ``anchors[pos]`` each copy's
        # settled vertices dmax .. pos + g - dmax, and ``gather`` the
        # multiplier that gathers bit 0 of copy g - 1 into bit cycle + g.
        span = 6 * dmax + 1  # a copy reads its bits 0 .. pos + gap <= 6*dmax
        self.cycle = cap * span
        self.top = span - 1  # the top bit of a copy, above every anchor
        self.repeat = self.step = self.gather = 0
        self.anchors = [0] * (steady + 1)
        for gap in range(1, cap + 1):
            shift = (gap - 1) * span
            self.repeat |= 1 << shift
            self.step |= 1 << (shift + gap)
            # in a product with gather, distinct pairs of bits land at least
            # span apart, so nothing carries
            self.gather |= 1 << (self.cycle + gap - shift)
            for pos in range(max(2 * dmax - gap, 0), steady + 1):
                self.anchors[pos] |= ((2 << (pos + gap - dmax)) - (1 << dmax)) << shift

    def __missing__(self, window: int) -> int:
        """Fill the row of ``window``: bit g for each gap g at which the next member prunes.

        ``window`` holds the code bits up to the last member, at its top bit.
        A pair (u, u + d) counts only once u + d is settled.
        """
        n, repeat, top = self.cycle, self.repeat, self.top
        pos = window.bit_length() - 1
        anchors = self.anchors[pos]
        guards = repeat << top
        mask = window * repeat | self.step << pos
        bad = next(defects(n, mask, self.pattern, Kind.DOMINATING, anchors), (0, 0))[1]
        # bit 0 of each copy with a bad anchor: a copy's guard bit survives the
        # borrow of its bit 0 unless the copy's bits below it are all clear
        failed = (((bad | guards) - repeat) & guards) >> top
        if self.kind is not Kind.DOMINATING and failed != repeat:
            live = anchors & ~(failed * ((2 << top) - 1))
            for d, bits in defects(n, mask, self.pattern, self.kind, live):
                bad |= bits & live >> d
            failed = (((bad | guards) - repeat) & guards) >> top
        row = self[window] = (failed * self.gather >> n) & (self.row_bits ^ 1)  # gaps 1..cap
        return row

    def fold(self, window: int, need: int) -> int:
        """The entry of ``window`` with the children at the gaps in ``need`` folded in."""
        entry = self[window] | need << self.folded
        pos = window.bit_length() - 1
        while need:
            low = need & -need
            gap = low.bit_length() - 1
            # child gap: one more member, gap above the window's top bit
            child = (window | low << pos) >> max(pos + gap - self.steady, 0)
            entry |= (self[child] & self.row_bits) << gap * self.stride
            need ^= low
        self[window] = entry
        return entry

    def passes(self, n: int, mask: int) -> bool:
        """Whether the rows pass a leaf's code ``mask`` on Z_n past its last member.

        From the last member, the walk goes on along the code's periodic
        extension: it places the code's own members 0, m1, ... at n, n + m1,
        ..., and reads the row of each window as a DFS placement does.  A
        member at or past n + 4*dmax - 1 settles the last pair that any vertex
        of Z_n takes part in, (n + dmax - 1, n + 3*dmax - 1), so the walk stops
        there.  A prune is a defect of the code, as long as n >= 6*dmax + 1,
        0 is a member and the last member is at least n - 2*dmax - 1.

        The walk steps by the code's own gaps, and none of them exceeds the cap
        2*dmax + 1: the DFS places none longer, the wrap gap is the last
        member's distance to n, and a valid code has no longer one either.  So
        a read ``>> gap & 1`` sees only row bits of an entry.
        """
        steady, width = self.steady, self.width
        ext = mask | mask << n
        pos = mask.bit_length() - 1
        while pos < n + steady:
            rest = ext >> (pos + 1)
            gap = (rest & -rest).bit_length()
            if self[ext >> (pos - steady) & width] >> gap & 1:
                return False
            pos += gap
        return True


class BoundReport(NamedTuple):
    """Lower bounds on code size: degree-based, from a stored proof, and their max.

    ``specific_bound`` is None where no stored proof covers the graph.
    """

    general_bound: int
    specific_bound: int | None
    effective: int


class SearchStats(NamedTuple):
    examined: int = 0
    pruned_symmetry: int = 0
    pruned_bound: int = 0
    wall_time: float = 0.0
    leaf_checks: int = 0  # full ``codes.defects`` passes on search leaves

    def merged(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.examined + other.examined,
            self.pruned_symmetry + other.pruned_symmetry,
            self.pruned_bound + other.pruned_bound,
            self.wall_time + other.wall_time,
            self.leaf_checks + other.leaf_checks,
        )


class Optimum(NamedTuple):
    size: int
    certificate: Code


class SearchResult(NamedTuple):
    """The answer to a minimum-size question, or to one at a fixed size.

    ``outcome`` is None when no code of the kind exists (twin vertices), or
    at a fixed size, when none of that size does.  ``engine`` names what
    answered: "proof" for a stored transfer-matrix proof, "dfs" for the
    exhaustive search.  Every proof answer comes from ``_from_proof`` with
    the note "proved minimum m", whichever entry point asked.
    """

    kind: Kind
    n: int
    outcome: Optimum | None
    stats: SearchStats
    note: str = ""
    engine: str = "dfs"


def lower_bound(n: int, kind: Kind, offsets: tuple[int, ...] = (1, 3)) -> BoundReport:
    """Largest known lower bound for codes in C(n; offsets).

    The offsets and n pass the checks of ``CirculantGraph(n, offsets)``.
    The general bounds hold for any graph of maximum degree 2*len(offsets):
    2n/(degree+3) for locating, 2n/(degree+2) for identifying, n/(degree+1)
    for dominating.  Where a stored proof covers C(n; offsets), the specific
    bound is ceil(n * increment / period), the proof's density floor: for
    offsets {1,3} and n >= 13 that is the paper's n/3 locating and 4n/11
    identifying.
    """
    return _bounds(CirculantGraph(n, offsets), _as_kind(kind))


def _bounds(g: CirculantGraph, kind: Kind) -> BoundReport:
    """``lower_bound`` of the order and offsets of g, for a caller that has g."""
    n, degree = g.n, g.degree
    if kind is Kind.LOCATING:
        general = -(-2 * n // (degree + 3))
    elif kind is Kind.IDENTIFYING:
        general = -(-2 * n // (degree + 2))
    else:
        general = -(-n // (degree + 1))
    proof = proof_for(g.offsets, kind, n)
    specific = None if proof is None else -(-n * proof.increment // proof.period)
    effective = max(general, specific or 0, 1)
    return BoundReport(general, specific, effective)


def _search_at_size(g: CirculantGraph, kind: Kind, k: int,
                    progress=None) -> tuple[Code | None, SearchStats]:
    n, offsets, pattern = g.n, g.offsets, g.pattern
    if k >= n:
        # the full vertex set is the only candidate: valid unless twins exist
        valid = next(defects(n, (1 << n) - 1, pattern, kind), None) is None
        return (Code.from_mask(g, (1 << n) - 1) if valid else None), SearchStats()
    dmax = offsets[-1]
    rows = _VERDICTS.get((offsets, kind))
    if rows is None:
        rows = _VERDICTS[offsets, kind] = _Rows(pattern, dmax, kind)
    # only then does a leaf's first window lie inside one period, as the
    # window of a DFS node does
    walk = n >= 6 * dmax + 1
    cap, steady, folded, diag, spread = rows.cap, rows.steady, rows.folded, rows.diag, rows.spread
    examined = 0
    pruned_sym = 0
    pruned_bound = 0
    leaf_checks = 0
    found: list[int] = []
    t0 = time.perf_counter()

    def close(pos, mask, free, g0, entry):
        """Close the leaves at the gaps in ``free`` after the member at pos.

        ``entry`` is the node's entry in ``rows``.  Returns the bit of the
        winning gap, or 0.  With g0 = 0 each leaf's first gap is its own gap.
        """
        nonlocal examined, pruned_sym, pruned_bound, leaf_checks
        wrap = n - pos
        # the leaf at gap closes the cycle with the gap wrap - gap: too long
        # below wrap - cap, shorter than the first gap above top
        top = wrap - g0 if g0 else wrap // 2  # >= 1: g0 <= gap < wrap, and n >= 3
        capped = free & ((1 << (wrap - cap)) - 1) if wrap > cap else 0
        sym = free & (-2 << top)
        pruned_bound += capped.bit_count()
        live = free ^ capped ^ sym
        # the live gaps on the diagonal; gap 0 (the root's leaf) comes alone
        left = live * spread & diag
        if walk and live:
            # the walk's first read, bit wrap - gap of each leaf's own row, for
            # every leaf at once: it rejects nearly all
            need = live & ~(entry >> folded)
            if need:
                entry = rows.fold(mask >> (pos - steady) if pos > steady else mask, need)
            left ^= left & entry >> wrap
        while left:
            low = left & -left
            gap = (low.bit_length() - 1) // (cap + 1)
            leaf = mask | 1 << (pos + gap)
            if not walk or rows.passes(n, leaf):
                leaf_checks += 1
                if next(defects(n, leaf, pattern, kind), None) is None:
                    found.append(leaf)
                    examined += (free & ((2 << gap) - 1)).bit_count()
                    return 1 << gap
            left ^= low
        examined += free.bit_count()
        pruned_sym += sym.bit_count()
        return 0

    def dfs(pos, count, mask, g0):
        """Visit the node with count members, the last at pos.

        Returns the bit of the winning gap, or 0.
        """
        nonlocal examined, pruned_bound
        examined += 1
        lo = g0 or 1
        hi = n - pos - k + count  # the k - count - 1 members after this one fit below n
        if hi > cap:
            hi = cap
        if hi < lo:
            return 0
        span = (2 << hi) - (1 << lo)
        entry = rows[mask >> (pos - steady) if pos > steady else mask]
        row = entry & span
        free = span ^ row
        if count == k - 1 and g0:
            won = close(pos, mask, free, g0, entry)
        else:
            # one child at a time: the root reports progress after each
            won = 0
            while free:
                low = free & -free
                gap = low.bit_length() - 1
                if (close(pos, mask, low, 0, entry) if count == k - 1
                        else dfs(pos + gap, count + 1, mask | low << pos, g0 or gap)):
                    won = low
                if not g0 and progress is not None:
                    progress(examined, time.perf_counter() - t0)
                if won:
                    break
                free ^= low
        # the row-pruned gaps below the winner, or all of them
        pruned_bound += (row & (won - 1) if won else row).bit_count()
        return won

    if k == 1:
        # the root is the only leaf, at gap 0 from itself; where leaves walk,
        # the gap cap prunes it before any read of the entry passed here
        close(0, 1, 1, 0, 0)
    else:
        try:
            dfs(0, 1, 1, 0)
        except RecursionError:  # dfs nests one call per member
            raise BudgetExceeded(f"size k={k} exceeds the search's depth") from None
    stats = SearchStats(examined, pruned_sym, pruned_bound, time.perf_counter() - t0,
                        leaf_checks)
    return (Code.from_mask(g, found[0]) if found else None), stats


def exists_code_of_size(g: CirculantGraph, kind: Kind, k: int, *,
                        progress=None) -> Code | None:
    """Find a valid code of size exactly k, or certify none exists.

    Where a stored proof covers g, no search runs: below the proved minimum
    the answer is None, and at or above it the table construction plus the
    k - minimum smallest non-members, once Code.verify passes (adding
    vertices keeps a code valid).  Otherwise it exhausts all k-subsets up to
    rotation; the returned certificate is deterministic for a given graph.
    A k deeper than the search can nest raises BudgetExceeded naming k.
    ``circodes search --k`` reports the same answer with its statistics.
    """
    outcome = _code_of_size(g, _as_kind(kind), k, progress=progress).outcome
    return None if outcome is None else outcome.certificate


def _code_of_size(g: CirculantGraph, kind: Kind, k: int, *, budget: int | None = None,
                  progress=None) -> SearchResult:
    """The answer of ``exists_code_of_size`` with its engine, stats and note.

    ``_from_proof`` answers first; the search runs only where it cannot,
    with the note "exhaustive".  Orders beyond ``budget``, when given,
    raise BudgetExceeded there; a negative budget is rejected at once.
    """
    k = check_int(k, "k", 1, g.n)
    budget = None if budget is None else check_int(budget, "budget", 0)
    answer = _from_proof(g, kind, k)
    if answer is not None:
        return answer
    if budget is not None and g.n > budget:
        raise BudgetExceeded(f"order {g.n} exceeds search budget {budget}")
    code, stats = _search_at_size(g, kind, k, progress=progress)
    outcome = None if code is None else Optimum(k, code)
    return SearchResult(kind, g.n, outcome, stats, "exhaustive")


def _no_code(g: CirculantGraph, kind: Kind) -> SearchResult | None:
    """The answer when no code of this kind exists on g, else None.

    Adding vertices keeps a code valid, so a code exists iff the full vertex
    set is one.  That fails only for identifying codes on graphs with twins:
    vertices with equal closed neighbourhoods, such as C(5;1,2).
    """
    witness = Code.from_mask(g, (1 << g.n) - 1).verify(kind).witness
    if witness is None:
        return None
    u, v = witness
    return SearchResult(kind, g.n, None, SearchStats(), note=(
        f"no {kind.value} code exists: vertices {u} and {v} have equal "
        f"closed neighbourhoods"))


def _from_proof(g: CirculantGraph, kind: Kind, k: int | None = None) -> SearchResult | None:
    """The stored proof's answer at size k, or at the minimum when k is None.

    The only place a proof answer is built, with one ``proof_for`` lookup
    and the note "proved minimum m".  Below m no code exists.  At or above
    it the answer is the table construction plus the k - m smallest
    non-members, set as the lowest zero bits of its mask (adding vertices
    keeps a code valid), after one Code.verify.  None, so that the search
    runs, where no stored proof covers g, where (offsets, kind) has no table
    construction (only {1,3} locating and identifying have one), or where
    the construction has the wrong size or fails the check.
    """
    proof = proof_for(g.offsets, kind, g.n)
    if proof is None:
        return None
    size = proof.minimum(g.n)
    k = size if k is None else k
    note = f"proved minimum {size}"
    if k < size:
        return SearchResult(kind, g.n, None, SearchStats(), note, "proof")
    if g.offsets != (1, 3) or kind is Kind.DOMINATING:
        return None
    build = (constructions.locating_code_for if kind is Kind.LOCATING
             else constructions.identifying_code_for)
    code = build(g.n)
    if code.graph != g or len(code) != size:
        return None
    if k > size:
        free = code.mask ^ ((1 << g.n) - 1)
        code = Code.from_mask(g, code.mask | _lowest_bits(free, k - size))
    if not code.verify(kind):
        return None
    return SearchResult(kind, g.n, Optimum(k, code), SearchStats(), note, "proof")


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask``, or all of them if it has fewer."""
    lo, hi = 0, mask.bit_length()
    while lo < hi:  # the shortest prefix of mask that holds count bits
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < count:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


def min_code_size(g: CirculantGraph, kind: Kind, *, budget: int | None = None,
                  threads: int = 1, progress=None) -> SearchResult:
    """Exact minimum code size with an optimality certificate.

    Where a stored proof covers g, the answer is the table construction,
    re-checked by Code.verify, and no budget applies.  Otherwise the search
    iterates k upward from the effective lower bound, so the first hit is
    optimal.  Orders beyond the budget (DEFAULT_SEARCH_BUDGETS[kind] unless
    given) raise BudgetExceeded naming the order, the budget and the lower
    bound; a negative budget is rejected at once, proved or not, and 0
    searches nothing.  When no code exists at all (twin vertices), the
    outcome is None and the note names a twin pair.

    The search runs in one process.  ``threads`` stays for callers that
    pass it on questions a proof answers: below 1 it is rejected at once,
    and above 1 wherever a search would start, never silently ignored.
    """
    threads = check_int(threads, "threads", 1)
    budget = None if budget is None else check_int(budget, "budget", 0)
    kind = _as_kind(kind)
    # a proved minimum means a code exists, so only a search asks _no_code
    answer = _from_proof(g, kind) or _no_code(g, kind)
    if answer is not None:
        return answer
    if threads > 1:
        raise ValueError(f"threads must be 1: the search runs in one process, "
                         f"got {threads}")
    limit = DEFAULT_SEARCH_BUDGETS[kind] if budget is None else budget
    report = _bounds(g, kind)
    if g.n > limit:
        raise BudgetExceeded(f"order {g.n} exceeds search budget {limit}; "
                             f"lower bound {report.effective}")
    total = SearchStats()
    for k in range(report.effective, g.n + 1):
        code, stats = _search_at_size(g, kind, k, progress=progress)
        total = total.merged(stats)
        if code is not None:
            return SearchResult(kind, g.n, Optimum(k, code), total)
    raise AssertionError("unreachable: the full vertex set is valid")


def naive_min_code_size(g: CirculantGraph, kind: Kind) -> SearchResult:
    """Minimum code size by unpruned enumeration of all subsets in size order.

    Independent oracle for min_code_size; no symmetry reduction, no lower
    bound, no incremental pruning.  Exponential in n, hence the hard cap.
    """
    if g.n > NAIVE_LIMIT:
        raise OracleTooLarge(f"naive enumeration capped at n={NAIVE_LIMIT}, got {g.n}")
    kind = _as_kind(kind)
    n = g.n
    t0 = time.perf_counter()
    examined = 0
    for k in range(1, n + 1):
        for members in combinations(range(n), k):
            examined += 1
            mask = 0
            for v in members:
                mask |= 1 << v
            if next(defects(n, mask, g.pattern, kind), None) is None:
                stats = SearchStats(examined, 0, 0, time.perf_counter() - t0, examined)
                return SearchResult(kind, n, Optimum(k, Code.from_mask(g, mask)), stats)
    # no subset is valid, the full set included: g has twin vertices
    return _no_code(g, kind)
