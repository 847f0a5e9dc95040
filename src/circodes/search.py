"""Exact minimum code sizes: stored proofs first, then exhaustive search.

Two engines answer.  For locating and identifying codes of C(n;1,3) with
n >= 13, ``proofs`` stores a transfer-matrix proof of the minimum for every
n (computed by ``transfer``, re-run by ``circodes prove``).  There
``min_code_size`` returns the table construction as the proved optimum once
it has the proved size and passes ``Code.verify``, and
``exists_code_of_size`` answers None below the minimum, with no search and
no budget.  Every other question (dominating codes, n < 13, other offsets,
and sizes at or above a proved minimum) runs the exhaustive search below,
bounded by the order budget.  The engine follows from the question alone.

The searcher walks gap sequences: a code {0, v1, v2, ...} is encoded by the
gaps between consecutive members around the cycle.  Fixing 0 as a member and
requiring the first gap to be the minimum gap picks at least one canonical
rotation per code orbit, cutting the space by a factor of about n.

Pruning is incremental.  A vertex v is "settled" once the frontier passes
v + dmax: its shadow can no longer change, so an empty shadow or a shadow
equal to that of a nearby settled vertex kills the branch.  No gap can
exceed 2*dmax + 1, because a longer run of non-members leaves its midpoint
undominated.  Every surviving leaf is re-checked by the full verifier, so
pruning bugs can only lose solutions, never invent them; the test suite
compares against an unpruned oracle to guard the other direction.

Once the last member sits at pos >= 4*dmax - 1, the pruning of a
placement at pos + gap reads only the code bits pos-4*dmax+1 .. pos and the
gap: every vertex it settles, and every pair partner within 2*dmax below,
has an unwrapped shadow inside that window.  The verdict is then a function
of (window, gap) alone, independent of n, and is cached in a per-process
table per (offsets, kind), filled lazily by the same pruning loop on a miss.
A placement becomes one table read.  Bit pos is always set, so the index
drops it: 2**(4*dmax-1) windows times 2*dmax+2 gap slots, one byte each
(16 KB for dmax = 3, 320 KB for dmax = 4).  Offsets with dmax > 4 would
need 6 MB and more, and run the loop alone.  Node and prune counts are the
same with or without the table.

Partitions by the first two gaps are independent, which gives deterministic
multiprocess parallelism: results merge in partition order up to the first
partition holding a code, so neither the certificate nor the counts depend
on the worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations
from concurrent.futures import ProcessPoolExecutor

from . import constructions
from .circulant import CirculantGraph
from .codes import Code, Kind, defects
from .errors import BudgetExceeded, OracleTooLarge
from .proofs import proof_for

__all__ = [
    "BoundReport",
    "SearchStats",
    "Optimum",
    "NoneAtSize",
    "SearchResult",
    "lower_bound",
    "exists_code_of_size",
    "min_code_size",
    "naive_min_code_size",
    "proved_minimum",
    "DEFAULT_SEARCH_BUDGETS",
    "BUDGET_ENV_VAR",
]

# Orders up to which the exhaustive search runs by default.  Beyond these,
# a question the stored proofs do not answer raises BudgetExceeded carrying
# the lower bound.  Override per call, or globally via the environment variable.
DEFAULT_SEARCH_BUDGETS = {Kind.LOCATING: 38, Kind.IDENTIFYING: 33, Kind.DOMINATING: 38}
BUDGET_ENV_VAR = "CIRCODES_BUDGET"

NAIVE_LIMIT = 16

# Largest dmax that gets a window-verdict table (see the module docstring).
WINDOW_TABLE_MAX_DMAX = 4
# (offsets, kind) -> verdict per (window, gap): 0 unknown, 1 prune, 2 pass.
# A cache of a pure function: a forked worker inherits it warm, a spawned
# one fills its own.
_WINDOW_TABLES: dict[tuple[tuple[int, ...], Kind], bytearray] = {}
_PRUNE, _PASS = 1, 2


def _window_table(offsets: tuple[int, ...], kind: Kind) -> bytearray | None:
    dmax = offsets[-1]
    if dmax > WINDOW_TABLE_MAX_DMAX:
        return None
    table = _WINDOW_TABLES.get((offsets, kind))
    if table is None:
        table = _WINDOW_TABLES[(offsets, kind)] = bytearray(
            (1 << (4 * dmax - 1)) * (2 * dmax + 2))
    return table


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds on code size: degree-based, offset-{1,3} specific, and their max."""

    general_bound: int
    specific_bound: int | None
    effective: int


@dataclass(frozen=True)
class SearchStats:
    examined: int = 0
    pruned_symmetry: int = 0
    pruned_bound: int = 0
    wall_time: float = 0.0

    def merged(self, other: "SearchStats") -> "SearchStats":
        return SearchStats(
            self.examined + other.examined,
            self.pruned_symmetry + other.pruned_symmetry,
            self.pruned_bound + other.pruned_bound,
            max(self.wall_time, other.wall_time),
        )


@dataclass(frozen=True)
class Optimum:
    size: int
    certificate: Code


@dataclass(frozen=True)
class NoneAtSize:
    k: int


@dataclass(frozen=True)
class SearchResult:
    """The answer to a minimum-size question.

    ``outcome`` is None when no code of the kind exists (twin vertices).
    ``engine`` names what answered: "proof" for a stored transfer-matrix
    proof, "dfs" for the exhaustive search.
    """

    kind: Kind
    n: int
    outcome: Optimum | NoneAtSize | None
    stats: SearchStats
    proved: bool = True
    note: str = ""
    engine: str = "dfs"


def lower_bound(n: int, kind: Kind, offsets: tuple[int, ...] = (1, 3)) -> BoundReport:
    """Largest known lower bound for codes in C(n; offsets).

    The general bounds hold for any graph of maximum degree 2*len(offsets):
    2n/(degree+3) for locating, 2n/(degree+2) for identifying, n/(degree+1)
    for dominating.  The sharper n/3 and 4n/11 bounds are specific to
    offsets {1,3} and orders n >= 13.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    degree = 2 * len(offsets)
    if kind is Kind.LOCATING:
        general = -(-2 * n // (degree + 3))
    elif kind is Kind.IDENTIFYING:
        general = -(-2 * n // (degree + 2))
    else:
        general = -(-n // (degree + 1))
    specific = None
    if tuple(offsets) == (1, 3) and n >= 13:
        if kind is Kind.LOCATING:
            specific = -(-n // 3)
        elif kind is Kind.IDENTIFYING:
            specific = -(-4 * n // 11)
    effective = max(general, specific or 0, 1)
    return BoundReport(general, specific, effective)


def _search_partition(n, offsets, kind, k, prefix):
    """Exhaust one gap-prefix partition.  Returns (members | None, stats tuple).

    Runs in worker processes; arguments and results stay picklable.
    """
    g = CirculantGraph(n, offsets)
    nb = g._closed_masks
    pattern = g.pattern
    dmax = g.offsets[-1]
    cap = 2 * dmax + 1
    pair_reach = 2 * dmax
    check_pairs = kind is not Kind.DOMINATING
    skip_members = kind is Kind.LOCATING
    table = _window_table(g.offsets, kind)
    steady = 4 * dmax - 1
    low = (1 << steady) - 1
    stride = 2 * dmax + 2
    examined = 0
    pruned_sym = 0
    pruned_bound = 0
    found: list[int] = []
    t0 = time.perf_counter()

    def place(pos, mask, fin, gap):
        """Extend by one member at pos+gap; returns (ok, new_fin, new_mask)."""
        nonlocal pruned_bound
        p = pos + gap
        m2 = mask | (1 << p)
        v = fin + 1
        top = p - dmax
        while v <= top:
            if v >= dmax:
                sh = m2 & nb[v]
                if not sh:
                    pruned_bound += 1
                    return False, fin, mask
                if check_pairs and not (skip_members and (m2 >> v) & 1):
                    d = 1
                    while d <= pair_reach:
                        u = v - d
                        if u < dmax:
                            break
                        if not (skip_members and (m2 >> u) & 1) and m2 & nb[u] == sh:
                            pruned_bound += 1
                            return False, fin, mask
                        d += 1
            fin = v
            v += 1
        return True, fin, m2

    def dfs(pos, count, mask, g0, fin):
        nonlocal examined, pruned_sym, pruned_bound
        examined += 1
        if count == k:
            wrap = n - pos
            if wrap < g0:
                pruned_sym += 1
                return False
            if wrap > cap:
                pruned_bound += 1
                return False
            if next(defects(n, mask, pattern, kind), None) is None:
                found.append(mask)
                return True
            return False
        lo = g0 if g0 else 1
        hi = min(cap, n - 1 - pos - (k - count - 1))
        if table is None or pos < steady:
            for gap in range(lo, hi + 1):
                ok, new_fin, m2 = place(pos, mask, fin, gap)
                if ok and dfs(pos + gap, count + 1, m2, g0 or gap, new_fin):
                    return True
            return False
        # steady state: fin == pos - dmax and g0 is set
        base = ((mask >> (pos - steady)) & low) * stride
        for gap in range(lo, hi + 1):
            verdict = table[base + gap]
            if not verdict:
                verdict = _PASS if place(pos, mask, fin, gap)[0] else _PRUNE
                table[base + gap] = verdict
            elif verdict == _PRUNE:
                pruned_bound += 1
            if verdict == _PASS:
                p = pos + gap
                if dfs(p, count + 1, mask | (1 << p), g0, p - dmax):
                    return True
        return False

    # replay the fixed prefix through the same pruning machinery
    pos, count, mask, g0, fin = 0, 1, 1, 0, dmax - 1
    dead = False
    for gap in prefix:
        if count == k or pos + gap > n - 1 - (k - count - 1):
            dead = True
            break
        ok, fin, mask = place(pos, mask, fin, gap)
        if not ok:
            dead = True
            break
        pos, count, g0 = pos + gap, count + 1, g0 or gap
    if not dead:
        dfs(pos, count, mask, g0, fin)
    stats = (examined, pruned_sym, pruned_bound, time.perf_counter() - t0)
    return (found[0] if found else None), stats


def _partitions(k: int, cap: int):
    if k < 3:
        return [()]
    return [(g0, g1) for g0 in range(1, cap + 1) for g1 in range(g0, cap + 1)]


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _search_at_size(g: CirculantGraph, kind: Kind, k: int, threads: int = 1,
                    progress=None) -> tuple[Code | None, SearchStats]:
    n = g.n
    if k >= n:
        # the full vertex set is the only candidate: valid unless twins exist
        valid = next(defects(n, (1 << n) - 1, g.pattern, kind), None) is None
        return (Code(g, range(n)) if valid else None), SearchStats()
    t0 = time.perf_counter()
    cap = 2 * g.offsets[-1] + 1
    parts = _partitions(k, cap)
    stats = SearchStats()
    winner = None
    pool = None
    if threads <= 1 or len(parts) <= 1:
        results = (_search_partition(n, g.offsets, kind, k, p) for p in parts)
    else:
        pool = ProcessPoolExecutor(max_workers=min(threads, len(parts)))
        futures = [pool.submit(_search_partition, n, g.offsets, kind, k, p) for p in parts]
        results = (future.result() for future in futures)
    try:
        # partition order up to the first winner: the certificate and the
        # counts are those of threads=1
        for mask, st in results:
            stats = stats.merged(SearchStats(*st))
            if progress is not None:
                progress(stats.examined, time.perf_counter() - t0)
            if mask is not None:
                winner = mask
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    stats = SearchStats(stats.examined, stats.pruned_symmetry, stats.pruned_bound,
                        time.perf_counter() - t0)
    return (Code.from_mask(g, winner) if winner is not None else None), stats


def proved_minimum(g: CirculantGraph, kind: Kind) -> int | None:
    """The minimum code size that a stored proof gives for g, or None.

    Proofs cover locating and identifying codes of C(n;1,3) for n >= 13.
    """
    proof = proof_for(g.offsets, kind, g.n)
    return None if proof is None else proof.minimum(g.n)


def exists_code_of_size(g: CirculantGraph, kind: Kind, k: int, *,
                        threads: int = 1, progress=None) -> Code | None:
    """Find a valid code of size exactly k, or certify none exists.

    Below a proved minimum the answer is None without a search.  Otherwise
    it exhausts all k-subsets up to rotation; the returned certificate is
    deterministic for a given graph regardless of thread count.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be within 1..{g.n}, got {k}")
    _check_threads(threads)
    floor = proved_minimum(g, kind)
    if floor is not None and k < floor:
        return None
    code, _ = _search_at_size(g, kind, k, threads=threads, progress=progress)
    return code


def resolve_budget(kind: Kind, budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_SEARCH_BUDGETS[kind]


def _no_code(g: CirculantGraph, kind: Kind) -> SearchResult | None:
    """The answer when no code of this kind exists on g, else None.

    Adding vertices keeps a code valid, so a code exists iff the full vertex
    set is one.  That fails only for identifying codes on graphs with twins:
    vertices with equal closed neighbourhoods, such as C(5;1,2).
    """
    witness = Code(g, range(g.n)).verify(kind).witness
    if witness is None:
        return None
    u, v = witness
    return SearchResult(kind, g.n, None, SearchStats(), note=(
        f"no {kind.value} code exists: vertices {u} and {v} have equal "
        f"closed neighbourhoods"))


def _from_proof(g: CirculantGraph, kind: Kind) -> SearchResult | None:
    """The table construction as a proved optimum, when a stored proof covers g.

    None, so that the search runs, unless the construction has the proved
    size and passes Code.verify.
    """
    size = proved_minimum(g, kind)
    if size is None:
        return None
    build = (constructions.locating_code_for if kind is Kind.LOCATING
             else constructions.identifying_code_for)
    code = build(g.n)
    if code.graph != g or len(code) != size or not code.verify(kind):
        return None
    return SearchResult(kind, g.n, Optimum(size, code), SearchStats(), engine="proof")


def min_code_size(g: CirculantGraph, kind: Kind, *, budget: int | None = None,
                  threads: int = 1, progress=None) -> SearchResult:
    """Exact minimum code size with an optimality certificate.

    Where a stored proof covers g, the answer is the table construction,
    re-checked by Code.verify, and no budget applies.  Otherwise the search
    iterates k upward from the effective lower bound, so the first hit is
    optimal.  Orders beyond the budget raise BudgetExceeded whose `partial`
    carries the lower bound.  When no code exists at all (twin vertices),
    the outcome is None and the note names a twin pair.
    """
    _check_threads(threads)
    answer = _no_code(g, kind) or _from_proof(g, kind)
    if answer is not None:
        return answer
    limit = resolve_budget(kind, budget)
    report = lower_bound(g.n, kind, g.offsets)
    if g.n > limit:
        note = f"order {g.n} exceeds search budget {limit}; lower bound {report.effective}"
        partial = SearchResult(kind, g.n, NoneAtSize(report.effective - 1), SearchStats(),
                               proved=False, note=note)
        raise BudgetExceeded(note, partial=partial)
    total = SearchStats()
    for k in range(report.effective, g.n + 1):
        code, stats = _search_at_size(g, kind, k, threads=threads, progress=progress)
        total = SearchStats(total.examined + stats.examined,
                            total.pruned_symmetry + stats.pruned_symmetry,
                            total.pruned_bound + stats.pruned_bound,
                            total.wall_time + stats.wall_time)
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
                stats = SearchStats(examined, 0, 0, time.perf_counter() - t0)
                return SearchResult(kind, n, Optimum(k, Code(g, members)), stats)
    # no subset is valid, the full set included: g has twin vertices
    return _no_code(g, kind)
