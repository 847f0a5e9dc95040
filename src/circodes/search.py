"""Exact minimum-code search with rotation-canonical enumeration.

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

Partitions by the first two gaps are independent, which gives deterministic
multiprocess parallelism: results merge in partition order, so the
certificate never depends on the worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations
from concurrent.futures import ProcessPoolExecutor

from .circulant import CirculantGraph
from .codes import Code, Kind, valid_mask
from .errors import BudgetExceeded, OracleTooLarge

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
    "DEFAULT_SEARCH_BUDGETS",
    "BUDGET_ENV_VAR",
]

# Orders up to which exhaustive optimality proofs run by default.  Beyond
# these, min_code_size raises BudgetExceeded carrying best-known partial
# results.  Override per call, or globally via the environment variable.
DEFAULT_SEARCH_BUDGETS = {Kind.LOCATING: 38, Kind.IDENTIFYING: 33, Kind.DOMINATING: 38}
BUDGET_ENV_VAR = "CIRCODES_BUDGET"

NAIVE_LIMIT = 16


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
    kind: Kind
    n: int
    outcome: Optimum | NoneAtSize | None
    stats: SearchStats
    proved: bool = True
    note: str = ""


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
    dmax = g.offsets[-1]
    cap = 2 * dmax + 1
    pair_reach = 2 * dmax
    check_pairs = kind is not Kind.DOMINATING
    skip_members = kind is Kind.LOCATING
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
            if valid_mask(n, mask, nb, min(pair_reach, n - 1), kind):
                found.append(mask)
                return True
            return False
        lo = g0 if g0 else 1
        hi = min(cap, n - 1 - pos - (k - count - 1))
        for gap in range(lo, hi + 1):
            ok, new_fin, m2 = place(pos, mask, fin, gap)
            if ok and dfs(pos + gap, count + 1, m2, g0 or gap, new_fin):
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


def _search_at_size(g: CirculantGraph, kind: Kind, k: int, threads: int = 1,
                    progress=None) -> tuple[Code | None, SearchStats]:
    n = g.n
    if k >= n:
        # the full vertex set is always valid; nothing to search
        return Code(g, range(n)), SearchStats()
    t0 = time.perf_counter()
    cap = 2 * g.offsets[-1] + 1
    parts = _partitions(k, cap)
    stats = SearchStats()
    winner = None
    if threads <= 1 or len(parts) <= 1:
        for prefix in parts:
            mask, st = _search_partition(n, g.offsets, kind, k, prefix)
            stats = stats.merged(SearchStats(*st))
            if progress is not None:
                progress(stats.examined, time.perf_counter() - t0)
            if mask is not None:
                winner = mask
                break
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            args = [(n, g.offsets, kind, k, p) for p in parts]
            for mask, st in pool.map(_search_partition, *zip(*args)):
                stats = stats.merged(SearchStats(*st))
                if progress is not None:
                    progress(stats.examined, time.perf_counter() - t0)
                if mask is not None and winner is None:
                    winner = mask  # partition order fixes the certificate
    stats = SearchStats(stats.examined, stats.pruned_symmetry, stats.pruned_bound,
                        time.perf_counter() - t0)
    return (Code.from_mask(g, winner) if winner is not None else None), stats


def exists_code_of_size(g: CirculantGraph, kind: Kind, k: int, *,
                        threads: int = 1, progress=None) -> Code | None:
    """Find a valid code of size exactly k, or certify none exists.

    Exhausts all k-subsets up to rotation; the returned certificate is
    deterministic for a given graph regardless of thread count.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be within 1..{g.n}, got {k}")
    code, _ = _search_at_size(g, kind, k, threads=threads, progress=progress)
    return code


def resolve_budget(kind: Kind, budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_SEARCH_BUDGETS[kind]


def _best_construction(g: CirculantGraph, kind: Kind) -> Code | None:
    if tuple(g.offsets) != (1, 3):
        return None
    from . import constructions
    try:
        if kind is Kind.LOCATING:
            return constructions.locating_code_for(g.n)
        if kind is Kind.IDENTIFYING:
            return constructions.identifying_code_for(g.n)
    except Exception:
        return None
    return None


def min_code_size(g: CirculantGraph, kind: Kind, *, budget: int | None = None,
                  threads: int = 1, progress=None) -> SearchResult:
    """Exact minimum code size with an optimality certificate.

    Iterates k upward from the effective lower bound, so the first hit is
    optimal.  Orders beyond the budget raise BudgetExceeded whose `partial`
    carries the lower bound and, when a table construction applies, its code
    as an unproved upper bound.
    """
    limit = resolve_budget(kind, budget)
    report = lower_bound(g.n, kind, g.offsets)
    if g.n > limit:
        best = _best_construction(g, kind)
        partial = SearchResult(
            kind, g.n,
            Optimum(len(best), best) if best is not None else NoneAtSize(report.effective - 1),
            SearchStats(), proved=False,
            note=f"order {g.n} exceeds search budget {limit}; "
                 f"lower bound {report.effective}"
                 + (f", best construction size {len(best)}" if best is not None else ""),
        )
        raise BudgetExceeded(partial.note, partial=partial)
    total = SearchStats()
    for k in range(report.effective, g.n + 1):
        code, stats = _search_at_size(g, kind, k, threads=threads, progress=progress)
        total = SearchStats(total.examined + stats.examined,
                            total.pruned_symmetry + stats.pruned_symmetry,
                            total.pruned_bound + stats.pruned_bound,
                            total.wall_time + stats.wall_time)
        if code is not None:
            return SearchResult(kind, g.n, Optimum(k, code), total)
    raise AssertionError("unreachable: the full vertex set is always valid")


def naive_min_code_size(g: CirculantGraph, kind: Kind) -> SearchResult:
    """Minimum code size by unpruned enumeration of all subsets in size order.

    Independent oracle for min_code_size; no symmetry reduction, no lower
    bound, no incremental pruning.  Exponential in n, hence the hard cap.
    """
    if g.n > NAIVE_LIMIT:
        raise OracleTooLarge(f"naive enumeration capped at n={NAIVE_LIMIT}, got {g.n}")
    n = g.n
    nb = g._closed_masks
    reach = min(2 * g.offsets[-1], n - 1)
    t0 = time.perf_counter()
    examined = 0
    for k in range(1, n + 1):
        for members in combinations(range(n), k):
            examined += 1
            mask = 0
            for v in members:
                mask |= 1 << v
            if valid_mask(n, mask, nb, reach, kind):
                stats = SearchStats(examined, 0, 0, time.perf_counter() - t0)
                return SearchResult(kind, n, Optimum(k, Code(g, members)), stats)
    raise AssertionError("unreachable: the full vertex set is always valid")
