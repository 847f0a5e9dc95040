"""Span recorder that wraps the library's public entry points from outside.

Spans are kept in memory.  A call into a layer from the same layer (for
example ``Code.verify`` inside ``Code.sum_of_shares``) is not a boundary
crossing and records no span of its own, so its time stays in the outer
span's self time.  Per-leaf calls such as ``codes.valid_mask`` are not
wrapped: their volume would swamp the trace.

Self time is a span's duration minus the time its direct child spans
cover; spans nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(span, args, kwargs, result) adds counters."""
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if count is not None:
                count(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, summed counters."""
        out: dict[str, dict] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += s.end - s.start
            t["self_s"] += s.end - s.start - s.child_s
            for key, value in s.counts.items():
                t[key] = t.get(key, 0) + value
        return out


# -- what to wrap ----------------------------------------------------------


def _count_build(span, args, kwargs, graph):
    masks = graph._closed_masks
    span.counts["bytes"] = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))


def _count_vertices(span, args, kwargs, result):
    span.counts["vertices"] = args[0].graph.n


def _count_members(span, args, kwargs, result):
    span.counts["members"] = len(args[0].members)


def _count_one_member(span, args, kwargs, result):
    span.counts["members"] = 1


def _count_search(span, args, kwargs, result):
    import circodes as cc
    g, kind = args[0], args[1]
    stats = result.stats
    if kwargs.get("threads", 1) > 1:
        span.counts.update(parallel_nodes=stats.examined, parallel_s=span.end - span.start)
        return
    bound = cc.lower_bound(g.n, kind, g.offsets).effective
    span.counts.update(nodes=stats.examined, pruned_bound=stats.pruned_bound,
                       k_passes=result.outcome.size - bound + 1,
                       serial_s=span.end - span.start)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    import circodes as cc
    import circodes.cli as cli
    names = {
        "CirculantGraph": ("circulant.build", _count_build),
        "Code": ("codes.code_init", None),
        "locating_code_for": ("constructions.code_for", None),
        "identifying_code_for": ("constructions.code_for", None),
        "min_code_size": ("search.min_code_size", _count_search),
        "exists_code_of_size": ("search.exists", None),
    }
    out = [(owner, attr, name, count) for attr, (name, count) in names.items()
           for owner in (cc, cli) if hasattr(owner, attr)]
    out.append((cli, "main", "cli.main", None))
    # Library work that the CLI commands call directly, so that cli.main's
    # self time keeps only its own per-call costs.  Wrapped where cli calls
    # them only: _count_search calls circodes.lower_bound itself.
    out += [(cli, "lower_bound", "search.lower_bound", None),
            (cli, "PeriodicCode", "constructions.periodic", None),
            (cli, "density", "constructions.periodic", None),
            (cli, "verify_periodic", "constructions.periodic", None),
            (cli, "locating_code_size", "constructions.code_size", None),
            (cli, "identifying_code_size", "constructions.code_size", None)]
    # Code.share is share arithmetic like sum_of_shares, which calls it for
    # every member; `verify --shares` calls it directly as well.
    out += [(cc.Code, "verify", "codes.verify", _count_vertices),
            (cc.Code, "sum_of_shares", "codes.sum_of_shares", _count_members),
            (cc.Code, "share", "codes.sum_of_shares", _count_one_member),
            (cc.Code, "heavy_vertices", "codes.heavy", None),
            (cc.Code, "profile", "codes.heavy", None)]
    return out


class installed:
    """Context manager: wrap every target with a recorder, restore on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved = []

    def __enter__(self):
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, count))
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# -- per-layer metrics -----------------------------------------------------

# name -> (unit, better)
PER_LAYER = {
    "circulant.build.calls": ("count", "lower"),
    "circulant.build.self_s": ("s", "lower"),
    "circulant.build.alloc_mb": ("MB", "lower"),
    "constructions.code_for.calls": ("count", "lower"),
    "constructions.code_for.self_s": ("s", "lower"),
    "constructions.periodic.self_s": ("s", "lower"),
    "constructions.code_size.self_s": ("s", "lower"),
    "codes.code_init.self_s": ("s", "lower"),
    "codes.verify.calls": ("count", "lower"),
    "codes.verify.self_s": ("s", "lower"),
    "codes.verify.ns_per_vertex": ("ns", "lower"),
    "codes.sum_of_shares.self_s": ("s", "lower"),
    "codes.share.us_per_member": ("us", "lower"),
    "codes.heavy.self_s": ("s", "lower"),
    "search.min_code_size.self_s": ("s", "lower"),
    "search.exists.self_s": ("s", "lower"),
    "search.lower_bound.self_s": ("s", "lower"),
    "search.nodes": ("count", "lower"),
    "search.pruned_bound": ("count", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "search.prune_frac": ("ratio", "lower"),
    "search.k_passes": ("count", "lower"),
    "search.parallel_speedup": ("ratio", "higher"),
    "search.parallel_nodes_ratio": ("ratio", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(t: dict, reference: dict) -> dict:
    """Per-layer figures of one traced round, from Recorder.totals().

    ``reference`` holds the totals of the parallel questions asked once more
    at threads=1, outside the round, for the speed-up and node ratio.
    """
    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    search = t.get("search.min_code_size", {})
    serial = reference.get("search.min_code_size", {})
    nodes, pruned = search.get("nodes", 0), search.get("pruned_bound", 0)
    return {
        "circulant.build.calls": get("circulant.build", "calls"),
        "circulant.build.self_s": get("circulant.build", "self_s"),
        "circulant.build.alloc_mb": get("circulant.build", "bytes") / 2**20,
        "constructions.code_for.calls": get("constructions.code_for", "calls"),
        "constructions.code_for.self_s": get("constructions.code_for", "self_s"),
        "constructions.periodic.self_s": get("constructions.periodic", "self_s"),
        "constructions.code_size.self_s": get("constructions.code_size", "self_s"),
        "codes.code_init.self_s": get("codes.code_init", "self_s"),
        "codes.verify.calls": get("codes.verify", "calls"),
        "codes.verify.self_s": get("codes.verify", "self_s"),
        "codes.verify.ns_per_vertex": 1e9 * ratio(get("codes.verify", "self_s"),
                                                  get("codes.verify", "vertices")),
        "codes.sum_of_shares.self_s": get("codes.sum_of_shares", "self_s"),
        "codes.share.us_per_member": 1e6 * ratio(get("codes.sum_of_shares", "self_s"),
                                                 get("codes.sum_of_shares", "members")),
        "codes.heavy.self_s": get("codes.heavy", "self_s"),
        "search.min_code_size.self_s": get("search.min_code_size", "self_s"),
        "search.exists.self_s": get("search.exists", "self_s"),
        "search.lower_bound.self_s": get("search.lower_bound", "self_s"),
        "search.nodes": nodes,
        "search.pruned_bound": pruned,
        "search.nodes_per_s": ratio(nodes, search.get("serial_s", 0)),
        "search.prune_frac": ratio(pruned, nodes + pruned),
        "search.k_passes": search.get("k_passes", 0),
        "search.parallel_speedup": ratio(serial.get("serial_s", 0), search.get("parallel_s", 0)),
        "search.parallel_nodes_ratio": ratio(search.get("parallel_nodes", 0),
                                             serial.get("nodes", 0)),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
