"""Command-line interface: verify, construct, search, table, density, prove.

Every command prints a human-readable report by default and a canonical
JSON document (schema "v1") with --json.  Exit codes are scriptable:
0 success/valid, 1 property does not hold (or no code exists, or a
recomputed proof differs from the stored one), 2 usage error, 3 search
budget exceeded.  Errors and a blown budget are reported on stderr, except
that `search --json` reports a blown budget in its document on stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from functools import cache

from .circulant import CirculantGraph
from .codes import Code, Kind
from .constructions import (
    PeriodicCode,
    density,
    identifying_code_for,
    identifying_code_size,
    locating_code_for,
    locating_code_size,
    verify_periodic,
)
from .errors import BudgetExceeded, CircodesError, UnsupportedOrder
from .proofs import PROOFS
from .search import _code_of_size, lower_bound, min_code_size

SCHEMA_VERSION = "v1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The least density of a code on the infinite graph with offsets {1,3}, from
# the stored proofs: 1/3 locating, 4/11 identifying.
DENSITY_FLOORS = {kind: proof.density for (offsets, kind), proof in PROOFS.items()
                  if offsets == (1, 3)}


class UsageError(Exception):
    pass


def _parse_kind(text: str) -> Kind:
    try:
        return Kind(text)
    except ValueError:
        raise UsageError(f"unknown kind {text!r}; expected one of "
                         f"{', '.join(k.value for k in Kind)}")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"malformed {what}: {text!r}")


def _parse_code_arg(text: str) -> list[int]:
    """Comma-separated vertices, or @path to a file with one vertex per line."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as exc:
            raise UsageError(f"cannot read code file: {exc}")
        return _parse_ints(" ".join(ln for ln in lines if ln), "code file")
    return _parse_ints(text, "code")


# The v1 parameters every command reports, null unless the command sets them.
PARAMETER_KEYS = ("n", "offsets", "kind", "k", "budget", "threads", "seed")


def _manifest(command: str, params: dict, outcome: dict, t0: float) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "parameters": dict.fromkeys(PARAMETER_KEYS) | params,
        "outcome": outcome,
        "timing": {"seconds": round(time.perf_counter() - t0, 6)},
    }


def _emit(manifest: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(manifest, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _share_texts(code: Code) -> dict[str, str]:
    """Each member's share as text, by ascending member.

    The code's table holds L * share(u) for every u, and its members take
    few distinct values: each makes one Fraction and one string.
    """
    units, scale = code._share_units, code._share_scale
    text = {t: _fraction_str(Fraction(t, scale)) for t in {units[u] for u in code.members}}
    return {str(u): text[units[u]] for u in sorted(code.members)}


def _parse_threshold(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed threshold: {text!r}")


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    offsets = _parse_ints(args.offsets, "offsets")
    members = _parse_code_arg(args.code)
    thr = _parse_threshold(args.heavy) if args.heavy is not None else None
    g = CirculantGraph(args.n, offsets)
    code = Code(g, members)
    result = code.verify(kind)
    outcome: dict = {
        "status": result.status.value,
        "valid": result.ok,
        "size": len(code),
        "witness": list(result.witness) if isinstance(result.witness, tuple)
                   else result.witness,
    }
    lines = [f"{code!r}: {result.status.value}"
             + (f", witness {result.witness}" if result.witness is not None else "")]
    if args.shadows:
        shadows = {u: sorted(code.shadow(u)) for u in range(g.n)}
        outcome["shadows"] = {str(u): s for u, s in shadows.items()}
        lines += [f"  shadow[{u}] = {s}" for u, s in shadows.items()]
    wanted = [name for name, on in (("shares", args.shares), ("heavy", thr is not None)) if on]
    if wanted and not result.ok:
        outcome["skipped"] = wanted
        if not args.json:
            print(f"note: {' and '.join('--' + w for w in wanted)} skipped: "
                  f"the code is {result.status.value}", file=sys.stderr)
    elif wanted:
        if args.shares:
            shares = _share_texts(code)
            outcome["shares"] = shares
            outcome["sum_of_shares"] = _fraction_str(code.sum_of_shares())
            lines += [f"  share[{u}] = {s}" for u, s in shares.items()]
            lines.append(f"  sum of shares = {outcome['sum_of_shares']}")
        if thr is not None:
            heavy = {u: code.profile(u) for u in code.heavy_vertices(thr)}
            outcome["heavy"] = {str(u): list(p) for u, p in heavy.items()}
            lines.append(f"  heavy (share > {_fraction_str(thr)}): "
                         + (", ".join(f"{u} profile {p}" for u, p in heavy.items())
                            or "none"))
    params = {"n": args.n, "offsets": offsets, "kind": kind.value,
              "code": sorted(set(members))}
    _emit(_manifest("verify", params, outcome, t0), args.json, lines)
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    if kind is Kind.DOMINATING:
        raise UsageError("construct supports locating and identifying kinds")
    try:
        if kind is Kind.LOCATING:
            code, size = locating_code_for(args.n), locating_code_size(args.n)
        else:
            code, size = identifying_code_for(args.n), identifying_code_size(args.n)
    except UnsupportedOrder as exc:
        raise UsageError(f"{exc}; use `circodes search` for small orders")
    result = code.verify(kind)
    outcome = {
        "code": sorted(code.members),
        "size": len(code),
        "expected_size": size,
        "verified": result.ok,
        "status": result.status.value,
    }
    lines = [f"C({args.n};1,3) {kind.value} code: {sorted(code.members)}",
             f"size {len(code)}, verification: {result.status.value}"]
    params = {"n": args.n, "offsets": [1, 3], "kind": kind.value}
    _emit(_manifest("construct", params, outcome, t0), args.json, lines)
    return EXIT_OK if result.ok else EXIT_INVALID


def _progress_printer(enabled: bool):
    if not enabled:
        return None
    def hook(examined: int, elapsed: float) -> None:
        rate = examined / elapsed if elapsed > 0 else 0.0
        print(f"  ... {examined} candidates, {rate:,.0f}/s", file=sys.stderr)
    return hook


def cmd_search(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    offsets = _parse_ints(args.offsets, "offsets")
    g = CirculantGraph(args.n, offsets)
    name = f"C({args.n};{','.join(map(str, g.offsets))})"
    progress = _progress_printer(args.progress)
    params = {"n": args.n, "offsets": offsets, "kind": kind.value, "k": args.k,
              "budget": args.budget}
    try:
        if args.k is None:
            result = min_code_size(g, kind, budget=args.budget, progress=progress)
        else:
            result = _code_of_size(g, kind, args.k, budget=args.budget, progress=progress)
    except BudgetExceeded as exc:
        if not args.json:
            raise  # main reports it on stderr
        head = ({"optimum": None} if args.k is None
                else {"exists": None, "size": args.k, "code": None})
        outcome = head | {"note": str(exc), "engine": "dfs", "proved": False}
        _emit(_manifest("search", params, outcome, t0), True, [])
        return EXIT_BUDGET
    stats = {
        "examined": result.stats.examined,
        "pruned_symmetry": result.stats.pruned_symmetry,
        "pruned_bound": result.stats.pruned_bound,
        "leaf_checks": result.stats.leaf_checks,
        "wall_time": round(result.stats.wall_time, 6),
    }
    if args.k is not None:
        found = result.outcome
        code = None if found is None else sorted(found.certificate.members)
        lines = [f"{name} has a {kind.value} code of size {args.k}: {code}"
                 if code is not None else
                 f"{name} has no {kind.value} code of size {args.k} ({result.note})"]
        outcome = {"exists": code is not None, "size": args.k, "code": code,
                   "stats": stats, "engine": result.engine, "proved": True}
        _emit(_manifest("search", params, outcome, t0), args.json, lines)
        return EXIT_OK if code is not None else EXIT_INVALID
    opt = result.outcome
    bounds = lower_bound(args.n, kind, tuple(sorted(offsets)))
    outcome = {
        "optimum": opt.size if opt is not None else None,
        "code": sorted(opt.certificate.members) if opt is not None else None,
        "lower_bound": bounds.effective,
        "stats": stats,
        "engine": result.engine,
        "proved": True,
    }
    if opt is None:
        outcome["note"] = result.note
        _emit(_manifest("search", params, outcome, t0), args.json,
              [f"{name}: {result.note}"])
        return EXIT_INVALID
    lines = [f"minimum {kind.value} code of {name}: size {opt.size}",
             f"certificate: {sorted(opt.certificate.members)}"]
    if result.engine == "proof":
        lines.append("optimal by the stored transfer-matrix proof; "
                     "certificate checked by Code.verify")
    else:
        lines.append(f"examined {result.stats.examined} candidates in "
                     f"{result.stats.wall_time:.2f}s")
    _emit(_manifest("search", params, outcome, t0), args.json, lines)
    return EXIT_OK


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    if kind is Kind.DOMINATING:
        raise UsageError("table supports locating and identifying kinds")
    if args.n_from > args.n_to or args.n_from < 7:
        raise UsageError(f"bad range {args.n_from}..{args.n_to}; need 7 <= from <= to")
    size_fn = locating_code_size if kind is Kind.LOCATING else identifying_code_size
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        bounds = lower_bound(n, kind)
        try:
            construction = size_fn(n)
        except UnsupportedOrder:
            construction = None
        # proved orders need no budget; a construction that fails its check
        # falls back to the budgeted search
        try:
            result = min_code_size(CirculantGraph(n), kind)
            optimum, engine = result.outcome.size, result.engine
        except BudgetExceeded:
            optimum = engine = None
        match = ""
        if optimum is not None and construction is not None:
            match = "=" if optimum == construction else "<"
        rows.append({"n": n, "lower_bound": bounds.effective,
                     "construction": construction, "optimum": optimum,
                     "match": match, "engine": engine})
    params = {"offsets": [1, 3], "kind": kind.value, "range": [args.n_from, args.n_to]}
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "lower_bound", "construction",
                                                 "optimum", "match"],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
        return EXIT_OK
    lines = [f"{'n':>4} {'bound':>6} {'constr':>7} {'optimum':>8} match"]
    for r in rows:
        lines.append(f"{r['n']:>4} {r['lower_bound']:>6} "
                     f"{r['construction'] if r['construction'] is not None else '-':>7} "
                     f"{r['optimum'] if r['optimum'] is not None else '-':>8} "
                     f"{r['match']}")
    _emit(_manifest("table", params, {"rows": rows}, t0), args.json, lines)
    return EXIT_OK


def cmd_density(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    residues = _parse_ints(args.residues, "residues")
    try:
        p = PeriodicCode(args.period, residues)
    except ValueError as exc:
        raise UsageError(str(exc))
    rho = density(p)
    result = verify_periodic(p, kind)
    floor = DENSITY_FLOORS.get(kind)
    outcome = {
        "density": _fraction_str(rho),
        "valid": result.ok,
        "status": result.status.value,
        "witness": list(result.witness) if isinstance(result.witness, tuple)
                   else result.witness,
        "floor": _fraction_str(floor) if floor else None,
        "meets_floor": (rho >= floor) if floor else None,
    }
    rel = "meets" if floor and rho >= floor else "below"
    lines = [f"{p!r}: density {_fraction_str(rho)}, {result.status.value}"
             + (f", {rel} the {_fraction_str(floor)} floor" if floor else "")]
    params = {"offsets": [1, 3], "kind": kind.value, "period": args.period,
              "residues": sorted(set(residues))}
    _emit(_manifest("density", params, outcome, t0), args.json, lines)
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_prove(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    offsets = tuple(sorted(_parse_ints(args.offsets, "offsets")))
    if not offsets or offsets[0] < 1:
        raise UsageError(f"prove needs one or more positive offsets, got {args.offsets!r}")
    from . import transfer  # the solver loads only here
    if offsets[-1] > transfer.MAX_DMAX:
        raise UsageError(f"prove needs offsets with a largest offset of at most "
                         f"{transfer.MAX_DMAX}, got {list(offsets)}")
    proof = transfer.solve(offsets, kind)
    stored = PROOFS.get((offsets, kind))
    matches = None if stored is None else proof == stored
    last = proof.first + len(proof.minima) - 1
    outcome = {
        "live_states": proof.live_states,
        "onset": proof.onset,
        "period": proof.period,
        "increment": proof.increment,
        "density": _fraction_str(proof.density),
        "first": proof.first,
        "minima": list(proof.minima),
        "matches_stored": matches,
    }
    label = ",".join(map(str, offsets))
    lines = [f"C(n;{label}) {kind.value} codes, n >= {proof.first}: "
             f"{proof.live_states} live states",
             f"D(m + {proof.period}) = D(m) + {proof.increment} for m >= {proof.onset}; "
             f"density {_fraction_str(proof.density)}",
             f"minimum for n = {proof.first}..{last}: "
             + " ".join("-" if m is None else str(m) for m in proof.minima),
             {None: "no stored proof", True: "matches the stored proof",
              False: "DIFFERS from the stored proof"}[matches]]
    params = {"offsets": list(offsets), "kind": kind.value}
    _emit(_manifest("prove", params, outcome, t0), args.json, lines)
    return EXIT_INVALID if matches is False else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circodes",
        description="Locating and identifying codes in circulant graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a code against a property")
    p.add_argument("-n", type=int, required=True, help="number of vertices")
    p.add_argument("--offsets", default="1,3", help="comma-separated offsets")
    p.add_argument("--code", required=True,
                   help="comma-separated vertices, or @file with one per line")
    p.add_argument("--kind", required=True,
                   help="dominating, locating, or identifying")
    p.add_argument("--shadows", action="store_true", help="print every shadow")
    p.add_argument("--shares", action="store_true", help="print member shares")
    p.add_argument("--heavy", metavar="THRESH",
                   help="list vertices with share above THRESH (e.g. 3 or 11/4)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit the table construction for an order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--kind", required=True, help="locating or identifying")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exact minimum size, or existence at --k")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--offsets", default="1,3")
    p.add_argument("--kind", required=True)
    p.add_argument("--k", type=int, default=None, help="test one size only")
    p.add_argument("--budget", type=int, default=None,
                   help="largest order searched exhaustively")
    p.add_argument("--progress", action="store_true",
                   help="report candidate throughput on stderr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="bounds/construction/optimum per order")
    p.add_argument("--kind", required=True)
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--csv", action="store_true")
    out.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("density", help="density and validity of a periodic code")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--residues", required=True, help="comma-separated residues")
    p.add_argument("--kind", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("prove", help="recompute the transfer-matrix proof of the optima")
    p.add_argument("--kind", required=True)
    p.add_argument("--offsets", default="1,3", help="largest offset at most 3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prove)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and only read afterwards.

    Building it takes longer than a short command such as `construct`, so
    repeated in-process calls to main reuse it.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, CircodesError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
