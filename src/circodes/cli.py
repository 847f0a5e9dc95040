"""Command-line interface: verify, construct, search, table, density, prove.

Every command prints a human-readable report by default and a canonical
JSON document (schema "v1") with --json.  A command builds its outcome
once; it renders the text report only without --json, and under --json
prints the document alone.  Exit codes are scriptable: 0 success/valid,
1 property does not hold (or no code exists, or a recomputed proof differs
from the stored one), 2 usage error, 3 search budget exceeded.  Errors and
a blown budget are reported on stderr, except that `search --json` reports
a blown budget in its document on stdout.

Every command's options are declared once, in `_COMMANDS`.  A plain call
(a known command, then only its exact option strings with valid values)
is read from that table and builds no parser.  Any other argv goes to the
argparse parser built from the same table, in one parse_args call, so
every message and exit code is argparse's own.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from functools import cache

from .circulant import CirculantGraph
from .codes import Code, Kind, _profile_of
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
# lower_bound is not called here; bench/spans.py wraps cli.lower_bound
from .search import _bounds, _code_of_size, lower_bound, min_code_size

SCHEMA_VERSION = "v1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The least density of a code on the infinite graph with offsets {1,3}, from
# the stored proofs: 1/3 locating, 4/11 identifying.
DENSITY_FLOORS = {kind: proof.density for (offsets, kind), proof in PROOFS.items()
                  if offsets == (1, 3)}


def _parse_kind(text: str) -> Kind:
    try:
        return Kind(text)
    except ValueError:
        raise ValueError(f"unknown kind {text!r}; expected one of "
                         f"{', '.join(k.value for k in Kind)}")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}")


def _parse_code_arg(text: str) -> list[int]:
    """Comma-separated vertices, or @path to a file with one vertex per line."""
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as exc:
            raise ValueError(f"cannot read code file: {exc}")
        return _parse_ints(" ".join(ln for ln in lines if ln), "code file")
    return _parse_ints(text, "code")


# The v1 parameters every command reports, null unless the command sets them.
PARAMETER_KEYS = ("n", "offsets", "kind", "k", "budget", "threads", "seed")


def _emit(as_json: bool, command: str, params: dict, outcome: dict, t0: float,
          text) -> None:
    """Print the v1 document with --json, else the lines that text() renders."""
    if as_json:
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "command": command,
            "parameters": dict.fromkeys(PARAMETER_KEYS) | params,
            "outcome": outcome,
            "timing": {"seconds": round(time.perf_counter() - t0, 6)},
        }, sort_keys=True))
    else:
        for line in text():
            print(line)


def _share_texts(code: Code) -> dict[str, str]:
    """Each member's share as text, by ascending member.

    The code's table holds L * share(u) for every u, and its members take
    few distinct values: each makes one Fraction and one string.
    """
    units, scale = code._share_units, code._share_scale
    text = {t: str(Fraction(t, scale)) for t in {units[u] for u in code.members}}
    return {str(u): text[units[u]] for u in sorted(code.members)}


def _parse_threshold(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed threshold: {text!r}")


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
        "witness": result.witness,
    }
    if args.shadows:
        outcome["shadows"] = {str(u): sorted(code.shadow(u)) for u in range(g.n)}
    wanted = [name for name, on in (("shares", args.shares), ("heavy", thr is not None)) if on]
    if wanted and not result.ok:
        outcome["skipped"] = wanted
        if not args.json:
            print(f"note: {' and '.join('--' + w for w in wanted)} skipped: "
                  f"the code is {result.status.value}", file=sys.stderr)
    elif wanted:
        if args.shares:
            outcome["shares"] = _share_texts(code)
            outcome["sum_of_shares"] = str(code.sum_of_shares())
        if thr is not None:
            # heavy members take few distinct profile keys: each is decoded once
            heavy, keys = code.heavy_vertices(thr), code._profile_keys
            profiles = {key: _profile_of(key, len(g.pattern))
                        for key in set(map(keys.__getitem__, heavy))}
            outcome["heavy"] = {str(u): profiles[keys[u]] for u in heavy}

    def text():
        yield (f"{code!r}: {result.status.value}"
               + (f", witness {result.witness}" if result.witness is not None else ""))
        for u, s in outcome.get("shadows", {}).items():
            yield f"  shadow[{u}] = {s}"
        if "shares" in outcome:
            for u, s in outcome["shares"].items():
                yield f"  share[{u}] = {s}"
            yield f"  sum of shares = {outcome['sum_of_shares']}"
        if "heavy" in outcome:
            # heavy members take few distinct profiles: each is formatted once
            heavy = outcome["heavy"]
            texts = {p: f"profile {p}" for p in set(heavy.values())}
            yield (f"  heavy (share > {thr}): "
                   + (", ".join([f"{u} {texts[p]}" for u, p in heavy.items()]) or "none"))

    params = {"n": args.n, "offsets": offsets, "kind": kind.value,
              "code": sorted(set(members))}
    _emit(args.json, "verify", params, outcome, t0, text)
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    if kind is Kind.DOMINATING:
        raise ValueError("construct supports locating and identifying kinds")
    try:
        if kind is Kind.LOCATING:
            code, size = locating_code_for(args.n), locating_code_size(args.n)
        else:
            code, size = identifying_code_for(args.n), identifying_code_size(args.n)
    except UnsupportedOrder as exc:
        raise ValueError(f"{exc}; use `circodes search` for small orders")
    result = code.verify(kind)
    outcome = {
        "code": sorted(code.members),
        "size": len(code),
        "expected_size": size,
        "verified": result.ok,
        "status": result.status.value,
    }
    params = {"n": args.n, "offsets": [1, 3], "kind": kind.value}
    _emit(args.json, "construct", params, outcome, t0, lambda: (
        f"C({args.n};1,3) {kind.value} code: {outcome['code']}",
        f"size {len(code)}, verification: {result.status.value}"))
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
        _emit(True, "search", params, outcome, t0, None)
        return EXIT_BUDGET
    stats = result.stats._asdict() | {"wall_time": round(result.stats.wall_time, 6)}
    found = result.outcome
    code = None if found is None else sorted(found.certificate.members)
    if args.k is not None:
        outcome = {"exists": code is not None, "size": args.k, "code": code}
    else:
        outcome = {"optimum": None if found is None else found.size, "code": code,
                   "lower_bound": _bounds(g, kind).effective}
        if found is None:
            outcome["note"] = result.note
    outcome |= {"stats": stats, "engine": result.engine, "proved": True}

    def text():
        name = f"C({args.n};{','.join(map(str, g.offsets))})"
        if args.k is not None:
            yield (f"{name} has a {kind.value} code of size {args.k}: {code}"
                   if code is not None else
                   f"{name} has no {kind.value} code of size {args.k} ({result.note})")
        elif code is None:
            yield f"{name}: {result.note}"
        else:
            yield f"minimum {kind.value} code of {name}: size {found.size}"
            yield f"certificate: {code}"
            if result.engine == "proof":
                yield ("optimal by the stored transfer-matrix proof; "
                       "certificate checked by Code.verify")
            else:
                yield (f"examined {result.stats.examined} candidates in "
                       f"{result.stats.wall_time:.2f}s")

    _emit(args.json, "search", params, outcome, t0, text)
    return EXIT_OK if code is not None else EXIT_INVALID


def cmd_table(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    if kind is Kind.DOMINATING:
        raise ValueError("table supports locating and identifying kinds")
    if args.n_from > args.n_to or args.n_from < 7:
        raise ValueError(f"bad range {args.n_from}..{args.n_to}; need 7 <= from <= to")
    size_fn = locating_code_size if kind is Kind.LOCATING else identifying_code_size
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        g = CirculantGraph(n)
        bounds = _bounds(g, kind)
        try:
            construction = size_fn(n)
        except UnsupportedOrder:
            construction = None
        # proved orders need no budget; a construction that fails its check
        # falls back to the budgeted search
        try:
            result = min_code_size(g, kind)
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
        writer = csv.DictWriter(sys.stdout, fieldnames=["n", "lower_bound", "construction",
                                                        "optimum", "match"],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        return EXIT_OK

    def text():
        yield f"{'n':>4} {'bound':>6} {'constr':>7} {'optimum':>8} match"
        for r in rows:
            yield (f"{r['n']:>4} {r['lower_bound']:>6} "
                   f"{r['construction'] if r['construction'] is not None else '-':>7} "
                   f"{r['optimum'] if r['optimum'] is not None else '-':>8} "
                   f"{r['match']}")

    _emit(args.json, "table", params, {"rows": rows}, t0, text)
    return EXIT_OK


def cmd_density(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    residues = _parse_ints(args.residues, "residues")
    p = PeriodicCode(args.period, residues)
    rho = density(p)
    result = verify_periodic(p, kind)
    floor = DENSITY_FLOORS.get(kind)
    outcome = {
        "density": str(rho),
        "valid": result.ok,
        "status": result.status.value,
        "witness": result.witness,
        "floor": str(floor) if floor else None,
        "meets_floor": (rho >= floor) if floor else None,
    }
    params = {"offsets": [1, 3], "kind": kind.value, "period": args.period,
              "residues": sorted(set(residues))}
    _emit(args.json, "density", params, outcome, t0, lambda: (
        f"{p!r}: density {outcome['density']}, {result.status.value}"
        + (f", {'meets' if outcome['meets_floor'] else 'below'} the {outcome['floor']} floor"
           if floor else ""),))
    return EXIT_OK if result.ok else EXIT_INVALID


def cmd_prove(args) -> int:
    t0 = time.perf_counter()
    kind = _parse_kind(args.kind)
    from . import transfer  # the solver loads only here
    proof = transfer.solve(_parse_ints(args.offsets, "offsets"), kind)
    offsets = proof.offsets
    stored = PROOFS.get((offsets, kind))
    matches = None if stored is None else proof == stored
    outcome = {
        "live_states": proof.live_states,
        "onset": proof.onset,
        "period": proof.period,
        "increment": proof.increment,
        "density": str(proof.density),
        "first": proof.first,
        "minima": proof.minima,
        "matches_stored": matches,
    }
    params = {"offsets": offsets, "kind": kind.value}
    _emit(args.json, "prove", params, outcome, t0, lambda: (
        f"C(n;{','.join(map(str, offsets))}) {kind.value} codes, n >= {proof.first}: "
        f"{proof.live_states} live states",
        f"D(m + {proof.period}) = D(m) + {proof.increment} for m >= {proof.onset}; "
        f"density {outcome['density']}",
        f"minimum for n = {proof.first}..{proof.first + len(proof.minima) - 1}: "
        + " ".join("-" if m is None else str(m) for m in proof.minima),
        {None: "no stored proof", True: "matches the stored proof",
         False: "DIFFERS from the stored proof"}[matches]))
    return EXIT_INVALID if matches is False else EXIT_OK


_FLAG = {"action": "store_true"}
_JSON = ("--json", _FLAG)
_N = ("-n", {"type": int, "required": True})
_KIND = ("--kind", {"required": True})

# Each command's help, function, options and mutually exclusive options,
# declared once: an option is its flag and the keywords of its add_argument
# call, a value option or, with action "store_true", a flag.
# build_parser builds the argparse parser from this table, and _plain
# reads a plain argv with it directly.
_COMMANDS = {
    "verify": ("verify a code against a property", cmd_verify, (
        ("-n", {"type": int, "required": True, "help": "number of vertices"}),
        ("--offsets", {"default": "1,3", "help": "comma-separated offsets"}),
        ("--code", {"required": True,
                    "help": "comma-separated vertices, or @file with one per line"}),
        ("--kind", {"required": True, "help": "dominating, locating, or identifying"}),
        ("--shadows", {"action": "store_true", "help": "print every shadow"}),
        ("--shares", {"action": "store_true", "help": "print member shares"}),
        ("--heavy", {"metavar": "THRESH",
                     "help": "list vertices with share above THRESH (e.g. 3 or 11/4)"}),
        _JSON), ()),
    "construct": ("emit the table construction for an order", cmd_construct, (
        _N, ("--kind", {"required": True, "help": "locating or identifying"}), _JSON), ()),
    "search": ("exact minimum size, or existence at --k", cmd_search, (
        _N, ("--offsets", {"default": "1,3"}), _KIND,
        ("--k", {"type": int, "help": "test one size only"}),
        ("--budget", {"type": int, "help": "largest order searched exhaustively"}),
        ("--progress", {"action": "store_true",
                        "help": "report candidate throughput on stderr"}),
        _JSON), ()),
    "table": ("bounds/construction/optimum per order", cmd_table, (
        _KIND,
        ("--from", {"dest": "n_from", "type": int, "required": True}),
        ("--to", {"dest": "n_to", "type": int, "required": True})),
        (("--csv", _FLAG), _JSON)),
    "density": ("density and validity of a periodic code", cmd_density, (
        ("--period", {"type": int, "required": True}),
        ("--residues", {"required": True, "help": "comma-separated residues"}),
        _KIND, _JSON), ()),
    "prove": ("recompute the transfer-matrix proof of the optima", cmd_prove, (
        _KIND, ("--offsets", {"default": "1,3", "help": "largest offset at most 3"}),
        _JSON), ()),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, the one main uses: parse with it, do not change it.

    Built from _COMMANDS once per process, when a call first needs it, and
    only read afterwards.
    """
    parser = argparse.ArgumentParser(
        prog="circodes",
        description="Locating and identifying codes in circulant graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, options, exclusive) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        if exclusive:
            group = p.add_mutually_exclusive_group()
            for flag, keywords in exclusive:
                group.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) for a plain argv, read from _COMMANDS.

    Plain means a known command, then only exact option strings of that
    command, none twice: a flag takes no token, and a value option takes
    the next one, which must not start with "-" and must convert with the
    option's type.  Every required option is given, and at most one of the
    exclusive options.  Any other argv gives None, for argparse to judge.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, options, exclusive = entry
    options += exclusive
    specs = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = specs.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            given[flag] = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    if (any(keywords.get("required") and flag not in given for flag, keywords in options)
            or sum(flag in given for flag, _ in exclusive) > 1):
        return None
    values = {"command": argv[0]}
    for flag, keywords in options:
        values[keywords.get("dest") or flag.lstrip("-").replace("-", "_")] = given.get(
            flag, keywords.get("default", False if "action" in keywords else None))
    return argparse.Namespace(**values, func=func)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace that build_parser().parse_args(argv) gives.

    A plain argv is read from _COMMANDS alone, and builds no parser; any
    other is build_parser().parse_args(argv), so --help, a missing or
    unknown command and every usage error get argparse's own messages.
    """
    return _plain(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CircodesError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
