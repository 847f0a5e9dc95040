"""Workload mixes, seeded input generation, and the timed phases.

Every workload runs the same phases, one per end-to-end metric, and the
mixes differ in how much work each phase gets: the workload's own layer
gets a deep share and the other phases a light control share.  A later
optimisation should then move its own metric on its own workload and
leave the control metrics where they were.

Seeds choose inputs without changing the amount of work much.  Search
questions come in strata of questions that take nearly the same time
(within a few percent on the reference machine); a seed picks one member
of each stratum.  The threads=2 questions are fixed.  Verification orders
are drawn from narrow bands, table ranges only move their cheap lower
end, and the short CLI calls cycle through fixed combinations of command,
kind and mutation.  So runs with different seeds stay comparable while no
two seeds ask the same thing.

Reported times are wall-clock seconds rescaled by the machine's speed at
the time.  The host this benchmark was written on runs the same Python
code up to 1.7 times slower or faster from one second to the next,
depending on its other tenants.  A fixed pure-Python reference loop runs
between phases, and each phase's wall time is multiplied by REFERENCE_S
over the mean time of the loop runs just before and just after it.  The
parallel phase keeps both cores busy, and the host speeds two busy cores
up or down differently from one, so it is rescaled by the loop run on two
worker processes at once instead.  The raw wall times are kept next to
the rescaled ones.

The library is reached through module attributes at call time
(``circodes.Code``, ``circodes.cli.main``) so that the span recorder in
``spans.py`` can wrap them from outside.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import oracle
from oracle import DOM, HEAVY_THRESHOLD, IDE, LOC, REFERENCE_OPTIMA

KINDS = (DOM, LOC, IDE)

# Phases in the order a round runs them; each is one end-to-end time.
PHASES = ("search_s", "search_wide_s", "search_parallel_s", "verify_s", "shares_s",
          "table_s", "cli_s")


@dataclass(frozen=True)
class Mix:
    """How much work each phase gets in one round."""

    search: tuple     # strata of (kind, n): optimum of C(n;1,3), then nonexistence at optimum-1
    wide: tuple       # strata of (kind, n): optimum of C(n;1,4)
    parallel: tuple   # (kind, n), all asked: optimum of C(n;1,3) with threads=2, all
                      # found at the lower bound, so each call starts one pool.  Not
                      # seeded: a single question at threads=2 is too short to be steady
    verify: tuple     # bands (kind, lo, hi): construction and mutants, verified as all kinds
    shares: tuple     # bands (kind, lo, hi): as verify, then shares of the valid codes
    tables: tuple     # (kind, to): one `circodes table` call each
    cli_calls: int    # short construct / density / verify --shares calls, a multiple of 54


# Rounds are kept short (about 2 s) so that a run holds 14 to 20 of them:
# the host's speed wanders from second to second, and the median of many
# rounds is what makes a run repeatable.  The light questions are fixed:
# at their size no two questions take the same time closely enough.
LIGHT_SEARCH = (((IDE, 27),),)
LIGHT_WIDE = (((LOC, 25),),)
LIGHT_PARALLEL = ((LOC, 30),)
LIGHT_VERIFY = ((LOC, 2000, 2030),)
LIGHT_SHARES = ((IDE, 300, 310),)
LIGHT_TABLES = ((LOC, 22), (IDE, 22))
LIGHT_CLI = 54

WORKLOADS = {
    "search": Mix(
        search=(((LOC, 30), (IDE, 28)), ((LOC, 26), (LOC, 28)), ((IDE, 25), (IDE, 26))),
        wide=(((IDE, 25), (IDE, 26)),),
        parallel=((LOC, 31), (IDE, 31)),
        verify=LIGHT_VERIFY, shares=LIGHT_SHARES, tables=LIGHT_TABLES, cli_calls=LIGHT_CLI,
    ),
    "verify": Mix(
        search=LIGHT_SEARCH, wide=LIGHT_WIDE, parallel=LIGHT_PARALLEL,
        verify=((LOC, 12000, 12300),),
        shares=((LOC, 1100, 1130), (IDE, 950, 980)),
        tables=LIGHT_TABLES, cli_calls=LIGHT_CLI,
    ),
    "table": Mix(
        search=LIGHT_SEARCH, wide=LIGHT_WIDE, parallel=LIGHT_PARALLEL,
        verify=LIGHT_VERIFY, shares=LIGHT_SHARES,
        tables=((LOC, 28), (IDE, 29)), cli_calls=162,
    ),
}


@dataclass(frozen=True)
class Order:
    """One order of the verify phase and the seeded mutants of its construction."""

    kind: str
    n: int
    shares: bool
    drop: float    # position of the dropped member, as a fraction of the code
    add: int       # the added member is the first non-member at or after this vertex
    rotate: int


@dataclass(frozen=True)
class Inputs:
    search: tuple      # (kind, n, k): optimum question, then no code of size k
    wide: tuple        # (kind, n)
    parallel: tuple    # (kind, n) questions
    orders: tuple      # Order
    tables: tuple      # argv
    cli_calls: tuple   # argv

    def params(self) -> dict:
        return {
            "search": [list(q) for q in self.search],
            "wide": [list(q) for q in self.wide],
            "parallel": [list(q) for q in self.parallel],
            "orders": [[o.kind, o.n, o.shares] for o in self.orders],
            "tables": [" ".join(a) for a in self.tables],
            "cli_calls": len(self.cli_calls),
        }


def draw(mix: Mix, seed: int) -> Inputs:
    """Seeded inputs for one run; the same seed always gives the same inputs."""
    rng = random.Random(seed)
    ref13 = REFERENCE_OPTIMA[(1, 3)]
    search = tuple((kind, n, ref13[kind][n] - 1)
                   for kind, n in (rng.choice(s) for s in mix.search))
    wide = tuple(rng.choice(s) for s in mix.wide)
    orders = []
    for bands, shares in ((mix.verify, False), (mix.shares, True)):
        for kind, lo, hi in bands:
            n = rng.randint(lo, hi)
            orders.append(Order(kind, n, shares, rng.random(), rng.randrange(n),
                                rng.randrange(1, n)))
    tables = []
    for kind, to in mix.tables:
        argv = ["table", "--kind", kind, "--from", str(rng.randint(7, 9)), "--to", str(to)]
        tables.append(tuple(argv + ["--csv"] if rng.random() < 0.5 else argv))
    calls = tuple(_cli_call(rng, i) for i in range(mix.cli_calls))
    return Inputs(search, wide, mix.parallel, tuple(orders), tuple(tables), calls)


def _cli_call(rng: random.Random, i: int) -> tuple:
    """Call i of the stream: a construction, a periodic density, or a small verify.

    Command, kind and mutation cycle with i, so every 54 calls hold each
    combination equally often; the seed picks orders, periods and vertices.
    """
    which, combo = i % 3, i // 3 % 18
    if which == 0:
        return ("construct", "-n", str(rng.randint(120, 160)), "--kind", (LOC, IDE)[combo % 2],
                "--json")
    if which == 1:
        period = rng.randint(6, 12)
        residues = rng.sample(range(period), rng.randint(2, period - 1))
        return ("density", "--period", str(period), "--residues",
                ",".join(map(str, residues)), "--kind", KINDS[combo % 3], "--json")
    # A block code (valid for its own kind), kept, or with one member
    # dropped or added, verified as each of the three kinds.
    block_kind, mutation, kind = (LOC, IDE)[combo % 2], combo // 2 % 3, KINDS[combo // 6]
    period, block = (6, (0, 1)) if block_kind == LOC else (11, (0, 1, 4, 5))
    n = period * 5
    members = {period * i + r for i in range(n // period) for r in block}
    if mutation == 1:
        members.discard(rng.choice(sorted(members)))
    elif mutation == 2:
        members.add(rng.choice(sorted(set(range(n)) - members)))
    heavy = ["--heavy", str(HEAVY_THRESHOLD[kind])] if kind != DOM else []
    return ("verify", "-n", str(n), "--code", ",".join(map(str, sorted(members))),
            "--kind", kind, "--shares", *heavy, "--json")


# -- phases --------------------------------------------------------------
#
# A phase returns records: tuples that the oracle checks and that later
# rounds must reproduce exactly.  An operation that raises yields a record
# carrying the exception instead of an answer, so the run goes on and the
# check counts it as failed.


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # counted as a failed operation by the check
        return ("raised", f"{type(exc).__name__}: {exc}")


def _optimum(g, kind, threads=1):
    import circodes as cc
    result = cc.min_code_size(g, cc.Kind(kind), threads=threads)
    return result.outcome.size, tuple(sorted(result.outcome.certificate.members))


def _members(code):
    return None if code is None else tuple(sorted(code.members))


def phase_search(inp: Inputs) -> list:
    import circodes as cc
    out = []
    for kind, n, k in inp.search:
        g = cc.CirculantGraph(n)
        out.append(("optimum", (1, 3), kind, n, 1, _attempt(lambda: _optimum(g, kind))))
        out.append(("exists", kind, n, k,
                    _attempt(lambda: _members(cc.exists_code_of_size(g, cc.Kind(kind), k)))))
    return out


def phase_wide(inp: Inputs) -> list:
    import circodes as cc
    out = []
    for kind, n in inp.wide:
        g = cc.CirculantGraph(n, (1, 4))
        out.append(("optimum", (1, 4), kind, n, 1, _attempt(lambda: _optimum(g, kind))))
    return out


def phase_parallel(inp: Inputs, threads: int = 2) -> list:
    import circodes as cc
    out = []
    for kind, n in inp.parallel:
        g = cc.CirculantGraph(n)
        out.append(("optimum", (1, 3), kind, n, threads,
                    _attempt(lambda: _optimum(g, kind, threads))))
    return out


def _variants(order: Order, members: list[int]) -> dict[str, list[int]]:
    n = order.n
    present = set(members)
    added = order.add
    while added in present:
        added = (added + 1) % n
    drop = members[int(order.drop * len(members))]
    return {
        "table": members,
        "drop": [v for v in members if v != drop],
        "add": sorted(members + [added]),
        "rotate": sorted((v + order.rotate) % n for v in members),
    }


def phase_verify(inp: Inputs) -> tuple[list, list]:
    """Construct, mutate and verify as `circodes verify` does: graph, Code, verify.

    Returns the records and the valid codes of the shares band, which the
    shares phase evaluates next.  Like `circodes verify`, it holds one graph
    at a time: the construction is dropped once its members are read, and
    only the codes the shares phase needs are kept.
    """
    import circodes as cc
    out, share_jobs = [], []
    for order in inp.orders:
        build = cc.locating_code_for if order.kind == LOC else cc.identifying_code_for
        members = _attempt(lambda: sorted(build(order.n).members))
        if isinstance(members, tuple):
            out.append(("code", order.kind, order.n, "table", members, ()))
            continue
        for label, variant in _variants(order, members).items():
            verdicts, last = [], None
            for kind in KINDS:
                def check(kind=kind):
                    nonlocal last
                    c = cc.Code(cc.CirculantGraph(order.n), variant)
                    r = c.verify(cc.Kind(kind))
                    last = c if order.shares else None
                    return r.status.value, r.witness
                verdicts.append(_attempt(check))
            out.append(("code", order.kind, order.n, label, tuple(variant), tuple(verdicts)))
            valid = tuple(k for k, v in zip(KINDS, verdicts) if k != DOM and v[0] == "valid")
            if order.shares and valid:
                share_jobs.append((label, last, valid))
    return out, share_jobs


def phase_shares(share_jobs: list) -> list:
    """`verify --shares --heavy T`: every share, their sum, heavy members and profiles."""
    out = []
    for label, code, kinds in share_jobs:
        def evaluate():
            heavy = []
            for kind in kinds:
                members = code.heavy_vertices(HEAVY_THRESHOLD[kind])
                heavy.append((kind, tuple((u, code.profile(u)) for u in members)))
            return code.sum_of_shares(), tuple(heavy)
        out.append(("shares", code.graph.n, label, tuple(sorted(code.members)),
                    _attempt(evaluate)))
    return out


def _cli(argv) -> tuple[int, str]:
    import circodes.cli
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        rc = circodes.cli.main(list(argv))
    return rc, buf.getvalue()


def phase_tables(inp: Inputs) -> list:
    return [("table", argv, _attempt(lambda: _cli(argv))) for argv in inp.tables]


def phase_cli(inp: Inputs) -> list:
    return [(argv, _attempt(lambda: _cli(argv))) for argv in inp.cli_calls]


def cli_records(raw: list) -> list:
    """Canonical records of the short CLI calls, without the wall-time field."""
    out = []
    for argv, got in raw:
        if got[0] == "raised":
            out.append(("cli", argv, got))
            continue
        rc, text = got
        try:
            doc = json.loads(text)
            doc.pop("timing", None)
            text = json.dumps(doc, sort_keys=True)
        except ValueError:
            pass
        out.append(("cli", argv, (rc, text)))
    return out


# Time of reference_loop() at the reference machine's usual speed.
REFERENCE_S = 0.020


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no circodes code."""
    t0 = time.perf_counter()
    x, total, seen = 1, 0, {}
    masks = tuple((1 << i) | (1 << (i + 3) % 61) for i in range(61))
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        m = masks[x % 61] & x
        total += m.bit_count()
        seen[m & 1023] = i
    return time.perf_counter() - t0


def _reference_in_worker(_):
    return reference_loop()


def reference_pair() -> float:
    """Mean time of reference_loop() run on two worker processes at once."""
    from concurrent.futures import ProcessPoolExecutor  # here, to keep imports light
    with ProcessPoolExecutor(max_workers=2) as pool:
        return statistics.mean(pool.map(_reference_in_worker, range(2)))


@dataclass
class Round:
    times: dict     # phase -> rescaled seconds
    wall: dict      # phase -> wall-clock seconds
    records: list   # None once settle() has compared them with the first round
    loops: list     # reference_loop() samples taken between the phases
    size: int = 0              # number of records, kept by settle()
    differ: frozenset = None   # positions where the records differ from the first round


def settle(first: Round, rnd: Round) -> None:
    """Compare a round's records with the first round's and drop them.

    A run keeps only the first round's records, so the memory it holds does
    not grow with the number of rounds.  A round of another length differs
    everywhere.
    """
    a, b = first.records, rnd.records
    rnd.size = len(b)
    rnd.differ = (frozenset(range(len(b))) if len(a) != len(b)
                  else frozenset(i for i, (x, y) in enumerate(zip(a, b)) if x != y))
    rnd.records = None


def run_round(inp: Inputs) -> Round:
    """One closed-loop pass over every phase, each timed on its own."""
    times, wall, records, loops = {}, {}, [], [reference_loop()]

    def timed(name, fn, *args, reference=reference_loop):
        before = loops[-1] if reference is reference_loop else reference()
        t0 = time.perf_counter()
        result = fn(*args)
        wall[name] = time.perf_counter() - t0
        after = reference()
        if reference is reference_loop:
            loops.append(after)
        times[name] = wall[name] * 2 * REFERENCE_S / (before + after)
        return result

    records += timed("search_s", phase_search, inp)
    records += timed("search_wide_s", phase_wide, inp)
    records += timed("search_parallel_s", phase_parallel, inp, reference=reference_pair)
    verified, share_jobs = timed("verify_s", phase_verify, inp)
    records += verified
    records += timed("shares_s", phase_shares, share_jobs)
    records += timed("table_s", phase_tables, inp)
    records += cli_records(timed("cli_s", phase_cli, inp))
    return Round(times, wall, records, loops)


def speed_scale(rounds: list) -> float:
    """Factor that maps this run's wall-clock seconds to reference-speed seconds."""
    return REFERENCE_S / statistics.mean(t for r in rounds for t in r.loops)


# -- checks ---------------------------------------------------------------


def check_record(rec) -> bool:
    """True when the record's answer matches the independent oracle."""
    tag = rec[0]
    if tag == "optimum":
        _, offsets, kind, n, _, got = rec
        if got[0] == "raised":
            return False
        size, members = got
        return (size == REFERENCE_OPTIMA[offsets][kind][n] and len(members) == size
                and _certificate_ok(n, offsets, members, kind))
    if tag == "exists":
        return rec[4] is None
    if tag == "code":
        _, built_kind, n, label, members, verdicts = rec
        if not verdicts:
            return False
        shadows = oracle.Shadows(n, (1, 3), members)
        if label == "table" and (len(members) != oracle.construction_size(n, built_kind)
                                 or shadows.verify(built_kind)[0] != "valid"):
            return False
        return list(verdicts) == [shadows.verify(k) for k in KINDS]
    if tag == "shares":
        _, n, _, members, got = rec
        if got[0] == "raised":
            return False
        total, heavy = got
        shadows = oracle.Shadows(n, (1, 3), members)
        shares = shadows.shares()
        if total != n or sum(shares.values()) != n:
            return False
        for kind, found in heavy:
            expect = tuple((u, shadows.profile(u)) for u, s in shares.items()
                           if s > HEAVY_THRESHOLD[kind])
            if found != expect or any(p not in oracle.HEAVY_PROFILES[kind] for _, p in found):
                return False
        return True
    if tag == "table":
        _, argv, got = rec
        if got[0] != 0:
            return False
        kind, lo, hi = argv[2], int(argv[4]), int(argv[6])
        return oracle.parse_table(got[1], "--csv" in argv) == oracle.expected_table(kind, lo, hi)
    if tag == "cli":
        return _cli_ok(rec[1], rec[2])
    return False


def _certificate_ok(n, offsets, members, kind) -> bool:
    """Re-check a search certificate with Code.verify and with the oracle."""
    import circodes as cc
    library = cc.Code(cc.CirculantGraph(n, offsets), members).verify(cc.Kind(kind))
    return library.ok and oracle.Shadows(n, offsets, members).verify(kind)[0] == "valid"


def _cli_ok(argv, got) -> bool:
    if got[0] == "raised":
        return False
    rc, text = got
    try:
        out = json.loads(text)["outcome"]
    except (ValueError, KeyError):
        return False
    opts = dict(zip(argv[1::2], argv[2::2]))
    kind = opts["--kind"]
    if argv[0] == "construct":
        n = int(opts["-n"])
        size = oracle.construction_size(n, kind)
        status = oracle.Shadows(n, (1, 3), out["code"]).verify(kind)[0]
        return (rc == 0 and status == "valid" and out["status"] == "valid"
                and out["verified"] is True and out["size"] == size == len(out["code"])
                and out["expected_size"] == size)
    if argv[0] == "density":
        period = int(opts["--period"])
        residues = set(map(int, opts["--residues"].split(",")))
        status = oracle.periodic_status(period, residues, kind)
        return (rc == (0 if status == "valid" else 1) and out["status"] == status
                and out["valid"] == (status == "valid")
                and out["density"] == oracle.fraction_str(Fraction(len(residues), period)))
    n = int(opts["-n"])
    members = [int(v) for v in opts["--code"].split(",")]
    shadows = oracle.Shadows(n, (1, 3), members)
    status, witness = shadows.verify(kind)
    if (rc != (0 if status == "valid" else 1) or out["status"] != status
            or out["witness"] != (list(witness) if isinstance(witness, tuple) else witness)
            or out["size"] != len(members)):
        return False
    if status != "valid":
        return "shares" not in out
    shares = shadows.shares()
    if (out["shares"] != {str(u): oracle.fraction_str(s) for u, s in shares.items()}
            or out["sum_of_shares"] != str(n)):
        return False
    if kind == DOM:
        return "heavy" not in out
    thr = HEAVY_THRESHOLD[kind]
    return out["heavy"] == {str(u): list(shadows.profile(u))
                            for u, s in shares.items() if s > thr}


def check_rounds(first: Round, later: list) -> tuple[int, int]:
    """(attempted, failed) over all rounds.

    The first round is checked against the oracle record by record; every
    later round must reproduce it exactly, which also holds `table` output
    byte-identical across runs.  Later rounds not yet settled are settled
    here.
    """
    ok = [check_record(r) for r in first.records]
    attempted, failed = len(ok), ok.count(False)
    for rnd in later:
        if rnd.records is not None:
            settle(first, rnd)
        attempted += rnd.size
        if rnd.size != len(ok):
            failed += rnd.size
        else:
            failed += sum(1 for i, good in enumerate(ok) if not good or i in rnd.differ)
    return attempted, failed
