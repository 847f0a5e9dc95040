#!/usr/bin/env python3
"""circodes benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client asks its questions back to back in this process
(``--threads 2`` questions add two worker processes).  A run sets up,
runs one untimed warm-up round, then repeats timed rounds until
``--seconds`` have passed and reports per-phase medians.  Every answer is
checked outside the timed regions (see oracle.py).

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the run alternates traced and
untraced rounds and reports per-layer metrics instead.  The lines before
it are a readable report; the same record goes to bench/results/.
See bench/README.md for the workloads, the metrics and their limits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 9

import spans  # noqa: E402  (bench/ is the script's own directory)
import workloads  # noqa: E402
from workloads import PHASES, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "search_s": "s", "search_wide_s": "s",
    "search_parallel_s": "s", "verify_s": "s", "shares_s": "s", "table_s": "s",
    "cli_calls_per_s": "1/s",
}


def load_library():
    """Import circodes from this checkout's src/, and nowhere else."""
    if not (SRC / "circodes" / "__init__.py").is_file():
        sys.exit(f"error: no circodes sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import circodes
    import circodes.cli  # noqa: F401
    if Path(circodes.__file__).resolve().parent != SRC / "circodes":
        sys.exit(f"error: imported circodes from {circodes.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, as a user's first call pays it.

    Returns (rescaled, wall) seconds.  Set-up follows the host's speed like
    the phases do, so it is rescaled the same way, by reference loops run
    in this process just before and just after the probe.
    """
    before = workloads.reference_loop()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    after = workloads.reference_loop()
    wall = float(proc.stdout.strip().splitlines()[-1])
    return wall * 2 * workloads.REFERENCE_S / (before + after), wall


def measure(inputs, seconds: float, probe):
    """Timed rounds until the deadline, with one set-up probe after each of the first ones.

    Spreading the probes over the run keeps one slow moment of the host
    from deciding setup_s.  Each round's records are compared with the
    first round's as it ends and then dropped, and peak_rss_mb is read
    before the oracle checks, so the figure is the library's working set
    and does not grow with the number of rounds.
    """
    deadline = time.perf_counter() + seconds
    first = workloads.run_round(inputs)
    rounds, setups = [], []
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workloads.run_round(inputs))
        workloads.settle(first, rounds[-1])
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
    setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = workloads.check_rounds(first, rounds)
    scale = workloads.speed_scale(rounds)
    med = {p: statistics.median(r.times[p] for r in rounds) for p in PHASES}
    metrics = {p: med[p] for p in PHASES if p in END_TO_END_UNITS}
    metrics["cli_calls_per_s"] = len(inputs.cli_calls) / med["cli_s"]
    metrics["setup_s"] = statistics.median(t for t, _ in setups)
    metrics["setup_wall_s"] = statistics.median(w for _, w in setups)  # report only
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, attempted, failed, rounds, scale


def measure_traced(inputs, seconds: float):
    """Alternate traced and untraced rounds; per-layer medians of the traced ones."""
    deadline = time.perf_counter() + seconds
    first = workloads.run_round(inputs)
    traced, plain, layers, reference = [], [], [], []
    while not (traced and plain) or time.perf_counter() < deadline:
        if len(traced) > len(plain):
            plain.append(workloads.run_round(inputs))
            workloads.settle(first, plain[-1])
            continue
        rec, ref = spans.Recorder(), spans.Recorder()
        with spans.installed(rec):
            traced.append(workloads.run_round(inputs))
        workloads.settle(first, traced[-1])
        with spans.installed(ref):
            reference += workloads.phase_parallel(inputs, threads=1)
        layers.append(spans.layer_metrics(rec.totals(), ref.totals()))
    attempted, failed = workloads.check_rounds(first, traced + plain)
    bad = [r for r in reference if not workloads.check_record(r)]
    attempted, failed = attempted + len(reference), failed + len(bad)
    # Counts are the same in every round; times are medians over the traced rounds.
    metrics = {k: (statistics.median_low if spans.PER_LAYER[k][0] == "count"
                   else statistics.median)([layer[k] for layer in layers])
               for k in layers[0]}
    metrics["trace.overhead_frac"] = (statistics.median(sum(r.times.values()) for r in traced)
                                      / statistics.median(sum(r.times.values()) for r in plain)
                                      - 1)
    return metrics, attempted, failed, traced + plain, workloads.speed_scale(traced + plain)


def environment(seed: int, inputs) -> dict:
    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        level, llc = max((int((c / "level").read_text()), (c / "size").read_text().strip())
                         for c in caches)
        llc = f"L{level} {llc}"
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "llc": llc, "commit": git_commit(), "seed": seed,
            "params": inputs.params()}


def git_commit() -> str:
    """HEAD of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_library()
    inputs = workloads.draw(WORKLOADS[args.workload], args.seed)

    if args.trace:
        metrics, attempted, failed, rounds, scale = measure_traced(inputs, args.seconds)
        units = {k: unit for k, (unit, _) in spans.PER_LAYER.items()}
    else:
        metrics, attempted, failed, rounds, scale = measure(
            inputs, args.seconds, lambda: probe_setup(args.workload, args.seed))
        units = END_TO_END_UNITS

    env = environment(args.seed, inputs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(f"circodes benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(rounds)} timed rounds after one warm-up")
    print("environment: " + json.dumps({k: v for k, v in env.items() if k != "params"}))
    print("inputs: " + json.dumps(env["params"]))
    for name, m in result["metrics"].items():
        print(f"  {name:32} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':32} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    wall = {p: statistics.median(r.wall[p] for r in rounds) for p in PHASES}
    if "setup_wall_s" in metrics:
        wall["setup_s"] = metrics["setup_wall_s"]
    print(f"mean speed scale {scale:.4f}; wall-clock medians before rescaling: "
          + ", ".join(f"{p} {t:.4f}" for p, t in wall.items()))
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, environment=env,
                  speed_scale=scale,
                  rounds=[{"times": r.times, "wall": r.wall, "reference_loops": r.loops}
                          for r in rounds])
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
