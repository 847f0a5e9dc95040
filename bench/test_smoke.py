"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every phase on tiny inputs, checks that the answers pass the oracle,
that a deliberately corrupted answer is counted as failed, that traced
rounds give every per-layer figure with repeatable counts, and that the
benchmark refuses to run without the library's sources.
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import IDE, LOC  # noqa: E402

TINY = workloads.Mix(
    search=(((LOC, 14), (IDE, 14)),),
    wide=(((IDE, 12),),),
    parallel=((LOC, 16),),
    verify=((LOC, 200, 210),),
    shares=((IDE, 60, 66),),
    tables=((LOC, 12),),
    cli_calls=54,
)


def test_draw_is_seeded():
    assert workloads.draw(TINY, 5) == workloads.draw(TINY, 5)
    assert workloads.draw(TINY, 5) != workloads.draw(TINY, 6)


def test_rounds_pass_the_oracle():
    inputs = workloads.draw(TINY, 1)
    first, second, third = (workloads.run_round(inputs) for _ in range(3))
    assert set(first.wall) == set(workloads.PHASES)
    workloads.settle(first, third)
    assert third.records is None and third.differ == frozenset()
    attempted, failed = workloads.check_rounds(first, [second, third])
    assert attempted == 3 * len(first.records) and failed == 0


def test_corrupted_answers_are_counted():
    inputs = workloads.draw(TINY, 2)
    first, second = workloads.run_round(inputs), workloads.run_round(inputs)
    base = len(first.records)

    i = next(i for i, r in enumerate(second.records) if r[0] == "optimum")
    tag, offsets, kind, n, threads, (size, members) = second.records[i]
    wrong = (tag, offsets, kind, n, threads, (size - 1, members[:-1]))
    assert not workloads.check_record(wrong)
    corrupted = replace(second, records=second.records[:i] + [wrong] + second.records[i + 1:])
    attempted, failed = workloads.check_rounds(first, [corrupted])
    assert (attempted, failed) == (2 * base, 1) and failed / attempted > 0

    # A table printed differently in one round breaks byte-identity.
    j = next(j for j, r in enumerate(second.records) if r[0] == "table")
    tag, argv, (rc, text) = second.records[j]
    changed = replace(second, records=second.records[:j] + [(tag, argv, (rc, text + " "))]
                      + second.records[j + 1:])
    assert workloads.check_rounds(first, [changed]) == (2 * base, 1)


def test_oracle_examples():
    # The README's locating example; as identifying, 6 and 7 both see {6, 7}.
    assert oracle.Shadows(14, (1, 3), [0, 1, 6, 7, 12, 13]).verify(LOC) == ("valid", None)
    assert oracle.Shadows(14, (1, 3), [0, 1, 6, 7, 12, 13]).verify(IDE) == (
        "not-identifying", (6, 7))
    shares = oracle.Shadows(14, (1, 3), [0, 1, 6, 7, 12, 13]).shares()
    assert sum(shares.values()) == 14
    assert oracle.periodic_status(11, (0, 1, 4, 5), IDE) == "valid"
    assert oracle.periodic_status(6, (0, 1), IDE) != "valid"


def test_traced_round_reports_every_layer():
    inputs = workloads.draw(TINY, 3)
    figures = []
    for _ in range(2):
        rec, ref = spans.Recorder(), spans.Recorder()
        with spans.installed(rec):
            workloads.run_round(inputs)
        with spans.installed(ref):
            workloads.phase_parallel(inputs, threads=1)
        figures.append(spans.layer_metrics(rec.totals(), ref.totals()))
    assert set(figures[0]) == set(spans.PER_LAYER) - {"trace.overhead_frac"}
    exact = [k for k, (unit, _) in spans.PER_LAYER.items() if unit == "count"]
    assert all(figures[0][k] == figures[1][k] for k in exact)
    assert figures[0]["search.nodes"] > 0 and figures[0]["codes.verify.calls"] > 0
    # Wrappers are gone after the traced round.
    import circodes
    assert not hasattr(circodes.Code.verify, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
