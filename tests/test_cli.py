import argparse
import json
import os
import random
import re
import subprocess
import sys

import pytest

from circodes import (CirculantGraph, Code, Kind, cli, identifying_code_size, lower_bound,
                      min_code_size, search)
from circodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# -- verify -------------------------------------------------------------------

def test_verify_valid_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "-n", "14", "--code", "0,1,6,7,12,13",
                       "--kind", "locating")
    assert code == 0
    assert "valid" in out


def test_verify_invalid_exit_one_with_witness(capsys):
    code, out, _ = run(capsys, "verify", "-n", "7", "--code", "0",
                       "--kind", "dominating")
    assert code == 1
    assert "witness 2" in out


def test_verify_collision_witness(capsys):
    code, out, _ = run(capsys, "verify", "-n", "11", "--code", "0,4,5,6",
                       "--kind", "identifying")
    assert code == 1
    assert "not-identifying" in out


def test_verify_malformed_code_exit_two(capsys):
    code, _, err = run(capsys, "verify", "-n", "9", "--code", "0,banana",
                       "--kind", "locating")
    assert code == 2
    assert "malformed" in err


def test_verify_out_of_range_vertex_exit_two(capsys):
    code, _, err = run(capsys, "verify", "-n", "9", "--code", "0,9",
                       "--kind", "locating")
    assert code == 2


def test_verify_bad_kind_exit_two(capsys):
    code, _, err = run(capsys, "verify", "-n", "9", "--code", "0",
                       "--kind", "covering")
    assert code == 2
    assert "kind" in err


def test_verify_code_from_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("0\n1\n6\n7\n10\n")
    code, out, _ = run(capsys, "verify", "-n", "13", "--code", f"@{path}",
                       "--kind", "identifying")
    assert code == 0


def test_verify_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "verify", "-n", "13", "--code", "@/nonexistent",
                       "--kind", "identifying")
    assert code == 2


def test_verify_shares_and_heavy(capsys):
    code, out, _ = run(capsys, "verify", "-n", "11", "--code", "0,1,4,5",
                       "--kind", "identifying", "--shares", "--heavy", "11/4")
    assert code == 0
    assert "sum of shares = 11" in out
    assert "(1, 2, 2, 2, 3)" in out


def test_verify_shares_match_code_share(capsys):
    # members with equal shares share one formatted value; each still
    # reads as Code.share formats it
    code, doc = run_json(capsys, "verify", "-n", "22", "--code", "0,1,2,6,11,12,13,17",
                         "--kind", "locating", "--shares")
    assert code == 0
    c = Code(CirculantGraph(22), [0, 1, 2, 6, 11, 12, 13, 17])
    expected = {str(u): str(c.share(u)) for u in sorted(c.members)}
    assert doc["outcome"]["shares"] == expected
    assert len(set(expected.values())) > 1


def test_verify_malformed_heavy_exit_two_on_invalid_code(capsys):
    for thresh in ("abc", "1/0"):
        code, _, err = run(capsys, "verify", "-n", "7", "--code", "0",
                           "--kind", "dominating", "--heavy", thresh)
        assert code == 2
        assert "malformed threshold" in err


def test_verify_reports_skipped_shares(capsys):
    argv = ("verify", "-n", "7", "--code", "0", "--kind", "dominating",
            "--shares", "--heavy", "3")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "--shares and --heavy skipped" in err
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["outcome"]["skipped"] == ["shares", "heavy"]
    assert "shares" not in doc["outcome"] and "heavy" not in doc["outcome"]


def test_verify_shadows(capsys):
    code, out, _ = run(capsys, "verify", "-n", "7", "--code", "0,2,4",
                       "--kind", "dominating", "--shadows")
    assert "shadow[0]" in out


def test_verify_json_roundtrip(capsys):
    code, doc = run_json(capsys, "verify", "-n", "14", "--code",
                         "0,1,6,7,12,13", "--kind", "locating")
    assert code == 0
    assert doc["schema"] == "v1"
    assert doc["command"] == "verify"
    assert doc["outcome"]["valid"] is True
    assert doc["outcome"]["size"] == 6
    assert doc["parameters"]["n"] == 14
    assert doc["parameters"]["kind"] == "locating"
    assert "seconds" in doc["timing"]


def test_verify_agrees_with_library_randomized(capsys):
    rng = random.Random(31415)
    for _ in range(250):
        n = rng.randrange(7, 26)
        k = rng.randrange(1, n + 1)
        members = rng.sample(range(n), k)
        kind = rng.choice(list(Kind))
        expected = Code(CirculantGraph(n), members).verify(kind).ok
        exit_code, _, _ = run(capsys, "verify", "-n", str(n),
                              "--code", ",".join(map(str, members)),
                              "--kind", kind.value)
        assert exit_code == (0 if expected else 1)


# -- construct ------------------------------------------------------------------

def test_construct_locating(capsys):
    code, out, _ = run(capsys, "construct", "-n", "18", "--kind", "locating")
    assert code == 0
    assert "[0, 1, 6, 7, 12, 13]" in out
    assert "size 6" in out


def test_construct_identifying_json(capsys):
    code, doc = run_json(capsys, "construct", "-n", "22", "--kind",
                         "identifying")
    assert code == 0
    assert doc["outcome"]["code"] == [0, 1, 4, 5, 11, 12, 15, 16]
    assert doc["outcome"]["size"] == 8
    assert doc["outcome"]["verified"] is True


def test_construct_out_of_range_exit_two(capsys):
    code, _, err = run(capsys, "construct", "-n", "9", "--kind", "locating")
    assert code == 2
    assert "search" in err  # points the caller at the search command


def test_construct_rejects_dominating(capsys):
    code, _, err = run(capsys, "construct", "-n", "20", "--kind", "dominating")
    assert code == 2


# -- search -----------------------------------------------------------------------

def test_search_optimum(capsys):
    code, out, _ = run(capsys, "search", "-n", "12", "--kind", "locating")
    assert code == 0
    assert "size 5" in out


def test_search_fixed_k_found(capsys):
    code, doc = run_json(capsys, "search", "-n", "11", "--kind", "identifying",
                         "--k", "4")
    assert code == 0
    assert doc["outcome"]["exists"] is True
    assert len(doc["outcome"]["code"]) == 4


def test_search_fixed_k_absent_exit_one(capsys):
    code, out, _ = run(capsys, "search", "-n", "19", "--kind", "identifying",
                       "--k", "7")
    assert code == 1
    assert "no identifying code" in out


def test_search_budget_exceeded_exit_three(capsys):
    code, out, err = run(capsys, "search", "-n", "60", "--offsets", "1,4",
                         "--kind", "identifying")
    assert code == 3
    assert "budget" in err
    assert out == ""


def test_search_budget_json_partial(capsys):
    code, out, err = run(capsys, "search", "-n", "60", "--offsets", "1,4",
                         "--kind", "identifying", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["outcome"]["optimum"] is None


def test_search_budget_flag_exit_three(capsys):
    code, _, err = run(capsys, "search", "-n", "12", "--kind", "locating", "--budget", "10")
    assert code == 3


def test_search_fixed_k_explicit_budget_exit_three(capsys):
    code, out, err = run(capsys, "search", "-n", "41", "--offsets", "1,4",
                         "--kind", "identifying", "--k", "15", "--budget", "33")
    assert code == 3
    assert out == ""
    assert "exceeds search budget 33" in err
    code, out, _ = run(capsys, "search", "-n", "41", "--offsets", "1,4",
                       "--kind", "identifying", "--k", "15", "--budget", "33", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["outcome"]["exists"] is None
    assert doc["outcome"]["code"] is None
    assert "exceeds search budget 33" in doc["outcome"]["note"]


def test_search_fixed_k_deeper_than_the_stack_exit_three(capsys):
    argv = ("search", "-n", "1100", "--offsets", "1,4", "--kind", "locating", "--k", "1099")
    note = "size k=1099 exceeds the search's depth"
    assert run(capsys, *argv) == (3, "", f"budget exceeded: {note}\n")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (3, "")
    assert json.loads(out)["outcome"] == {"exists": None, "size": 1099, "code": None,
                                          "note": note, "engine": "dfs", "proved": False}


@pytest.mark.parametrize("k, fmt", [("0", ()), ("41", ("--json",))])
def test_search_fixed_k_out_of_range_exit_two(capsys, k, fmt):
    # k is checked before the budget, with the library's message
    code, out, err = run(capsys, "search", "-n", "40", "--offsets", "1,4", "--kind",
                         "locating", "--k", k, "--budget", "30", *fmt)
    assert code == 2
    assert out == ""
    assert f"k must be within 1..40, got {k}" in err


def test_search_progress(capsys):
    def answer(*flags):
        code, out, err = run(capsys, "search", "-n", "12", "--kind", "locating",
                             "--json", *flags)
        doc = json.loads(out)
        del doc["timing"], doc["outcome"]["stats"]["wall_time"]
        return code, doc, err

    code, plain, err = answer()
    assert code == 0 and err == ""
    code, doc, err = answer("--progress")
    assert code == 0
    assert doc == plain
    assert err and all("candidates" in line for line in err.splitlines())
    # the stored proof answers n = 13: no search runs, so nothing is reported
    code, _, err = run(capsys, "search", "-n", "13", "--kind", "locating", "--progress")
    assert code == 0 and err == ""


def test_search_fixed_k_runs_unbudgeted_without_budget_flag(capsys):
    # {1,4} has no stored proof, so the search answers
    code, out, _ = run(capsys, "search", "-n", "19", "--offsets", "1,4", "--kind",
                       "identifying", "--k", "6")
    assert code == 1
    assert "no identifying code" in out and "(exhaustive)" in out
    code, out, _ = run(capsys, "search", "-n", "19", "--offsets", "1,4", "--kind",
                       "identifying", "--k", "7", "--budget", "19")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("search", "-n", "13", "--kind", "locating"),
    ("search", "-n", "13", "--kind", "locating", "--k", "5"),
    ("search", "-n", "41", "--kind", "locating", "--k", "14", "--budget", "33"),
])
@pytest.mark.parametrize("threads", ["0", "-2", "2"])
def test_threads_below_one_exit_two(capsys, argv, threads):
    # search has no --threads option, whatever the value: it runs in one process
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--threads={threads}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    # reported by the top-level parser, as argparse reports leftovers
    assert captured.err.splitlines()[-1] == (
        f"circodes: error: unrecognized arguments: --threads={threads}")


@pytest.mark.parametrize("n, offsets, pair", [("5", "1,2", "0 and 1"), ("3", "1", "0 and 1"),
                                              ("6", "2", "0 and 2")])
def test_search_twins_exit_one(capsys, n, offsets, pair):
    code, out, _ = run(capsys, "search", "-n", n, "--offsets", offsets,
                       "--kind", "identifying")
    assert code == 1
    assert f"no identifying code exists: vertices {pair} have equal closed" in out
    code, doc = run_json(capsys, "search", "-n", n, "--offsets", offsets,
                         "--kind", "identifying")
    assert code == 1
    assert doc["outcome"]["optimum"] is None and doc["outcome"]["code"] is None
    assert pair in doc["outcome"]["note"]
    assert doc["outcome"]["proved"] is True
    code, _, _ = run(capsys, "search", "-n", n, "--offsets", offsets,
                     "--kind", "identifying", "--k", n)
    assert code == 1


@pytest.mark.parametrize("argv, first_line", [
    (("-n", "14", "--offsets", "4 1", "--kind", "locating"),
     "minimum locating code of C(14;1,4): size 5"),
    (("-n", "12", "--offsets", "3, 1", "--kind", "locating", "--k", "5"),
     "C(12;1,3) has a locating code of size 5: [0, 1, 2, 3, 7]"),
    (("-n", "13", "--offsets", "3 1", "--kind", "identifying", "--k", "6"),
     "C(13;1,3) has an identifying code of size 6: [0, 1, 2, 6, 7, 10]"),
    (("-n", "12", "--offsets", "3, 1", "--kind", "locating", "--k", "4"),
     "C(12;1,3) has no locating code of size 4 (exhaustive)"),
    (("-n", "5", "--offsets", "2 1", "--kind", "identifying"),
     "C(5;1,2): no identifying code exists: vertices 0 and 1 have equal closed "
     "neighbourhoods"),
], ids=["optimum", "exists", "exists-identifying", "absent", "twins"])
def test_search_names_the_graph_by_sorted_offsets(capsys, argv, first_line):
    _, out, _ = run(capsys, "search", *argv)
    assert out.splitlines()[0] == first_line
    # the JSON parameters keep the offsets as given
    _, doc = run_json(capsys, "search", *argv)
    assert doc["parameters"]["offsets"] == [int(d) for d in argv[3].replace(",", " ").split()]


def test_search_engine_and_proof_status(capsys):
    code, doc = run_json(capsys, "search", "-n", "60", "--kind", "identifying")
    assert code == 0
    outcome = doc["outcome"]
    assert (outcome["optimum"], outcome["engine"], outcome["proved"]) == (23, "proof", True)
    code, _, _ = run(capsys, "verify", "-n", "60", "--kind", "identifying",
                     "--code", ",".join(map(str, outcome["code"])))
    assert code == 0
    code, doc = run_json(capsys, "search", "-n", "12", "--kind", "locating")
    assert (doc["outcome"]["engine"], doc["outcome"]["proved"]) == ("dfs", True)


def test_search_fixed_k_engine(capsys):
    # below the proved minimum the proof answers, whatever the budget
    code, out, _ = run(capsys, "search", "-n", "41", "--kind", "identifying",
                       "--k", "15", "--budget", "33")
    assert code == 1
    assert "proved minimum 16" in out
    code, doc = run_json(capsys, "search", "-n", "41", "--kind", "identifying",
                         "--k", "15")
    assert (doc["outcome"]["exists"], doc["outcome"]["engine"]) == (False, "proof")
    # at or above the minimum the proof answers too, so no budget applies
    code, doc = run_json(capsys, "search", "-n", "22", "--kind", "identifying",
                         "--k", "8")
    assert (code, doc["outcome"]["exists"], doc["outcome"]["engine"]) == (0, True, "proof")
    assert len(doc["outcome"]["code"]) == 8
    code, doc = run_json(capsys, "search", "-n", "41", "--kind", "identifying",
                         "--k", "16", "--budget", "33")
    assert (code, doc["outcome"]["engine"], doc["outcome"]["proved"]) == (0, "proof", True)
    # without a proof the search runs, and the budget bounds it
    code, doc = run_json(capsys, "search", "-n", "41", "--offsets", "1,4", "--kind",
                         "identifying", "--k", "16", "--budget", "33")
    assert (code, doc["outcome"]["engine"], doc["outcome"]["proved"]) == (3, "dfs", False)


def test_search_json_stats(capsys):
    code, doc = run_json(capsys, "search", "-n", "10", "--kind", "identifying")
    assert code == 0
    assert doc["outcome"]["optimum"] == 4
    assert doc["outcome"]["stats"]["examined"] >= 1


@pytest.mark.parametrize("n, offsets, checks", [("25", "1,4", 1), ("12", "1,3", None)])
def test_search_json_leaf_checks(capsys, n, offsets, checks):
    # C(25;1,4) leaves close through the rows: sizes 9 and 10 are searched,
    # and only the certificate gets the full leaf pass.  Below n = 6*dmax + 1
    # every leaf that passes its symmetry and gap-cap checks gets one.
    code, doc = run_json(capsys, "search", "-n", n, "--offsets", offsets,
                         "--kind", "identifying")
    assert code == 0
    g = CirculantGraph(int(n), tuple(map(int, offsets.split(","))))
    expected = min_code_size(g, Kind.IDENTIFYING).stats.leaf_checks
    assert doc["outcome"]["stats"]["leaf_checks"] == expected
    if checks is not None:
        assert expected == checks
    else:
        assert expected > 1


def test_search_fixed_k_reports_stats(capsys):
    # a nonexistence search reports its counts, as search without --k does
    code, doc = run_json(capsys, "search", "-n", "25", "--offsets", "1,4", "--kind",
                         "identifying", "--k", "9")
    assert (code, doc["outcome"]["exists"], doc["outcome"]["engine"]) == (1, False, "dfs")
    _, stats = search._search_at_size(CirculantGraph(25, (1, 4)), Kind.IDENTIFYING, 9)
    assert doc["outcome"]["stats"]["examined"] == stats.examined > 0
    assert doc["outcome"]["stats"]["leaf_checks"] == stats.leaf_checks
    # the proof answers with no search
    code, doc = run_json(capsys, "search", "-n", "41", "--kind", "identifying", "--k", "15")
    assert (code, doc["outcome"]["engine"]) == (1, "proof")
    assert {key: value for key, value in doc["outcome"]["stats"].items()
            if key != "wall_time"} == dict.fromkeys(
                ("examined", "pruned_symmetry", "pruned_bound", "leaf_checks"), 0)


def test_search_fixed_k_broken_construction_is_searched(capsys, monkeypatch):
    # a construction that fails its check leaves the question to the search,
    # which the report names and the budget bounds
    from circodes import constructions
    build = constructions.identifying_code_for
    monkeypatch.setattr(constructions, "identifying_code_for",
                        lambda n: Code(CirculantGraph(n), sorted(build(n).members)[1:]))
    code, doc = run_json(capsys, "search", "-n", "22", "--kind", "identifying", "--k", "8")
    assert (code, doc["outcome"]["exists"], doc["outcome"]["engine"]) == (0, True, "dfs")
    assert doc["outcome"]["stats"]["examined"] > 0
    assert Code(CirculantGraph(22), doc["outcome"]["code"]).is_identifying()
    code, doc = run_json(capsys, "search", "-n", "22", "--kind", "identifying", "--k", "8",
                         "--budget", "20")
    assert (code, doc["outcome"]["exists"], doc["outcome"]["engine"]) == (3, None, "dfs")
    assert doc["outcome"]["note"] == "order 22 exceeds search budget 20"
    # below the proved minimum the proof still answers
    code, doc = run_json(capsys, "search", "-n", "22", "--kind", "identifying", "--k", "7",
                         "--budget", "20")
    assert (code, doc["outcome"]["engine"]) == (1, "proof")


# -- table ------------------------------------------------------------------------

def test_table_small_locating(capsys):
    code, out, _ = run(capsys, "table", "--kind", "locating",
                       "--from", "7", "--to", "12")
    assert code == 0
    optima = [line.split()[3] for line in out.splitlines()[1:]]
    assert optima == ["3", "6", "4", "4", "4", "5"]


def test_table_match_column(capsys):
    code, out, _ = run(capsys, "table", "--kind", "identifying",
                       "--from", "11", "--to", "22")
    assert code == 0
    for line in out.splitlines()[1:]:
        fields = line.split()
        # optimum always equals the construction size on this range
        if fields[2] != "-":
            assert fields[-1] == "="


def test_table_engine_and_budget(capsys):
    # the search answers below 13, the stored proof from 13 on; table takes
    # no budget or threads, so its parameters leave both unset
    code, doc = run_json(capsys, "table", "--kind", "locating", "--from", "11",
                         "--to", "14")
    assert code == 0
    assert [(r["n"], r["optimum"], r["engine"]) for r in doc["outcome"]["rows"]] == [
        (11, 4, "dfs"), (12, 5, "dfs"), (13, 5, "proof"), (14, 6, "proof")]
    assert (doc["parameters"]["budget"], doc["parameters"]["threads"]) == (None, None)


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--kind", "locating",
                       "--from", "13", "--to", "15", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lower_bound,construction,optimum,match"
    assert lines[1] == "13,5,5,5,="
    assert lines[2] == "14,5,6,6,="
    assert lines[3] == "15,5,6,6,="


def test_table_csv_and_json_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--kind", "locating", "--from", "13", "--to", "15",
              "--csv", "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --json: not allowed with argument --csv" in captured.err


def test_table_byte_stable(capsys):
    _, first, _ = run(capsys, "table", "--kind", "locating",
                      "--from", "13", "--to", "20", "--csv")
    _, second, _ = run(capsys, "table", "--kind", "locating",
                       "--from", "13", "--to", "20", "--csv")
    assert first == second


GRAPH_BUILDS = {
    # a graph per row, shared by its bound and its search; the construction
    # builds its own on the 17 proved rows, 13..29
    ("table", "--kind", "identifying", "--from", "8", "--to", "29", "--csv"): 39,
    ("search", "-n", "12", "--kind", "locating"): 1,  # the DFS
    ("search", "-n", "60", "--kind", "identifying"): 2,  # the proof and its construction
}


@pytest.mark.parametrize("argv", GRAPH_BUILDS, ids=" ".join)
def test_one_graph_per_question(capsys, monkeypatch, argv):
    builds = []
    init = CirculantGraph.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(CirculantGraph, "__init__", counted)
    code, out, _ = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0 and len(builds) == GRAPH_BUILDS[argv]
    if argv[0] == "table":
        # the rows the public entry points give, each building its own graphs
        assert out.splitlines()[1:] == [
            f"{n},{lower_bound(n, Kind.IDENTIFYING).effective},"
            f"{'' if n < 11 else identifying_code_size(n)},"
            f"{min_code_size(CirculantGraph(n), Kind.IDENTIFYING).outcome.size},"
            f"{'' if n < 11 else '='}" for n in range(8, 30)]


def test_table_bad_range_exit_two(capsys):
    code, _, err = run(capsys, "table", "--kind", "locating",
                       "--from", "20", "--to", "10")
    assert code == 2


# -- prove ----------------------------------------------------------------------

def test_prove_offsets_1_2(capsys):
    code, doc = run_json(capsys, "prove", "--kind", "locating", "--offsets", "1,2")
    assert code == 0
    outcome = doc["outcome"]
    assert (outcome["live_states"], outcome["first"], outcome["density"]) == (206, 9, "1/3")
    assert outcome["matches_stored"] is None
    code, out, _ = run(capsys, "prove", "--kind", "identifying", "--offsets", "2,1")
    assert code == 0
    assert "104 live states" in out and "no stored proof" in out


def test_prove_differing_stored_proof_exit_one(capsys, monkeypatch):
    from circodes import cli, transfer
    wrong = transfer.solve((1, 2), Kind.LOCATING)._replace(onset=0)
    monkeypatch.setitem(cli.PROOFS, ((1, 2), Kind.LOCATING), wrong)
    code, out, _ = run(capsys, "prove", "--kind", "locating", "--offsets", "1,2")
    assert code == 1
    assert "DIFFERS" in out


# the solver words every rejection of an offset set
BAD_OFFSETS = {
    "0,2": "offset must be at least 1, got 0",
    "-1,3": "offset must be at least 1, got -1",
    ",": "offset set must be nonempty",
    "": "offset set must be nonempty",
}


@pytest.mark.parametrize("offsets", BAD_OFFSETS)
def test_prove_rejects_empty_or_nonpositive_offsets(capsys, offsets):
    code, out, err = run(capsys, "prove", "--kind", "locating", f"--offsets={offsets}")
    assert (code, out, err) == (2, "", f"error: {BAD_OFFSETS[offsets]}\n")


@pytest.mark.parametrize("offsets", ["1,4", "2,5"])
def test_prove_rejects_dmax_above_three(capsys, offsets):
    code, out, err = run(capsys, "prove", "--kind", "locating", "--offsets", offsets)
    assert (code, out, err) == (2, "", "error: the transfer-matrix solver needs dmax <= 3, "
                                f"got offsets ({offsets.replace(',', ', ')})\n")


# -- JSON parameters ------------------------------------------------------------

@pytest.mark.parametrize("argv, extras", [
    (("verify", "-n", "14", "--code", "0,1,6,7,12,13", "--kind", "locating"), {"code"}),
    (("construct", "-n", "14", "--kind", "locating"), set()),
    (("search", "-n", "12", "--kind", "locating"), set()),
    (("search", "-n", "14", "--kind", "locating", "--k", "5"), set()),
    (("table", "--kind", "locating", "--from", "11", "--to", "13"), {"range"}),
    (("density", "--period", "6", "--residues", "0,1", "--kind", "locating"),
     {"period", "residues"}),
    (("prove", "--kind", "locating", "--offsets", "1,2"), set()),
])
def test_json_parameters_keys(capsys, argv, extras):
    _, doc = run_json(capsys, *argv)
    v1 = {"n", "offsets", "kind", "k", "budget", "threads", "seed"}
    assert set(doc["parameters"]) == v1 | extras
    assert doc["parameters"]["threads"] is None


# -- density --------------------------------------------------------------------

def test_density_locating_floor(capsys):
    code, out, _ = run(capsys, "density", "--period", "6", "--residues", "0,1",
                       "--kind", "locating")
    assert code == 0
    assert "1/3" in out and "valid" in out and "meets" in out


def test_density_identifying_floor_json(capsys):
    code, doc = run_json(capsys, "density", "--period", "11",
                         "--residues", "0,1,4,5", "--kind", "identifying")
    assert code == 0
    assert doc["outcome"]["density"] == "4/11"
    assert doc["outcome"]["valid"] is True
    assert doc["outcome"]["meets_floor"] is True


def test_density_below_floor_invalid(capsys):
    code, out, _ = run(capsys, "density", "--period", "4", "--residues", "0",
                       "--kind", "locating")
    assert code == 1
    assert "1/4" in out and "below" in out


def test_density_shifted_pattern_invalid(capsys):
    # density alone meets the floor; the window check still rejects it
    code, doc = run_json(capsys, "density", "--period", "11",
                         "--residues", "0,4,5,6", "--kind", "identifying")
    assert code == 1
    assert doc["outcome"]["density"] == "4/11"
    assert doc["outcome"]["valid"] is False
    assert doc["outcome"]["meets_floor"] is True


def test_density_malformed_residues_exit_two(capsys):
    code, _, err = run(capsys, "density", "--period", "6", "--residues", "0,9",
                       "--kind", "locating")
    assert code == 2


# -- negative search budgets -----------------------------------------------------

@pytest.mark.parametrize("n", ["12", "13"])  # searched, proved
@pytest.mark.parametrize("k", [(), ("--k", "5")])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_search_negative_budget_exit_two(capsys, n, k, fmt):
    code, out, err = run(capsys, "search", "-n", n, "--kind", "locating", *k,
                         "--budget", "-1", *fmt)
    assert code == 2
    assert out == ""
    assert err == "error: budget must be at least 0, got -1\n"


# -- argument parsing --------------------------------------------------------------

COMMANDS = ("verify", "construct", "search", "table", "density", "prove")

# the eight calls of README's "Command line" block, as written there
README_CALLS = (
    "verify -n 14 --code 0,1,6,7,12,13 --kind locating",
    "verify -n 11 --code @code.txt --kind identifying --shares --heavy 11/4",
    "construct -n 22 --kind identifying",
    "search -n 12 --kind locating",
    "search -n 19 --kind identifying --k 7",
    "table --kind locating --from 13 --to 24 --csv",
    "density --period 11 --residues 0,1,4,5 --kind identifying",
    "prove --kind identifying",
)

# read from the option table alone: one call per command, and README's calls
PLAIN_CASES = {
    "verify": ["verify", "-n", "14", "--code", "0,1,6,7,12,13", "--kind", "locating",
               "--shares", "--heavy", "3"],
    "construct": ["construct", "-n", "22", "--kind", "identifying", "--json"],
    "search": ["search", "-n", "12", "--offsets", "1,4", "--kind", "locating", "--k", "5",
               "--budget", "20", "--progress"],
    "table": ["table", "--kind", "locating", "--from", "13", "--to", "15", "--csv"],
    "density": ["density", "--period", "6", "--residues", "0,1", "--kind", "locating"],
    "prove": ["prove", "--kind", "identifying", "--offsets", "1,2", "--json"],
    **{f"circodes {call}": call.split() for call in README_CALLS},
}

# judged by argparse
OTHER_CASES = {
    **{f"{command} -h": [command, "-h"] for command in COMMANDS},
    "-h": ["-h"],
    "--help": ["--help"],
    "no arguments": [],
    "unknown command": ["frobnicate", "-n", "12"],
    "missing option": ["verify", "-n", "14", "--kind", "locating"],
    "bad int": ["search", "-n", "twelve", "--kind", "locating"],
    "csv and json": ["table", "--kind", "locating", "--from", "13", "--to", "15",
                     "--csv", "--json"],
    "unrecognized": ["search", "-n", "13", "--kind", "locating", "--threads=2"],
    "two unrecognized": ["construct", "stray", "-n", "14", "--kind", "locating", "--x"],
}

PARSE_CASES = PLAIN_CASES | OTHER_CASES


def _parsed(capsys, parse, argv):
    try:
        namespace, code = parse(list(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("case", PARSE_CASES)
def test_parse_matches_full_parser(capsys, case):
    # _parse reads every argv as the top-level parser does: namespace, exit
    # code, stdout and stderr; the option table reads the plain cases alone
    argv = PARSE_CASES[case]
    expected = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli._parse, argv) == expected
    assert expected[0] in (None, 0, 2)
    assert cli._plain(list(argv)) == (expected[3] if case in PLAIN_CASES else None)


@pytest.mark.parametrize("case", PARSE_CASES)
def test_each_call_parses_once(capsys, monkeypatch, case):
    # a plain call is read from the option table and reaches no parser; any
    # other argv goes to the top-level parser first, and only once (argparse
    # hands a known command's arguments on to that command's parser)
    argv = PARSE_CASES[case]
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    try:
        main(list(argv))
    except SystemExit:
        pass
    capsys.readouterr()
    if case in PLAIN_CASES:
        assert parsers == []
    else:
        assert parsers[0] == "circodes"
        assert parsers.count("circodes") == 1


def test_plain_calls_build_no_parser():
    # in a fresh interpreter the six plain calls leave build_parser unbuilt,
    # and the first call that argparse must judge builds it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = "\n".join([
        "import contextlib, io",
        "from circodes import cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        f"    codes = [cli.main(argv) for argv in {[PARSE_CASES[c] for c in COMMANDS]!r}]",
        "    built = cli.build_parser.cache_info().currsize",
        "    try:",
        f"        cli.main({PARSE_CASES['missing option']!r})",
        "    except SystemExit as exc:",
        "        codes.append(exc.code)",
        "print(codes, built, cli.build_parser.cache_info().currsize)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout == "[0, 0, 0, 0, 0, 0, 2] 0 1\n"


def test_entry_point_reads_sys_argv():
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def circodes(*argv):
        return subprocess.run([sys.executable, "-m", "circodes.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))

    done = circodes("verify", "-n", "14", "--code", "0,1,6,7,12,13", "--kind", "locating")
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "Code(C(14; 1,3), {0,1,6,7,12,13}): valid"
    done = circodes("verify", "-n", "7", "--code", "0", "--kind", "dominating")
    assert done.returncode == 1
    assert done.stdout.startswith("Code(C(7; 1,3), {0}): not-dominating")
    done = circodes()
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: circodes ")
    assert "the following arguments are required: command" in done.stderr
    done = circodes("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: circodes ") and done.stderr == ""


# -- text reports and JSON documents ------------------------------------------------

TEXT_REPORTS = [
    (("verify", "-n", "11", "--code", "0,1,4,5", "--kind", "identifying", "--shadows",
      "--shares", "--heavy", "11/4"),
     "Code(C(11; 1,3), {0,1,4,5}): valid\n"
     + "".join(f"  shadow[{u}] = {s}\n" for u, s in enumerate(
         ["[0, 1]", "[0, 1, 4]", "[1, 5]", "[0, 4]", "[1, 4, 5]", "[4, 5]", "[5]", "[4]",
          "[0, 5]", "[1]", "[0]"]))
     + "  share[0] = 17/6\n  share[1] = 8/3\n  share[4] = 8/3\n  share[5] = 17/6\n"
       "  sum of shares = 11\n"
       "  heavy (share > 11/4): 0 profile (1, 2, 2, 2, 3), 5 profile (1, 2, 2, 2, 3)\n"),
    (("verify", "-n", "14", "--code", "0,1,6,7,12,13", "--kind", "locating", "--heavy", "3"),
     "Code(C(14; 1,3), {0,1,6,7,12,13}): valid\n  heavy (share > 3): none\n"),
    (("construct", "-n", "22", "--kind", "identifying"),
     "C(22;1,3) identifying code: [0, 1, 4, 5, 11, 12, 15, 16]\n"
     "size 8, verification: valid\n"),
    (("density", "--period", "11", "--residues", "0,1,4,5", "--kind", "identifying"),
     "PeriodicCode(period=11, residues=[0, 1, 4, 5]): density 4/11, valid, "
     "meets the 4/11 floor\n"),
    (("search", "-n", "14", "--kind", "locating"),
     "minimum locating code of C(14;1,3): size 6\n"
     "certificate: [0, 1, 6, 7, 12, 13]\n"
     "optimal by the stored transfer-matrix proof; certificate checked by Code.verify\n"),
    (("table", "--kind", "locating", "--from", "11", "--to", "13"),
     "   n  bound  constr  optimum match\n"
     "  11      4       -        4 \n"
     "  12      4       -        5 \n"
     "  13      5       5        5 =\n"),
    # the identifying construction for n = 24: six heavy members, one profile
    (("verify", "-n", "24", "--code", "0,1,2,6,9,10,15,16,19", "--kind", "identifying",
      "--shares", "--heavy", "11/4"),
     "Code(C(24; 1,3), {0,1,2,6,9,10,15,16,19}): valid\n"
     "  share[0] = 8/3\n  share[1] = 17/6\n  share[2] = 13/6\n  share[6] = 13/6\n"
     "  share[9] = 17/6\n  share[10] = 17/6\n  share[15] = 17/6\n  share[16] = 17/6\n"
     "  share[19] = 17/6\n  sum of shares = 24\n"
     "  heavy (share > 11/4): 1 profile (1, 2, 2, 2, 3), 9 profile (1, 2, 2, 2, 3), "
     "10 profile (1, 2, 2, 2, 3), 15 profile (1, 2, 2, 2, 3), "
     "16 profile (1, 2, 2, 2, 3), 19 profile (1, 2, 2, 2, 3)\n"),
    (("prove", "--kind", "locating", "--offsets", "1,2"),
     "C(n;1,2) locating codes, n >= 9: 206 live states\n"
     "D(m + 6) = D(m) + 2 for m >= 19; density 1/3\n"
     "minimum for n = 9..24: 4 4 4 4 5 5 6 6 6 6 7 7 8 8 8 8\n"
     "no stored proof\n"),
]


@pytest.mark.parametrize("argv, text", TEXT_REPORTS, ids=[a[0] for a, _ in TEXT_REPORTS])
def test_text_reports_byte_stable(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, text, "")


@pytest.mark.parametrize("argv", [
    ("verify", "-n", "11", "--code", "0,1,4,5", "--kind", "identifying", "--shadows",
     "--shares", "--heavy", "11/4"),
    ("construct", "-n", "22", "--kind", "identifying"),
], ids=["verify", "construct"])
def test_json_renders_no_text(capsys, monkeypatch, argv):
    # --json prints the document alone: no text report is rendered, so a
    # raising Code.__repr__ changes nothing
    def document():
        code, doc = run_json(capsys, *argv)
        del doc["timing"]
        return code, doc

    expected = document()

    def no_repr(self):
        raise AssertionError("Code.__repr__ called under --json")

    monkeypatch.setattr(Code, "__repr__", no_repr)
    assert document() == expected
    assert expected[0] == 0
    with pytest.raises(AssertionError, match="__repr__ called"):
        run(capsys, "verify", "-n", "11", "--code", "0,1,4,5", "--kind", "identifying")


# The exact bytes of each document, its timing (and a search's wall_time) as "T"
JSON_DOCUMENTS = [
    (("verify", "-n", "22", "--code", "0,1,4,5,11,12,15,16", "--kind", "identifying",
      "--shares", "--heavy", "11/4"), 0,
     '{"command": "verify", "outcome": {"heavy": {"0": [1, 2, 2, 2, 3], '
     '"11": [1, 2, 2, 2, 3], "16": [1, 2, 2, 2, 3], "5": [1, 2, 2, 2, 3]}, '
     '"shares": {"0": "17/6", "1": "8/3", "11": "17/6", "12": "8/3", "15": "8/3", '
     '"16": "17/6", "4": "8/3", "5": "17/6"}, "size": 8, "status": "valid", '
     '"sum_of_shares": "22", "valid": true, "witness": null}, "parameters": '
     '{"budget": null, "code": [0, 1, 4, 5, 11, 12, 15, 16], "k": null, '
     '"kind": "identifying", "n": 22, "offsets": [1, 3], "seed": null, "threads": null}, '
     '"schema": "v1", "timing": {"seconds": T}}\n'),
    (("verify", "-n", "11", "--code", "0,4,5,6", "--kind", "identifying"), 1,
     '{"command": "verify", "outcome": {"size": 4, "status": "not-identifying", '
     '"valid": false, "witness": [0, 10]}, "parameters": {"budget": null, '
     '"code": [0, 4, 5, 6], "k": null, "kind": "identifying", "n": 11, "offsets": [1, 3], '
     '"seed": null, "threads": null}, "schema": "v1", "timing": {"seconds": T}}\n'),
    (("density", "--period", "6", "--residues", "0,1", "--kind", "identifying"), 1,
     '{"command": "density", "outcome": {"density": "1/3", "floor": "4/11", '
     '"meets_floor": false, "status": "not-identifying", "valid": false, '
     '"witness": [0, 1]}, "parameters": {"budget": null, "k": null, '
     '"kind": "identifying", "n": null, "offsets": [1, 3], "period": 6, '
     '"residues": [0, 1], "seed": null, "threads": null}, "schema": "v1", '
     '"timing": {"seconds": T}}\n'),
    (("search", "-n", "12", "--kind", "locating"), 0,
     '{"command": "search", "outcome": {"code": [0, 1, 2, 3, 7], "engine": "dfs", '
     '"lower_bound": 4, "optimum": 5, "proved": true, "stats": {"examined": 70, '
     '"leaf_checks": 37, "pruned_bound": 35, "pruned_symmetry": 1, "wall_time": T}}, '
     '"parameters": {"budget": null, "k": null, "kind": "locating", "n": 12, '
     '"offsets": [1, 3], "seed": null, "threads": null}, "schema": "v1", '
     '"timing": {"seconds": T}}\n'),
    (("prove", "--kind", "locating", "--offsets", "1,2"), 0,
     '{"command": "prove", "outcome": {"density": "1/3", "first": 9, "increment": 2, '
     '"live_states": 206, "matches_stored": null, "minima": [4, 4, 4, 4, 5, 5, 6, 6, 6, '
     '6, 7, 7, 8, 8, 8, 8], "onset": 19, "period": 6}, "parameters": {"budget": null, '
     '"k": null, "kind": "locating", "n": null, "offsets": [1, 2], "seed": null, '
     '"threads": null}, "schema": "v1", "timing": {"seconds": T}}\n'),
]


@pytest.mark.parametrize("argv, status, document", JSON_DOCUMENTS,
                         ids=["verify-heavy", "verify-pair", "density-pair", "search-dfs",
                              "prove"])
def test_json_documents_byte_stable(capsys, argv, status, document):
    code, out, err = run(capsys, *argv, "--json")
    out = re.sub(r'"(seconds|wall_time)": [0-9.e-]+', r'"\1": T', out)
    assert (code, out, err) == (status, document, "")


@pytest.mark.parametrize("argv, message", [
    (("verify", "-n", "9", "--code", "0", "--kind", "covering"),
     "unknown kind 'covering'; expected one of dominating, locating, identifying"),
    (("verify", "-n", "9", "--code", "0,banana", "--kind", "locating"),
     "malformed code: '0,banana'"),
    (("verify", "-n", "13", "--code", "@{missing}", "--kind", "identifying"),
     "cannot read code file: [Errno 2] No such file or directory: '{missing}'"),
    (("verify", "-n", "9", "--code", "0", "--kind", "locating", "--heavy", "1/0"),
     "malformed threshold: '1/0'"),
    (("construct", "-n", "22", "--kind", "dominating"),
     "construct supports locating and identifying kinds"),
    (("construct", "-n", "12", "--kind", "locating"),
     "no general locating construction for n=12 < 13; use `circodes search` for small orders"),
    (("table", "--kind", "locating", "--from", "9", "--to", "8"),
     "bad range 9..8; need 7 <= from <= to"),
    (("density", "--period", "6", "--residues", "0,6", "--kind", "locating"),
     "residue 6 outside [0, 6)"),
    (("prove", "--kind", "locating", "--offsets", "0"),
     "offset must be at least 1, got 0"),
    (("prove", "--kind", "locating", "--offsets", "1,4"),
     "the transfer-matrix solver needs dmax <= 3, got offsets (1, 4)"),
], ids=["kind", "code", "code-file", "threshold", "construct-dominating",
        "construct-order", "table-range", "density-residue", "prove-offsets", "prove-dmax"])
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_usage_errors_byte_stable(capsys, tmp_path, argv, message, fmt):
    missing = str(tmp_path / "missing.txt")
    argv = [a.replace("{missing}", missing) for a in argv]
    code, out, err = run(capsys, *argv, *fmt)
    assert (code, out, err) == (2, "", f"error: {message.replace('{missing}', missing)}\n")
