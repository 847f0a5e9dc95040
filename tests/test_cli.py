import json
import random

import pytest

from circodes import CirculantGraph, Code, Kind, min_code_size
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
    code, out, _ = run(capsys, "search", "-n", "60", "--offsets", "1,4",
                       "--kind", "identifying")
    assert code == 3
    assert "budget" in out


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
    assert f"unrecognized arguments: --threads={threads}" in captured.err


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
    (("-n", "12", "--offsets", "3, 1", "--kind", "locating", "--k", "4"),
     "C(12;1,3) has no locating code of size 4 (exhaustive)"),
    (("-n", "5", "--offsets", "2 1", "--kind", "identifying"),
     "C(5;1,2): no identifying code exists: vertices 0 and 1 have equal closed "
     "neighbourhoods"),
], ids=["optimum", "exists", "absent", "twins"])
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


@pytest.mark.parametrize("offsets", ["0,2", "-1,3", ",", ""])
def test_prove_rejects_empty_or_nonpositive_offsets(capsys, offsets):
    code, out, err = run(capsys, "prove", "--kind", "locating", f"--offsets={offsets}")
    assert code == 2
    assert out == ""
    assert f"prove needs one or more positive offsets, got {offsets!r}" in err


@pytest.mark.parametrize("offsets", ["1,4", "2,5"])
def test_prove_rejects_dmax_above_three(capsys, offsets):
    code, out, err = run(capsys, "prove", "--kind", "locating", "--offsets", offsets)
    assert code == 2
    assert out == ""
    assert "largest offset of at most 3" in err


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
