"""Command-line surface: determinism of emitted files, round trips between
commands, per-input error isolation, and exit codes."""

import csv
import dataclasses
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bdgrowth
from bdgrowth import calibration, cli, confidence, estimators, harness, treeio
from bdgrowth.estimators import METHODS, estimates_for_matrix
from bdgrowth.rng import RngStream

NEWICK = "((A:1,B:1):1,C:2);"


def run(argv):
    return cli.main([str(a) for a in argv])


def poison_height_chunks(monkeypatch):
    """Patch the simulating commands' sampler to put inf in every 4th row of
    each row chunk and nan in the row after it: rows no sampler draws, for
    the commands' finite-row guard to refuse."""
    real_chunks = estimators.height_chunks

    def poisoned(n, regime, rng, count):
        for chunk in real_chunks(n, regime, rng, count):
            chunk[::4, 0], chunk[1::4, -1] = np.inf, np.nan
            yield chunk

    monkeypatch.setattr(estimators, "height_chunks", poisoned)


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a
    bdgrowth subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--n", 6, "--count", 20, "--seed", 7, "--T", 40, "--r", 1.0]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_exact_support_and_header(tmp_path):
    out = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", 50, "--seed", 3, "--T", 10,
                "--r", 0.5, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,T,h1,h2,h3,h4"
    assert all(line.startswith("5,10,") for line in lines[1:])
    rows = cli.read_times_csv(out)
    assert len(rows) == 50
    for row in rows:
        assert row.shape == (4,)
        assert all(0 < h < 10 for h in row)


def test_simulate_trees_round_trip(tmp_path):
    out = tmp_path / "times.csv"
    trees = tmp_path / "trees.nwk"
    assert run(["simulate", "--n", 4, "--count", 5, "--seed", 9, "--T", 20,
                "--r", 1.0, "--out", out, "--trees", trees]) == 0
    rows = cli.read_times_csv(out)
    parsed = treeio.parse_newick_trees(trees.read_text())
    assert len(parsed) == 5
    for row, tree in zip(rows, parsed):
        extracted = treeio.extract_coalescence_times(tree)
        assert sorted(extracted) == pytest.approx(sorted(row), rel=1e-9)


@pytest.mark.parametrize("flags", [
    # large-n heights reach past T, so no tree can hold them
    ["--regime", "large-n", "--T", 40, "--n", 100, "--count", 300, "--seed", 4],
    # trees need T
    ["--regime", "fixed-n", "--n", 8, "--count", 30, "--seed", 4],
])
def test_simulate_that_cannot_write_its_trees_writes_nothing(tmp_path, flags):
    assert run(["simulate", "--r", 1.0, *flags, "--out", tmp_path / "times.csv",
                "--trees", tmp_path / "trees.nwk"]) == cli.EXIT_INPUT
    assert list(tmp_path.iterdir()) == []


def test_simulate_removes_its_times_when_the_trees_file_cannot_be_written(tmp_path):
    assert run(["simulate", "--n", 5, "--count", 3, "--T", 40, "--out", tmp_path / "times.csv",
                "--trees", tmp_path / "missing" / "trees.nwk"]) == cli.EXIT_INPUT
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trees", [False, True])
def test_simulate_with_non_finite_heights_writes_nothing(tmp_path, capsys, monkeypatch, trees):
    def sampler(n, regime, rng, count):
        matrix = np.full((count, n - 1), 1.0)
        matrix[[1, 4], 2] = [np.inf, np.nan]
        return matrix

    monkeypatch.setattr(cli, "sample_coalescence_times_block", sampler)
    argv = ["simulate", "--n", 5, "--count", 6, "--T", 40, "--out", tmp_path / "times.csv"]
    if trees:
        argv += ["--trees", tmp_path / "trees.nwk"]
    assert run(argv) == cli.EXIT_NUMERICAL
    assert "2 of 6 rows hold non-finite coalescence times" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_relative_axis_when_t_missing(tmp_path):
    out = tmp_path / "rel.csv"
    assert run(["simulate", "--n", 5, "--count", 3, "--seed", 1,
                "--regime", "fixed-n", "--r", 1.0, "--out", out]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 3 and all(line.startswith("5,,") for line in lines)
    assert all(row.shape == (4,) for row in cli.read_times_csv(out))


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def constants_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "constants.csv"
    assert run(["calibrate", "--n", "3,5,10", "--replicates", 50_000,
                "--seed", 11, "--out", path]) == 0
    return path


def test_estimate_newick_lengths_worked_example(tmp_path, constants_file):
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    out = tmp_path / "est.csv"
    assert run(["estimate", src, "--constants", constants_file,
                "--methods", "Lengths", "--out", out]) == 0
    line = out.read_text().splitlines()[1].split(",")
    assert line[2] == "Lengths"
    assert float(line[3]) == pytest.approx(3.0, rel=1e-12)


def test_estimate_simulated_batch_multiple_methods(tmp_path, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 10, "--count", 1000, "--seed", 21, "--T", 40,
                "--r", 1.0, "--out", times]) == 0
    out = tmp_path / "est.json"
    assert run(["estimate", times, "--constants", constants_file,
                "--methods", "MSE,Inv,MLE", "--format", "json", "--out", out]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 3000
    inv = np.array([r["estimate"] for r in records if r["method"] == "Inv"])
    mse = np.array([r["estimate"] for r in records if r["method"] == "MSE"])
    assert np.median(inv) == pytest.approx(1.0, rel=0.10)
    # same statistic scaled by a smaller constant, so strictly below per sample
    assert np.all(mse < inv)
    for r in records:
        if r["method"] == "Inv":
            assert r["ci_low"] < r["estimate"] < r["ci_high"]


def test_estimate_on_the_fly_calibration_warns(tmp_path, capsys):
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    assert run(["estimate", src, "--methods", "Inv", "--replicates", 20_000]) == 0
    captured = capsys.readouterr()
    assert "calibrating on the fly" in captured.err
    assert "Inv" in captured.out


def test_estimate_maps_each_tag_to_its_constant_and_matches_the_study_path(
        tmp_path, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 10, "--count", 50, "--seed", 23, "--T", 40,
                "--r", 1.0, "--out", times]) == 0
    out = tmp_path / "est.json"
    assert run(["estimate", times, "--constants", constants_file,
                "--methods", ",".join(METHODS), "--format", "json", "--out", out]) == 0
    records = {(r["input"], r["method"]): r for r in json.loads(out.read_text())}
    row = calibration.load_constants_table(constants_file)[10]
    constant = {"MSE": row.c_mse, "Bias": row.c_bias, "Inv": row.c_inv,
                "RawUnitConstant": 1.0}
    inputs = cli.read_times_csv(times)
    study, study_raw, *_ = estimates_for_matrix(np.array(inputs), row, tuple(METHODS))
    assert study_raw.size == len(inputs)
    for i, t in enumerate(inputs):
        got = {tag: records[(f"times.csv#{i}", tag)] for tag in METHODS}
        raw = 9 * 8 / sum(abs(a - b) for a, b in itertools.combinations(t, 2))
        for tag, c in constant.items():
            assert got[tag]["estimate"] == pytest.approx(c * raw, rel=1e-12)
            # every pairwise method carries the interval of the raw pivot
            assert (got[tag]["ci_low"], got[tag]["ci_high"]) == pytest.approx(
                (raw * row.inv_q_hi, raw * row.inv_q_lo), rel=1e-12)
        for tag in ("Lengths", "MLE"):
            assert got[tag]["ci_low"] is None and got[tag]["ci_high"] is None
        for tag in METHODS:
            assert got[tag]["estimate"] == study[tag][i]


def test_estimate_without_constants_or_intervals_does_not_calibrate(tmp_path, capsys):
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    assert run(["estimate", src, "--methods", "Lengths,MLE"]) == 0
    captured = capsys.readouterr()
    assert "calibrating" not in captured.err
    lines = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [line[2] for line in lines] == ["Lengths", "MLE"]
    assert float(lines[0][3]) == pytest.approx(3.0, rel=1e-12)
    assert all(line[4] == line[5] == "" for line in lines)


def test_estimate_tries_an_uncalibratable_n_once(tmp_path, capsys):
    src = tmp_path / "two.nwk"
    src.write_text("(a:1,b:1);")
    assert run(["estimate", src, "--methods", "Inv,MSE,Bias,Lengths"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "calibrating on the fly" not in captured.err  # n < 3 is refused before the warning
    rows = list(csv.reader(captured.out.splitlines()))[1:]
    assert [row[6] for row in rows] == ["ValueError: S_n needs n >= 3"] * 3 + [
        "SampleTooSmall: lengths estimator needs n >= 3"]


def test_importing_the_cli_leaves_scipy_stats_unimported():
    code = "import sys, bdgrowth.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=src_env(), timeout=120).returncode == 0


def test_importing_the_cli_leaves_the_harness_and_the_thread_pool_unimported():
    # estimate, simulate, calibrate and coverage never run either; study,
    # sweep and asymptotics import the harness, threads only --workers > 1
    code = ("import sys, bdgrowth.cli; "
            "print(sorted({'bdgrowth.harness', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_record_class_is_a_dataclass():
    modules = [importlib.import_module(f"bdgrowth.{info.name}")
               for info in pkgutil.iter_modules(bdgrowth.__path__)]
    assert harness in modules
    classes = [value for module in modules for value in vars(module).values()
               if inspect.isclass(value) and value.__module__.startswith("bdgrowth")]
    assert cli.confidence.CoverageRow in classes
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]


def test_estimate_error_field_round_trips_through_csv(tmp_path, constants_file):
    src = tmp_path / "quoted.nwk"
    src.write_text('((A:1,B:1,C:1)x"y:1,D:2);\n((A:1,B:1):1,C:2);')
    out = tmp_path / "est.csv"
    assert run(["estimate", src, "--constants", constants_file,
                "--methods", "Lengths", "--out", out]) == 0
    with out.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [7, 7, 7]
    assert rows[1][6] == 'NotBinary: node x"y has 3 children'
    assert float(rows[2][3]) == pytest.approx(3.0)


def test_estimate_isolates_bad_inputs(tmp_path, constants_file):
    bad = tmp_path / "mixed.nwk"
    bad.write_text("((A:1,B:2):1,C:2);\n((A:1,B:1):1,C:2);")  # first not ultrametric
    out = tmp_path / "est.csv"
    assert run(["estimate", bad, "--constants", constants_file,
                "--methods", "Lengths", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert "NotUltrametric" in lines[1]
    assert float(lines[2].split(",")[3]) == pytest.approx(3.0)


def estimate_rows(path, constants_file):
    """The estimate rows of a file, keyed by input and method; the exit code."""
    out = path.with_suffix(".est.csv")
    code = run(["estimate", path, "--constants", constants_file,
                "--methods", "Inv,Lengths,MLE", "--out", out])
    with out.open(newline="", encoding="utf-8") as fh:
        return code, {(row[0], row[2]): row for row in list(csv.reader(fh))[1:]}


def assert_good_inputs_match_a_file_of_them(mixed, good, good_at, constants_file):
    """Each good input of the mixed file has the rows it gets in a file of
    the good inputs and in a file of its own; good holds one input a line
    (after the header, for a times CSV), and good_at[i] is where the i-th
    good input sits in mixed."""
    code, rows = estimate_rows(mixed, constants_file)
    assert code == cli.EXIT_OK
    _, together = estimate_rows(good, constants_file)
    assert len(together) == 3 * len(good_at)
    lines = good.read_text().splitlines()
    head = lines[:1] if good.suffix == ".csv" else []
    alone = good.with_name("alone" + good.suffix)
    for i, line in enumerate(lines[len(head):]):
        alone.write_text("\n".join(head + [line]) + "\n")
        _, own = estimate_rows(alone, constants_file)
        for (name, method), row in own.items():
            assert row[6] == ""
            assert rows[(f"{mixed.name}#{good_at[i]}", method)][1:] == row[1:]
            assert together[(f"{good.name}#{i}", method)][1:] == row[1:]
    return rows


def test_estimate_keeps_going_after_a_malformed_tree(tmp_path, constants_file):
    trees = ["((A:1,B:1):1,C:2);", "((C:1,D:1):1,E:2;", "((E:1,F:1):2,G:3);",
             "((A,B:1):1,C:2);", "((H:1,I:1):1.5,J:2.5):0.5;"]
    mixed, good = tmp_path / "mixed.nwk", tmp_path / "good.nwk"
    mixed.write_text("\n".join(trees) + "\n")
    good.write_text("\n".join(trees[i] for i in (0, 2, 4)) + "\n")
    rows = assert_good_inputs_match_a_file_of_them(mixed, good, [0, 2, 4], constants_file)
    for method in ("Inv", "Lengths", "MLE"):
        assert rows[("mixed.nwk#1", method)][6] == (
            "ParseError: parse error at character 35: expected ',' or ')'")
        assert rows[("mixed.nwk#3", method)][6] == (
            "MissingBranchLength: edge above 'A' has no branch length")


def test_estimate_keeps_going_after_a_malformed_times_row(tmp_path, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", 3, "--seed", 25, "--T", 40,
                "--r", 1.0, "--out", times]) == 0
    header, *good_rows = times.read_text().splitlines()
    mixed, good = tmp_path / "mixed.csv", tmp_path / "good.csv"
    mixed.write_text("\n".join([header, good_rows[0], "4,10,3", good_rows[1],
                                "4,10,3,x,1", "4", good_rows[2]]) + "\n")
    good.write_text("\n".join([header, *good_rows]) + "\n")
    rows = assert_good_inputs_match_a_file_of_them(mixed, good, [0, 2, 5], constants_file)
    for method in ("Inv", "Lengths", "MLE"):
        assert rows[("mixed.csv#1", method)][6] == "ValueError: expected 3 times, got 1"
        assert rows[("mixed.csv#3", method)][6] == (
            "ValueError: could not convert string to float: 'x'")
        assert rows[("mixed.csv#4", method)][6] == "ValueError: times row '4' has no T column"


OVERFLOWING_TREE = "((A:1.5e308,B:1.5e308):1.5e308,C:1.7e308);"  # tip depths sum to inf

# a times row that each refusal of a row stops, with the error field it gives
REFUSED_TIMES_ROWS = [
    ("5", "ValueError: times row '5' has no T column"),
    ("5.0,40,3,1,2,0.5", "ValueError: invalid literal for int() with base 10: '5.0'"),
    ("5,x,3,1,2,0.5", "ValueError: could not convert string to float: 'x'"),
    ("5,40,3,x,2,0.5", "ValueError: could not convert string to float: 'x'"),
    ("1,40", "ValueError: sample size must be an integer >= 2"),
    ("5,40,3,1,2", "ValueError: expected 4 times, got 3"),
    ("5,40,3,inf,2,0.5", "ValueError: coalescence times must be finite"),
    ("5,40,3,1,nan,0.5", "ValueError: coalescence times must be finite"),
    # rows with two faults: the refusal checked first names the row
    ("5.0,x,3", "ValueError: invalid literal for int() with base 10: '5.0'"),
    ("5,x,y", "ValueError: could not convert string to float: 'x'"),
    ("1,40,x", "ValueError: could not convert string to float: 'x'"),
    ("1,40,3", "ValueError: sample size must be an integer >= 2"),
    ("5,40,inf", "ValueError: expected 4 times, got 1"),
]


def test_estimate_gives_each_refused_input_its_error_and_the_others_their_rows(
        tmp_path, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", len(REFUSED_TIMES_ROWS) + 1, "--seed", 29,
                "--T", 40, "--r", 1.0, "--out", times]) == 0
    header, *good_rows = times.read_text().splitlines()
    mixed, good = tmp_path / "mixed.csv", tmp_path / "good.csv"
    lines = [header, good_rows[0]]
    for (bad, _), row in zip(REFUSED_TIMES_ROWS, good_rows[1:]):
        lines += [bad, row]
    # a row the reader takes and every method refuses
    mixed.write_text("\n".join(lines + ["2,40,1"]) + "\n")
    good.write_text("\n".join([header, *good_rows]) + "\n")
    rows = assert_good_inputs_match_a_file_of_them(
        mixed, good, list(range(0, len(lines) - 1, 2)), constants_file)
    for k, (_, error) in enumerate(REFUSED_TIMES_ROWS):
        for method in ("Inv", "Lengths", "MLE"):
            assert rows[(f"mixed.csv#{2 * k + 1}", method)][6] == error
    assert [rows[(f"mixed.csv#{len(lines) - 1}", m)][6] for m in ("Inv", "Lengths", "MLE")] == [
        "ValueError: S_n needs n >= 3", "SampleTooSmall: Lengths needs n >= 3",
        "SampleTooSmall: MLE needs n >= 3"]

    trees = ["((A:1,B:1):1,C:2);", OVERFLOWING_TREE, "((H:1,I:1):1.5,J:2.5):0.5;"]
    mixed, good = tmp_path / "mixed.nwk", tmp_path / "good.nwk"
    mixed.write_text("\n".join(trees) + "\n")
    good.write_text("\n".join(trees[i] for i in (0, 2)) + "\n")
    rows = assert_good_inputs_match_a_file_of_them(mixed, good, [0, 2], constants_file)
    for method in ("Inv", "Lengths", "MLE"):
        assert rows[("mixed.nwk#1", method)][6] == "ValueError: coalescence times must be finite"


def test_estimate_gives_each_input_of_a_mixed_n_file_the_rows_it_gets_alone(
        tmp_path, constants_file):
    blocks = {}
    for n, count in ((5, 7), (10, 2), (3, 3)):
        path = tmp_path / f"n{n}.csv"
        assert run(["simulate", "--n", n, "--count", count, "--seed", 27, "--T", 40,
                    "--r", 1.0, "--out", path]) == 0
        blocks[n] = path.read_text().splitlines()[1:]
    good = [blocks[5][0], blocks[10][0], blocks[5][1], blocks[3][0], blocks[5][2],
            blocks[5][3], blocks[3][1], blocks[10][1], blocks[5][4], blocks[3][2],
            blocks[5][5], blocks[5][6]]
    # an unequal-ulp row, a constant row and a row no logistic fit can take,
    # all in the n = 5 group
    bad = ["5,,1000000,1000000.0000000001,1000000,1000000", "5,,2,2,2,2",
           "5,,0,1e200,3e199,1e199"]
    mixed, good_file = tmp_path / "mixed.csv", tmp_path / "good.csv"
    mixed.write_text("\n".join(["n,T,h", *good[:2], bad[0], *good[2:6], bad[1], "4,10,3",
                                 *good[6:9], bad[2], *good[9:]]) + "\n")
    good_file.write_text("\n".join(["n,T,h", *good]) + "\n")
    rows = assert_good_inputs_match_a_file_of_them(
        mixed, good_file, [0, 1, 3, 4, 5, 6, 9, 10, 11, 13, 14, 15], constants_file)
    assert [rows[("mixed.csv#2", m)][6] for m in ("Inv", "Lengths", "MLE")] == [""] * 3
    assert {rows[("mixed.csv#7", m)][6] for m in ("Inv", "Lengths", "MLE")} == {
        "DegenerateTimes: all coalescence times are equal"}
    assert rows[("mixed.csv#12", "Inv")][6] == rows[("mixed.csv#12", "Lengths")][6] == ""
    assert rows[("mixed.csv#12", "MLE")][6].startswith(
        "NonConvergence: moment start out of range in 1 of 1 rows")


def test_estimate_exit_codes(tmp_path, constants_file):
    assert run(["estimate", tmp_path / "missing.csv"]) == cli.EXIT_INPUT

    broken = tmp_path / "broken.nwk"
    broken.write_text("((A:1,B:1")
    assert run(["estimate", broken]) == cli.EXIT_INPUT

    degenerate = tmp_path / "flat.csv"
    matrix = np.full((1, 4), 2.0)
    cli.write_times_csv(matrix, 5, 40.0, degenerate)
    code = run(["estimate", degenerate, "--constants", constants_file,
                "--methods", "MSE", "--out", tmp_path / "x.csv"])
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_estimate_refuses_a_tolerance_that_is_nan_or_negative(tmp_path, capsys, tol):
    trees = tmp_path / "t.nwk"
    trees.write_text("((A:1,B:1):1,C:5);\n" + NEWICK + "\n")
    out = tmp_path / "e.csv"
    assert run(["estimate", trees, "--ultrametric-tol", tol, "--out", out]) == cli.EXIT_INPUT
    assert "--ultrametric-tol must be a number >= 0" in capsys.readouterr().err
    assert not out.exists()
    # refused before the input is read: a missing file is not what it reports
    assert run(["estimate", tmp_path / "missing.nwk", "--ultrametric-tol", tol]) == cli.EXIT_INPUT
    assert "--ultrametric-tol" in capsys.readouterr().err


def test_estimate_refuses_unknown_tags_and_estimates_that_are_not_finite(tmp_path, capsys):
    times = tmp_path / "times.csv"
    cli.write_times_csv(np.array([[0.0, 1e-320, 2e-320], [3.0, 1.0, 2.0]]), 4, 40.0, times)
    assert run(["estimate", times, "--methods", "Lengths,bogus"]) == cli.EXIT_INPUT
    assert "unknown method 'bogus'" in capsys.readouterr().err
    # an internal length of 2e-320 makes n / L_in overflow
    assert run(["estimate", times, "--methods", "Lengths"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert [row[6] for row in rows] == ["ValueError: estimate must be positive and finite", ""]
    assert float(rows[1][3]) == 2.0


@pytest.mark.parametrize("bad, tag, error, message", [
    # equal heights: dropped before the kernels run
    ([2.0, 2.0, 2.0, 2.0], "Inv", cli.DegenerateTimes, "all coalescence times are equal"),
    # subnormal heights: the estimate overflows and is failed on its row
    ([0.0, 1e-320, 2e-320, 3e-320], "Inv", ValueError, "estimate must be positive and finite"),
    # the logistic fit refuses the row at its moment start, where b*b overflows
    # or underflows, or after it, where the fit leaves the feasible region
    ([0.0, 1e200, 3e199, 1e199], "MLE", cli.NonConvergence,
     "moment start out of range in 1 of 1 rows (first: b=inf)"),
    ([0.0, 4e-162, 2e-162, 1e-162], "MLE", cli.NonConvergence,
     "moment start out of range in 1 of 1 rows (first: b=1.2254711261427042e-162)"),
    ([0.0, 1e-161, 5e-162, 2e-162], "MLE", cli.NonConvergence,
     "optimizer left the feasible region in 1 of 1 rows (first: a=4.999999999999999e-162, b=0.0)"),
], ids=["bad0", "bad1", "mle-start-inf", "mle-start-underflow", "mle-infeasible"])
def test_matrix_estimates_gives_each_row_its_own_entry(constants_file, bad, tag, error, message):
    # non-finite rows never get here: cmd_estimate refuses them before grouping
    row = calibration.load_constants_table(constants_file)[5]
    h = np.array([[3.0, 1.0, 2.0, 0.5], bad, [4.0, 1.0, 2.0, 0.5]])
    tags = (tag, "Lengths")
    found = cli._matrix_estimates(h, row, tags)
    assert len(found[tag]) == 3
    assert type(found[tag][1]) is error
    assert str(found[tag][1]) == message
    for k in range(3):
        alone = cli._matrix_estimates(h[k:k + 1], row, tags)
        for t in tags:
            got, one = found[t][k], alone[t][0]
            if isinstance(one, Exception):
                assert (type(got), str(got)) == (type(one), str(one))
            else:  # the same bits as the row's one-row result
                assert [x.hex() for x in got] == [x.hex() for x in one]


def test_estimate_runs_each_group_once_whatever_its_refused_rows(tmp_path, constants_file,
                                                                  monkeypatch):
    calls = {"estimates_for_matrix": [], "fit_logistic_rows": []}

    def counted(module, name):
        real = getattr(module, name)

        def call(h, *args):
            calls[name].append(len(h))
            return real(h, *args)

        monkeypatch.setattr(module, name, call)

    counted(cli, "estimates_for_matrix")
    counted(estimators, "fit_logistic_rows")
    bad = ["5,,0,1e200,3e199,1e199", "5,40,2,2,2,2", "5,,0,1e-161,5e-162,2e-162",
           "5,40,0,1e-320,2e-320,3e-320"]
    lines = ["n,T,h1"]
    for i in range(40):
        lines.append(f"5,40,{i % 7 + 1},{i % 3 + 0.5},2.25,{i % 5 + 0.1}")
        lines.append(bad[i % len(bad)] if i % 3 == 0 else f"3,40,{i % 4 + 1},0.5")
    times = tmp_path / "mixed.csv"
    times.write_text("\n".join(lines) + "\n")
    out = tmp_path / "e.csv"
    assert run(["estimate", times, "--constants", constants_file, "--methods", ",".join(METHODS),
                "--out", out]) == 0
    # one call per n-group for all tags, and one fit per call; the three
    # constant rows are dropped before the fit
    assert sorted(calls["estimates_for_matrix"]) == [26, 54]
    assert sorted(calls["fit_logistic_rows"]) == [26, 51]
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    errors = {row[6].split(" (")[0] for row in rows if row[2] == "MLE" and row[6]}
    assert errors == {"DegenerateTimes: all coalescence times are equal",
                      "NonConvergence: moment start out of range in 1 of 1 rows",
                      "NonConvergence: optimizer left the feasible region in 1 of 1 rows"}


@pytest.mark.parametrize("level", ["1.5", "0", "1", "-0.5", "nan"])
def test_estimate_refuses_a_level_outside_zero_one(tmp_path, capsys, level):
    times = tmp_path / "t.csv"
    cli.write_times_csv(np.array([[3.0, 1.0, 2.0]]), 4, 40.0, times)
    out = tmp_path / "e.csv"
    argv = ["--methods", "Inv,Lengths", "--level", level, "--replicates", 1000, "--out", out]
    assert run(["estimate", times, *argv]) == cli.EXIT_INPUT
    assert "--level must be a number in (0, 1)" in capsys.readouterr().err
    assert not out.exists()
    # refused before the input is read: a missing file is not what it reports
    assert run(["estimate", tmp_path / "missing.csv", *argv]) == cli.EXIT_INPUT
    assert "--level" in capsys.readouterr().err


def test_study_exits_3_when_the_mle_refuses_a_simulated_row(tmp_path, constants_file,
                                                            monkeypatch, capsys):
    real_chunks = estimators.height_chunks

    def refused_first_row(n, regime, rng, count):
        chunks = real_chunks(n, regime, rng, count)
        first = next(chunks)
        first[0] = 1e200 * np.arange(n - 1)  # b*b overflows at the fit's moment start
        yield first
        yield from chunks

    monkeypatch.setattr(estimators, "height_chunks", refused_first_row)
    argv = ["study", "--n", 5, "--r", 1, "--replicates", 200, "--seed", 3,
            "--constants", constants_file]
    # a simulated sample has no row to spare: the refused fit ends the run
    assert run(argv + ["--estimators", "MLE", "--out", tmp_path / "mle"]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: moment start out of range in 1 of 200 rows (first: b=inf)\n")
    assert not (tmp_path / "mle").exists()
    # the other estimators take the row
    assert run(argv + ["--estimators", "Inv,Lengths", "--out", tmp_path / "rest"]) == cli.EXIT_OK
    assert (tmp_path / "rest" / "metrics.csv").exists()


@pytest.mark.parametrize("argv, text, code, message", [
    # n / L_in and the pairwise estimate overflow; the row is refused
    (["estimate", "in.csv", "--methods", "Lengths"], "n,T,h1,h2,h3\n4,40,0,1e-320,2e-320\n",
     cli.EXIT_INPUT, "ValueError: estimate must be positive and finite"),
    # simulated rows holding inf or nan refuse the run
    (["study", "--n", 10, "--r", 1, "--T", 800, "--replicates", 500, "--out", "study"], None,
     cli.EXIT_NUMERICAL, "250 of 500 rows hold non-finite coalescence times"),
    # inf tip depths make the ultrametric check subtract inf from inf
    (["estimate", "in.nwk", "--methods", "Lengths"], OVERFLOWING_TREE + "\n",
     cli.EXIT_INPUT, "ValueError: coalescence times must be finite"),
    # the same at r*T = 5000; at n = 100 the bad rows fall in all eight of the
    # sampler's row chunks, and every one of them is counted
    (["coverage", "--n", 10, "--T", 5000, "--replicates", 20_000, "--seed", 1], None,
     cli.EXIT_NUMERICAL, "10000 of 20000 rows hold non-finite coalescence times"),
    (["coverage", "--n", 100, "--T", 5000, "--replicates", 20_000, "--seed", 1,
      "--calibration-replicates", 20_000], None,
     cli.EXIT_NUMERICAL, "10004 of 20000 rows hold non-finite coalescence times"),
], ids=["estimate-overflow", "study-T800", "estimate-overflowing-tree", "coverage-T5000",
        "coverage-T5000-chunks"])
def test_refused_results_print_no_runtime_warning(tmp_path, constants_file, argv, text, code,
                                                  message, monkeypatch, capsys):
    # the simulating commands read poisoned rows; estimate does not sample
    poison_height_chunks(monkeypatch)
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / argv[1]).write_text(text)
    if argv[0] in ("study", "coverage"):
        argv = argv + ["--constants", constants_file]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == code
    done = capsys.readouterr()
    assert message in done.out + done.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # nothing is written but the input
    assert [p.name for p in tmp_path.iterdir()] == ([argv[1]] if text is not None else [])


# ---------------------------------------------------------------------------
# calibrate / study / sweep / asymptotics / coverage
# ---------------------------------------------------------------------------


def test_calibrate_reruns_identically(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["calibrate", "--n", "5-7", "--replicates", 20_000, "--seed", 4]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_n_list_parsing():
    assert cli.parse_n_list("5-8,10") == [5, 6, 7, 8, 10]
    assert cli.parse_n_list("30-100:10") == [30, 40, 50, 60, 70, 80, 90, 100]
    with pytest.raises(ValueError):
        cli.parse_n_list(",")
    for text in ("5,10-5", "10-5:-1", "5-10:0"):
        with pytest.raises(ValueError, match="must ascend by a step >= 1"):
            cli.parse_n_list(text)
    for text in ("5,2", "2-6", "0"):
        with pytest.raises(ValueError, match="sample sizes must be at least 3"):
            cli.parse_n_list(text)


def test_study_command_writes_outputs(tmp_path, constants_file):
    out = tmp_path / "study"
    assert run(["study", "--n", "5", "--r", "1", "--T", 40, "--replicates", 300,
                "--seed", 5, "--constants", constants_file, "--out", out]) == 0
    for name in ("metrics.csv", "densities.csv", "coverage.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replicates"] == 300


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", 10, "--r", 0.5, "--T", 40, "--replicates", 2000,
                "--seed", 6, "--c-min", 0.4, "--c-max", 1.1, "--c-step", 0.05,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,mse,abs_bias"
    assert len(lines) == 1 + 15


def test_asymptotics_command(tmp_path):
    out = tmp_path / "asym.json"
    assert run(["asymptotics", "--n", 200, "--replicates", 1500, "--seed", 8,
                "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["target_inv"] == pytest.approx(0.7101, abs=1e-4)


def test_asymptotics_command_writes_one_report_per_listed_n_in_order(tmp_path):
    out = tmp_path / "asym.json"
    assert run(["asymptotics", "--n", "200,300", "--replicates", 1000, "--seed", 8,
                "--out", out]) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert [report["n"] for report in payload] == [200, 300]
    for i, n in enumerate((200, 300)):
        expected = harness.asymptotics_check(n, 1.0, 1000, RngStream(8).child(i))._asdict()
        assert payload[i] == expected
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("flags", [
    ["--c-step", 0], ["--c-step", -0.01], ["--c-step", "nan"], ["--c-step", "inf"],
    ["--c-min", 1.2, "--c-max", 0.4], ["--c-min", "nan"], ["--c-max", "inf"],
], ids=["zero-step", "negative-step", "nan-step", "inf-step", "min-above-max", "nan-min",
        "inf-max"])
def test_sweep_refuses_a_grid_it_cannot_step_through(tmp_path, capsys, flags):
    code = run(["sweep", "--n", 10, "--replicates", 1000, "--out", tmp_path / "s.csv"] + flags)
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and all(
        flag in err for flag in flags if str(flag).startswith("--"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--r", 0], "growth rate must be positive"),  # the default T divides by r
    (["--replicates", 1], "at least 2 replicates"),  # the KS p-values would be NaN
], ids=["zero-rate", "one-replicate"])
def test_asymptotics_refuses_what_it_cannot_test(tmp_path, capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["asymptotics", "--n", 200, "--out", tmp_path / "asym.json"] + flags)
    assert code == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_coverage_command(tmp_path, constants_file):
    out = tmp_path / "cov.csv"
    assert run(["coverage", "--n", "5", "--r", 1.0, "--T", 40,
                "--replicates", 1000, "--seed", 9, "--constants", constants_file,
                "--out", out]) == 0
    value = float(out.read_text().splitlines()[1].split(",")[3])
    assert 0.9 <= value <= 1.0


def test_coverage_refuses_too_few_replicates_before_it_calibrates(tmp_path, capsys,
                                                                 monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("sample_sn called before the replicate floor was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    out = tmp_path / "cov.csv"
    assert run(["coverage", "--n", 5, "--replicates", 10, "--calibration-replicates", 20_000,
                "--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "coverage needs at least 1000 replicates" in err
    assert "calibrating" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["study", "--n", "5,6", "--r", 2, "--birth-rate", 1, "--T", 40],
     "birth rate 1.0 below growth rate 2.0"),
    (["coverage", "--n", 5, "--r", 2, "--birth-rate", 1, "--T", 40],
     "birth rate 1.0 below growth rate 2.0"),
    (["coverage", "--n", "5,2"], "sample sizes must be at least 3, not 2"),
    (["calibrate", "--n", "20,2"], "sample sizes must be at least 3, not 2"),
    (["study", "--n", "5,10-5"], "range '10-5' must ascend"),
    (["asymptotics", "--n", "500,50"], "asymptotics check needs n >= 200"),
], ids=["study-regime", "coverage-regime", "coverage-n", "calibrate-n", "study-range",
        "asymptotics-n"])
def test_commands_refuse_bad_values_before_their_first_draw(tmp_path, capsys, monkeypatch,
                                                            argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("drew before every value was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_chunks", refused)
    out = tmp_path / "out"
    assert run(argv + ["--calibration-replicates" if argv[0] in ("study", "coverage")
                       else "--replicates", 20_000, "--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "calibrating" not in err
    assert not out.exists()


def test_coverage_command_counts_the_replicates_it_keeps(tmp_path, constants_file, monkeypatch):
    real_chunks = estimators.height_chunks

    def constant_first_row(n, regime, rng, count):
        chunks = real_chunks(n, regime, rng, count)
        first = next(chunks)
        first[0] = first[0, 0]
        yield first
        yield from chunks

    argv = ["coverage", "--n", "5,10", "--r", 1.0, "--T", 40, "--replicates", 1000,
            "--seed", 9, "--constants", constants_file, "--out"]
    assert run(argv + [tmp_path / "clean.csv"]) == 0
    monkeypatch.setattr(estimators, "height_chunks", constant_first_row)
    assert run(argv + [tmp_path / "cov.csv"]) == 0
    for name, kept in (("clean.csv", "1000"), ("cov.csv", "999")):
        rows = list(csv.reader((tmp_path / name).read_text().splitlines()))
        assert rows[0][4] == "replicates"
        assert [row[4] for row in rows[1:]] == [kept, kept]


@pytest.mark.parametrize("command, replicates_flag", [
    (["coverage", "--n", 7, "--replicates", 1000], "--calibration-replicates"),
    (["study", "--n", 7, "--r", 1, "--replicates", 300, "--estimators", "MSE,Inv,Lengths"],
     "--calibration-replicates"),
    (["estimate", "times.csv", "--methods", "MSE,Bias,Inv,RawUnitConstant"], "--replicates"),
    (["estimate", "times.csv", "--methods", "Inv", "--level", 0.9], "--replicates"),
], ids=["coverage", "study", "estimate", "estimate-level"])
def test_on_the_fly_calibration_writes_what_the_calibrate_table_gives(
        tmp_path, capsys, monkeypatch, command, replicates_flag):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--n", 7, "--count", 40, "--seed", 2, "--T", 40,
                "--out", "times.csv"]) == 0
    assert run(["calibrate", "--n", 7, "--replicates", 20_000, "--seed", 5,
                "--out", "constants.csv"]) == 0
    argv = command + [replicates_flag, 20_000, "--seed", 5, "--out"]
    capsys.readouterr()
    assert run(argv + ["fly"]) == 0
    assert capsys.readouterr().err.count("calibrating on the fly with 20000 replicates") == 1
    assert run(argv + ["table", "--constants", "constants.csv"]) == 0
    assert "calibrating" not in capsys.readouterr().err
    fly, table = Path("fly"), Path("table")
    if fly.is_dir():
        assert sorted(p.name for p in fly.iterdir()) == sorted(p.name for p in table.iterdir())
        for path in fly.iterdir():
            assert path.read_bytes() == (table / path.name).read_bytes(), path.name
    else:
        assert fly.read_bytes() == table.read_bytes()


@pytest.mark.parametrize("command, out", [
    (["study", "--n", 10, "--replicates", 500, "--estimators", "MSE,Inv"], "study"),
    (["coverage", "--n", 10, "--replicates", 1000], "cov.csv"),
    (["sweep", "--n", 10, "--replicates", 2000], "sweep.csv"),
], ids=["study", "coverage", "sweep"])
def test_simulating_commands_refuse_non_finite_heights(tmp_path, capsys, constants_file,
                                                      monkeypatch, command, out):
    poison_height_chunks(monkeypatch)
    if command[0] != "sweep":
        command = command + ["--constants", constants_file]
    code = run(command + ["--r", 1, "--T", 800, "--seed", 3, "--out", tmp_path / out])
    assert code == cli.EXIT_NUMERICAL
    assert re.search(r"\d+ of \d+ rows hold non-finite coalescence times",
                     capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_estimate_custom_level_widens_interval(tmp_path):
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    wide = tmp_path / "wide.json"
    narrow = tmp_path / "narrow.json"
    base = ["estimate", src, "--methods", "Inv", "--replicates", 20_000,
            "--format", "json"]
    assert run(base + ["--level", 0.95, "--out", wide]) == 0
    assert run(base + ["--level", 0.5, "--out", narrow]) == 0
    rec_wide = json.loads(wide.read_text())[0]
    rec_narrow = json.loads(narrow.read_text())[0]
    assert rec_narrow["ci_low"] > rec_wide["ci_low"]
    assert rec_narrow["ci_high"] < rec_wide["ci_high"]


def test_estimate_at_another_level_draws_s_n_once(tmp_path, capsys, monkeypatch):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 10, "--count", 5, "--seed", 2, "--T", 40,
                "--out", times]) == 0
    calls = []
    sample_sn = calibration.sample_sn

    def counted(n, replicates, rng, workers=1):
        calls.append(n)
        return sample_sn(n, replicates, rng, workers)

    monkeypatch.setattr(calibration, "sample_sn", counted)
    capsys.readouterr()
    assert run(["estimate", times, "--methods", "RawUnitConstant,Inv,MSE", "--level", 0.9,
                "--replicates", 20_000, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert calls == [10]
    assert captured.err.count("calibrating on the fly") == 1
    # the constants and the 90% quantiles both come from that one draw
    sample = sample_sn(10, 20_000, RngStream(0).child(10))
    row = calibration.build_constants_row(10, 20_000, 0)
    spec = confidence.ConfidenceSpec.from_sample(sample, level=0.9)
    for rec in json.loads(captured.out):
        raw = rec["estimate"] / {"RawUnitConstant": 1.0, "Inv": row.c_inv,
                                 "MSE": row.c_mse}[rec["method"]]
        assert (rec["ci_low"], rec["ci_high"]) == pytest.approx(spec.interval(raw), rel=1e-12)


def test_estimate_says_when_another_level_draws_s_n_beside_a_table_row(
        tmp_path, capsys, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 10, "--count", 5, "--seed", 2, "--T", 40,
                "--out", times]) == 0
    base = ["estimate", times, "--constants", constants_file, "--methods", "Inv,Lengths",
            "--replicates", 20_000, "--seed", 3, "--format", "json"]
    capsys.readouterr()
    assert run(base) == 0
    assert capsys.readouterr().err == ""  # the table row holds the 95% quantiles
    assert run(base + ["--level", 0.9]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert all(word in lines[0] for word in ("n=10", "level 0.9", "20000"))
    assert "calibrating" not in lines[0]  # the constants still come from the table
    # the intervals are those of the draw the line names; the estimates the table's
    row = calibration.load_constants_table(constants_file)[10]
    spec = confidence.ConfidenceSpec.from_sample(
        calibration.sample_sn(10, 20_000, RngStream(3).child(10)), level=0.9)
    inv = [rec for rec in json.loads(captured.out) if rec["method"] == "Inv"]
    assert len(inv) == 5
    for rec in inv:
        raw = rec["estimate"] / row.c_inv
        assert (rec["ci_low"], rec["ci_high"]) == pytest.approx(spec.interval(raw), rel=1e-12)
