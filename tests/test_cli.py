"""Command-line surface: determinism of emitted files, round trips between
commands, per-input error isolation, and exit codes."""

import argparse
import csv
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import bdgrowth
from bdgrowth import calibration, cli, coalescent, confidence, estimators, harness, treeio
from bdgrowth.estimators import METHODS, estimates_for_matrix
from bdgrowth.rng import RngStream, thread_count
from oracles import CountedThread, with_chunks_changed

NEWICK = "((A:1,B:1):1,C:2);"


def run(argv):
    return cli.main([str(a) for a in argv])


def poison_height_chunks(monkeypatch):
    """Patch the simulating commands' sampler to put inf in every 4th row of
    each row chunk and nan in the row after it: rows no sampler draws, for
    the commands' finite-row guard to refuse."""
    real_draws = estimators.height_draws

    def poison(draw):
        chunk = draw()
        chunk[::4, 0], chunk[1::4, -1] = np.inf, np.nan
        return chunk

    def poisoned(n, regime, rng, count, threads=1):
        return (partial(poison, draw) for draw in real_draws(n, regime, rng, count, threads))

    monkeypatch.setattr(estimators, "height_draws", poisoned)


def poisoned_rows(n, count):
    """The rows poison_height_chunks marks in a run of count replicates of n
    tips: two in four of each row chunk, rounded up per chunk, with chunks as
    long as the run's thread count makes them."""
    step = coalescent.chunk_rows(n, thread_count(-(-count // coalescent.chunk_rows(n))))
    return sum(-(-rows // 4) + -(-(rows - 1) // 4)
               for rows in (min(step, count - start) for start in range(0, count, step)))


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
    rows = cli.read_times_csv(out.read_text())
    assert len(rows) == 50
    for row in rows:
        assert row.shape == (4,)
        assert all(0 < h < 10 for h in row)


def test_simulate_trees_round_trip(tmp_path):
    out = tmp_path / "times.csv"
    trees = tmp_path / "trees.nwk"
    assert run(["simulate", "--n", 4, "--count", 5, "--seed", 9, "--T", 20,
                "--r", 1.0, "--out", out, "--trees", trees]) == 0
    rows = cli.read_times_csv(out.read_text())
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
    assert all(row.shape == (4,) for row in cli.read_times_csv(out.read_text()))


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
    inputs = cli.read_times_csv(times.read_text())
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
    # estimate, simulate, calibrate and coverage never run the harness; study,
    # sweep and asymptotics import it; threads are plain threading.Threads
    code = ("import sys, bdgrowth.cli; "
            "print(sorted({'bdgrowth.harness', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_study_coverage_and_calibrate_leave_numpy_ma_unimported(tmp_path, constants_file):
    # np.quantile loads numpy.ma through np.unique; calibration.linear_quantiles
    # gives its values without it
    code = ("import sys, bdgrowth.cli; code = bdgrowth.cli.main(sys.argv[1:]); "
            "sys.exit(code or 10 * ('numpy.ma' in sys.modules))")
    for argv in (
        ["study", "--n", 5, "--r", 1, "--replicates", 300, "--constants", constants_file,
         "--out", tmp_path / "study"],
        ["coverage", "--n", 5, "--replicates", 1000, "--calibration-replicates", 10_000],
        ["calibrate", "--n", 5, "--replicates", 10_000, "--out", tmp_path / "c.csv"],
    ):
        done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv[0], done.returncode, done.stderr)


def test_no_record_class_is_a_dataclass():
    modules = [importlib.import_module(f"bdgrowth.{info.name}")
               for info in pkgutil.iter_modules(bdgrowth.__path__)]
    assert harness in modules
    classes = [value for module in modules for value in vars(module).values()
               if inspect.isclass(value) and value.__module__.startswith("bdgrowth")]
    assert cli.confidence.CoverageRow in classes
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]


def test_the_package_root_holds_only_the_version_pyproject_names():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # a regex, since tomllib needs Python 3.11 and the package supports 3.10
    assert bdgrowth.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)
    assert [name for name, value in vars(bdgrowth).items()
            if not name.startswith("__") and not inspect.ismodule(value)] == []


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


@pytest.mark.parametrize("name", ["a,b.nwk", 'say "hi".nwk', "two\nlines.nwk", "cr\r.nwk",
                                  "plain name.nwk"])
def test_estimate_input_field_round_trips_through_csv_and_json(tmp_path, constants_file, name):
    src = tmp_path / name
    src.write_text(NEWICK + "\n(A:1,B:1,C:1);")
    out = tmp_path / "est.csv"
    argv = ["estimate", src, "--constants", constants_file, "--methods", "Lengths,Inv"]
    assert run(argv + ["--out", out]) == 0
    with out.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7] * 5
    assert [row[0] for row in rows[1:]] == [f"{name}#0"] * 2 + [f"{name}#1"] * 2
    # quoted as csv's own writer quotes it, and only where it must be
    first = io.StringIO()
    csv.writer(first).writerow([f"{name}#0", 3])  # lines end in "\r\n"
    assert out.read_bytes().decode().split("\n", 1)[1].startswith(first.getvalue()[:-2] + ",")
    assert run(argv + ["--out", tmp_path / "est.json"]) == 0
    records = json.loads((tmp_path / "est.json").read_text(encoding="utf-8"))
    assert [record["input"] for record in records] == [row[0] for row in rows[1:]]


def test_estimate_isolates_bad_inputs(tmp_path, constants_file):
    bad = tmp_path / "mixed.nwk"
    # the first and the last are not ultrametric; the last has no positive tip distance
    bad.write_text("((A:1,B:2):1,C:2);\n((A:1,B:1):1,C:2);\n((A:-1,B:-1):-1,C:-7);")
    out = tmp_path / "est.csv"
    assert run(["estimate", bad, "--constants", constants_file,
                "--methods", "Inv,Lengths", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert all("NotUltrametric" in line for line in lines[1:3] + lines[5:])
    assert all("deviation 0.714 " in line for line in lines[5:])
    assert float(lines[4].split(",")[3]) == pytest.approx(3.0)


def test_estimate_gives_each_tree_its_lengths_refusal(tmp_path):
    # too few tips, no internal length, and one so small that n / L_in overflows
    src = tmp_path / "refused.nwk"
    src.write_text("(A:1,B:1);\n((A:1,B:1):0,C:1);\n((A:1,B:1):1e-320,C:1);\n")
    out = tmp_path / "est.csv"
    assert run(["estimate", src, "--methods", "Lengths", "--out", out]) == cli.EXIT_NUMERICAL
    with out.open(newline="", encoding="utf-8") as fh:
        assert [row[6] for row in list(csv.reader(fh))[1:]] == [
            "SampleTooSmall: lengths estimator needs n >= 3",
            "DegenerateTimes: internal branch length is zero",
            "ValueError: estimate must be positive and finite"]


@pytest.fixture(scope="module")
def times_file(tmp_path_factory):
    """A times CSV of one n = 5 row, in a directory of its own."""
    path = tmp_path_factory.mktemp("times") / "times.csv"
    cli.write_times_csv(np.array([[3.0, 1.0, 2.0, 0.5]]), 5, 40.0, path)
    return path


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
    ("5,nan,3,1,2,0.5", "ValueError: T must be finite, not 'nan'"),
    ("5,inf,3,1,2,0.5", "ValueError: T must be finite, not 'inf'"),
    ("5, -inf ,3,1,2,0.5", "ValueError: T must be finite, not '-inf'"),
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


def test_estimate_format_flag_wins_and_the_out_suffix_decides_without_it(tmp_path, capsys):
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    base = ["estimate", src, "--methods", "Lengths,MLE"]
    explicit = tmp_path / "explicit.json"
    assert run(base + ["--format", "csv", "--out", explicit]) == 0
    assert explicit.read_text().splitlines()[0] == "input,n,method,estimate,ci_low,ci_high,error"
    bare = tmp_path / "bare.json"
    assert run(base + ["--out", bare]) == 0
    records = json.loads(bare.read_text())
    assert [rec["method"] for rec in records] == ["Lengths", "MLE"]
    capsys.readouterr()
    assert run(base + ["--format", "json"]) == 0
    assert capsys.readouterr().out == bare.read_text()


@pytest.mark.parametrize("records", [
    [],
    [("t.nwk#0", 5, "MSE", 1.25, 0.5, 3.0000000000000004, ""),
     ("t.nwk#0", 5, "Lengths", 1e-320, None, None, ""),
     ('d\u00e9j\u00e0 "vu".nwk#1', None, "MLE", None, None, None,
      'NonConvergence: "quoted"\nand\ttabbed')],
], ids=["no-record", "every-kind"])
def test_estimate_json_is_the_bytes_of_one_json_dump(tmp_path, records):
    out = tmp_path / "est.json"
    cli._write_estimates(list(records), argparse.Namespace(format="json", out=out))
    dicts = [dict(zip(cli.ESTIMATE_FIELDS, record)) for record in records]
    assert out.read_bytes() == (json.dumps(dicts, indent=2, sort_keys=True) + "\n").encode()


def test_estimate_reads_a_times_csv_whose_header_follows_blank_lines(tmp_path, constants_file):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", 3, "--seed", 33, "--T", 40,
                "--out", times]) == 0
    padded = tmp_path / "padded" / "times.csv"  # the same name numbers the same inputs
    padded.parent.mkdir()
    padded.write_text("\n  \n\t " + times.read_text())
    outputs = []
    for path in (times, padded):
        out = path.with_suffix(".est.csv")
        assert run(["estimate", path, "--constants", constants_file,
                    "--methods", "Inv,Lengths,MLE", "--out", out]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    rows = list(csv.reader(outputs[0].splitlines()))[1:]
    assert len(rows) == 3 * 3 and all(row[6] == "" for row in rows)


@pytest.mark.parametrize("marked", ["times", "newick", "constants"])
def test_a_byte_order_mark_leaves_every_input_file_as_it_reads_without_one(
        tmp_path, constants_file, marked):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", 4, "--seed", 34, "--T", 40,
                "--out", times, "--trees", tmp_path / "trees.nwk"]) == 0
    inputs = {"times": times, "newick": tmp_path / "trees.nwk", "constants": constants_file}
    outputs = []
    for bom in ("", "\ufeff"):
        files = dict(inputs)
        if bom:  # the same name in another directory numbers the same inputs
            path = files[marked] = tmp_path / "bom" / files[marked].name
            path.parent.mkdir()
            path.write_text(bom + inputs[marked].read_text(), encoding="utf-8")
        source = files["newick" if marked == "newick" else "times"]
        out = tmp_path / f"estimates{len(outputs)}.csv"
        assert run(["estimate", source, "--constants", files["constants"],
                    "--methods", ",".join(METHODS), "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"Error" not in outputs[0]


def test_estimate_takes_a_times_row_whose_T_is_not_positive_or_below_its_heights(
        tmp_path, constants_file):
    # fixed-n and large-n times can hold such rows; only a non-finite T is refused
    path = tmp_path / "times.csv"
    path.write_text("n,T,h1,h2,h3\n4,-5,3,1,2\n4,1,3,1,2\n4,0,3,1,2\n4,,3,1,2\n")
    code, rows = estimate_rows(path, constants_file)
    assert code == cli.EXIT_OK
    for method in ("Inv", "Lengths", "MLE"):
        kept = [rows[(f"times.csv#{i}", method)] for i in range(4)]
        assert kept[0][6] == "" and all(row[1:] == kept[0][1:] for row in kept)


def test_estimate_hands_the_writer_one_tuple_per_input_and_method_in_order(
        tmp_path, monkeypatch, constants_file):
    seen = []
    write = cli._write_estimates

    def spy(records, args):
        seen.append(list(records))
        write(records, args)

    monkeypatch.setattr(cli, "_write_estimates", spy)
    blocks = {}
    for n in (5, 10):
        path = tmp_path / f"n{n}.csv"
        assert run(["simulate", "--n", n, "--count", 2, "--seed", 31, "--T", 40,
                    "--out", path]) == 0
        header, *blocks[n] = path.read_text().splitlines()
    # a row of the wrong length, a constant row every method refuses and a
    # row with a height that is not a number, between rows of two sizes
    times = tmp_path / "mixed.csv"
    times.write_text("\n".join([header, blocks[5][0], blocks[10][0], "4,10,3", "5,,2,2,2,2",
                                blocks[5][1], "3,40,1,x", blocks[10][1]]) + "\n")
    trees = tmp_path / "batch.nwk"
    trees.write_text("((A:1,B:1):1,C:2);\n((A,B:1):1,C:2);\n"
                     "((((A:1,B:1):1,C:2):1,D:3):1,E:4);\n((H:1,I:1):1.5,J:2.5):0.5;\n")
    tags = ["Inv", "Lengths", "MLE"]
    for path, count, refused in ((times, 7, {2, 3, 5}), (trees, 4, {1})):
        seen.clear()
        assert run(["estimate", path, "--constants", constants_file, "--methods",
                    ",".join(tags), "--out", tmp_path / "est.csv"]) == 0
        (records,) = seen
        assert all(type(rec) is tuple and len(rec) == 7 for rec in records)
        assert [(rec[0], rec[2]) for rec in records] == [
            (f"{path.name}#{i}", tag) for i in range(count) for tag in tags]
        assert {int(rec[0].split("#")[1]) for rec in records if rec[6]} == refused
        assert all((rec[1] is None) == bool(rec[6]) for rec in records)
        # the JSON writer formats a float with %r, which is JSON's text only for a float
        assert all(type(value) is float for rec in records for value in rec[3:6]
                   if value is not None)
        assert all(type(rec[1]) is int for rec in records if rec[1] is not None)


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
    def refused_first_row(chunk):
        chunk[0] = 1e200 * np.arange(chunk.shape[1])  # b*b overflows at the fit's moment start

    monkeypatch.setattr(estimators, "height_draws", with_chunks_changed(
        estimators.height_draws, {0: refused_first_row}))
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
    # the same at r*T = 5000; the bad rows fall in every one of the sampler's
    # chunks (at least two at n = 10 and sixteen at n = 100), and every one is
    # counted
    (["coverage", "--n", 10, "--T", 5000, "--replicates", 20_000, "--seed", 1], None,
     cli.EXIT_NUMERICAL, lambda: f"{poisoned_rows(10, 20_000)} of 20000 rows hold non-finite "
                                 "coalescence times"),
    (["coverage", "--n", 100, "--T", 5000, "--replicates", 20_000, "--seed", 1,
      "--calibration-replicates", 20_000], None,
     cli.EXIT_NUMERICAL, lambda: f"{poisoned_rows(100, 20_000)} of 20000 rows hold non-finite "
                                 "coalescence times"),
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
    assert (message() if callable(message) else message) in done.out + done.err
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


def test_study_summary_records_the_birth_rate_and_calibration_replicates(tmp_path,
                                                                        constants_file):
    summaries = {}
    for rate in (1, 2):
        out = tmp_path / f"birth-{rate}"
        assert run(["study", "--n", "5", "--r", "0.5", "--birth-rate", rate, "--replicates", 300,
                    "--seed", 5, "--constants", constants_file, "--calibration-replicates",
                    20_000, "--out", out]) == 0
        summaries[rate] = json.loads((out / "summary.json").read_text())
    assert sorted(summaries[2]) == ["T", "birth_rate", "calibration_replicates", "estimators",
                                    "excluded_degenerate", "ns", "regime", "replicates", "rs",
                                    "seed"]
    assert (summaries[1]["birth_rate"], summaries[2]["birth_rate"]) == (1.0, 2.0)
    assert summaries[2]["calibration_replicates"] == 20_000
    summaries[1]["birth_rate"] = 2.0
    assert summaries[1] == summaries[2]  # nothing else tells the two runs apart


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


def test_sweep_that_keeps_no_replicate_writes_no_nan_rows(tmp_path, capsys, monkeypatch):
    def constant_rows(chunk):
        chunk[:] = chunk[:, :1]

    # 1000 replicates at n = 10 are one chunk
    monkeypatch.setattr(estimators, "height_draws", with_chunks_changed(
        estimators.height_draws, {0: constant_rows}))
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["sweep", "--n", 10, "--replicates", 1000, "--out", out])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: all 1000 replicates dropped: each one's heights coincide\n")
    assert not out.exists()


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


def test_coverage_draws_every_s_n_once_before_its_first_study(tmp_path, monkeypatch):
    events = []
    sample_sn, height_draws = calibration.sample_sn, estimators.height_draws

    def counted_sn(n, replicates, rng):
        events.append(f"S_{n}")
        return sample_sn(n, replicates, rng)

    def counted_draws(n, regime, rng, count, threads=1):
        events.append(f"heights of {n}")
        return height_draws(n, regime, rng, count, threads)

    monkeypatch.setattr(calibration, "sample_sn", counted_sn)
    monkeypatch.setattr(estimators, "height_draws", counted_draws)
    out = tmp_path / "cov.csv"
    assert run(["coverage", "--n", "7,8,7", "--replicates", 1000,
                "--calibration-replicates", 10_000, "--out", out]) == cli.EXIT_OK
    assert events == ["S_7", "S_8", "heights of 7", "heights of 8", "heights of 7"]
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["n", "7", "8", "7"]


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
    (["study", "--regime", "large-n", "--T", -5, "--n", 5], "tree height must be positive"),
    (["coverage", "--regime", "large-n", "--T", 0, "--n", 5], "tree height must be positive"),
    (["sweep", "--regime", "large-n", "--T", -5], "tree height must be positive"),
    (["sweep", "--n", 2], "sweep needs n >= 3, not 2"),
    (["study", "--n", 5, "--replicates", 0], "need at least one replicate"),
    (["study", "--n", 5, "--estimators", "Inv,RawUnitConstant"],
     "unknown estimator 'RawUnitConstant'"),
    (["simulate", "--n", 5, "--regime", "large-n", "--T", -5], "tree height must be positive"),
    (["simulate", "--n", 5, "--r", 2, "--birth-rate", 1, "--T", 40],
     "birth rate 1.0 below growth rate 2.0"),
], ids=["study-regime", "coverage-regime", "coverage-n", "calibrate-n", "study-range",
        "asymptotics-n", "study-large-n-negative-T", "coverage-large-n-zero-T",
        "sweep-large-n-negative-T", "sweep-n", "study-no-replicate", "study-estimator",
        "simulate-large-n-negative-T", "simulate-regime"])
def test_commands_refuse_bad_values_before_their_first_draw(tmp_path, capsys, monkeypatch,
                                                            argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("drew before every value was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_draws", refused)
    monkeypatch.setattr(cli, "sample_coalescence_times_block", refused)
    out = tmp_path / "out"
    size = {"study": "--calibration-replicates", "coverage": "--calibration-replicates",
            "simulate": "--count"}.get(argv[0], "--replicates")
    assert run(argv + [size, 20_000, "--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err
    assert "calibrating" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, out", [
    (["calibrate", "--n", "5,6,7", "--replicates", 300_000], "missing/c.csv"),
    (["calibrate", "--n", 5, "--replicates", 20_000], "file/c.csv"),
    (["sweep", "--n", 10], "missing/sweep.csv"),
    (["coverage", "--n", "5,10"], "missing/coverage.csv"),
    (["asymptotics", "--n", "200,300"], "missing/asymptotics.json"),
    (["study", "--n", 5, "--r", "0.5,1"], "file"),
    (["study", "--n", 5], "file/study"),
    (["simulate", "--n", 50, "--count", 100_000, "--T", 40], "missing/times.csv"),
    (["simulate", "--n", 5, "--T", 40], "file/times.csv"),
    (["estimate", "TIMES", "--constants", "TABLE"], "missing/estimates.csv"),
    (["estimate", "TIMES", "--constants", "TABLE"], "file/estimates.json"),
    (["calibrate", "--n", 5, "--replicates", 20_000], "dir"),
    (["sweep", "--n", 10], "dir"),
    (["coverage", "--n", "5,10"], "dir"),
    (["asymptotics", "--n", 200], "dir"),
    (["simulate", "--n", 50, "--count", 100_000, "--T", 40], "dir"),
    (["estimate", "TIMES", "--constants", "TABLE"], "dir"),
    (["simulate", "--n", 5, "--count", 10, "--T", 40], "newdir/"),
    (["calibrate", "--n", 5, "--replicates", 20_000], "c/"),
], ids=["calibrate", "calibrate-in-a-file", "sweep", "coverage", "asymptotics", "study-file",
        "study-in-a-file", "simulate", "simulate-in-a-file", "estimate", "estimate-in-a-file",
        "calibrate-dir", "sweep-dir", "coverage-dir", "asymptotics-dir", "simulate-dir",
        "estimate-dir", "simulate-trailing-slash", "calibrate-trailing-slash"])
def test_commands_refuse_an_unusable_out_before_their_first_draw(tmp_path, capsys, monkeypatch,
                                                                 constants_file, times_file,
                                                                 argv, out):
    def refused(*args, **kwargs):
        raise AssertionError("drew before --out was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_draws", refused)
    monkeypatch.setattr(cli, "sample_coalescence_times_block", refused)
    monkeypatch.setattr(cli, "estimates_for_matrix", refused)
    argv = [{"TIMES": times_file, "TABLE": constants_file}.get(a, a) for a in argv]
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    text = f"{tmp_path}/{out}"  # a string, so that a trailing slash survives
    out = tmp_path / out
    where = out if out.name == "file" else out.parent
    problem = ("names a directory" if text.endswith("/") else "is a directory" if out.is_dir()
               else f"{where} is not a directory")
    assert run(argv + ["--out", text]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"input error: --out {text}: {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--T", 40, "--trees", "missing/trees.nwk"],
     "--trees {tmp}/missing/trees.nwk: {tmp}/missing is not a directory"),
    (["--T", 40, "--trees", "file/trees.nwk"],
     "--trees {tmp}/file/trees.nwk: {tmp}/file is not a directory"),
    (["--T", 40, "--trees", "dir"], "--trees {tmp}/dir: is a directory"),
    (["--regime", "fixed-n", "--trees", "trees.nwk"],
     "writing trees needs absolute times; pass --T"),
], ids=["missing", "in-a-file", "a-directory", "without-T"])
def test_simulate_refuses_its_trees_before_its_first_draw(tmp_path, capsys, monkeypatch,
                                                          flags, message):
    def refused(*args, **kwargs):
        raise AssertionError("drew before --trees was checked")

    monkeypatch.setattr(cli, "sample_coalescence_times_block", refused)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    flags = [tmp_path / f if flags[k - 1] == "--trees" else f for k, f in enumerate(flags)]
    assert run(["simulate", "--n", 50, "--count", 200_000, *flags,
                "--out", tmp_path / "times.csv"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message.format(tmp=tmp_path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("argv, message", [
    (["estimate", "IN", "--out", "OUT"], "--out {out}: would overwrite input {given}"),
    (["estimate", "TIMES", "--constants", "IN", "--out", "OUT"],
     "--out {out}: would overwrite --constants {given}"),
    (["coverage", "--n", 5, "--constants", "IN", "--out", "OUT"],
     "--out {out}: would overwrite --constants {given}"),
    (["simulate", "--n", 5, "--T", 40, "--out", "IN", "--trees", "OUT"],
     "--trees {out}: would overwrite --out {given}"),
    # --out names a directory; the table is the metrics.csv study writes there
    (["study", "--n", 5, "--r", 1, "--replicates", 300, "--seed", 1, "--constants", "IN",
      "--out", "OUT"], "--out {out}: would overwrite --constants {given}"),
], ids=["estimate-input", "estimate-constants", "coverage-constants", "simulate-trees",
        "study-constants"])
def test_commands_refuse_an_output_that_overwrites_an_input_before_reading_it(
        tmp_path, capsys, monkeypatch, constants_file, times_file, argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("read or drew before the outputs were checked")

    monkeypatch.setattr(calibration, "load_constants_table", refused)
    monkeypatch.setattr(cli, "_load_inputs", refused)
    monkeypatch.setattr(cli, "sample_coalescence_times_block", refused)
    (tmp_path / "dir").mkdir()
    source = constants_file if "--constants" in argv else times_file
    name = "metrics.csv" if argv[0] == "study" else "in.csv"
    given = tmp_path / name
    given.write_bytes(source.read_bytes())
    out = f"{tmp_path}/dir/.."  # the input, or the directory study writes it in, by another path
    out += "" if argv[0] == "study" else f"/{name}"
    argv = [{"IN": given, "OUT": out, "TIMES": times_file}.get(a, a) for a in argv]
    assert run(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message.format(out=out, given=given)}\n"
    assert given.read_bytes() == source.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", name]


@pytest.mark.parametrize("argv, t", [
    (["simulate", "--n", "5", "--out", "times.csv"], None),
    (["study", "--out", "study"], 40.0),
    (["sweep", "--out", "sweep.csv"], 40.0),
    (["coverage"], 40.0),
], ids=["simulate", "study", "sweep", "coverage"])
def test_regime_flags_default_to_the_exact_law_at_unit_birth_rate(argv, t):
    args = cli.build_parser().parse_args(argv)
    assert (args.regime, args.T, args.birth_rate) == ("exact", t, 1.0)


def test_asymptotics_T_is_an_unknown_option(tmp_path, capsys):
    # a reporting height would only shift the heights, which no estimator sees
    with pytest.raises(SystemExit) as stopped:
        run(["asymptotics", "--n", 200, "--T", 5, "--out", tmp_path / "asym.json"])
    assert stopped.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --T 5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


THREE_CHUNKS = 2 * estimators.chunk_rows(10) + 7  # replicates of three n=10 chunks


@pytest.mark.parametrize("argv, cpus, started", [
    (["calibrate", "--n", 5, "--replicates", 120_001], 100_000, 2),  # 3 S_n blocks
    (["calibrate", "--n", 5, "--replicates", 120_001], 2, 1),
    (["calibrate", "--n", 5, "--replicates", 120_001], 1, 0),
    # four cells one after another, each its three chunks on three threads
    (["study", "--r", "0.25,0.5,0.75,1", "--replicates", THREE_CHUNKS], 100_000, 8),
    (["study", "--r", "0.25,0.5,0.75,1", "--replicates", THREE_CHUNKS], 2, 4),
    (["study", "--r", "0.25,0.5", "--replicates", 300], 100_000, 0),  # one chunk a cell
], ids=["calibrate-3-blocks", "calibrate-2-cpus", "calibrate-1-cpu", "study-3-chunks",
        "study-2-cpus", "study-1-chunk"])
def test_threads_never_outnumber_the_cpus_or_the_work_units(
        tmp_path, monkeypatch, constants_file, argv, cpus, started):
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "made", 0)
    monkeypatch.setattr(CountedThread, "limit", started)
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: cpus)
    if argv[0] == "study":
        argv = argv + ["--n", 10, "--estimators", "MSE", "--constants", constants_file]
    assert run(argv + ["--out", tmp_path / "out"]) == 0
    assert CountedThread.made == started  # the calling thread runs one share


@pytest.mark.parametrize("command", ["calibrate", "study"])
def test_workers_is_an_unknown_option(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as stopped:
        run([command, "--n", 5, "--workers", 2, "--out", tmp_path / "out"])
    assert stopped.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "coverage", "study"])
def test_fixed_n_regime_refuses_a_non_finite_T_before_its_first_draw(
        tmp_path, capsys, monkeypatch, command, t):
    def refused(*args, **kwargs):
        raise AssertionError("drew before T was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_draws", refused)
    monkeypatch.setattr(cli, "sample_coalescence_times_block", refused)
    out = tmp_path / "out"
    assert run([command, "--regime", "fixed-n", "--T", t, "--n", 5,
                "--out", out]) == cli.EXIT_INPUT
    assert "tree height must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["study", "--n", 5],
    ["coverage", "--n", 5],
    ["estimate", "TIMES", "--methods", "MSE"],
], ids=["study", "coverage", "estimate"])
def test_commands_refuse_an_unusable_constants_row_before_their_first_draw(
        tmp_path, capsys, monkeypatch, command):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 5, "--count", 3, "--T", 40, "--out", times]) == 0
    line = "5,0.79861111111111127,nan,0.59108902510286787,1.7159781077568594,0.2,1000000,1"
    table = tmp_path / "constants.csv"
    table.write_text(f"# {calibration._TABLE_VERSION}\n{calibration._TABLE_COLUMNS}\n{line}\n")

    def refused(*args, **kwargs):
        raise AssertionError("drew before the table was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_draws", refused)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [times if a == "TIMES" else a for a in command]
    assert run(argv + ["--constants", table, "--out", out]) == cli.EXIT_INPUT
    assert f"{table}: row {line!r}: constants and quantiles must be finite and positive" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coverage", "--n", "100,200", "--calibration-replicates", 9999, "--replicates", 1000],
    ["coverage", "--n", "5,20", "--constants", "TABLE", "--calibration-replicates", 9999],
    ["study", "--n", "5,20", "--constants", "TABLE", "--calibration-replicates", 9999],
    ["calibrate", "--n", "5,8", "--replicates", 9999],
], ids=["coverage", "coverage-part-table", "study-part-table", "calibrate"])
def test_commands_refuse_too_few_s_n_replicates_before_their_first_draw(
        tmp_path, capsys, monkeypatch, constants_file, argv):
    def refused(*args, **kwargs):
        raise AssertionError("drew before the replicate floor was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    monkeypatch.setattr(estimators, "height_draws", refused)
    out = tmp_path / "out"
    argv = [constants_file if a == "TABLE" else a for a in argv]
    assert run(argv + ["--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "9999 replicates; quantiles need at least 10000" in err
    assert "calibrating" not in err
    assert not out.exists()


def test_estimate_refuses_too_few_s_n_replicates_without_drawing(tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("drew before the replicate floor was checked")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    src = tmp_path / "tree.nwk"
    src.write_text(NEWICK)
    out = tmp_path / "est.csv"
    assert run(["estimate", src, "--methods", "Inv,Lengths", "--replicates", 9999,
                "--out", out]) == cli.EXIT_OK
    assert "calibrating" not in capsys.readouterr().err
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["error"] == ("InsufficientReplicates: 9999 replicates; "
                                "quantiles need at least 10000")
    assert rows[1]["error"] == "" and rows[1]["method"] == "Lengths"


def test_a_full_table_runs_with_too_few_s_n_replicates_to_draw(tmp_path, capsys, monkeypatch,
                                                              constants_file):
    def refused(*args, **kwargs):
        raise AssertionError("drew S_n although the table has the row")

    monkeypatch.setattr(calibration, "sample_sn", refused)
    src = tmp_path / "tree.nwk"
    src.write_text("(((A:1,B:1):1,C:2):1,(D:1.5,E:1.5):1.5);")
    table = ["--constants", constants_file]
    assert run(["coverage", "--n", "5,10", "--replicates", 1000,
                "--calibration-replicates", 9999] + table) == cli.EXIT_OK
    assert run(["study", "--n", 5, "--replicates", 200, "--calibration-replicates", 9999,
                "--out", tmp_path / "study"] + table) == cli.EXIT_OK
    assert run(["estimate", src, "--methods", "Inv", "--replicates", 9999,
                "--out", tmp_path / "est.csv"] + table) == cli.EXIT_OK
    assert "calibrating" not in capsys.readouterr().err


def test_coverage_command_counts_the_replicates_it_keeps(tmp_path, constants_file, monkeypatch):
    def constant_first_row(chunk):
        chunk[0] = chunk[0, 0]

    argv = ["coverage", "--n", "5,10", "--r", 1.0, "--T", 40, "--replicates", 1000,
            "--seed", 9, "--constants", constants_file, "--out"]
    assert run(argv + [tmp_path / "clean.csv"]) == 0
    monkeypatch.setattr(estimators, "height_draws", with_chunks_changed(
        estimators.height_draws, {0: constant_first_row}))
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


def test_estimate_refuses_an_interval_that_is_not_positive_and_finite(tmp_path, capsys):
    def refused(constant):
        raise AssertionError(f"{constant} in the JSON output")

    times = tmp_path / "times.csv"
    # the raw estimate is finite, its upper bound raw / q_lo overflows
    times.write_text("n,T,h1,h2,h3\n4,40,0,1e-308,2e-308\n")
    base = ["estimate", times, "--replicates", 20_000, "--format", "json"]
    assert run(base + ["--methods", "MSE,RawUnitConstant"]) == cli.EXIT_INPUT
    records = json.loads(capsys.readouterr().out, parse_constant=refused)
    assert [(rec["method"], rec["estimate"], rec["ci_high"], rec["error"]) for rec in records] == [
        (tag, None, None, "ValueError: interval must be positive and finite")
        for tag in ("MSE", "RawUnitConstant")]

    # beside a finite row the run succeeds, and Lengths and MLE keep the records
    # they get without a pairwise method
    times.write_text("n,T,h1,h2,h3\n4,40,0,1e-308,2e-308\n4,40,3,1,2\n")
    out = tmp_path / "est.csv"
    assert run(base[:-2] + ["--methods", "MSE,Lengths,MLE", "--out", out]) == cli.EXIT_OK
    assert "inf" not in out.read_text()
    assert run(base + ["--methods", "MSE,Lengths,MLE"]) == cli.EXIT_OK
    records = json.loads(capsys.readouterr().out, parse_constant=refused)
    assert records[0]["error"] == "ValueError: interval must be positive and finite"
    assert records[3]["error"] == "" and records[3]["ci_high"] > records[3]["ci_low"] > 0
    assert run(base + ["--methods", "Lengths,MLE"]) == cli.EXIT_OK
    alone = json.loads(capsys.readouterr().out, parse_constant=refused)
    assert [rec for rec in records if rec["method"] != "MSE"] == alone


def test_estimate_at_another_level_draws_s_n_once(tmp_path, capsys, monkeypatch):
    times = tmp_path / "times.csv"
    assert run(["simulate", "--n", 10, "--count", 5, "--seed", 2, "--T", 40,
                "--out", times]) == 0
    calls = []
    sample_sn = calibration.sample_sn

    def counted(n, replicates, rng):
        calls.append(n)
        return sample_sn(n, replicates, rng)

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
