"""Command-line surface: determinism of emitted files, round trips between
commands, per-input error isolation, and exit codes."""

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdgrowth import calibration, cli, harness, treeio
from bdgrowth.estimators import METHODS

NEWICK = "((A:1,B:1):1,C:2);"


def run(argv):
    return cli.main([str(a) for a in argv])


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
    rows = cli.read_times_csv(out)
    assert len(rows) == 50
    for row in rows:
        assert row.n == 5 and row.t == 10.0
        assert all(0 < h < 10 for h in row.times)


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
        assert sorted(extracted.times) == pytest.approx(sorted(row.times), rel=1e-9)


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
    rows = cli.read_times_csv(out)
    assert all(row.relative for row in rows)


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
    study, study_raw, _ = harness.estimates_for_matrix(
        np.array([t.times for t in inputs]), row, tuple(METHODS))
    assert study_raw.size == len(inputs)
    for i, t in enumerate(inputs):
        got = {tag: records[(f"times.csv#{i}", tag)] for tag in METHODS}
        raw = 9 * 8 / sum(abs(a - b) for a, b in itertools.combinations(t.times, 2))
        for tag, c in constant.items():
            assert got[tag]["estimate"] == pytest.approx(c * raw, rel=1e-12)
            # every pairwise method carries the interval of the raw pivot
            assert (got[tag]["ci_low"], got[tag]["ci_high"]) == pytest.approx(
                (raw * row.inv_q_hi, raw * row.inv_q_lo), rel=1e-12)
        for tag in ("Lengths", "MLE"):
            assert got[tag]["ci_low"] is None and got[tag]["ci_high"] is None
        for tag in METHODS:
            assert got[tag]["estimate"] == pytest.approx(study[tag][i], rel=1e-12)


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
    assert captured.err.count("calibrating on the fly") == 1
    rows = list(csv.reader(captured.out.splitlines()))[1:]
    assert [row[6] for row in rows] == ["ValueError: S_n needs n >= 3"] * 3 + [
        "SampleTooSmall: lengths estimator needs n >= 3"]


def test_importing_the_cli_leaves_scipy_stats_unimported():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, bdgrowth.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


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
    the good inputs alone; good_at[i] is where the i-th good input sits."""
    code, rows = estimate_rows(mixed, constants_file)
    assert code == cli.EXIT_OK
    _, alone = estimate_rows(good, constants_file)
    assert len(alone) == 3 * len(good_at)
    for (name, method), row in alone.items():
        i = int(name.rpartition("#")[2])
        assert rows[(f"{mixed.name}#{good_at[i]}", method)][1:] == row[1:]
        assert row[6] == ""
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
    assert payload["target_inv"] == pytest.approx(0.7101, abs=1e-4)


def test_coverage_command(tmp_path, constants_file):
    out = tmp_path / "cov.csv"
    assert run(["coverage", "--n", "5", "--r", 1.0, "--T", 40,
                "--replicates", 1000, "--seed", 9, "--constants", constants_file,
                "--out", out]) == 0
    value = float(out.read_text().splitlines()[1].split(",")[3])
    assert 0.9 <= value <= 1.0


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
