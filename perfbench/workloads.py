"""The four benchmark workloads: their inputs, their command lines and the
checks on their outputs.

Each workload is one `python -m bdgrowth.cli` command. Its inputs come from
the seed alone (the Newick generator here, or the seed handed to the CLI)
and from the frozen constants table in `data/`, so the parent commit and a
change read the same bytes. The checks recompute what they can from the
inputs without trusting the program, and count the items whose outputs are
wrong; `attempted` counts items as defined per workload below.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import newickgen

DATA = Path(__file__).resolve().parent / "data"
TABLE = DATA / "constants.csv"
# Digest of the frozen table; a table that differs is not the benchmark's.
TABLE_SHA256 = "c625cea369608830220ca1f64fbc984a9b3dbbceef602d7e2068fcb519504d92"
TABLE_SIZES = (5, 8, 10, 12, 16, 20)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path = TABLE) -> dict[int, dict[str, float]]:
    """The constants table as {n: {column: value}}."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = csv.DictReader(lines[1:])
    return {int(row["n"]): {k: float(v) for k, v in row.items()} for row in rows}


def c_inv(n: int) -> float:
    """Closed-form (n/(n-2)) * (1 - H_{n-1}/(n-1))."""
    return n / (n - 2) * (1.0 - math.fsum(1.0 / k for k in range(1, n)) / (n - 1))


def pairwise_abs_sum(values: list[float]) -> float:
    return math.fsum(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Workload:
    """One benchmark command. Subclasses write inputs in __init__."""

    name = ""
    why = ""
    items = 0

    def argv(self, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out_dir: Path) -> tuple[int, list[str]]:
        """(items whose outputs are wrong, descriptions of the problems)."""
        raise NotImplementedError

    def inputs(self) -> list[Path]:
        return [TABLE]


class Study(Workload):
    """`study`: all five estimators over a 3x2 (n, r) grid. Item = replicate."""

    name = "study"
    why = "reproduces the paper's error tables; the per-replicate logistic MLE dominates"
    NS = (5, 10, 20)
    RS = (0.5, 1.0)
    ESTIMATORS = ("MSE", "Bias", "Inv", "Lengths", "MLE")
    COVERAGE_BAND = (0.88, 0.995)
    REPLICATES = 400

    def __init__(self, seed: int, in_dir: Path):
        self.seed = seed
        self.items = self.REPLICATES * len(self.NS) * len(self.RS)

    def argv(self, out_dir):
        return ["study", "--regime", "exact", "--T", "40",
                "--n", ",".join(map(str, self.NS)), "--r", "0.5,1",
                "--estimators", ",".join(self.ESTIMATORS),
                "--replicates", str(self.REPLICATES), "--seed", str(self.seed),
                "--constants", str(TABLE), "--out", str(out_dir / "study")]

    def check(self, out_dir):
        out = out_dir / "study"
        cells = {(n, r) for n in self.NS for r in self.RS}
        bad: set = set()
        problems: list[str] = []

        def flag(cell, text):
            bad.add(cell)
            problems.append(f"n={cell[0]} r={cell[1]}: {text}")

        seen = set()
        header, rows = _read_csv(out / "metrics.csv")
        if header != ["estimator", "n", "r", "T", "mse", "mae", "bias", "replicates"]:
            return self.items, [f"metrics.csv header {header}"]
        for est, n, r, t, mse, mae, bias, reps in rows:
            cell = (int(n), float(r))
            seen.add((est, cell))
            mse, mae, bias = float(mse), float(mae), float(bias)
            if not all(map(math.isfinite, (mse, mae, bias))):
                flag(cell, f"{est} has a non-finite metric")
            # mean |e| >= |mean e| and mean e^2 >= (mean |e|)^2 on any sample
            elif not (abs(bias) <= mae * (1 + 1e-12) and mae * mae <= mse * (1 + 1e-12)):
                flag(cell, f"{est} metrics violate |bias| <= mae <= sqrt(mse)")
            if int(reps) != self.REPLICATES:
                flag(cell, f"{est} used {reps} replicates, so some were excluded")
        for cell in cells:
            for est in self.ESTIMATORS:
                if (est, cell) not in seen:
                    flag(cell, f"no {est} row")

        header, rows = _read_csv(out / "coverage.csv")
        covered = set()
        for n, r, t, cov, reps in rows:
            cell = (int(n), float(r))
            covered.add(cell)
            lo, hi = self.COVERAGE_BAND
            if not lo <= float(cov) <= hi:
                flag(cell, f"coverage {cov} outside [{lo}, {hi}]")
            if int(reps) != self.REPLICATES:
                flag(cell, f"coverage used {reps} replicates")
        for cell in cells - covered:
            flag(cell, "no coverage row")

        header, rows = _read_csv(out / "densities.csv")
        mass: dict = {}
        for est, n, r, lo, hi, count, dens in rows:
            key = (est, (int(n), float(r)))
            width, dens = float(hi) - float(lo), float(dens)
            if not (math.isfinite(dens) and dens >= 0 and width > 0):
                flag(key[1], f"{est} density bin is not a finite non-negative density")
            mass[key] = mass.get(key, 0.0) + dens * width
        for (est, cell), total in mass.items():
            if not total <= 1.0 + 1e-9:
                flag(cell, f"{est} density integrates to {total}")

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for key, count in summary.get("excluded_degenerate", {}).items():
            if count:
                problems.append(f"{key}: {count} degenerate replicates excluded")
                n, r = (part.split("=")[1] for part in key.split(","))
                bad.add((int(n), float(r)))
        return len(bad & cells) * self.REPLICATES, problems


class Newick(Workload):
    """`estimate` on a generated Newick batch with Inv and Lengths. Item = tree."""

    name = "newick"
    why = "parses and extracts a batch of real-looking trees; no MLE and no sampling"
    METHODS = ("Inv", "Lengths")
    REL_TOL = 1e-8

    def __init__(self, seed: int, in_dir: Path, trees: int = 2000):
        text, self.truths = newickgen.make_batch(seed, trees, TABLE_SIZES)
        self.path = in_dir / "trees.nwk"
        self.path.write_text(text, encoding="utf-8")
        self.items = trees

    def inputs(self):
        return [TABLE, self.path]

    def argv(self, out_dir):
        return ["estimate", str(self.path), "--methods", ",".join(self.METHODS),
                "--constants", str(TABLE), "--out", str(out_dir / "estimates.csv")]

    def check(self, out_dir):
        table = read_table()
        header, rows = _read_csv(out_dir / "estimates.csv")
        if header != ["input", "n", "method", "estimate", "ci_low", "ci_high", "error"]:
            return self.items, [f"estimates.csv header {header}"]
        by_key = {(row[0], row[2]): row for row in rows}
        bad, problems = set(), []
        if len(rows) != len(by_key) or len(rows) != self.items * len(self.METHODS):
            problems.append(f"{len(rows)} rows for {self.items} trees")
        for i, truth in enumerate(self.truths):
            n, h = truth.n, truth.heights
            raw = (n - 1) * (n - 2) / pairwise_abs_sum(h)
            want = {
                "Inv": (c_inv(n) * raw, raw * table[n]["inv_q_hi"], raw * table[n]["inv_q_lo"]),
                "Lengths": (n / truth.internal_length, None, None),
            }
            for method in self.METHODS:
                row = by_key.get((f"{self.path.name}#{i}", method))
                if row is None or row[6] or row[1] != str(n):
                    bad.add(i)
                    problems.append(f"tree {i} {method}: row {row}")
                    continue
                for got, expect in zip(row[3:6], want[method]):
                    ok = got == "" if expect is None else _close(float(got), expect, self.REL_TOL)
                    if not ok:
                        bad.add(i)
                        problems.append(f"tree {i} {method}: {got} != {expect}")
        return len(bad), problems


class SimulateTrees(Workload):
    """`simulate` with times CSV and Newick output. Item = tree."""

    name = "simulate-trees"
    why = "simulates, then builds and serializes one tree per replicate: the write side of treeio"
    N = 20
    T = 40.0
    TREES = 2500

    def __init__(self, seed: int, in_dir: Path):
        self.seed = seed
        self.items = self.TREES

    def inputs(self):
        return []

    def argv(self, out_dir):
        return ["simulate", "--regime", "exact", "--r", "1", "--T", "40", "--n", str(self.N),
                "--count", str(self.items), "--seed", str(self.seed),
                "--out", str(out_dir / "times.csv"), "--trees", str(out_dir / "trees.nwk")]

    def check(self, out_dir):
        n, t = self.N, self.T
        header, rows = _read_csv(out_dir / "times.csv")
        if header != ["n", "T"] + [f"h{i}" for i in range(1, n)]:
            return self.items, [f"times.csv header {header[:4]}..."]
        trees = newickgen.read_trees((out_dir / "trees.nwk").read_text(encoding="utf-8"))
        problems = []
        if len(rows) != self.items or len(trees) != self.items:
            problems.append(f"{len(rows)} rows and {len(trees)} trees for {self.items}")
        labels = sorted(f"t{i}" for i in range(1, n + 1))
        # each of at most n printed lengths (each below T) is off by at most
        # half a unit in its 12th significant digit
        tol = 1e-11 * t * n
        bad = self.items - min(len(rows), len(trees))
        for i, (row, tree) in enumerate(zip(rows, trees)):
            heights = [float(v) for v in row[2:]]
            internal, tips = newickgen.node_heights(tree)
            fine = (
                row[0] == str(n) and float(row[1]) == t and len(heights) == n - 1
                and all(0.0 < v < t for v in heights)
                and sorted(tips) == labels and len(internal) == n - 1
                and all(abs(a - b) <= tol for a, b in zip(sorted(internal), sorted(heights)))
                and abs(max(internal) + (tree.length or 0.0) - t) <= tol
            )
            if not fine:
                bad += 1
                problems.append(f"tree {i} does not match its CSV row")
        return bad, problems


class Coverage(Workload):
    """`coverage` calibrating S_n on the fly.

    Item = one simulated replicate or one S_n draw.
    """

    name = "coverage"
    why = "S_n Monte Carlo calibration plus the exact sampler; both under 1% of the other workloads"
    NS = (20, 100)
    BAND = (0.93, 0.97)
    REPLICATES = 20_000
    CALIBRATION_REPLICATES = 100_000

    def __init__(self, seed: int, in_dir: Path):
        self.seed = seed
        self.items = (self.REPLICATES + self.CALIBRATION_REPLICATES) * len(self.NS)

    def inputs(self):
        return []

    def argv(self, out_dir):
        return ["coverage", "--regime", "exact", "--n", ",".join(map(str, self.NS)),
                "--r", "1", "--T", "40", "--replicates", str(self.REPLICATES),
                "--calibration-replicates", str(self.CALIBRATION_REPLICATES),
                "--seed", str(self.seed), "--out", str(out_dir / "coverage.csv")]

    def check(self, out_dir):
        header, rows = _read_csv(out_dir / "coverage.csv")
        per_n = self.REPLICATES + self.CALIBRATION_REPLICATES
        found = {}
        for n, r, t, cov, reps in rows:
            found[int(n)] = (float(r), float(t), float(cov), int(reps))
        bad, problems = 0, []
        lo, hi = self.BAND
        for n in self.NS:
            got = found.get(n)
            if got is None or got[:2] != (1.0, 40.0) or got[3] != self.REPLICATES \
                    or not lo <= got[2] <= hi:
                bad += per_n
                problems.append(f"n={n}: coverage row {got}")
        return bad, problems


WORKLOADS = {w.name: w for w in (Study, Newick, SimulateTrees, Coverage)}
