"""Command-line interface.

Subcommands: simulate | estimate | calibrate | study | sweep | asymptotics |
coverage. Every command is deterministic given its flags and --seed, writes
only under its configured output location, and exits 0 on success, 2 on
input errors, 3 on numerical failures.

Times CSV format: header "n,T,h1,...,h{n-1}", one replicate per row; an
empty T column marks relative-axis times (only differences meaningful).
Newick files may hold one tree or several ';'-separated trees.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, confidence, harness, treeio
from .calibration import g17
from .coalescent import check_finite_rows, sample_coalescence_times_block
from .errors import (
    BdGrowthError,
    DegenerateTimes,
    NonConvergence,
    ParseError,
    RelativeAxisError,
    SampleTooSmall,
)
from .estimators import LENGTHS, METHODS, estimate_lengths, estimates_for_matrix
from .rng import RngStream

_NUMERICAL_ERRORS = (DegenerateTimes, NonConvergence, FloatingPointError)
_ITEM_ERRORS = (BdGrowthError, ValueError)  # fail one input of a batch, not the batch

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Times CSV
# ---------------------------------------------------------------------------


def write_times_csv(matrix: np.ndarray, n: int, t: float | None, path: Path):
    header = "n,T," + ",".join(f"h{i}" for i in range(1, n))
    t_text = "" if t is None else g17(t)
    prefix = f"{n},{t_text},"
    lines = [header] + [prefix + ",".join(map(g17, row)) for row in matrix.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_times_csv(path: Path) -> list[np.ndarray | Exception]:
    """One entry per data row: its n - 1 heights as a float array, or the
    error that rejected the row. T is checked but not returned; every
    estimator is translation invariant. A file without the header or
    without data rows raises.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("n,T,"):
        raise ParseError(0, 'times CSV header "n,T,h1,..."')
    out: list[np.ndarray | Exception] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) < 2:
                raise ValueError(f"times row {line!r} has no T column")
            n = int(parts[0])
            if parts[1].strip():
                float(parts[1])  # T is not returned, but a bad one refuses the row
            heights = np.array([float(v) for v in parts[2:]])
            if n < 2:
                raise ValueError("sample size must be an integer >= 2")
            if len(heights) != n - 1:
                raise ValueError(f"expected {n - 1} times, got {len(heights)}")
            out.append(heights)
        except _ITEM_ERRORS as exc:
            out.append(exc)
    if not out:
        raise ParseError(0, "at least one data row")
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _add_regime_flags(p: argparse.ArgumentParser):
    p.add_argument("--regime", choices=confidence.REGIME_NAMES, default="exact")
    p.add_argument("--r", type=float, default=1.0, help="net growth rate")
    p.add_argument("--T", type=float, default=None, help="observation time / tree height")
    p.add_argument("--birth-rate", type=float, default=1.0,
                   help="birth rate of the exact regime (death rate is birth - r)")


def cmd_simulate(args) -> int:
    regime = confidence.make_regime(args.regime, args.r, args.T, args.birth_rate)
    matrix = sample_coalescence_times_block(
        args.n, regime, RngStream(args.seed), args.count
    )
    # every check runs before the first file is written
    check_finite_rows(matrix)
    if args.trees and args.T is None:
        raise RelativeAxisError("writing trees needs absolute times; pass --T")
    texts = treeio.cpp_newick_rows(matrix, args.T) if args.trees else None
    out = Path(args.out)
    write_times_csv(matrix, args.n, args.T, out)
    if texts is not None:
        try:
            Path(args.trees).write_text("\n".join(texts) + "\n", encoding="utf-8")
        except OSError:
            out.unlink()  # a failed run leaves neither file
            raise
    print(f"wrote {args.count} replicates to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _load_inputs(path: Path) -> list[tuple[str, np.ndarray | treeio.TreeRecord | Exception]]:
    """Times CSV rows or the records of Newick trees, or the errors that
    rejected them, each with an input identifier."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("n,T,"):
        items = read_times_csv(path)
    else:
        items = treeio.parse_newick_trees(text)
    return [(f"{path.name}#{i}", item) for i, item in enumerate(items)]


def _spec_for(n: int, table, args, spec_cache: dict) -> confidence.ConfidenceSpec:
    if n not in spec_cache:
        if args.level == 0.95:
            row = calibration.constants_row(table, n, args.replicates, args.seed)
            spec_cache[n] = confidence.ConfidenceSpec.from_constants_row(row)
        else:
            # tabulated quantiles are 95%-specific; other levels recalibrate,
            # and a row missing from the table comes from the same draw
            sample = calibration.calibration_sample(table, n, args.replicates, args.seed)
            spec_cache[n] = confidence.ConfidenceSpec.from_sample(sample, level=args.level)
    return spec_cache[n]


def _matrix_estimates(h: np.ndarray, row, tag: str) -> list[tuple[float, float] | Exception]:
    """(estimate, raw pivot) of tag for each row of h on the study's path, or
    the error that stopped the row. The kernels are row-independent, so a
    matrix that fails or gives an estimate that is not positive and finite
    is halved until the failure is pinned to its rows."""
    if h.shape[1] < 2:
        return [SampleTooSmall(f"{tag} needs n >= 3")] * len(h)
    # rows estimates_for_matrix drops (equal heights) get their error; cmd_estimate
    # refuses non-finite rows before grouping
    keep = h.min(axis=1) < h.max(axis=1)
    if not keep.all():
        out = [DegenerateTimes("all coalescence times are equal")] * len(h)
        for k, result in zip(np.flatnonzero(keep), _matrix_estimates(h[keep], row, tag)):
            out[k] = result
        return out
    try:
        with np.errstate(over="ignore"):  # an overflow is refused just below
            estimates, raw, _ = estimates_for_matrix(h, row, (tag,))
        values = estimates[tag]
        if not (np.isfinite(values) & (values > 0.0)).all():
            raise ValueError("estimate must be positive and finite")
        return list(zip(values.tolist(), raw.tolist()))
    except _ITEM_ERRORS as exc:
        if len(h) == 1:
            return [exc.with_traceback(None)]  # a kept error pins no frames
    # outside the handler, so the halves' errors do not chain to this one
    mid = len(h) // 2
    return _matrix_estimates(h[:mid], row, tag) + _matrix_estimates(h[mid:], row, tag)


def cmd_estimate(args) -> int:
    # NaN would pass every tree and a negative value refuse every tree
    if not args.ultrametric_tol >= 0:
        raise ValueError(f"--ultrametric-tol must be a number >= 0, not {args.ultrametric_tol}")
    inputs = _load_inputs(Path(args.input))
    table = calibration.load_constants_table(args.constants) if args.constants else {}
    tags = [m.strip() for m in args.methods.split(",")]
    for tag in tags:
        if tag not in METHODS:
            raise ValueError(f"unknown method {tag!r}")

    results = [[None] * len(tags) for _ in inputs]  # a record or an error per input and tag
    groups: dict[int, tuple[list, list, list]] = {}  # by n: inputs, heights, trees' Lengths
    for i, (name, item) in enumerate(inputs):
        inputs[i] = name, None  # frees a record once its heights and Lengths are taken
        tree = item if isinstance(item, treeio.TreeRecord) else None
        try:
            if tree is not None:
                item = treeio.extract_coalescence_times(tree, tol=args.ultrametric_tol)
            # before grouping, so every method refuses it, a tree's own Lengths too
            if not isinstance(item, Exception) and not np.isfinite(item).all():
                raise ValueError("coalescence times must be finite")
        except _ITEM_ERRORS as exc:
            item = exc
        if isinstance(item, Exception):  # the input could not be read
            results[i] = [item] * len(tags)
            continue
        n = len(item) + 1
        members, heights, lengths = groups.setdefault(n, ([], [], []))
        members.append(i)
        heights.append(item)
        if tree is not None and LENGTHS in tags:  # from the tree's own topology
            try:
                lengths.append((estimate_lengths(n, tree), None))
            except _ITEM_ERRORS as exc:
                lengths.append(exc)

    spec_cache: dict = {}
    for n, (members, heights, lengths) in groups.items():
        h = np.array(heights)
        for j, tag in enumerate(tags):
            method = METHODS[tag]
            try:
                # the spec first: at a level other than 0.95 its draw also makes the row
                spec = _spec_for(n, table, args, spec_cache) if method.pairwise else None
                row = (calibration.constants_row(table, n, args.replicates, args.seed)
                       if method.column else None)
                found = lengths if lengths and tag == LENGTHS else _matrix_estimates(h, row, tag)
            except _ITEM_ERRORS as exc:
                found = [exc] * len(members)
            for i, result in zip(members, found):
                if not isinstance(result, Exception):
                    point, raw = result
                    ci_low, ci_high = (None, None) if spec is None else spec.interval(raw)
                    result = {"input": inputs[i][0], "n": n, "method": tag, "estimate": point,
                              "ci_low": ci_low, "ci_high": ci_high, "error": ""}
                results[i][j] = result

    records = []
    errors = []
    for (name, _), outcomes in zip(inputs, results):
        for tag, result in zip(tags, outcomes):
            if isinstance(result, Exception):
                errors.append(result)
                result = {"input": name, "n": None, "method": tag, "estimate": None,
                          "ci_low": None, "ci_high": None,
                          "error": f"{type(result).__name__}: {result}"}
            records.append(result)
    _write_estimates(records, args)
    if len(errors) == len(records):
        numerical = any(isinstance(exc, _NUMERICAL_ERRORS) for exc in errors)
        return EXIT_NUMERICAL if numerical else EXIT_INPUT
    return EXIT_OK


def _write_estimates(records, args):
    if args.format == "json" or (args.out and str(args.out).endswith(".json")):
        payload = json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["input,n,method,estimate,ci_low,ci_high,error"]
        for rec in records:
            lines.append(
                ",".join([
                    rec["input"],
                    "" if rec["n"] is None else str(rec["n"]),
                    rec["method"],
                    "" if rec["estimate"] is None else g17(rec["estimate"]),
                    "" if rec["ci_low"] is None else g17(rec["ci_low"]),
                    "" if rec["ci_high"] is None else g17(rec["ci_high"]),
                    '"' + rec["error"].replace('"', '""') + '"' if rec["error"] else "",
                ])
            )
        payload = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# calibrate / study / sweep / asymptotics / coverage
# ---------------------------------------------------------------------------


def parse_n_list(text: str) -> list[int]:
    """Comma-separated sizes with 'a-b' ranges and an optional ':step'."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if "-" in piece:
            span, _, step = piece.partition(":")
            lo, hi = span.split("-")
            out.extend(range(int(lo), int(hi) + 1, int(step) if step else 1))
        elif piece:
            out.append(int(piece))
    if not out:
        raise ValueError(f"no sample sizes in {text!r}")
    return out


def cmd_calibrate(args) -> int:
    ns = parse_n_list(args.n)
    rows = calibration.build_constants_table(
        ns, args.replicates, args.seed, path=args.out, workers=args.workers
    )
    for row in rows:
        print(f"n={row.n}: c_inv={row.c_inv:.4f} c_mse={row.c_mse:.4f} "
              f"c_bias={row.c_bias:.4f} 1/q_lo={row.inv_q_lo:.4f} 1/q_hi={row.inv_q_hi:.4f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_study(args) -> int:
    config = harness.StudyConfig(
        ns=tuple(parse_n_list(args.n)),
        rs=tuple(float(x) for x in args.r.split(",")),
        t=args.T,
        regime=args.regime,
        replicates=args.replicates,
        seed=args.seed,
        estimators=tuple(args.estimators.split(",")),
        birth_rate=args.birth_rate,
        calibration_replicates=args.calibration_replicates,
        workers=args.workers,
    )
    constants = calibration.load_constants_table(args.constants) if args.constants else None
    result = harness.run_study(config, constants)
    paths = harness.write_study_outputs(result, args.out)
    for key, path in paths.items():
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = np.arange(args.c_min, args.c_max + 0.5 * args.c_step, args.c_step)
    result = harness.constant_sweep(
        args.n, args.r, args.T, grid, args.replicates,
        RngStream(args.seed), regime=args.regime, birth_rate=args.birth_rate,
    )
    calibration.write_rows(args.out, "c,mse,abs_bias", result.rows)
    print(f"argmin MSE at c={result.argmin_mse_c:.3f}; "
          f"argmin |bias| at c={result.argmin_bias_c:.3f}; wrote {args.out}")
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    report = harness.asymptotics_check(args.n, args.r, args.replicates,
                                       RngStream(args.seed), t=args.T)
    text = json.dumps(vars(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_coverage(args) -> int:
    table = calibration.load_constants_table(args.constants) if args.constants else {}
    rows = []
    stream = RngStream(args.seed)
    for i, n in enumerate(parse_n_list(args.n)):
        spec = None
        if n in table:
            spec = confidence.ConfidenceSpec.from_constants_row(table[n])
        cov = confidence.coverage_study(
            n, args.r, args.T, args.replicates, args.regime, stream.child(i),
            spec=spec, calibration_replicates=args.calibration_replicates,
            birth_rate=args.birth_rate,
        )
        rows.append(harness.CoverageRow(n, args.r, args.T, cov, cov.kept))
        print(f"n={n}: coverage {cov:.3f}")
    if args.out:
        calibration.write_rows(args.out, harness.COVERAGE_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdgrowth",
        description="Simulate birth-death genealogies and estimate net growth rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate coalescence times (and trees)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trees", default=None, help="also write Newick trees here")
    _add_regime_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate growth rates from times CSV or Newick")
    p.add_argument("input")
    p.add_argument("--constants", default=None, help="constants table path")
    p.add_argument("--methods", default=",".join(harness.ALL_ESTIMATORS),
                   help=f"comma-separated subset of {', '.join(METHODS)} (default %(default)s)")
    p.add_argument("--replicates", type=int, default=calibration.DEFAULT_REPLICATES,
                   help="replicates for on-the-fly calibration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ultrametric-tol", type=float, default=treeio.DEFAULT_ULTRAMETRIC_TOL)
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level for the pairwise-method intervals")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="build the constants table")
    p.add_argument("--n", default="5-20,30-100:10")
    p.add_argument("--replicates", type=int, default=calibration.DEFAULT_REPLICATES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("study", help="error/density/coverage study over a grid")
    p.add_argument("--n", default="5,10,20")
    p.add_argument("--r", default="0.5,1")
    p.add_argument("--T", type=float, default=40.0)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--regime", choices=confidence.REGIME_NAMES, default="exact")
    p.add_argument("--estimators", default=",".join(harness.ALL_ESTIMATORS),
                   help=f"comma-separated subset of {', '.join(harness.ALL_ESTIMATORS)} "
                        "(default %(default)s)")
    p.add_argument("--birth-rate", type=float, default=1.0)
    p.add_argument("--constants", default=None)
    p.add_argument("--calibration-replicates", type=int,
                   default=calibration.DEFAULT_REPLICATES)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("sweep", help="MSE and |bias| as functions of the constant")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--T", type=float, default=40.0)
    p.add_argument("--c-min", type=float, default=0.3)
    p.add_argument("--c-max", type=float, default=1.3)
    p.add_argument("--c-step", type=float, default=0.01)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", choices=confidence.REGIME_NAMES, default="exact")
    p.add_argument("--birth-rate", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("asymptotics", help="large-sample variance check")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("coverage", help="confidence-interval coverage study")
    p.add_argument("--n", default="5,10,20")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--T", type=float, default=40.0)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", choices=confidence.REGIME_NAMES, default="exact")
    p.add_argument("--birth-rate", type=float, default=1.0)
    p.add_argument("--constants", default=None)
    p.add_argument("--calibration-replicates", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (BdGrowthError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
