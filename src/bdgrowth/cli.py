"""Command-line interface.

Subcommands: simulate | estimate | calibrate | study | sweep | asymptotics |
coverage. Every command is deterministic given its flags and --seed, writes
only under its configured output location, and exits 0 on success, 2 on
input errors, 3 on numerical failures. calibrate, study, coverage and
asymptotics take a list of sample sizes (parse_n_list) and check all of them
before their first draw; asymptotics writes one JSON array with a report per
listed n, in the order given.

Times CSV format: header "n,T,h1,...,h{n-1}", one replicate per row; an
empty T column marks relative-axis times (only differences meaningful).
Newick files may hold one tree or several ';'-separated trees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import calibration, coalescent, confidence, treeio
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
from .estimators import ALL_ESTIMATORS, LENGTHS, METHODS, estimate_lengths, estimates_for_matrix
from .rng import RngStream

_NUMERICAL_ERRORS = (DegenerateTimes, NonConvergence, FloatingPointError)
_ITEM_ERRORS = (BdGrowthError, ValueError)  # fail one input of a batch, not the batch
ESTIMATE_FIELDS = ("input", "n", "method", "estimate", "ci_low", "ci_high", "error")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Times CSV
# ---------------------------------------------------------------------------


def write_times_csv(matrix: np.ndarray, n: int, t: float | None, path: Path):
    """A times CSV of a (k, n-1) height matrix: one %-template formats every
    row, the heights as "%.17g" (g17's bytes)."""
    header = "n,T," + ",".join(f"h{i}" for i in range(1, n))
    template = f"{n},{'' if t is None else g17(t)}," + ",".join(["%.17g"] * (n - 1))
    lines = [header] + [template % tuple(row) for row in matrix.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_times_csv(text: str) -> list[np.ndarray | Exception]:
    """One entry per data row of a times CSV's text (leading blanks skipped):
    its n - 1 heights as a float array, or the error that rejected the row.
    T must be finite where given, but is not returned: every estimator is
    translation invariant. T <= 0 and heights above T are allowed.
    A text without the header or without data rows raises.
    """
    lines = text.lstrip().splitlines()
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
            if parts[1].strip() and not np.isfinite(float(parts[1])):  # T is not returned
                raise ValueError(f"T must be finite, not {parts[1].strip()!r}")
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


def _add_regime_flags(p: argparse.ArgumentParser, t: float | None):
    """The regime flags, --T defaulting to t; each command declares its own --r."""
    p.add_argument("--regime", choices=coalescent.REGIME_NAMES, default="exact")
    p.add_argument("--T", type=float, default=t, help="observation time / tree height")
    p.add_argument("--birth-rate", type=float, default=1.0,
                   help="birth rate of the exact regime (death rate is birth - r)")


def _regime(args, r: float) -> coalescent.Regime:
    """The regime of r under the flags _add_regime_flags declares; the one
    place a command reads them."""
    return coalescent.make_regime(args.regime, r, args.T, args.birth_rate)


def cmd_simulate(args) -> int:
    regime = _regime(args, args.r)
    if args.trees and args.T is None:
        raise RelativeAxisError("writing trees needs absolute times; pass --T")
    check_out(args.out)
    check_out(args.trees, flag="--trees", reads={"--out": args.out})
    matrix = sample_coalescence_times_block(
        args.n, regime, RngStream(args.seed), args.count
    )
    # every check runs before the first file is written
    check_finite_rows(matrix)
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


def _load_inputs(path: Path) -> list[np.ndarray | treeio.TreeRecord | Exception]:
    """Times CSV rows or the records of Newick trees, or the errors that
    rejected them, in file order."""
    text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
    if text.lstrip().startswith("n,T,"):
        return read_times_csv(text)
    return treeio.parse_newick_trees(text)


def _matrix_estimates(h: np.ndarray, row, tags) -> dict[str, list[tuple | Exception]]:
    """For each tag, (estimate, raw pivot) for each row of h on the study's
    path, or the error that refuses the row: one estimates_for_matrix call,
    whose dropped rows and failed estimates map to the errors each row gets
    alone, since every kernel is row-independent."""
    if h.shape[1] < 2:
        return {tag: [SampleTooSmall(f"{tag} needs n >= 3")] * len(h) for tag in tags}
    # cmd_estimate refuses non-finite rows before grouping
    found = estimates_for_matrix(h, row, tags)
    kept = np.flatnonzero(found.kept).tolist()
    raw = found.raw.tolist()
    out = {}
    for tag in tags:
        results = out[tag] = [DegenerateTimes("all coalescence times are equal")] * len(h)
        values = found.estimates[tag]
        for i, point, pivot in zip(kept, values.tolist(), raw):
            results[i] = point, pivot
        fit = found.fits.get(tag)
        for k in np.flatnonzero(~(np.isfinite(values) & (values > 0.0))).tolist():
            refused = fit.refusal(k) if fit else None
            results[kept[k]] = refused or ValueError("estimate must be positive and finite")
    return out


def cmd_estimate(args) -> int:
    # NaN would pass every tree and a negative value refuse every tree
    if not args.ultrametric_tol >= 0:
        raise ValueError(f"--ultrametric-tol must be a number >= 0, not {args.ultrametric_tol}")
    if not 0 < args.level < 1:
        raise ValueError(f"--level must be a number in (0, 1), not {args.level}")
    check_out(args.out, reads={"input": args.input, "--constants": args.constants})
    path = Path(args.input)
    inputs = _load_inputs(path)
    table = calibration.load_constants_table(args.constants) if args.constants else {}
    tags = [m.strip() for m in args.methods.split(",")]
    for tag in tags:
        if tag not in METHODS:
            raise ValueError(f"unknown method {tag!r}")

    # records[i * len(tags) + j]: the ESTIMATE_FIELDS tuple of input i and tags[j]
    records: list = [None] * (len(inputs) * len(tags))
    errors = []

    def put(i, n, spec, results):
        name = f"{path.name}#{i}"
        for j, (tag, result) in enumerate(zip(tags, results)):
            low = high = None
            if not isinstance(result, Exception) and METHODS[tag].pairwise:
                low, high = spec.interval(result[1])
                if not 0 < low <= high < np.inf:  # a raw estimate near overflow
                    result = ValueError("interval must be positive and finite")
            if isinstance(result, Exception):
                errors.append(result)
                record = name, None, tag, None, None, None, f"{type(result).__name__}: {result}"
            else:
                record = name, n, tag, result[0], low, high, ""
            records[i * len(tags) + j] = record

    groups: dict[int, tuple[list, list, list]] = {}  # by n: inputs, heights, trees' Lengths
    for i, item in enumerate(inputs):
        inputs[i] = None  # frees a record once its heights and Lengths are taken
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
            put(i, None, None, [item] * len(tags))
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

    calibrated = [tag for tag in tags if METHODS[tag].pairwise or METHODS[tag].column]
    for n, (members, heights, lengths) in groups.items():
        found = {LENGTHS: lengths} if lengths else {}
        try:
            row, spec = (confidence.calibration_for(table, n, args.replicates, args.seed,
                                                    args.level) if calibrated else (None, None))
        except _ITEM_ERRORS as exc:
            spec = row = None
            found.update((tag, [exc] * len(members)) for tag in calibrated)
        rest = [tag for tag in tags if tag not in found]
        if rest:
            found.update(_matrix_estimates(np.array(heights), row, rest))
        for i, results in zip(members, zip(*(found[tag] for tag in tags))):
            put(i, n, spec, results)

    _write_estimates(records, args)
    if len(errors) == len(records):
        numerical = any(isinstance(exc, _NUMERICAL_ERRORS) for exc in errors)
        return EXIT_NUMERICAL if numerical else EXIT_INPUT
    return EXIT_OK


def _write_estimates(records, args):
    # an explicit --format wins; without it, an --out path ending in .json gets JSON
    if args.format == "json" or (not args.format and str(args.out).endswith(".json")):
        # the bytes of json.dumps(list of record dicts, indent=2, sort_keys=True):
        # one %-template per kind of record, keys sorted, strings in dumps'
        # escaping, floats as %r (float.__repr__, which json writes for a
        # finite float) and None as null; each record but the last ends in ","
        fields = ('\n  {\n    "ci_high": %s,\n    "ci_low": %s,\n    "error": %s,\n'
                  '    "estimate": %s,\n    "input": %s,\n    "method": %s,\n    "n": %s\n  },')
        with_ci = fields % ("%r", "%r", '""', "%r", "%s", "%s", "%d")
        without_ci = fields % ("null", "null", '""', "%r", "%s", "%s", "%d")
        error = fields % ("null", "null", "%s", "null", "%s", "%s", "null")
        quote = json.encoder.encode_basestring_ascii  # json.dumps(text), less its dispatch
        pieces = ["["]
        for name, n, tag, point, low, high, message in records:
            if message:
                pieces.append(error % (quote(message), quote(name), quote(tag)))
            elif low is None:
                pieces.append(without_ci % (point, quote(name), quote(tag), n))
            else:
                pieces.append(with_ci % (high, low, point, quote(name), quote(tag), n))
        if records:
            pieces[-1] = pieces[-1][:-1]
        pieces.append("\n]\n" if records else "]\n")
    else:
        # one %-template per kind of record, floats as "%.17g" (g17's bytes):
        # an estimate with an interval, one without, and an error, which is
        # quoted with its quotes doubled and leaves every number field empty
        with_ci, without_ci, error = ("%s,%s,%s,%.17g,%.17g,%.17g,\n", "%s,%s,%s,%.17g,,,\n",
                                      '%s,,%s,,,,"%s"\n')
        # an input is quoted where CSV needs it, as csv.QUOTE_MINIMAL does;
        # one test of all the names spares the usual batch a test per record
        special = ',"\r\n'
        if any(c in "".join(r[0] for r in records) for c in special):
            records = [('"%s"' % r[0].replace('"', '""'),) + r[1:]
                       if any(c in r[0] for c in special) else r for r in records]
        pieces = [",".join(ESTIMATE_FIELDS) + "\n"]
        for record in records:
            if record[6]:
                pieces.append(error % (record[0], record[2], record[6].replace('"', '""')))
            elif record[4] is None:
                pieces.append(without_ci % record[:4])
            else:
                pieces.append(with_ci % record[:6])
    # all of it is formatted before the output opens, so a failure leaves no
    # partial file, and written piece by piece, so no text of the whole is made
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.writelines(pieces)


# ---------------------------------------------------------------------------
# calibrate / study / sweep / asymptotics / coverage
#
# study, sweep and asymptotics import harness when they run: no other
# command uses it, and each command pays only for the modules it runs.
# ---------------------------------------------------------------------------


def parse_n_list(text: str) -> list[int]:
    """Comma-separated sizes with 'a-b' ranges and an optional ':step'.
    Every size must be at least 3, and a range must ascend by a step >= 1."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if "-" in piece:
            span, _, step = piece.partition(":")
            lo, hi = (int(v) for v in span.split("-"))
            step = int(step) if step else 1
            if lo > hi or step < 1:
                raise ValueError(f"range {piece!r} must ascend by a step >= 1")
            out.extend(range(lo, hi + 1, step))
        elif piece:
            out.append(int(piece))
    if not out:
        raise ValueError(f"no sample sizes in {text!r}")
    if min(out) < 3:
        raise ValueError(f"sample sizes must be at least 3, not {min(out)}")
    return out


def check_out(out: str | None, directory: bool = False, flag: str = "--out",
              reads: dict[str, str | None] | None = None) -> None:
    """Refuse, before the first read or draw, an output path (option `flag`)
    whose directory is missing or a file, a file output that is a directory
    or whose text ends in a path separator (which Path drops), or one that
    resolves to a path the command reads (`reads` maps each option that names
    one to its path); a directory output is made with its missing parents."""
    if out is not None:
        if not directory and out.endswith(tuple(filter(None, (os.sep, os.altsep)))):
            raise ValueError(f"{flag} {out}: names a directory")
        path = Path(out)
        where = next(p for p in (path, *path.parents) if p.exists()) if directory else path.parent
        if not where.is_dir():
            raise ValueError(f"{flag} {out}: {where} is not a directory")
        if not directory and path.is_dir():
            raise ValueError(f"{flag} {out}: is a directory")
        for option, given in (reads or {}).items():
            if given is not None and path.resolve() == Path(given).resolve():
                raise ValueError(f"{flag} {out}: would overwrite {option} {given}")


def cmd_calibrate(args) -> int:
    ns = parse_n_list(args.n)
    check_out(args.out)
    rows = calibration.build_constants_table(ns, args.replicates, args.seed, path=args.out)
    for row in rows:
        print(f"n={row.n}: c_inv={row.c_inv:.4f} c_mse={row.c_mse:.4f} "
              f"c_bias={row.c_bias:.4f} 1/q_lo={row.inv_q_lo:.4f} 1/q_hi={row.inv_q_hi:.4f}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_study(args) -> int:
    from . import harness

    ns = parse_n_list(args.n)
    # a cell of its own for each listed r, in --r order, all built before any draw
    cells = [(r, _regime(args, r)) for r in map(float, args.r.split(","))]
    estimators = args.estimators.split(",")
    check_out(args.out, directory=True)
    table = calibration.load_constants_table(args.constants) if args.constants else None
    result = harness.run_study(ns, cells, args.replicates, args.seed, estimators, table,
                               args.calibration_replicates)
    parameters = {"ns": ns, "rs": [r for r, _ in cells], "T": args.T, "regime": args.regime,
                  "birth_rate": args.birth_rate, "replicates": args.replicates, "seed": args.seed,
                  "estimators": estimators, "calibration_replicates": args.calibration_replicates}
    paths = harness.write_study_outputs(result, args.out, parameters)
    for key, path in paths.items():
        print(f"{key}: {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import harness

    lo, hi, step = args.c_min, args.c_max, args.c_step
    if not (np.isfinite([lo, hi]).all() and 0 < step < np.inf):
        raise ValueError(f"need finite --c-min, --c-max and --c-step > 0, not {lo}, {hi}, {step}")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if not grid.size:
        raise ValueError(f"--c-min {lo} above --c-max {hi} leaves no grid")
    if args.n < 3:  # before the regime: below 3 no replicate has a pairwise sum
        raise ValueError(f"sweep needs n >= 3, not {args.n}")
    regime = _regime(args, args.r)
    check_out(args.out)
    result = harness.constant_sweep(args.n, args.r, regime, grid, args.replicates,
                                    RngStream(args.seed))
    calibration.write_rows(args.out, "c,mse,abs_bias", result.rows)
    print(f"argmin MSE at c={result.argmin_mse_c:.3f}; "
          f"argmin |bias| at c={result.argmin_bias_c:.3f}; wrote {args.out}")
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    from . import harness

    ns = parse_n_list(args.n)
    for n in ns:
        harness.check_large_n(n)
    check_out(args.out)
    stream = RngStream(args.seed)
    reports = [harness.asymptotics_check(n, args.r, args.replicates, stream.child(i))._asdict()
               for i, n in enumerate(ns)]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_coverage(args) -> int:
    ns = parse_n_list(args.n)  # every check runs before the first calibration
    regime = _regime(args, args.r)
    confidence.check_coverage_replicates(args.replicates)
    check_out(args.out, reads={"--constants": args.constants})
    table = calibration.load_constants_table(args.constants) if args.constants else {}
    calibrated = confidence.calibrations(table, ns, args.calibration_replicates, args.seed)
    rows = []
    stream = RngStream(args.seed)
    for i, n in enumerate(ns):
        rows.append(confidence.coverage_study(n, args.r, regime, args.replicates,
                                              stream.child(i), calibrated[n][1]))
        print(f"n={n}: coverage {rows[-1].coverage:.3f}")
    if args.out:
        calibration.write_rows(args.out, confidence.COVERAGE_HEADER, rows)
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
    p.add_argument("--r", type=float, default=1.0, help="net growth rate")
    _add_regime_flags(p, None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate growth rates from times CSV or Newick")
    p.add_argument("input")
    p.add_argument("--constants", default=None, help="constants table path")
    p.add_argument("--methods", default=",".join(ALL_ESTIMATORS),
                   help=f"comma-separated subset of {', '.join(METHODS)} (default %(default)s)")
    p.add_argument("--replicates", type=int, default=calibration.DEFAULT_REPLICATES,
                   help="replicates for on-the-fly calibration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ultrametric-tol", type=float, default=treeio.DEFAULT_ULTRAMETRIC_TOL)
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level for the pairwise-method intervals")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="default: json for an --out path ending in .json, else csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="build the constants table")
    p.add_argument("--n", default="5-20,30-100:10")
    p.add_argument("--replicates", type=int, default=calibration.DEFAULT_REPLICATES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("study", help="error/density/coverage study over a grid")
    p.add_argument("--n", default="5,10,20")
    p.add_argument("--r", default="0.5,1")
    _add_regime_flags(p, 40.0)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--estimators", default=",".join(ALL_ESTIMATORS),
                   help=f"comma-separated subset of {', '.join(ALL_ESTIMATORS)} "
                        "(default %(default)s)")
    p.add_argument("--constants", default=None)
    p.add_argument("--calibration-replicates", type=int,
                   default=calibration.DEFAULT_REPLICATES)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("sweep", help="MSE and |bias| as functions of the constant")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--r", type=float, default=0.5)
    _add_regime_flags(p, 40.0)
    p.add_argument("--c-min", type=float, default=0.3)
    p.add_argument("--c-max", type=float, default=1.3)
    p.add_argument("--c-step", type=float, default=0.01)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("asymptotics", help="large-sample variance check")
    p.add_argument("--n", default="500", help="sample sizes, each at least 200")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("coverage", help="confidence-interval coverage study")
    p.add_argument("--n", default="5,10,20")
    p.add_argument("--r", type=float, default=1.0)
    _add_regime_flags(p, 40.0)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
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
