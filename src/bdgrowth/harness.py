"""Reproducible simulation experiments: error tables, densities, coverage,
constant sweeps, and the large-sample variance check.

Experiments take built regimes: the command that reads the regime flags
makes each regime value, and an experiment is a pure function of those
values, its other parameters and a seed. Each scores the replicates of
estimators.simulated_estimates, drawn and estimated a row chunk at a time,
its threads splitting one budget of about 2^17 heights, so a chunk has
fewer rows on more threads and the same bits. A simulated fault refuses
the whole run, judged over all its rows, so its message too is the same on
any thread count. Estimator cells of the study grid run one after another,
each on its own child stream with its chunks on every usable CPU, and CSV
emission formats floats with 17 significant digits, so outputs are
byte-stable across runs and thread counts.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import calibration
from .calibration import linear_quantiles, write_rows
from .coalescent import LargeN, Regime
from .confidence import COVERAGE_HEADER, CoverageRow, calibrations, covered_fraction
from .errors import InsufficientReplicates
from .estimators import ALL_ESTIMATORS, LENGTHS, simulated_estimates
from .rng import RngStream

DENSITY_BINS = 256
# the files write_study_outputs writes under its directory, by key
STUDY_FILES = {"metrics": "metrics.csv", "densities": "densities.csv",
               "coverage": "coverage.csv", "summary": "summary.json"}


class MetricsRow(NamedTuple):
    estimator: str
    n: int
    r: float
    t: float
    mse: float
    mae: float
    bias: float
    replicates: int


class DensityGroup(NamedTuple):
    """One (estimator, n, r) histogram: DENSITY_BINS + 1 edges, each bin's count, density."""

    estimator: str
    n: int
    r: float
    edges: list[float]
    counts: list[int]
    density: list[float]


class StudyResult(NamedTuple):
    """run_study's tables, a row per cell (and estimator), except densities:
    a DensityGroup per cell and estimator, not a row per bin."""

    metrics: list[MetricsRow]
    densities: list[DensityGroup]
    coverage: list[CoverageRow]
    excluded: dict[tuple[int, float], int]


def _metrics(values: np.ndarray, r: float) -> tuple[float, float, float]:
    err = values - r
    return float(np.mean(err * err)), float(np.mean(np.abs(err))), float(np.mean(err))


def _density_group(tag: str, n: int, r: float, values: np.ndarray) -> DensityGroup:
    # adaptive range: upper tails of these estimators are heavy, clip at the
    # 99.9th percentile so the bins resolve the body of the distribution
    hi = linear_quantiles(values, (0.999,))[0] * 1.02
    counts, edges = np.histogram(values, bins=DENSITY_BINS, range=(0.0, hi))
    density = counts / (values.size * (edges[1] - edges[0]))
    return DensityGroup(tag, n, r, edges.tolist(), counts.tolist(), density.tolist())


def run_study(ns, cells: list[tuple[float, Regime]], replicates: int, seed: int,
              estimators=ALL_ESTIMATORS,
              table: dict[int, calibration.ConstantsRow] | None = None,
              calibration_replicates: int = calibration.DEFAULT_REPLICATES) -> StudyResult:
    """The error tables of each (n, cell) of the grid, n-major: a cell is a
    rate r and the regime built from it, whose replicates are scored against
    r (which an exact regime's lam - mu can miss by an ulp). Cell i of the
    grid is drawn on child i of the seed's stream, after every n is
    calibrated from the table or on the fly (calibrations)."""
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if any(n < 3 for n in ns):
        raise ValueError("study needs n >= 3")
    for tag in estimators:
        if tag not in ALL_ESTIMATORS:
            raise ValueError(f"unknown estimator {tag!r}")
    calibrated = calibrations(table or {}, ns, calibration_replicates, seed)
    stream = RngStream(seed)
    metrics, densities, coverage, excluded = [], [], [], {}
    for i, (n, (r, regime)) in enumerate(product(ns, cells)):
        row, spec = calibrated[n]
        estimates, raw, unconverged, dropped = simulated_estimates(
            n, regime, stream.child(i), replicates, row, estimators)
        for tag, count in unconverged.items():
            print(f"warning: n={n} r={r}: {count} of {raw.size} {tag} fits did not "
                  f"converge; their estimates are the last iterate", file=sys.stderr)
        for tag in estimators:
            mse, mae, bias = _metrics(estimates[tag], r)
            metrics.append(MetricsRow(tag, n, r, regime.t, mse, mae, bias, raw.size))
            densities.append(_density_group(tag, n, r, estimates[tag]))
        coverage.append(CoverageRow(n, r, regime.t, covered_fraction(raw, spec, r), raw.size))
        excluded[(n, r)] = excluded.get((n, r), 0) + dropped  # a repeated cell adds its own
    return StudyResult(metrics, densities, coverage, excluded)


# ---------------------------------------------------------------------------
# Constant sweep
# ---------------------------------------------------------------------------


class SweepRow(NamedTuple):
    c: float
    mse: float
    abs_bias: float


class SweepResult(NamedTuple):
    rows: list[SweepRow]
    argmin_mse_c: float
    argmin_bias_c: float


def constant_sweep(n: int, r: float, regime: Regime, c_grid, replicates: int,
                   rng: RngStream) -> SweepResult:
    """MSE and |bias| of c * raw against r, the rate the regime was made
    from, as functions of c, on one sample of the regime's replicates, for
    an n of at least 3.

    The raw estimates are simulated once; every grid value rescales them, so
    the curves share all Monte Carlo noise and their argmins are stable.
    """
    _, raw, _, _ = simulated_estimates(n, regime, rng, replicates, None, ())
    rows = []
    for c in c_grid:
        err = c * raw - r
        rows.append(SweepRow(float(c), float(np.mean(err * err)),
                             abs(float(np.mean(err)))))
    best_mse = min(rows, key=lambda row: row.mse)
    best_bias = min(rows, key=lambda row: row.abs_bias)
    return SweepResult(rows, best_mse.c, best_bias.c)


# ---------------------------------------------------------------------------
# Large-sample variance check
# ---------------------------------------------------------------------------


class AsymptoticsReport(NamedTuple):
    n: int
    r: float
    replicates: int
    var_scaled_inv: float        # Var(sqrt(n) * (r_hat_inv - r))
    var_scaled_lengths: float    # same for the lengths estimator
    target_inv: float            # r^2 * (4 - pi^2/3)
    target_lengths: float        # r^2
    ks_pvalue_inv: float
    ks_pvalue_lengths: float


def check_large_n(n: int) -> None:
    """Refuse an n below 200: asymptotics_check's floor, which the
    asymptotics command checks for every listed n before its first draw."""
    if n < 200:
        raise ValueError("asymptotics check needs n >= 200")


def asymptotics_check(n: int, r: float, replicates: int, rng: RngStream) -> AsymptoticsReport:
    """Empirical scaled variances under the large-n regime.

    The calibrated pairwise estimator targets r^2 * (4 - pi^2/3), about
    0.71 r^2; the lengths estimator targets r^2. Normality of the scaled
    errors is scored with a Kolmogorov-Smirnov test against the fitted
    normal. The heights are reported below T = 4 log(n)/r, comfortably above
    the typical tree height; T only shifts them, which no estimator sees.
    """
    check_large_n(n)
    if not r > 0:  # before T divides by it
        raise ValueError("growth rate must be positive and finite")
    regime = LargeN(r, 4.0 * math.log(n) / r)
    if replicates < 2:
        raise InsufficientReplicates("the normality tests need at least 2 replicates")
    import scipy.stats  # imported here: it is most of the package's import time

    estimates, raw, _, _ = simulated_estimates(n, regime, rng, replicates, None, (LENGTHS,))
    scaled_inv = math.sqrt(n) * (calibration.c_inv_closed_form(n) * raw - r)
    scaled_len = math.sqrt(n) * (estimates[LENGTHS] - r)
    ks_inv = scipy.stats.kstest(scaled_inv, "norm",
                                args=(np.mean(scaled_inv), np.std(scaled_inv)))
    ks_len = scipy.stats.kstest(scaled_len, "norm",
                                args=(np.mean(scaled_len), np.std(scaled_len)))
    return AsymptoticsReport(
        n=n,
        r=r,
        replicates=raw.size,
        var_scaled_inv=float(np.var(scaled_inv)),
        var_scaled_lengths=float(np.var(scaled_len)),
        target_inv=r * r * (4.0 - math.pi ** 2 / 3.0),
        target_lengths=r * r,
        ks_pvalue_inv=float(ks_inv.pvalue),
        ks_pvalue_lengths=float(ks_len.pvalue),
    )


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------


def write_densities(path: str | Path, groups: list[DensityGroup]) -> None:
    """densities.csv, a line per bin in write_rows' bytes, formatted a group at
    a time: its prefix and each edge once, and each distinct count's
    count,density once, as a group's equal counts have equal densities (one
    bin width divides them), though not another group's."""
    lines = ["estimator,n,r,bin_lo,bin_hi,count,density"]
    for group in groups:
        prefix = "%s,%s,%.17g," % (group.estimator, group.n, group.r)
        edges = ["%.17g" % edge for edge in group.edges]
        tails = {count: "%s,%.17g" % (count, density)
                 for count, density in dict(zip(group.counts, group.density)).items()}
        lines += [f"{prefix}{lo},{hi},{tails[count]}"
                  for lo, hi, count in zip(edges, edges[1:], group.counts)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_study_outputs(result: StudyResult, out_dir: str | Path,
                        parameters: dict) -> dict[str, Path]:
    """metrics.csv, densities.csv, coverage.csv and summary.json under out_dir;
    the summary holds the study's parameters, as given, and the degenerate
    replicates each (n, r) excluded, summed over the cells that repeat it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in STUDY_FILES.items()}
    write_rows(paths["metrics"], "estimator,n,r,T,mse,mae,bias,replicates", result.metrics)
    write_densities(paths["densities"], result.densities)
    write_rows(paths["coverage"], COVERAGE_HEADER, result.coverage)
    summary = {**parameters, "excluded_degenerate": {
        f"n={n},r={r}": k for (n, r), k in result.excluded.items()}}
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return paths
