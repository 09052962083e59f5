"""Reproducible simulation experiments: error tables, densities, coverage,
constant sweeps, and the large-sample variance check.

Every experiment is a pure function of (configuration, seed) and scores
the replicates of estimators.simulated_estimates, drawn and estimated a row
chunk at a time. Estimator cells of the study grid get their own child
streams, and CSV emission formats floats with 17 significant digits, so
outputs are byte-stable across runs and worker counts.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import calibration
from .calibration import write_rows
from .confidence import (
    COVERAGE_HEADER,
    ConfidenceSpec,
    CoverageRow,
    calibration_for,
    covered_fraction,
    make_regime,
)
from .errors import InsufficientReplicates, checked
from .estimators import ALL_ESTIMATORS, LENGTHS, simulated_estimates
from .rng import RngStream, ordered_map

DENSITY_BINS = 256


@checked
class StudyConfig(NamedTuple):
    ns: tuple[int, ...]
    rs: tuple[float, ...]
    t: float
    regime: str = "exact"
    replicates: int = 10_000
    seed: int = 0
    estimators: tuple[str, ...] = ALL_ESTIMATORS
    birth_rate: float = 1.0
    calibration_replicates: int = calibration.DEFAULT_REPLICATES
    workers: int = 1

    def _check(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if any(n < 3 for n in self.ns):
            raise ValueError("study needs n >= 3")
        for tag in self.estimators:
            if tag not in ALL_ESTIMATORS:
                raise ValueError(f"unknown estimator {tag!r}")


class MetricsRow(NamedTuple):
    estimator: str
    n: int
    r: float
    t: float
    mse: float
    mae: float
    bias: float
    replicates: int


class DensityRow(NamedTuple):
    estimator: str
    n: int
    r: float
    bin_lo: float
    bin_hi: float
    count: int
    density: float


class CellResult(NamedTuple):
    n: int
    r: float
    estimates: dict[str, np.ndarray]
    coverage: float
    excluded: int
    unconverged: dict[str, int]  # fits that did not converge, by tag


class StudyResult(NamedTuple):
    config: StudyConfig
    metrics: list[MetricsRow]
    densities: list[DensityRow]
    coverage: list[CoverageRow]
    excluded: dict[tuple[int, float], int]


def _metrics(values: np.ndarray, r: float) -> tuple[float, float, float]:
    err = values - r
    return float(np.mean(err * err)), float(np.mean(np.abs(err))), float(np.mean(err))


def _density_rows(tag: str, n: int, r: float, values: np.ndarray) -> list[DensityRow]:
    # adaptive range: upper tails of these estimators are heavy, clip at the
    # 99.9th percentile so the bins resolve the body of the distribution
    lo = 0.0
    hi = float(np.quantile(values, 0.999)) * 1.02
    counts, edges = np.histogram(values, bins=DENSITY_BINS, range=(lo, hi))
    width = edges[1] - edges[0]
    total = values.size
    return [
        DensityRow(tag, n, r, float(edges[i]), float(edges[i + 1]),
                   int(counts[i]), counts[i] / (total * width))
        for i in range(DENSITY_BINS)
    ]


def run_cell(n: int, r: float, config: StudyConfig, row: calibration.ConstantsRow,
             rng: RngStream) -> CellResult:
    regime = make_regime(config.regime, r, config.t, config.birth_rate)
    estimates, raw, unconverged, excluded = simulated_estimates(
        n, regime, rng, config.replicates, row, config.estimators)
    coverage = covered_fraction(raw, ConfidenceSpec.from_constants_row(row), r)
    return CellResult(n, r, estimates, coverage, excluded, unconverged)


def run_study(config: StudyConfig,
              constants: dict[int, calibration.ConstantsRow] | None = None) -> StudyResult:
    for r in config.rs:  # a regime the values cannot make is refused before any draw
        make_regime(config.regime, r, config.t, config.birth_rate)
    table = dict(constants or {})
    for n in config.ns:
        table[n], _ = calibration_for(table, n, config.calibration_replicates, config.seed)
    cells = [(n, r) for n in config.ns for r in config.rs]
    stream = RngStream(config.seed)

    def run(i: int) -> CellResult:
        n, r = cells[i]
        return run_cell(n, r, config, table[n], stream.child(i))

    results = ordered_map(run, len(cells), config.workers)

    metrics, densities, coverage, excluded = [], [], [], {}
    for cell in results:
        used = config.replicates - cell.excluded
        for tag, count in cell.unconverged.items():
            print(f"warning: n={cell.n} r={cell.r}: {count} of {used} {tag} fits did not "
                  f"converge; their estimates are the last iterate", file=sys.stderr)
        for tag in config.estimators:
            mse, mae, bias = _metrics(cell.estimates[tag], cell.r)
            metrics.append(MetricsRow(tag, cell.n, cell.r, config.t, mse, mae, bias, used))
            densities.extend(_density_rows(tag, cell.n, cell.r, cell.estimates[tag]))
        coverage.append(CoverageRow(cell.n, cell.r, config.t, cell.coverage, used))
        excluded[(cell.n, cell.r)] = cell.excluded
    return StudyResult(config, metrics, densities, coverage, excluded)


# ---------------------------------------------------------------------------
# Constant sweep
# ---------------------------------------------------------------------------


class SweepRow(NamedTuple):
    c: float
    mse: float
    abs_bias: float


class SweepResult(NamedTuple):
    n: int
    r: float
    t: float
    rows: list[SweepRow]
    argmin_mse_c: float
    argmin_bias_c: float
    replicates: int


def constant_sweep(n: int, r: float, t: float, c_grid, replicates: int,
                   rng: RngStream, regime: str = "exact",
                   birth_rate: float = 1.0) -> SweepResult:
    """MSE and |bias| of c * raw as functions of c, on one simulated sample.

    The raw estimates are simulated once; every grid value rescales them, so
    the curves share all Monte Carlo noise and their argmins are stable.
    """
    regime_value = make_regime(regime, r, t, birth_rate)
    _, raw, _, _ = simulated_estimates(n, regime_value, rng, replicates, None, ())
    rows = []
    for c in c_grid:
        err = c * raw - r
        rows.append(SweepRow(float(c), float(np.mean(err * err)),
                             abs(float(np.mean(err)))))
    best_mse = min(rows, key=lambda row: row.mse)
    best_bias = min(rows, key=lambda row: row.abs_bias)
    return SweepResult(n, r, t, rows, best_mse.c, best_bias.c, raw.size)


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


def asymptotics_check(n: int, r: float, replicates: int, rng: RngStream,
                      t: float | None = None) -> AsymptoticsReport:
    """Empirical scaled variances under the large-n regime.

    The calibrated pairwise estimator targets r^2 * (4 - pi^2/3), about
    0.71 r^2; the lengths estimator targets r^2. Normality of the scaled
    errors is scored with a Kolmogorov-Smirnov test against the fitted
    normal.
    """
    check_large_n(n)
    if not r > 0:  # before the default T divides by it
        raise ValueError("growth rate must be positive and finite")
    if replicates < 2:
        raise InsufficientReplicates("the normality tests need at least 2 replicates")
    import scipy.stats  # imported here: it is most of the package's import time

    if t is None:
        t = 4.0 * math.log(n) / r  # comfortably above the typical tree height
    regime = make_regime("large-n", r, t)
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


def write_study_outputs(result: StudyResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out / "metrics.csv",
        "densities": out / "densities.csv",
        "coverage": out / "coverage.csv",
        "summary": out / "summary.json",
    }
    write_rows(paths["metrics"], "estimator,n,r,T,mse,mae,bias,replicates", result.metrics)
    write_rows(paths["densities"], "estimator,n,r,bin_lo,bin_hi,count,density",
               result.densities)
    write_rows(paths["coverage"], COVERAGE_HEADER, result.coverage)
    summary = {
        "ns": list(result.config.ns),
        "rs": list(result.config.rs),
        "T": result.config.t,
        "regime": result.config.regime,
        "replicates": result.config.replicates,
        "seed": result.config.seed,
        "estimators": list(result.config.estimators),
        "excluded_degenerate": {f"n={n},r={r}": k for (n, r), k in result.excluded.items()},
    }
    paths["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    return paths
