"""Reproducible simulation experiments: error tables, densities, coverage,
constant sweeps, and the large-sample variance check.

Every experiment is a pure function of (configuration, seed). Replicates are
simulated in vectorized blocks, estimator cells of the study grid get their
own child streams, and CSV emission formats floats with 17 significant
digits, so outputs are byte-stable across runs and worker counts.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calibration
from .calibration import write_rows
from .confidence import ConfidenceSpec, covered_fraction, make_regime
from .coalescent import check_finite_rows, sample_coalescence_times_block
from .estimators import METHODS, RAW, lengths_rows, raw_pairwise_rows
from .rng import RngStream

# the five estimators the study compares; the c = 1 pivot only scores intervals
ALL_ESTIMATORS = tuple(tag for tag in METHODS if tag != RAW)

DENSITY_BINS = 256
COVERAGE_HEADER = "n,r,T,coverage,replicates"


@dataclass(frozen=True)
class StudyConfig:
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

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if any(n < 3 for n in self.ns):
            raise ValueError("study needs n >= 3")
        for tag in self.estimators:
            if tag not in ALL_ESTIMATORS:
                raise ValueError(f"unknown estimator {tag!r}")


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    n: int
    r: float
    t: float
    mse: float
    mae: float
    bias: float
    replicates: int


@dataclass(frozen=True)
class DensityRow:
    estimator: str
    n: int
    r: float
    bin_lo: float
    bin_hi: float
    count: int
    density: float


@dataclass(frozen=True)
class CoverageRow:
    n: int
    r: float
    t: float
    coverage: float
    replicates: int


@dataclass
class CellResult:
    n: int
    r: float
    estimates: dict[str, np.ndarray]
    coverage: float
    excluded: int
    unconverged: dict[str, int]  # fits that did not converge, by tag


@dataclass
class StudyResult:
    config: StudyConfig
    metrics: list[MetricsRow]
    densities: list[DensityRow]
    coverage: list[CoverageRow]
    excluded: dict[tuple[int, float], int] = field(default_factory=dict)


def estimates_for_matrix(
    h: np.ndarray, row: calibration.ConstantsRow, estimators=ALL_ESTIMATORS
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, int]]:
    """Per-replicate estimates for a (replicates, n-1) height matrix.

    Returns the estimate arrays and the raw c = 1 pivot, both over the rows
    kept, and, for each method with any, the number of kept rows whose fit
    did not converge (their estimate is the fit's last iterate). Rows where
    all heights coincide would make every estimator blow up, so they are
    dropped; callers report the count. Every kernel is row-independent, so
    a row's estimates are the same bits in any matrix.
    """
    raw = raw_pairwise_rows(h)
    keep = ~np.isnan(raw)
    h, raw = h[keep], raw[keep]
    out: dict[str, np.ndarray] = {}
    unconverged: dict[str, int] = {}
    for tag in estimators:
        method = METHODS[tag]
        values, failed = method.rows(h)
        if failed:
            unconverged[tag] = failed
        out[tag] = method.constant(row) * values
    return out, raw, unconverged


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
    h = sample_coalescence_times_block(n, regime, rng, config.replicates)
    check_finite_rows(h)
    estimates, raw, unconverged = estimates_for_matrix(h, row, config.estimators)
    return CellResult(
        n=n,
        r=r,
        estimates=estimates,
        coverage=covered_fraction(raw, ConfidenceSpec.from_constants_row(row), r),
        excluded=h.shape[0] - raw.size,
        unconverged=unconverged,
    )


def run_study(config: StudyConfig,
              constants: dict[int, calibration.ConstantsRow] | None = None) -> StudyResult:
    table = dict(constants or {})
    for n in config.ns:
        calibration.constants_row(table, n, config.calibration_replicates, config.seed)
    cells = [(n, r) for n in config.ns for r in config.rs]
    stream = RngStream(config.seed)

    def run(i: int) -> CellResult:
        n, r = cells[i]
        return run_cell(n, r, config, table[n], stream.child(i))

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run, range(len(cells))))
    else:
        results = [run(i) for i in range(len(cells))]

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


@dataclass(frozen=True)
class SweepRow:
    c: float
    mse: float
    abs_bias: float


@dataclass(frozen=True)
class SweepResult:
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
    h = sample_coalescence_times_block(n, regime_value, rng, replicates)
    check_finite_rows(h)
    _, raw, _ = estimates_for_matrix(h, None, ())
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


@dataclass(frozen=True)
class AsymptoticsReport:
    n: int
    r: float
    replicates: int
    var_scaled_inv: float        # Var(sqrt(n) * (r_hat_inv - r))
    var_scaled_lengths: float    # same for the lengths estimator
    target_inv: float            # r^2 * (4 - pi^2/3)
    target_lengths: float        # r^2
    ks_pvalue_inv: float
    ks_pvalue_lengths: float


def asymptotics_check(n: int, r: float, replicates: int, rng: RngStream,
                      t: float | None = None) -> AsymptoticsReport:
    """Empirical scaled variances under the large-n regime.

    The calibrated pairwise estimator targets r^2 * (4 - pi^2/3), about
    0.71 r^2; the lengths estimator targets r^2. Normality of the scaled
    errors is scored with a Kolmogorov-Smirnov test against the fitted
    normal.
    """
    if n < 200:
        raise ValueError("asymptotics check needs n >= 200")
    import scipy.stats  # imported here: it is most of the package's import time

    if t is None:
        t = 4.0 * math.log(n) / r  # comfortably above the typical tree height
    regime = make_regime("large-n", r, t)
    h = sample_coalescence_times_block(n, regime, rng, replicates)
    check_finite_rows(h)
    inv = calibration.c_inv_closed_form(n) * raw_pairwise_rows(h)
    lengths = lengths_rows(h)

    scaled_inv = math.sqrt(n) * (inv - r)
    scaled_len = math.sqrt(n) * (lengths - r)
    ks_inv = scipy.stats.kstest(scaled_inv, "norm",
                                args=(np.mean(scaled_inv), np.std(scaled_inv)))
    ks_len = scipy.stats.kstest(scaled_len, "norm",
                                args=(np.mean(scaled_len), np.std(scaled_len)))
    return AsymptoticsReport(
        n=n,
        r=r,
        replicates=replicates,
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
