"""Study harness: metric identities, degenerate-replicate exclusion, output
determinism, the constant sweep, and the large-sample variance check."""

import numpy as np
import pytest

from bdgrowth import calibration as cal
from bdgrowth import harness
from bdgrowth.rng import RngStream

SEED = 20260808


@pytest.fixture(scope="module")
def small_constants():
    return {n: cal.build_constants_row(n, 50_000, SEED) for n in (5, 10)}


@pytest.fixture(scope="module")
def small_study(small_constants):
    config = harness.StudyConfig(
        ns=(5, 10), rs=(1.0,), t=40.0, replicates=400, seed=SEED,
        calibration_replicates=50_000,
    )
    return harness.run_study(config, small_constants)


def test_metrics_rows_complete(small_study):
    tags = {(m.estimator, m.n) for m in small_study.metrics}
    assert tags == {(t, n) for t in harness.ALL_ESTIMATORS for n in (5, 10)}
    for m in small_study.metrics:
        assert m.mse >= 0 and m.mae >= 0
        assert m.mse >= m.bias ** 2 - 1e-12


def test_mse_decomposes_into_variance_plus_bias_squared(small_study):
    # recompute from the per-replicate estimates the harness produced
    config = small_study.config
    rows = {n: cal.build_constants_row(n, 50_000, SEED) for n in (5, 10)}
    cell = harness.run_cell(5, 1.0, config, rows[5], RngStream(SEED).child(0))
    for tag, values in cell.estimates.items():
        mse = np.mean((values - 1.0) ** 2)
        var = np.var(values)
        bias = np.mean(values) - 1.0
        assert mse == pytest.approx(var + bias ** 2, rel=1e-9)


def test_density_rows_account_for_most_replicates(small_study):
    for n in (5, 10):
        rows = [d for d in small_study.densities
                if d.estimator == "Inv" and d.n == n]
        assert len(rows) == harness.DENSITY_BINS
        # the adaptive range clips the extreme upper tail only
        assert sum(d.count for d in rows) >= 0.995 * 400


def test_coverage_rows_present(small_study):
    assert [(c.n, c.r) for c in small_study.coverage] == [(5, 1.0), (10, 1.0)]
    for c in small_study.coverage:
        assert 0.85 <= c.coverage <= 1.0


def test_degenerate_rows_excluded_and_counted(small_constants):
    matrix = np.array([[1.0, 2.0, 3.0, 2.5], [2.0, 2.0, 2.0, 2.0]])
    estimates, raw = harness.estimates_for_matrix(matrix, small_constants[5])
    assert raw.tolist() == [4 * 3 / 6.5]  # the first row is kept, the second dropped
    assert estimates["MSE"].size == 1


def test_study_outputs_are_byte_stable(tmp_path, small_constants):
    config = harness.StudyConfig(ns=(5,), rs=(1.0,), t=40.0, replicates=200,
                                 seed=SEED, calibration_replicates=50_000)
    a = harness.run_study(config, small_constants)
    harness.write_study_outputs(a, tmp_path / "one")
    b = harness.run_study(config, small_constants)
    harness.write_study_outputs(b, tmp_path / "two")
    for name in ("metrics.csv", "densities.csv", "coverage.csv", "summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_study_worker_count_independent(small_constants):
    config1 = harness.StudyConfig(ns=(5, 10), rs=(1.0,), t=40.0, replicates=200,
                                  seed=SEED, calibration_replicates=50_000, workers=1)
    config3 = harness.StudyConfig(ns=(5, 10), rs=(1.0,), t=40.0, replicates=200,
                                  seed=SEED, calibration_replicates=50_000, workers=3)
    a = harness.run_study(config1, small_constants)
    b = harness.run_study(config3, small_constants)
    assert a.metrics == b.metrics


def test_config_validation():
    with pytest.raises(ValueError):
        harness.StudyConfig(ns=(2,), rs=(1.0,), t=40.0)
    with pytest.raises(ValueError):
        harness.StudyConfig(ns=(5,), rs=(1.0,), t=40.0, estimators=("Nope",))


# ---------------------------------------------------------------------------
# constant sweep
# ---------------------------------------------------------------------------


def test_sweep_curves_and_argmins(small_constants):
    grid = np.arange(0.3, 1.3001, 0.02)
    sweep = harness.constant_sweep(10, 0.5, 40.0, grid, 4000, RngStream(SEED))
    assert len(sweep.rows) == grid.size
    # the rescaled-error curve is an exact quadratic in c, so a quadratic
    # fit must open upward with an interior minimum
    cs = np.array([row.c for row in sweep.rows])
    mses = np.array([row.mse for row in sweep.rows])
    quad = np.polyfit(cs, mses, 2)
    argmin = -quad[1] / (2 * quad[0])
    assert quad[0] > 0
    assert grid[0] < argmin < grid[-1]
    assert abs(sweep.argmin_mse_c - small_constants[10].c_mse) < 0.15
    assert abs(sweep.argmin_bias_c - small_constants[10].c_bias) < 0.15


# ---------------------------------------------------------------------------
# large-sample variance
# ---------------------------------------------------------------------------


def test_asymptotics_smoke():
    report = harness.asymptotics_check(200, 1.0, 2000, RngStream(SEED))
    assert report.target_inv == pytest.approx(0.7101, abs=1e-4)
    assert 0.5 < report.var_scaled_inv < 1.0
    assert 0.7 < report.var_scaled_lengths < 1.3
    assert 0.0 <= report.ks_pvalue_inv <= 1.0


def test_asymptotics_needs_large_n():
    with pytest.raises(ValueError):
        harness.asymptotics_check(50, 1.0, 2000, RngStream(1))
