"""Study harness: metric identities, degenerate-replicate exclusion, output
determinism, the constant sweep, and the large-sample variance check."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bdgrowth import calibration as cal
from bdgrowth import coalescent as co
from bdgrowth import confidence as ci
from bdgrowth import estimators as est
from bdgrowth import harness
from bdgrowth.rng import RngStream

SEED = 20260808
# made-up constants: the tests below compare paths, not accuracy
ROW_20 = cal.ConstantsRow(n=20, c_inv=0.97, c_mse=0.9, c_bias=0.95, inv_q_lo=1.5,
                          inv_q_hi=0.6, replicates=1, seed=0)


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
    estimates, raw, unconverged = est.estimates_for_matrix(matrix, small_constants[5])
    assert raw.tolist() == [4 * 3 / 6.5]  # the first row is kept, the second dropped
    assert estimates["MSE"].size == 1
    assert unconverged == {}


def test_simulated_estimates_and_run_cell_are_the_one_shot_result_across_chunks():
    regime = ci.make_regime("exact", 1.0, 40.0)
    count = 15_000
    assert len(list(co.height_chunks(20, regime, RngStream(SEED), count))) >= 2
    h = co.sample_coalescence_times_block(20, regime, RngStream(SEED), count)
    estimates, raw, unconverged = est.estimates_for_matrix(h, ROW_20)
    got, got_raw, got_unconverged, excluded = est.simulated_estimates(
        20, regime, RngStream(SEED), count, ROW_20)
    config = harness.StudyConfig(ns=(20,), rs=(1.0,), t=40.0, replicates=count)
    cell = harness.run_cell(20, 1.0, config, ROW_20, RngStream(SEED))
    assert excluded == cell.excluded == count - raw.size
    assert got_unconverged == cell.unconverged == unconverged
    assert got_raw.tobytes() == raw.tobytes()
    assert list(got) == list(cell.estimates) == list(harness.ALL_ESTIMATORS)
    for tag, values in estimates.items():
        assert got[tag].tobytes() == cell.estimates[tag].tobytes() == values.tobytes()
    spec = ci.ConfidenceSpec.from_constants_row(ROW_20)
    assert cell.coverage == ci.covered_fraction(raw, spec, 1.0)


def test_every_simulating_experiment_drops_and_counts_a_constant_row(monkeypatch):
    real_chunks = est.height_chunks

    def constant_first_row(n, regime, rng, count):
        chunks = real_chunks(n, regime, rng, count)
        first = next(chunks)
        first[0] = first[0, 0]
        yield first
        yield from chunks

    def both(run):
        clean = run()
        monkeypatch.setattr(est, "height_chunks", constant_first_row)
        try:
            return clean, run()
        finally:
            monkeypatch.undo()

    # each pair: the unpatched result and the one whose first row is constant
    regime = ci.make_regime("exact", 1.0, 40.0)
    clean, cell = both(lambda: harness.run_cell(
        20, 1.0, harness.StudyConfig(ns=(20,), rs=(1.0,), t=40.0, replicates=1000),
        ROW_20, RngStream(SEED)))
    assert (clean.excluded, cell.excluded) == (0, 1)
    for tag, values in clean.estimates.items():
        assert cell.estimates[tag].tobytes() == values[1:].tobytes()

    (_, raw, _, _), (_, kept, _, dropped) = both(lambda: est.simulated_estimates(
        10, ci.make_regime("exact", 0.5, 40.0), RngStream(SEED), 4000, None, ()))
    assert dropped == 1 and kept.tobytes() == raw[1:].tobytes()
    clean, sweep = both(lambda: harness.constant_sweep(10, 0.5, 40.0, [0.8], 4000,
                                                       RngStream(SEED)))
    assert (clean.replicates, sweep.replicates) == (4000, 3999)
    assert sweep.rows[0].mse == np.mean((0.8 * kept - 0.5) ** 2)

    spec = ci.ConfidenceSpec.from_constants_row(ROW_20)
    (_, raw, _, _), _ = both(lambda: est.simulated_estimates(
        20, regime, RngStream(SEED).child(1), 1000, None, ()))
    clean, cov = both(lambda: ci.coverage_study(20, 1.0, 40.0, 1000, "exact", RngStream(SEED),
                                                spec=spec))
    assert cov == ci.covered_fraction(raw[1:], spec, 1.0)
    assert (clean.kept, cov.kept) == (1000, 999)

    (_, raw, _, _), _ = both(lambda: est.simulated_estimates(
        200, ci.make_regime("large-n", 1.0, 40.0), RngStream(SEED), 1000, None, ()))
    clean, report = both(lambda: harness.asymptotics_check(200, 1.0, 1000, RngStream(SEED),
                                                           t=40.0))
    assert (clean.replicates, report.replicates) == (1000, 999)
    scaled = math.sqrt(200) * (cal.c_inv_closed_form(200) * raw[1:] - 1.0)
    assert report.var_scaled_inv == float(np.var(scaled))
    assert math.isfinite(report.var_scaled_lengths)


def test_run_cell_memory_is_bounded_by_the_chunks():
    # the whole height matrix and the fit's terms peaked at 92 MiB or more here
    row = dataclasses.replace(ROW_20, n=100)
    config = harness.StudyConfig(ns=(100,), rs=(1.0,), t=40.0, replicates=10_000)
    tracemalloc.start()
    try:
        harness.run_cell(100, 1.0, config, row, RngStream(SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


def test_study_reports_unconverged_fits_once_per_cell(small_constants, monkeypatch, capsys,
                                                      tmp_path):
    mle = est.METHODS["MLE"]

    def two_unconverged(h):
        values, _ = mle.rows(h)
        return values, 2

    monkeypatch.setitem(est.METHODS, "MLE", dataclasses.replace(mle, rows=two_unconverged))
    config = harness.StudyConfig(ns=(5, 10), rs=(0.5, 1.0), t=40.0, replicates=50, seed=SEED,
                                 estimators=("Inv", "MLE"))
    result = harness.run_study(config, small_constants)
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: n={n} r={r}: 2 of 50 MLE fits did not converge; "
                   f"their estimates are the last iterate" for n in (5, 10) for r in (0.5, 1.0)]
    # the outputs carry no trace of it
    monkeypatch.undo()
    quiet = harness.run_study(config, small_constants)
    assert capsys.readouterr().err == ""
    for name, run in (("warned", result), ("quiet", quiet)):
        harness.write_study_outputs(run, tmp_path / name)
    for name in ("metrics.csv", "densities.csv", "coverage.csv", "summary.json"):
        assert (tmp_path / "warned" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes()


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
