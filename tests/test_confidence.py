"""Confidence intervals: the quantile construction, equivariance, and
coverage (exact by construction under the limiting law, near-nominal at
finite T)."""

import threading
import tracemalloc

import numpy as np
import pytest

from bdgrowth import calibration as cal
from bdgrowth import coalescent as co
from bdgrowth import confidence as ci
from bdgrowth.errors import InsufficientReplicates
from bdgrowth.estimators import raw_pairwise_rows
from bdgrowth.rng import RngStream

SEED = 20260808


def evenly_spaced_heights(n, spacing=1.0):
    """One row of n - 1 heights spacing apart."""
    return spacing * np.arange(1.0, n)[None, :]


def test_interval_from_tabulated_reciprocals():
    # n = 10 tabulated reciprocals 1/q_lo = 1.43, 1/q_hi = 0.44: a raw
    # estimate of 1 maps to the interval (0.44, 1.43)
    spec = ci.ConfidenceSpec(q_lo=1.0 / 1.43, q_hi=1.0 / 0.44)
    raw = raw_pairwise_rows(evenly_spaced_heights(10, spacing=72.0 / 120.0))
    assert raw[0] == pytest.approx(1.0, rel=1e-12)
    lo, hi = spec.interval(raw)
    assert lo[0] == pytest.approx(0.44, rel=1e-9)
    assert hi[0] == pytest.approx(1.43, rel=1e-9)
    assert lo[0] < hi[0]


def test_interval_scales_linearly_in_raw_estimate():
    spec = ci.ConfidenceSpec(q_lo=1.0 / 1.73, q_hi=1.0 / 0.21)
    raw = raw_pairwise_rows(evenly_spaced_heights(5))
    lo, hi = spec.interval(raw)
    assert lo[0] == pytest.approx(raw[0] * 0.21, rel=1e-9)
    assert hi[0] == pytest.approx(raw[0] * 1.73, rel=1e-9)
    # a float and an array of raw estimates give the same interval
    assert spec.interval(float(raw[0])) == (lo[0], hi[0])


def test_interval_equivariance_under_time_scaling():
    spec = ci.ConfidenceSpec(q_lo=0.5, q_hi=3.0)
    base = evenly_spaced_heights(6)
    lo, hi = spec.interval(raw_pairwise_rows(base))
    lo4, hi4 = spec.interval(raw_pairwise_rows(4.0 * base))
    assert lo4[0] == pytest.approx(lo[0] / 4.0, rel=1e-12)
    assert hi4[0] == pytest.approx(hi[0] / 4.0, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        ci.ConfidenceSpec(q_lo=2.0, q_hi=1.0)
    sample = np.linspace(0.5, 2.0, 10_000)
    for level in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ci.ConfidenceSpec.from_sample(sample, level=level)


def test_calibration_for_reads_the_table_or_makes_the_draw_calibrate_tabulates(capsys):
    row = cal.build_constants_row(7, 20_000, SEED)
    expected = row, ci.ConfidenceSpec.from_constants_row(row)
    assert ci.calibration_for({7: row}, 7, 20_000, SEED) == expected
    assert capsys.readouterr().err == ""
    assert ci.calibration_for({}, 7, 20_000, SEED) == expected
    assert capsys.readouterr().err.count("calibrating on the fly") == 1
    # another level takes its quantiles from that same draw, table or not
    sample = cal.sample_sn(7, 20_000, RngStream(SEED).child(7))
    expected = row, ci.ConfidenceSpec.from_sample(sample, level=0.9)
    for table in ({7: row}, {}):
        assert ci.calibration_for(table, 7, 20_000, SEED, level=0.9) == expected
    capsys.readouterr()
    with pytest.raises(ValueError, match="n >= 3"):
        ci.calibration_for({}, 2, 20_000, SEED)
    assert capsys.readouterr().err == ""  # refused before the warning


def test_calibration_for_draws_the_calibrate_row_on_any_cpu_count(capsys, monkeypatch):
    # 3 blocks of the S_n draw, on three CPUs, then on one, which starts no thread
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 3)
    row = cal.build_constants_row(12, 120_000, SEED)
    assert ci.calibration_for({}, 12, 120_000, SEED)[0] == row

    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread on one usable CPU")

    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 1)
    monkeypatch.setattr(threading, "Thread", no_thread)
    assert ci.calibration_for({}, 12, 120_000, SEED)[0] == row
    assert cal.build_constants_row(12, 120_000, SEED) == row
    assert capsys.readouterr().err.count("calibrating on the fly") == 2


def test_calibrations_return_each_distinct_n_once_and_leave_the_table_as_given(capsys,
                                                                               monkeypatch):
    drawn, sample_sn = [], cal.sample_sn

    def counted(n, replicates, rng):
        drawn.append(n)
        return sample_sn(n, replicates, rng)

    row_9 = cal.build_constants_row(9, 20_000, SEED)
    table = {9: row_9}
    monkeypatch.setattr(cal, "sample_sn", counted)
    found = ci.calibrations(table, [7, 8, 7, 9], 20_000, SEED)
    assert drawn == [7, 8]  # S_7 and S_8 once each; n = 9 is read from the table
    assert table == {9: row_9}
    assert list(found) == [7, 8, 9]
    for n in (7, 8, 9):
        row = cal.build_constants_row(n, 20_000, SEED)  # the row `calibrate` writes
        assert found[n] == (row, ci.ConfidenceSpec.from_constants_row(row))
    assert capsys.readouterr().err.count("calibrating on the fly") == 2


def test_coverage_exact_by_construction_under_limit_law():
    _, spec = ci.calibration_for({}, 8, 200_000, SEED)
    cov = ci.coverage_study(8, 1.0, co.FixedNLimit(1.0), 100_000, RngStream(SEED), spec)
    # binomial noise plus quantile-estimation noise at these sizes
    assert cov.coverage == pytest.approx(0.95, abs=0.005)
    assert cov == (8, 1.0, None, cov.coverage, 100_000)


def test_coverage_near_nominal_at_finite_t():
    _, spec = ci.calibration_for({}, 10, 100_000, SEED)
    cov = ci.coverage_study(10, 1.0, co.ExactFiniteT(1.0, 0.0, 40.0), 1000, RngStream(SEED),
                            spec)
    assert 0.92 <= cov.coverage <= 0.98


def test_coverage_respects_supplied_level():
    sample = cal.sample_sn(7, 100_000, RngStream(SEED).child(99))
    spec = ci.ConfidenceSpec.from_sample(sample, level=0.5)
    cov = ci.coverage_study(7, 2.0, co.FixedNLimit(2.0), 50_000, RngStream(SEED + 1), spec=spec)
    assert cov.coverage == pytest.approx(0.5, abs=0.02)


def test_coverage_memory_is_bounded_by_the_chunks():
    # whole height and S_n matrices peaked at 93.7 MiB or more here
    tracemalloc.start()
    try:
        _, spec = ci.calibration_for({}, 100, 100_000, SEED)
        ci.coverage_study(100, 1.0, co.ExactFiniteT(1.0, 0.0, 40.0), 20_000, RngStream(SEED),
                          spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


def test_coverage_replicate_floor():
    with pytest.raises(InsufficientReplicates):
        ci.coverage_study(5, 1.0, co.ExactFiniteT(1.0, 0.0, 40.0), 10, RngStream(1),
                          ci.ConfidenceSpec(q_lo=0.5, q_hi=2.0))


def test_make_regime_validation():
    with pytest.raises(ValueError):
        co.make_regime("exact", 2.0, 40.0, birth_rate=1.0)  # death rate negative
    with pytest.raises(ValueError):
        co.make_regime("exact", 1.0, None)
    with pytest.raises(ValueError):
        co.make_regime("bogus", 1.0, 40.0)
    assert co.make_regime("exact", 0.5, 40.0) == co.ExactFiniteT(1.0, 0.5, 40.0)
