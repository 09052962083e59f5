"""Confidence intervals: the quantile construction, equivariance, and
coverage (exact by construction under the limiting law, near-nominal at
finite T)."""

import numpy as np
import pytest

from bdgrowth import calibration as cal
from bdgrowth import confidence as ci
from bdgrowth.errors import InsufficientReplicates, MismatchedN
from bdgrowth.estimators import raw_pairwise_rows
from bdgrowth.rng import RngStream

SEED = 20260808


def evenly_spaced_heights(n, spacing=1.0):
    """One row of n - 1 heights spacing apart."""
    return spacing * np.arange(1.0, n)[None, :]


def test_interval_from_tabulated_reciprocals():
    # n = 10 tabulated reciprocals 1/q_lo = 1.43, 1/q_hi = 0.44: a raw
    # estimate of 1 maps to the interval (0.44, 1.43)
    spec = ci.ConfidenceSpec(n=10, q_lo=1.0 / 1.43, q_hi=1.0 / 0.44)
    raw = raw_pairwise_rows(evenly_spaced_heights(10, spacing=72.0 / 120.0))
    assert raw[0] == pytest.approx(1.0, rel=1e-12)
    lo, hi = spec.interval(raw)
    assert lo[0] == pytest.approx(0.44, rel=1e-9)
    assert hi[0] == pytest.approx(1.43, rel=1e-9)
    assert lo[0] < hi[0]


def test_interval_scales_linearly_in_raw_estimate():
    spec = ci.ConfidenceSpec(n=5, q_lo=1.0 / 1.73, q_hi=1.0 / 0.21)
    raw = raw_pairwise_rows(evenly_spaced_heights(5))
    lo, hi = spec.interval(raw)
    assert lo[0] == pytest.approx(raw[0] * 0.21, rel=1e-9)
    assert hi[0] == pytest.approx(raw[0] * 1.73, rel=1e-9)
    # a float and an array of raw estimates give the same interval
    assert spec.interval(float(raw[0])) == (lo[0], hi[0])


def test_interval_equivariance_under_time_scaling():
    spec = ci.ConfidenceSpec(n=6, q_lo=0.5, q_hi=3.0)
    base = evenly_spaced_heights(6)
    lo, hi = spec.interval(raw_pairwise_rows(base))
    lo4, hi4 = spec.interval(raw_pairwise_rows(4.0 * base))
    assert lo4[0] == pytest.approx(lo[0] / 4.0, rel=1e-12)
    assert hi4[0] == pytest.approx(hi[0] / 4.0, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        ci.ConfidenceSpec(n=5, q_lo=2.0, q_hi=1.0)
    with pytest.raises(ValueError):
        ci.ConfidenceSpec(n=5, q_lo=0.5, q_hi=2.0, level=1.5)


def test_coverage_exact_by_construction_under_limit_law():
    cov = ci.coverage_study(
        8, 1.0, None, 100_000, "fixed-n", RngStream(SEED),
        calibration_replicates=200_000,
    )
    # binomial noise plus quantile-estimation noise at these sizes
    assert cov == pytest.approx(0.95, abs=0.005)


def test_coverage_near_nominal_at_finite_t():
    cov = ci.coverage_study(10, 1.0, 40.0, 1000, "exact", RngStream(SEED))
    assert 0.92 <= cov <= 0.98


def test_coverage_respects_supplied_level():
    sample = cal.sample_sn(7, 100_000, RngStream(SEED).child(99))
    spec = ci.ConfidenceSpec.from_sample(sample, level=0.5)
    cov = ci.coverage_study(
        7, 2.0, None, 50_000, "fixed-n", RngStream(SEED + 1), spec=spec
    )
    assert cov == pytest.approx(0.5, abs=0.02)


def test_coverage_replicate_floor():
    with pytest.raises(InsufficientReplicates):
        ci.coverage_study(5, 1.0, 40.0, 10, "exact", RngStream(1))


def test_coverage_rejects_mismatched_spec():
    spec = ci.ConfidenceSpec(n=6, q_lo=0.5, q_hi=2.0)
    with pytest.raises(MismatchedN):
        ci.coverage_study(5, 1.0, 40.0, 1000, "exact", RngStream(1), spec=spec)


def test_make_regime_validation():
    with pytest.raises(ValueError):
        ci.make_regime("exact", 2.0, 40.0, birth_rate=1.0)  # death rate negative
    with pytest.raises(ValueError):
        ci.make_regime("exact", 1.0, None)
    with pytest.raises(ValueError):
        ci.make_regime("bogus", 1.0, 40.0)
    regime = ci.make_regime("exact", 0.5, 40.0)
    assert regime.params.mu == pytest.approx(0.5)
