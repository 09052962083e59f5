"""Estimator correctness: brute-force oracles for the pairwise statistic and
the branch-order internal length, equivariance properties, and the logistic
fit against self-consistent data."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdgrowth import coalescent as co
from bdgrowth import estimators as est
from bdgrowth.errors import BranchOrderUnknown, DegenerateTimes, SampleTooSmall
from bdgrowth.rng import RngStream


def times_of(values, **kw):
    return co.CoalescenceTimes(len(values) + 1, tuple(float(v) for v in values), **kw)


def double_loop_abs_sum(values):
    values = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(values.size):
        for j in range(i + 1, values.size):
            total += abs(values[i] - values[j])
    return total


# ---------------------------------------------------------------------------
# pairwise statistic
# ---------------------------------------------------------------------------


def test_pairwise_worked_example():
    assert est.pairwise_abs_sum(np.array([3.0, 1.0, 2.0])) == 4.0
    assert est.raw_pairwise_point(times_of([3.0, 1.0, 2.0])) == (4 - 1) * (4 - 2) / 4.0


def test_pairwise_rejects_degenerate_and_small():
    with pytest.raises(DegenerateTimes):
        est.raw_pairwise_point(times_of([2.0, 2.0, 2.0]))
    with pytest.raises(SampleTooSmall):
        est.raw_pairwise_point(times_of([1.0]))


def test_sorted_formula_equals_double_loop_exactly_on_integers():
    # integer-valued instances make both evaluations exact in float64
    rng = np.random.default_rng(100)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        values = rng.integers(0, 10**6, size=m).astype(float)
        assert est.pairwise_abs_sum(values) == double_loop_abs_sum(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=30))
def test_sorted_formula_matches_double_loop_on_floats(values):
    got = est.pairwise_abs_sum(np.array(values))
    want = double_loop_abs_sum(values)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_row_version_matches_scalar_version():
    rng = np.random.default_rng(101)
    matrix = rng.random((50, 7))
    rows = est.pairwise_abs_sum_rows(matrix)
    for i in range(50):
        assert rows[i] == pytest.approx(est.pairwise_abs_sum(matrix[i]), rel=1e-14)


# ---------------------------------------------------------------------------
# pairwise estimate
# ---------------------------------------------------------------------------


def test_estimate_worked_example():
    assert est.estimate_pairwise(times_of([3.0, 1.0, 2.0]), 1.0).point == 1.5


def test_constant_scaling_is_exact():
    t = times_of([3.0, 1.0, 2.0, 0.5])
    raw = est.estimate_pairwise(t, 1.0).point
    for c in (0.355, 0.78, 1.3):
        assert est.estimate_pairwise(t, c).point == c * raw


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=1e3, allow_nan=False), min_size=3, max_size=25))
def test_translation_and_scale_behavior(values):
    arr = np.array(values)
    if arr.min() == arr.max():
        arr[0] += 1.0
    t = times_of(arr)
    point = est.estimate_pairwise(t, 1.0).point
    shifted = est.estimate_pairwise(times_of(arr + 123.5), 1.0).point
    assert shifted == pytest.approx(point, rel=1e-9)
    doubled = est.estimate_pairwise(times_of(2.0 * arr), 1.0).point
    assert doubled == pytest.approx(point / 2.0, rel=1e-14)


def test_pairwise_is_permutation_invariant():
    values = [5.0, 1.0, 3.25, 0.5]
    base = est.estimate_pairwise(times_of(values), 0.7).point
    for perm in itertools.permutations(values):
        assert est.estimate_pairwise(times_of(perm), 0.7).point == base


# ---------------------------------------------------------------------------
# internal branch length
# ---------------------------------------------------------------------------


def test_internal_length_worked_examples():
    assert est.internal_branch_length(times_of([3.0, 1.0, 2.0])) == 2.0
    assert est.internal_branch_length(times_of([1.0, 3.0, 2.0])) == 3.0
    assert est.internal_branch_length(times_of([2.0, 1.0])) == 1.0
    assert est.internal_branch_length(times_of([1.0, 2.0])) == 1.0


def test_internal_length_requires_branch_order_and_size():
    with pytest.raises(SampleTooSmall):
        est.internal_branch_length(times_of([1.0]))
    with pytest.raises(BranchOrderUnknown):
        est.internal_branch_length(times_of([3.0, 1.0], branch_order=False))


def test_row_version_matches_internal_length():
    rng = np.random.default_rng(102)
    matrix = rng.random((40, 9))
    rows = est.internal_branch_length_rows(matrix)
    for i in range(40):
        assert rows[i] == pytest.approx(
            est.internal_branch_length(times_of(matrix[i])), rel=1e-14
        )


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_order_averaged_length_equals_pairwise_form(n, seed):
    # averaging the branch-order length over every ordering of fixed order
    # statistics must reproduce the order-statistic expression exactly
    rng = np.random.default_rng(seed)
    h = rng.random(n - 1)
    avg = np.mean([
        est.internal_branch_length(times_of(p)) for p in itertools.permutations(h)
    ])
    rhs = (h.max() - h.mean()) + est.pairwise_abs_sum(h) / (n - 1)
    assert avg == pytest.approx(rhs, rel=1e-12)


def test_estimate_lengths_worked_example():
    assert est.estimate_lengths(times_of([3.0, 1.0, 2.0])).point == 2.0


def test_mean_internal_length_near_limit():
    # fixed-n limiting law: E[L_in] -> (n/r) * (1 - 1/(n-1)), here 80/9
    h = co.sample_coalescence_times_block(10, co.FixedNLimit(r=1.0), RngStream(42), 20_000)
    mean = est.internal_branch_length_rows(h).mean()
    assert mean == pytest.approx(80.0 / 9.0, rel=0.03)


# ---------------------------------------------------------------------------
# logistic MLE
# ---------------------------------------------------------------------------


def test_mle_recovers_scale_from_quantile_data():
    m = 50
    ranks = (np.arange(1, m + 1) - 0.5) / m
    h = 10.0 + 2.0 * np.log(ranks / (1.0 - ranks))
    estimate, fit = est.estimate_mle(times_of(h))
    assert fit.converged
    assert fit.b == pytest.approx(2.0, rel=0.05)
    assert fit.a == pytest.approx(10.0, rel=0.01)
    assert estimate.point == 1.0 / fit.b


def test_mle_scale_and_shift_equivariance():
    rng = np.random.default_rng(103)
    h = rng.logistic(3.0, 0.8, size=25)
    _, fit = est.estimate_mle(times_of(h))
    _, scaled = est.estimate_mle(times_of(3.7 * h))
    assert scaled.b == pytest.approx(3.7 * fit.b, rel=1e-7)
    _, shifted = est.estimate_mle(times_of(h + 11.0))
    assert shifted.b == pytest.approx(fit.b, rel=1e-7)
    assert shifted.a == pytest.approx(fit.a + 11.0, rel=1e-7)


def test_mle_matches_scipy_fit():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(104)
    h = rng.logistic(-2.0, 1.4, size=120)
    _, fit = est.estimate_mle(times_of(h))
    loc, scale = scipy_stats.logistic.fit(h)
    assert fit.a == pytest.approx(loc, rel=1e-5)
    assert fit.b == pytest.approx(scale, rel=1e-5)


def test_mle_permutation_invariant():
    rng = np.random.default_rng(105)
    h = rng.logistic(0.0, 1.0, size=6)
    _, fit = est.estimate_mle(times_of(h))
    _, permuted = est.estimate_mle(times_of(h[::-1].copy()))
    assert permuted.b == pytest.approx(fit.b, rel=1e-9)


def test_mle_rejects_degenerate_and_small():
    with pytest.raises(DegenerateTimes):
        est.estimate_mle(times_of([1.0, 1.0, 1.0]))
    with pytest.raises(SampleTooSmall):
        est.estimate_mle(times_of([1.0]))


def test_mle_converges_on_tiny_samples():
    # two observations is the smallest legal fit (n = 3)
    _, fit = est.estimate_mle(times_of([1.0, 4.0]))
    assert fit.converged
    assert fit.b > 0


# ---------------------------------------------------------------------------
# estimate container and the reciprocal-unbiasedness identity
# ---------------------------------------------------------------------------


def test_estimate_validation():
    with pytest.raises(ValueError):
        est.Estimate(method="bogus", point=1.0)
    with pytest.raises(ValueError):
        est.Estimate(method="MSE", point=-1.0)
    with pytest.raises(ValueError):
        est.Estimate(method="MSE", point=1.0, ci=(2.0, 1.0))


def test_reciprocal_of_raw_estimate_is_unbiased_for_c_inv_over_r():
    from bdgrowth.calibration import c_inv_closed_form

    n, r = 10, 1.0
    h = co.sample_coalescence_times_block(n, co.FixedNLimit(r=r), RngStream(7), 100_000)
    recip = est.pairwise_abs_sum_rows(h) / ((n - 1) * (n - 2))
    se = recip.std() / math.sqrt(recip.size)
    assert abs(recip.mean() - c_inv_closed_form(n) / r) < 3 * se
