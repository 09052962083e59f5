"""Estimator correctness: brute-force oracles for the pairwise statistic and
the branch-order internal length, equivariance properties, and the logistic
fit against self-consistent data."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdgrowth import coalescent as co
from bdgrowth import estimators as est
from bdgrowth.errors import BranchOrderUnknown, DegenerateTimes, NonConvergence, SampleTooSmall
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
@example([0.001, 0.001, 0.0010000000000000002])
def test_translation_and_scale_behavior(values):
    arr = np.array(values)
    if arr.min() == arr.max():
        arr[0] += 1.0
    t = times_of(arr)
    point = est.estimate_pairwise(t, 1.0).point
    moved = arr + 123.5
    if moved.min() == moved.max():
        # a spread below one ulp of 123.5 leaves the moved times all equal
        with pytest.raises(DegenerateTimes):
            est.estimate_pairwise(times_of(moved), 1.0)
    else:
        shifted = est.estimate_pairwise(times_of(moved), 1.0).point
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


def _stress_matrices():
    """Height matrices with the rows a batched fit finds hardest: the
    smallest samples, ties, a large offset, far outliers, and draws from all
    three regimes."""
    rng = np.random.default_rng(106)
    m = 9
    smallest = np.array([[1.0, 4.0], [4.0, 1.0], [0.0, 1e-3], [1e6, 1e6 + 1.0], [-3.0, 7.0]])
    rows = [np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.5, 5.0, 9.0]),
            np.array([2.0] * (m - 1) + [5.0]),
            1e6 + rng.uniform(0.0, 1.0, m),
            np.r_[rng.uniform(0.0, 1.0, m - 1), 1e4],
            np.r_[1e4, rng.uniform(0.0, 1e-3, m - 1)],
            np.r_[-1e6, rng.uniform(0.0, 1.0, m - 1)]]
    for i, regime in enumerate((co.ExactFiniteT(co.BirthDeathParams(lam=1.0, mu=0.0, t=40.0)),
                                co.FixedNLimit(r=1.0), co.LargeN(r=1.0, t=40.0))):
        rows.extend(co.sample_coalescence_times_block(m + 1, regime, RngStream(9).child(i), 300))
    return [smallest, np.array(rows)]


@pytest.fixture(scope="module")
def stress_fits():
    return [(h, est.fit_logistic_rows(h)) for h in _stress_matrices()]


def test_batched_mle_is_stationary_on_every_row(stress_fits):
    for h, fit in stress_fits:
        assert fit.converged.all()
        z = (h - fit.a[:, None]) / fit.b[:, None]
        t = np.tanh(0.5 * z)
        assert np.abs(t.sum(axis=1)).max() < 1e-8
        assert np.abs((z * t).sum(axis=1) - h.shape[1]).max() < 1e-8


def test_batched_mle_fits_each_row_as_if_alone(stress_fits, monkeypatch):
    fallback_rows = []
    fallback = est._bisection_fallback

    def counted(h, b, fit, rows):
        fallback_rows.extend(rows)
        fallback(h, b, fit, rows)

    monkeypatch.setattr(est, "_bisection_fallback", counted)
    for h, fit in stress_fits:
        for i in range(h.shape[0]):
            alone = est.fit_logistic_rows(h[i:i + 1])
            assert (alone.a[0], alone.b[0], alone.loglik[0], alone.converged[0]) == \
                (fit.a[i], fit.b[i], fit.loglik[i], fit.converged[i])
    assert fallback_rows  # the comparison covered rows that Newton left to bisection


@pytest.mark.filterwarnings("error")
def test_batched_mle_raises_no_floating_point_warning():
    for h in _stress_matrices():
        est.fit_logistic_rows(h)
        est.fit_logistic_rows(h[:1])
    # at these scales b*b overflows or log b underflows: the fit fails loudly,
    # not with a warning from inside the kernel
    for h in ([[0.0, 1e200]], [[2e-201, 1e-202, 8e-201]]):
        with pytest.raises(NonConvergence):
            est.fit_logistic_rows(np.array(h))


def test_mle_rows_counts_unconverged_fits():
    h = _stress_matrices()[1]
    values, unconverged = est.mle_rows(h)
    assert unconverged == 0
    assert np.array_equal(values, 1.0 / est.fit_logistic_rows(h).b)


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
