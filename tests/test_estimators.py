"""Estimator correctness: brute-force oracles for the pairwise statistic and
the branch-order internal length, equivariance properties, and the logistic
fit against self-consistent data."""

import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdgrowth import coalescent as co
from bdgrowth import estimators as est
from bdgrowth import treeio
from bdgrowth.calibration import ConstantsRow
from bdgrowth.errors import DegenerateTimes, NonConvergence, SampleTooSmall
from bdgrowth.rng import RngStream


def row_of(values):
    """A one-row height matrix."""
    return np.asarray(values, dtype=float)[None, :]


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
    assert est.pairwise_abs_sum_rows(row_of([3.0, 1.0, 2.0]))[0] == 4.0
    assert est.raw_pairwise_rows(row_of([3.0, 1.0, 2.0]))[0] == (4 - 1) * (4 - 2) / 4.0


def test_pairwise_rejects_degenerate_and_small():
    # no positive pairwise sum, no estimate: the row reads NaN
    assert np.isnan(est.raw_pairwise_rows(row_of([2.0, 2.0, 2.0]))[0])
    assert np.isnan(est.raw_pairwise_rows(row_of([1.0]))[0])


def test_sorted_formula_equals_double_loop_exactly_on_integers():
    # integer-valued instances make both evaluations exact in float64
    rng = np.random.default_rng(100)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        values = rng.integers(0, 10**6, size=m).astype(float)
        assert est.pairwise_abs_sum_rows(row_of(values))[0] == double_loop_abs_sum(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=30))
def test_sorted_formula_matches_double_loop_on_floats(values):
    got = est.pairwise_abs_sum_rows(row_of(values))[0]
    want = double_loop_abs_sum(values)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_row_version_matches_scalar_version():
    rng = np.random.default_rng(101)
    matrix = rng.random((50, 7))
    rows = est.pairwise_abs_sum_rows(matrix)
    for i in range(50):
        assert rows[i] == est.pairwise_abs_sum_rows(matrix[i:i + 1])[0]


def test_gap_form_is_positive_on_unequal_rows_and_the_same_alone():
    # heights 1e3-1e9 that differ by 0-2 ulp within a row, where the signed
    # prefix-sum form cancelled to 0 or below
    rng = np.random.default_rng(102)
    h = np.repeat(10.0 ** rng.uniform(3, 9, size=(50_000, 1)), 19, axis=1)
    for _ in range(2):
        h = np.where(rng.random(h.shape) < 0.5, np.nextafter(h, np.inf), h)
    h[0] = h[0, 0]
    sums = est.pairwise_abs_sum_rows(h)
    unequal = h.min(axis=1) < h.max(axis=1)
    assert unequal.sum() == h.shape[0] - 1
    assert (sums[unequal] > 0).all() and sums[0] == 0.0
    for i in range(0, h.shape[0], 97):
        assert est.pairwise_abs_sum_rows(h[i:i + 1])[0] == sums[i]


# ---------------------------------------------------------------------------
# pairwise estimate
# ---------------------------------------------------------------------------


def test_estimate_worked_example():
    estimates, _, _, fits = est.estimates_for_matrix(row_of([3.0, 1.0, 2.0]), None, (est.RAW,))
    assert estimates[est.RAW][0] == 1.5 and fits == {}


def test_constant_scaling_is_exact():
    h = row_of([3.0, 1.0, 2.0, 0.5])
    row = ConstantsRow(n=5, c_inv=1.3, c_mse=0.355, c_bias=0.78, inv_q_lo=2.0, inv_q_hi=0.5,
                       replicates=1, seed=0)
    estimates, raw, *_ = est.estimates_for_matrix(h, row, ("MSE", "Bias", "Inv", est.RAW))
    assert raw[0] == est.raw_pairwise_rows(h)[0]
    for tag, c in (("MSE", 0.355), ("Bias", 0.78), ("Inv", 1.3), (est.RAW, 1.0)):
        assert est.METHODS[tag].constant(row) == c
        assert estimates[tag][0] == c * raw[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=1e3, allow_nan=False), min_size=3, max_size=25))
@example([0.001, 0.001, 0.0010000000000000002])
def test_translation_and_scale_behavior(values):
    arr = np.array(values)
    if arr.min() == arr.max():
        arr[0] += 1.0
    point = est.raw_pairwise_rows(row_of(arr))[0]
    moved = arr + 123.5
    shifted = est.raw_pairwise_rows(row_of(moved))[0]
    if moved.min() == moved.max():
        # a spread below one ulp of 123.5 leaves the moved times all equal
        assert np.isnan(shifted)
    else:
        assert shifted == pytest.approx(point, rel=1e-9)
    doubled = est.raw_pairwise_rows(row_of(2.0 * arr))[0]
    assert doubled == pytest.approx(point / 2.0, rel=1e-14)


def test_pairwise_is_permutation_invariant():
    values = [5.0, 1.0, 3.25, 0.5]
    raw = est.raw_pairwise_rows(np.array(list(itertools.permutations(values))))
    assert (raw == raw[0]).all()


# ---------------------------------------------------------------------------
# internal branch length
# ---------------------------------------------------------------------------


def test_internal_length_worked_examples():
    assert est.internal_branch_length_rows(row_of([3.0, 1.0, 2.0]))[0] == 2.0
    assert est.internal_branch_length_rows(row_of([1.0, 3.0, 2.0]))[0] == 3.0
    assert est.internal_branch_length_rows(row_of([2.0, 1.0]))[0] == 1.0
    assert est.internal_branch_length_rows(row_of([1.0, 2.0]))[0] == 1.0


def test_row_version_matches_internal_length():
    rng = np.random.default_rng(102)
    matrix = rng.random((40, 9))
    rows = est.internal_branch_length_rows(matrix)
    for i in range(40):
        assert rows[i] == pytest.approx(
            est.internal_branch_length_rows(matrix[i:i + 1])[0], rel=1e-14
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
        est.internal_branch_length_rows(row_of(p))[0] for p in itertools.permutations(h)
    ])
    rhs = (h.max() - h.mean()) + est.pairwise_abs_sum_rows(row_of(h))[0] / (n - 1)
    assert avg == pytest.approx(rhs, rel=1e-12)


def test_estimate_lengths_worked_example():
    # branch-order internal length 2 of n = 4 tips, on the times and on their tree
    heights = [3.0, 1.0, 2.0]
    assert est.lengths_rows(row_of(heights))[0] == 2.0
    assert est.estimate_lengths(4, oracles.record_of(oracles.build_cpp_tree(heights, 4.0))) == 2.0


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
    fit = est.fit_logistic_rows(row_of(h))
    assert fit.converged[0]
    assert fit.b[0] == pytest.approx(2.0, rel=0.05)
    assert fit.a[0] == pytest.approx(10.0, rel=0.01)
    values, rows_fit = est.mle_rows(row_of(h))
    assert values[0] == 1.0 / fit.b[0] and rows_fit.unconverged == 0
    assert rows_fit.refusal() is None


def test_mle_scale_and_shift_equivariance():
    rng = np.random.default_rng(103)
    h = rng.logistic(3.0, 0.8, size=25)
    fit = est.fit_logistic_rows(np.array([h, 3.7 * h, h + 11.0]))
    assert fit.b[1] == pytest.approx(3.7 * fit.b[0], rel=1e-7)
    assert fit.b[2] == pytest.approx(fit.b[0], rel=1e-7)
    assert fit.a[2] == pytest.approx(fit.a[0] + 11.0, rel=1e-7)


def test_mle_matches_scipy_fit():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(104)
    h = rng.logistic(-2.0, 1.4, size=120)
    fit = est.fit_logistic_rows(row_of(h))
    loc, scale = scipy_stats.logistic.fit(h)
    assert fit.a[0] == pytest.approx(loc, rel=1e-5)
    assert fit.b[0] == pytest.approx(scale, rel=1e-5)


def test_mle_permutation_invariant():
    rng = np.random.default_rng(105)
    h = rng.logistic(0.0, 1.0, size=6)
    fit = est.fit_logistic_rows(np.array([h, h[::-1]]))
    assert fit.b[1] == pytest.approx(fit.b[0], rel=1e-9)


def test_mle_rejects_degenerate_and_small():
    # equal heights, or a single one, leave no moment start to fit from
    for h in ([1.0, 1.0, 1.0], [1.0]):
        fit = est.fit_logistic_rows(row_of(h))
        assert fit.refused.tolist() == [1] and not fit.converged[0]
        message = f"moment start out of range in 1 of 1 rows (first: b={fit.b[0]})"
        for refusal in (fit.refusal(), fit.refusal(0)):
            assert type(refusal) is NonConvergence and str(refusal) == message
        values, refused = est.mle_rows(row_of(h))
        assert np.isnan(values[0]) and refused.unconverged == 0
        assert str(refused.refusal(0)) == str(fit.refusal(0))


def test_mle_converges_on_tiny_samples():
    # two observations is the smallest legal fit (n = 3)
    fit = est.fit_logistic_rows(row_of([1.0, 4.0]))
    assert fit.converged[0]
    assert fit.b[0] > 0


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
    for i, regime in enumerate((co.ExactFiniteT(lam=1.0, mu=0.0, t=40.0),
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
    # at these scales b*b overflows or log b underflows: the row is refused,
    # not fitted with a warning from inside the kernel
    for h in ([[0.0, 1e200]], [[2e-201, 1e-202, 8e-201]]):
        fit = est.fit_logistic_rows(np.array(h))
        assert fit.refused.tolist() == [1]
        assert str(fit.refusal()).startswith("moment start out of range in 1 of 1 rows")


def test_rows_out_of_range_at_the_moment_start_are_refused_before_any_fallback(monkeypatch):
    def fallback(h, b, fit, rows):
        raise AssertionError("a refused row reached the bisection fallback")

    monkeypatch.setattr(est, "_bisection_fallback", fallback)
    good = np.array([[1.0, 4.0, 2.0], [0.5, 3.0, 9.0], [5.0, 1.0, 2.5]])
    alone = est.fit_logistic_rows(good)
    for bad, b in (([0.0, 1e200, 3e199], "inf"), ([0.0, 1e160, 3e159], "inf"),
                   ([1e-170, 2e-170, 5e-170], "0.0")):
        h = np.insert(good, 1, bad, axis=0)
        fit = est.fit_logistic_rows(h)
        assert fit.refused.tolist() == [0, 1, 0, 0]
        message = "moment start out of range in {} rows (first: b=" + b + ")"
        assert str(fit.refusal()) == message.format("1 of 4")
        assert str(fit.refusal(1)) == message.format("1 of 1")
        assert fit.refusal(0) is fit.refusal(2) is None
        # the refused row's neighbours are fitted as if it were not there
        for field in ("a", "b", "loglik", "converged"):
            assert getattr(fit, field)[[0, 2, 3]].tobytes() == getattr(alone, field).tobytes()


def test_newton_stops_a_row_whose_halving_step_changes_nothing(monkeypatch):
    # such a row is at a fixed point; it used to repeat the step to the 60th
    # iteration, trying every halving each time (7484 rows of 3-D evaluations)
    regime = co.ExactFiniteT(lam=1.0, mu=0.0, t=40.0)
    h = co.sample_coalescence_times_block(20, regime, RngStream(5), 10_000)
    loglik, halving_rows = est._loglik, []

    def counted(z, s):
        if z.ndim == 3:
            halving_rows.append(z.shape[0])
        return loglik(z, s)

    monkeypatch.setattr(est, "_loglik", counted)
    fit = est.fit_logistic_rows(h)
    assert fit.converged.all()
    assert sum(halving_rows) < 3000


# Newton leaves this row unconverged and bisection drives b to 0
B_TO_ZERO = np.array([[0.0, 1e-161, 5e-162, 2e-162]])


def test_fallback_stops_a_row_whose_round_changes_nothing(monkeypatch):
    # at b = 0 each round returns b = 0 again; without the stop the row
    # would repeat that to the 100th round
    solve, calls = est._solve_location, []

    def counted(h, b):
        calls.append(h.shape[0])
        return solve(h, b)

    monkeypatch.setattr(est, "_solve_location", counted)
    fit = est.fit_logistic_rows(B_TO_ZERO)
    assert len(calls) <= 3
    # the bits the 100 rounds ended on
    assert (fit.a[0].hex(), fit.b[0].hex()) == ("0x1.1fee341fc585cp-536", "0x0.0p+0")
    assert np.isnan(fit.loglik[0]) and fit.converged.tolist() == [False]
    assert fit.refused.tolist() == [2]
    assert str(fit.refusal(0)) == ("optimizer left the feasible region in 1 of 1 rows "
                                   "(first: a=4.999999999999999e-162, b=0.0)")


def _counted_bisections(monkeypatch) -> list[int]:
    """The steps of each _bisect call from here on, in call order."""
    bisect, steps = est._bisect, []

    def counted(lo, hi, midpoint, rises):
        steps.append(0)

        def rise(mid):
            steps[-1] += 1
            return rises(mid)

        return bisect(lo, hi, midpoint, rise)

    monkeypatch.setattr(est, "_bisect", counted)
    return steps


def _fit_fields(fit: est.MleFit) -> list[bytes]:
    return [getattr(fit, field).tobytes() for field in ("a", "b", "loglik", "converged")]


def _fallback_from(h: np.ndarray, b: np.ndarray) -> est.MleFit:
    k = h.shape[0]
    fit = est.MleFit(a=np.empty(k), b=np.empty(k), loglik=np.empty(k),
                     converged=np.zeros(k, dtype=bool), refused=np.zeros(k, dtype=np.int8))
    with np.errstate(all="ignore"):
        est._bisection_fallback(h, b, fit, np.arange(k))
    return fit


def test_bisections_that_stop_at_their_fixed_point_fit_the_bits_of_all_120_steps(monkeypatch):
    steps = _counted_bisections(monkeypatch)
    matrices = [*_stress_matrices(), B_TO_ZERO]
    stopped = [_fit_fields(est.fit_logistic_rows(h)) for h in matrices]
    assert steps and max(steps) < 120  # the fallback ran, and stopped early
    # No row fit_logistic_rows iterates has been seen to reach a NaN bracket:
    # a non-finite row is refused at its moment start. So the fallback starts
    # here from a NaN scale, whose scale bracket is NaN, beside a finite row.
    rows = np.array([[1.0, 4.0, 2.0, 9.0], [0.5, 3.0, 2.0, 2.5]])
    start = np.array([np.nan, 1.0])
    steps.clear()
    nan_bracket = _fit_fields(_fallback_from(rows, start))
    assert 120 in steps  # a batch holding a NaN bracket runs every step
    monkeypatch.setattr(est, "_solve_location", oracles.solve_location_120)
    monkeypatch.setattr(est, "_solve_scale", oracles.solve_scale_120)
    assert stopped == [_fit_fields(est.fit_logistic_rows(h)) for h in matrices]
    assert nan_bracket == _fit_fields(_fallback_from(rows, start))


def test_study_sized_fallback_bisections_stop_within_64_steps(monkeypatch):
    steps = _counted_bisections(monkeypatch)
    for i, n in enumerate((5, 10, 20)):
        h = co.sample_coalescence_times_block(n, co.ExactFiniteT(1.0, 0.0, 40.0),
                                              RngStream(11).child(i), 2000)
        est.fit_logistic_rows(h)
    assert steps and max(steps) <= 64


def test_mle_rows_counts_unconverged_fits():
    h = _stress_matrices()[1]
    values, fit = est.mle_rows(h)
    assert fit.unconverged == 0 and fit.refusal() is None
    assert np.array_equal(values, 1.0 / est.fit_logistic_rows(h).b)


def test_kernels_return_their_estimates_and_fit_and_the_record_keeps_the_fit():
    h = np.array([[3.0, 1.0, 2.0, 0.5], [2.0, 2.0, 2.0, 2.0], [0.0, 1e200, 3e199, 1e199]])
    assert est.MatrixEstimates._fields == ("estimates", "raw", "kept", "fits")
    for tag, method in est.METHODS.items():
        if not method.pairwise:
            values, fit = method.rows(h[[0, 2]])
            assert values.shape == (2,) and (fit is None) == (tag == est.LENGTHS)
    found = est.estimates_for_matrix(h, None, (est.RAW, est.LENGTHS, est.MLE))
    assert list(found.fits) == [est.MLE] and found.kept.tolist() == [True, False, True]
    # the fit is over the kept rows: it refuses the 1e200 row, now its second
    assert found.fits[est.MLE].refused.tolist() == [0, 1]
    assert np.isnan(found.estimates[est.MLE][1]) and found.fits[est.MLE].unconverged == 0


# ---------------------------------------------------------------------------
# a tree's Lengths refusals and the reciprocal-unbiasedness identity
# ---------------------------------------------------------------------------


def test_estimate_validation():
    with pytest.raises(SampleTooSmall, match="lengths estimator needs n >= 3"):
        est.estimate_lengths(2, treeio.parse_newick_trees("(A:1,B:1);")[0])
    with pytest.raises(DegenerateTimes, match="internal branch length is zero"):
        est.estimate_lengths(3, treeio.parse_newick_trees("((A:1,B:1):0,C:1);")[0])
    # an internal length this small makes n / L_in overflow
    with pytest.raises(ValueError, match="estimate must be positive and finite"):
        est.estimate_lengths(3, treeio.parse_newick_trees("((A:1,B:1):1e-320,C:1);")[0])


def test_reciprocal_of_raw_estimate_is_unbiased_for_c_inv_over_r():
    from bdgrowth.calibration import c_inv_closed_form

    n, r = 10, 1.0
    h = co.sample_coalescence_times_block(n, co.FixedNLimit(r=r), RngStream(7), 100_000)
    recip = est.pairwise_abs_sum_rows(h) / ((n - 1) * (n - 2))
    se = recip.std() / math.sqrt(recip.size)
    assert abs(recip.mean() - c_inv_closed_form(n) / r) < 3 * se
