"""Sampler correctness: closed-form CDFs against quadrature, inverse
transforms against oracle roots, and empirical distributions against the
analytic CDFs via Kolmogorov-Smirnov."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from bdgrowth import coalescent as co
from bdgrowth.rng import RngStream

PARAMS = co.BirthDeathParams(lam=2.0, mu=1.0, t=5.0)

KS_N = 100_000
KS_BOUND = 1.36 * math.sqrt(2.0 / KS_N)


# ---------------------------------------------------------------------------
# delta_t
# ---------------------------------------------------------------------------


def test_delta_tends_to_one_for_tiny_t():
    p = co.BirthDeathParams(1.0, 0.0, 1e-12)
    assert co.delta_t(p) == pytest.approx(1.0, abs=1e-9)


def test_delta_pure_birth_is_exp_minus_t():
    for t in (0.5, 1.0, 3.0, 10.0):
        p = co.BirthDeathParams(1.0, 0.0, t)
        assert co.delta_t(p) == pytest.approx(math.exp(-t), rel=1e-12)


def test_delta_worked_value():
    assert co.delta_t(co.BirthDeathParams(2.0, 1.0, 1.0)) == pytest.approx(0.22540, abs=1e-5)


def test_delta_underflows_to_smallest_positive_not_zero():
    p = co.BirthDeathParams(1.0, 0.0, 1e6)
    d = co.delta_t(p)
    assert d > 0.0
    assert d <= 5e-324


def test_delta_stays_in_unit_interval():
    for lam, mu, t in [(1, 0, 1), (2, 1.5, 40), (10, 9.99, 0.01), (0.5, 0.1, 100)]:
        d = co.delta_t(co.BirthDeathParams(lam, mu, t))
        assert 0 < d < 1


def test_params_validation():
    with pytest.raises(ValueError):
        co.BirthDeathParams(1.0, 1.0, 1.0)  # not supercritical
    with pytest.raises(ValueError):
        co.BirthDeathParams(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        co.BirthDeathParams(1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# analytic CDFs must agree with quadrature of the densities before any use
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,delta", [(2, 1.0), (5, 0.2254), (17, 1e-6)])
def test_y_cdf_matches_quadrature(n, delta):
    for y in (0.05, 0.3, 0.5, 0.9, 0.999):
        val, err = integrate.quad(lambda x: co.y_density(x, n, delta), 0.0, y)
        assert abs(val - co.y_cdf(y, n, delta)) < 1e-8


@pytest.mark.parametrize("y", [0.1, 0.5, 0.5001, 0.9])
def test_h_cdf_matches_quadrature(y):
    for t in (0.25, 1.0, 2.5, 4.9):
        val, err = integrate.quad(lambda x: co.h_exact_density(x, y, PARAMS), 0.0, t)
        assert abs(val - co.h_exact_cdf(t, y, PARAMS)) < 1e-8


def test_h_cdf_support_endpoints():
    for y in (0.2, 0.5, 0.8):
        assert co.h_exact_cdf(0.0, y, PARAMS) == pytest.approx(0.0, abs=1e-12)
        assert co.h_exact_cdf(PARAMS.t, y, PARAMS) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_q_cdf_matches_quadrature(n):
    for q in (0.1, 0.5, 1.0, 4.0, 20.0):
        val, err = integrate.quad(lambda x: co.q_density(x, n), 0.0, q)
        assert abs(val - co.q_cdf(q, n)) < 1e-8


@pytest.mark.parametrize("q", [0.2, 1.0, 5.0])
def test_u_cdf_matches_quadrature(q):
    lo = -math.log(q)
    for u in (lo + 0.05, lo + 1.0, 2.0, 6.0):
        val, err = integrate.quad(lambda x: co.u_given_q_density(x, q), lo, u)
        assert abs(val - co.u_given_q_cdf(u, q)) < 1e-8


# ---------------------------------------------------------------------------
# inverse transforms
# ---------------------------------------------------------------------------


def test_y_quantile_collapses_when_delta_is_one():
    u = np.array([0.1, 0.5, 0.9])
    assert co.y_quantile(u, 4, 1.0) == pytest.approx(u ** 0.25, rel=1e-14)


def test_y_quantile_median_matches_quadrature_root():
    n, delta = 5, 0.2254
    target = optimize.brentq(
        lambda y: integrate.quad(lambda x: co.y_density(x, n, delta), 0, y)[0] - 0.5,
        1e-9, 1 - 1e-9,
    )
    assert co.y_quantile(0.5, n, delta) == pytest.approx(target, rel=1e-9)


def test_q_quantile_hits_one_at_half_to_the_n():
    for n in (2, 5, 11):
        assert co.q_quantile(0.5 ** n, n) == pytest.approx(1.0, rel=1e-12)


def test_quantiles_at_support_edges():
    assert co.y_quantile(1.0 - 1e-14, 5, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert co.q_quantile(1e-300, 4) == pytest.approx(0.0, abs=1e-12)


def test_u_given_q_approaches_standard_logistic_for_large_q():
    v = np.array([0.05, 0.3, 0.5, 0.9])
    assert co.u_given_q_quantile(v, 1e12) == pytest.approx(
        co.logistic_quantile(v), abs=1e-9
    )


def test_u_quantile_worked_value_and_lower_endpoint():
    assert co.u_given_q_quantile(0.5, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
    for q in (0.3, 2.0):
        assert co.u_given_q_quantile(1e-14, q) == pytest.approx(-math.log(q), abs=1e-9)


def test_h_quantile_median_matches_quadrature_root():
    y = 0.5
    target = optimize.brentq(
        lambda t: integrate.quad(lambda x: co.h_exact_density(x, y, PARAMS), 0, t)[0] - 0.5,
        1e-9, PARAMS.t - 1e-9,
    )
    assert co.h_exact_quantile(0.5, y, PARAMS) == pytest.approx(target, rel=1e-9)


def test_h_quantile_continuous_at_removable_singularity():
    # y = r/lam makes b = 0; the general branch just outside the switch
    # threshold must agree with the limiting branch
    y0 = PARAMS.r / PARAMS.lam
    for u in (0.1, 0.5, 0.9):
        limit = co.h_exact_quantile(u, y0, PARAMS)
        for eps in (1e-8, -1e-8):
            general = co.h_exact_quantile(u, y0 * (1 + eps), PARAMS)
            assert general == pytest.approx(limit, rel=1e-6)


def test_h_quantile_brackets_support():
    for u in (1e-12, 0.5, 1 - 1e-12):
        for y in (0.05, 0.5, 0.95):
            t = co.h_exact_quantile(u, y, PARAMS)
            assert 0.0 <= t <= PARAMS.t


# ---------------------------------------------------------------------------
# empirical distributions (fixed seeds keep these deterministic)
# ---------------------------------------------------------------------------


def _ks_ok(draws, cdf):
    result = stats.kstest(draws, cdf)
    assert result.pvalue > 0.05, f"KS p={result.pvalue}"
    assert result.statistic < KS_BOUND


def test_sample_y_distribution():
    draws = co.sample_y(5, 0.2254, RngStream(11), size=KS_N)
    _ks_ok(draws, lambda x: co.y_cdf(x, 5, 0.2254))


def test_sample_h_exact_distribution():
    draws = co.sample_h_exact(0.5, PARAMS, RngStream(12), size=KS_N)
    _ks_ok(draws, lambda x: co.h_exact_cdf(x, 0.5, PARAMS))


def test_sample_q_distribution():
    draws = co.sample_q(5, RngStream(13), size=KS_N)
    _ks_ok(draws, lambda x: co.q_cdf(x, 5))


def test_sample_u_given_q_distribution():
    draws = co.sample_u_given_q(1.0, RngStream(14), size=KS_N)
    _ks_ok(draws, lambda x: co.u_given_q_cdf(x, 1.0))


def test_q_over_one_plus_q_mean():
    # v = q/(1+q) has CDF v^n, so E[v] = n/(n+1)
    n = 7
    q = co.sample_q(n, RngStream(15), size=1_000_000)
    v = q / (1.0 + q)
    se = v.std() / math.sqrt(v.size)
    assert abs(v.mean() - n / (n + 1)) < 3 * se


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_exact_times_lie_strictly_inside_support():
    for params in (PARAMS, co.BirthDeathParams(1.0, 0.0, 1.0)):
        block = co.sample_coalescence_times_block(
            6, co.ExactFiniteT(params), RngStream(16), 2000
        )
        assert np.all(block > 0.0)
        assert np.all(block < params.t)


def test_fixed_n_without_t_is_relative_and_negative_axis():
    h = co.sample_coalescence_times_block(8, co.FixedNLimit(r=1.0), RngStream(17), 2000)
    assert np.all(h < 0)  # log Q + U > 0 puts relative heights below zero


def test_fixed_n_with_t_stays_below_t():
    block = co.sample_coalescence_times_block(
        8, co.FixedNLimit(r=1.0, t=40.0), RngStream(18), 2000
    )
    assert np.all(block < 40.0)


def test_large_n_forced_latents_give_flat_heights():
    # W = 1 and U_i = 0 collapse every height to T - log(n)/r
    h = co.large_n_heights(1.0, np.zeros(9), 10, 1.0, 40.0)
    assert h == pytest.approx(np.full(9, 40.0 - math.log(10.0)), rel=1e-14)


def test_fixed_n_heights_formula():
    assert co.fixed_n_heights(2.0, np.array([0.5]), 2.0, 10.0)[0] == pytest.approx(
        10.0 - (math.log(2.0) + 0.5) / 2.0, rel=1e-14
    )


def test_sample_times_structure_and_validation():
    for count in (1, 3):
        h = co.sample_coalescence_times_block(5, co.ExactFiniteT(PARAMS), RngStream(19), count)
        assert h.shape == (count, 4)
    with pytest.raises(ValueError):
        co.sample_coalescence_times_block(1, co.ExactFiniteT(PARAMS), RngStream(19), 1)
    with pytest.raises(ValueError):
        co.sample_coalescence_times_block(5, co.ExactFiniteT(PARAMS), RngStream(19), 0)


def test_exchangeable_coordinates():
    # branch heights are conditionally i.i.d., so any two coordinates agree
    # in distribution
    block = co.sample_coalescence_times_block(6, co.ExactFiniteT(PARAMS), RngStream(20), 50_000)
    result = stats.ks_2samp(block[:, 0], block[:, 3])
    assert result.pvalue > 0.01


@pytest.mark.parametrize("n", [5, 20])
def test_exact_agrees_with_fixed_n_limit_at_t40(n):
    # at r*T = 40 the finite-T law is numerically indistinguishable from its
    # limit; compare one coordinate across independent replicates
    params = co.BirthDeathParams(1.0, 0.0, 40.0)
    exact = co.sample_coalescence_times_block(n, co.ExactFiniteT(params), RngStream(21).child(n), 200_000)[:, 0]
    limit = co.sample_coalescence_times_block(n, co.FixedNLimit(r=1.0, t=40.0), RngStream(22).child(n), 200_000)[:, 0]
    d = stats.ks_2samp(exact, limit)
    assert d.statistic < 0.01


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_streams_reproduce_identical_draws():
    a = co.sample_coalescence_times_block(9, co.ExactFiniteT(PARAMS), RngStream(77, (3,)), 1)
    b = co.sample_coalescence_times_block(9, co.ExactFiniteT(PARAMS), RngStream(77, (3,)), 1)
    assert np.array_equal(a, b)


def test_distinct_stream_paths_differ():
    a = co.sample_coalescence_times_block(9, co.ExactFiniteT(PARAMS), RngStream(77).child(0), 1)
    b = co.sample_coalescence_times_block(9, co.ExactFiniteT(PARAMS), RngStream(77).child(1), 1)
    assert not np.any(a == b)


def test_block_sampler_deterministic():
    a = co.sample_coalescence_times_block(5, co.FixedNLimit(1.0), RngStream(5), 100)
    b = co.sample_coalescence_times_block(5, co.FixedNLimit(1.0), RngStream(5), 100)
    assert np.array_equal(a, b)
