"""Sampler correctness: closed-form CDFs against quadrature, inverse
transforms against oracle roots, and empirical distributions against the
analytic CDFs via Kolmogorov-Smirnov."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

import oracles
from bdgrowth import coalescent as co
from bdgrowth import estimators as est
from bdgrowth.errors import NonFiniteTimes
from bdgrowth.rng import RngStream, open_uniform

PARAMS = co.ExactFiniteT(lam=2.0, mu=1.0, t=5.0)

KS_N = 100_000
KS_BOUND = 1.36 * math.sqrt(2.0 / KS_N)


# ---------------------------------------------------------------------------
# delta_t, the Y latent's weight (an oracle: the sampler draws Q)
# ---------------------------------------------------------------------------


def test_delta_tends_to_one_for_tiny_t():
    p = co.ExactFiniteT(1.0, 0.0, 1e-12)
    assert oracles.delta_t(p) == pytest.approx(1.0, abs=1e-9)


def test_delta_pure_birth_is_exp_minus_t():
    for t in (0.5, 1.0, 3.0, 10.0):
        p = co.ExactFiniteT(1.0, 0.0, t)
        assert oracles.delta_t(p) == pytest.approx(math.exp(-t), rel=1e-12)


def test_delta_worked_value():
    assert oracles.delta_t(co.ExactFiniteT(2.0, 1.0, 1.0)) == pytest.approx(0.22540, abs=1e-5)


def test_delta_stays_in_unit_interval():
    for lam, mu, t in [(1, 0, 1), (2, 1.5, 40), (10, 9.99, 0.01), (0.5, 0.1, 100)]:
        d = oracles.delta_t(co.ExactFiniteT(lam, mu, t))
        assert 0 < d < 1


def test_params_validation():
    with pytest.raises(ValueError):
        co.ExactFiniteT(1.0, 1.0, 1.0)  # not supercritical
    with pytest.raises(ValueError):
        co.ExactFiniteT(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        co.ExactFiniteT(1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# analytic CDFs must agree with quadrature of the densities before any use
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,delta", [(2, 1.0), (5, 0.2254), (17, 1e-6)])
def test_y_cdf_matches_quadrature(n, delta):
    for y in (0.05, 0.3, 0.5, 0.9, 0.999):
        val, err = integrate.quad(lambda x: oracles.y_density(x, n, delta), 0.0, y)
        assert abs(val - oracles.y_cdf(y, n, delta)) < 1e-8


@pytest.mark.parametrize("y", [0.1, 0.5, 0.5001, 0.9])
def test_h_cdf_matches_quadrature(y):
    for t in (0.25, 1.0, 2.5, 4.9):
        val, err = integrate.quad(lambda x: oracles.h_exact_density(x, y, PARAMS), 0.0, t)
        assert abs(val - oracles.h_exact_cdf(t, y, PARAMS)) < 1e-8


def test_h_cdf_support_endpoints():
    for y in (0.2, 0.5, 0.8):
        assert oracles.h_exact_cdf(0.0, y, PARAMS) == pytest.approx(0.0, abs=1e-12)
        assert oracles.h_exact_cdf(PARAMS.t, y, PARAMS) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_q_cdf_matches_quadrature(n):
    for q in (0.1, 0.5, 1.0, 4.0, 20.0):
        val, err = integrate.quad(lambda x: oracles.q_density(x, n), 0.0, q)
        assert abs(val - oracles.q_cdf(q, n)) < 1e-8


@pytest.mark.parametrize("q", [0.2, 1.0, 5.0])
def test_u_cdf_matches_quadrature(q):
    lo = -math.log(q)
    for u in (lo + 0.05, lo + 1.0, 2.0, 6.0):
        val, err = integrate.quad(lambda x: oracles.u_given_q_density(x, q), lo, u)
        assert abs(val - oracles.u_given_q_cdf(u, q)) < 1e-8


# ---------------------------------------------------------------------------
# inverse transforms
# ---------------------------------------------------------------------------


def test_y_quantile_collapses_when_delta_is_one():
    u = np.array([0.1, 0.5, 0.9])
    assert oracles.y_quantile(u, 4, 1.0) == pytest.approx(u ** 0.25, rel=1e-14)


def test_y_quantile_median_matches_quadrature_root():
    n, delta = 5, 0.2254
    target = optimize.brentq(
        lambda y: integrate.quad(lambda x: oracles.y_density(x, n, delta), 0, y)[0] - 0.5,
        1e-9, 1 - 1e-9,
    )
    assert oracles.y_quantile(0.5, n, delta) == pytest.approx(target, rel=1e-9)


def test_q_quantile_hits_one_at_half_to_the_n():
    for n in (2, 5, 11):
        assert co.q_quantile(0.5 ** n, n) == pytest.approx(1.0, rel=1e-12)


def test_quantiles_at_support_edges():
    assert oracles.y_quantile(1.0 - 1e-14, 5, 0.3) == pytest.approx(1.0, abs=1e-12)
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
        lambda t: integrate.quad(lambda x: oracles.h_exact_density(x, y, PARAMS), 0, t)[0] - 0.5,
        1e-9, PARAMS.t - 1e-9,
    )
    q = oracles.q_of_y(y, PARAMS)
    assert co.h_exact_quantile(0.5, q, PARAMS) == pytest.approx(target, rel=1e-9)


def test_h_quantile_continuous_at_removable_singularity():
    # at the q where y = r/lam, b = r - y*lam vanishes and the height law is
    # the truncated exponential; the quantile has no branch there and is
    # smooth across it
    q0 = oracles.q_of_y(PARAMS.r / PARAMS.lam, PARAMS)
    e_cap = math.exp(-PARAMS.r * PARAMS.t)
    for u in (1e-9, 0.1, 0.5, 0.9, 1 - 1e-9):
        limit = -math.log1p(u * (e_cap - 1.0)) / PARAMS.r
        assert co.h_exact_quantile(u, q0, PARAMS) == pytest.approx(limit, rel=1e-14)
        for eps in (1e-8, -1e-8):
            assert co.h_exact_quantile(u, q0 * (1 + eps), PARAMS) == pytest.approx(limit,
                                                                                   rel=1e-7)


def test_h_quantile_brackets_support():
    for u in (1e-12, 0.5, 1 - 1e-12):
        for y in (0.05, 0.5, 0.95):
            t = co.h_exact_quantile(u, oracles.q_of_y(y, PARAMS), PARAMS)
            assert 0.0 <= t <= PARAMS.t


# ---------------------------------------------------------------------------
# empirical distributions (fixed seeds keep these deterministic)
# ---------------------------------------------------------------------------


def _ks_ok(draws, cdf):
    result = stats.kstest(draws, cdf)
    assert result.pvalue > 0.05, f"KS p={result.pvalue}"
    assert result.statistic < KS_BOUND


def test_sample_y_distribution():
    draws = oracles.sample_y(5, 0.2254, RngStream(11), size=KS_N)
    _ks_ok(draws, lambda x: oracles.y_cdf(x, 5, 0.2254))


def test_sample_h_exact_distribution():
    draws = oracles.sample_h_exact(0.5, PARAMS, RngStream(12), size=KS_N)
    _ks_ok(draws, lambda x: oracles.h_exact_cdf(x, 0.5, PARAMS))


def test_sample_q_distribution():
    draws = co.sample_q(5, RngStream(13).generator(), size=KS_N)
    _ks_ok(draws, lambda x: oracles.q_cdf(x, 5))


def test_sample_u_given_q_distribution():
    draws = oracles.sample_u_given_q(1.0, RngStream(14), size=KS_N)
    _ks_ok(draws, lambda x: oracles.u_given_q_cdf(x, 1.0))


def test_q_over_one_plus_q_mean():
    # v = q/(1+q) has CDF v^n, so E[v] = n/(n+1)
    n = 7
    q = co.sample_q(n, RngStream(15).generator(), size=1_000_000)
    v = q / (1.0 + q)
    se = v.std() / math.sqrt(v.size)
    assert abs(v.mean() - n / (n + 1)) < 3 * se


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_exact_times_lie_strictly_inside_support():
    for params in (PARAMS, co.ExactFiniteT(1.0, 0.0, 1.0)):
        block = co.sample_coalescence_times_block(
            6, params, RngStream(16), 2000
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
        h = co.sample_coalescence_times_block(5, PARAMS, RngStream(19), count)
        assert h.shape == (count, 4)
    with pytest.raises(ValueError):
        co.sample_coalescence_times_block(1, PARAMS, RngStream(19), 1)
    with pytest.raises(ValueError):
        co.sample_coalescence_times_block(5, PARAMS, RngStream(19), 0)


def test_exchangeable_coordinates():
    # branch heights are conditionally i.i.d., so any two coordinates agree
    # in distribution
    block = co.sample_coalescence_times_block(6, PARAMS, RngStream(20), 50_000)
    result = stats.ks_2samp(block[:, 0], block[:, 3])
    assert result.pvalue > 0.01


@pytest.mark.parametrize("n", [5, 20])
def test_exact_agrees_with_fixed_n_limit_at_t40(n):
    # at r*T = 40 the finite-T law is numerically indistinguishable from its
    # limit; compare one coordinate across independent replicates
    params = co.ExactFiniteT(1.0, 0.0, 40.0)
    exact = co.sample_coalescence_times_block(n, params, RngStream(21).child(n), 200_000)[:, 0]
    limit = co.sample_coalescence_times_block(n, co.FixedNLimit(r=1.0, t=40.0), RngStream(22).child(n), 200_000)[:, 0]
    d = stats.ks_2samp(exact, limit)
    assert d.statistic < 0.01


@pytest.mark.parametrize("lam, mu, t, n, seed", [(1.0, 0.5, 6.0, 10, 31), (2.0, 1.0, 3.0, 5, 32),
                                                 (1.0, 0.0, 3.0, 8, 33)])
def test_exact_sampler_agrees_with_a_forward_simulation(lam, mu, t, n, seed):
    # r*T <= 3, where the exact law is far from its T -> infinity limit; the
    # sorted depths suffice, since the pivot is permutation invariant
    gen = np.random.default_rng(seed)
    forward = np.array([oracles.forward_heights(lam, mu, t, n, gen) for _ in range(2000)])
    exact = np.sort(co.sample_coalescence_times_block(n, co.ExactFiniteT(lam, mu, t),
                                                      RngStream(seed), 200_000), axis=1)
    bound = 1.36 * math.sqrt(1 / len(forward) + 1 / len(exact))  # KS_BOUND's two-sample form
    for name, column in (("root", -1), ("lowest", 0), ("middle", (n - 1) // 2)):
        statistic = stats.ks_2samp(forward[:, column], exact[:, column]).statistic
        assert statistic < bound, name
    pivots = (est.raw_pairwise_rows(forward), est.raw_pairwise_rows(exact))
    assert stats.ks_2samp(*pivots).statistic < bound, "raw pivot"


@pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (2.0, 1.5), (1e-300, 0.0)])
@pytest.mark.parametrize("rt", [1e-9, 1e-3, 40.0, 700.0, 745.0, 800.0, 5000.0])
def test_exact_heights_are_finite_and_inside_the_support_at_every_rt(lam, mu, rt):
    # exp(-rT) goes subnormal near r*T = 708 and underflows at 745; the
    # heights do not notice, and from r*T = 40 on they are the T -> infinity
    # law: the mean raw estimate is that law's, 1.288176*r, whatever the
    # scale of the rates
    params = co.ExactFiniteT(lam, mu, rt / (lam - mu))
    h = co.sample_coalescence_times_block(10, params, RngStream(1), 20_000)
    assert np.all((h > 0.0) & (h < params.t))
    if rt >= 40:
        assert est.raw_pairwise_rows(h).mean() / params.r == pytest.approx(1.288176, abs=1e-6)
    if rt >= 745:
        limit = co.sample_coalescence_times_block(10, co.FixedNLimit(params.r, params.t),
                                                  RngStream(2), 20_000)
        assert stats.ks_2samp(h[:, 0], limit[:, 0]).pvalue > 0.01


def extended_h_quantile(u, q, params):
    """h_exact_quantile's closed form evaluated in np.longdouble, with its
    P = 1 - exp(-r*h)."""
    ld = np.longdouble
    r, lam, t = ld(params.r), ld(params.lam), ld(params.t)
    u, q = u.astype(ld), q.astype(ld)
    e_cap, e_rest = np.exp(-r * t), -np.expm1(-r * t)
    d = r / (lam * e_rest + r * e_cap)
    a = lam * d * q / (1 + e_cap * d * q)
    den = e_cap * a * e_rest * (1 - u) + r * (u + e_cap * (1 - u))
    p = r * u * e_rest / den
    near_t = t - np.log1p(e_rest * (1 - u) * (a * e_rest + r) / den) / r
    return np.where(p < 0.5, -np.log1p(-np.minimum(p, ld(0.5))) / r, near_t), p


@pytest.mark.parametrize("lam, mu, t", [(1, 0, 40), (2, 1, 5), (1, 0.999, 0.01), (1, 0, 1e-9),
                                        (10, 9.99, 0.01), (3, 0.5, 1e-3), (1, 0, 745),
                                        (1, 0, 5000), (1e-3, 0, 2e5)])
def test_h_quantile_matches_its_closed_form_in_extended_precision(lam, mu, t):
    eps = np.finfo(float).eps
    if np.finfo(np.longdouble).eps >= eps:
        pytest.skip("np.longdouble is no wider than a double here")
    params = co.ExactFiniteT(lam, mu, t)
    u, q = np.meshgrid([2.0 ** -53, 1e-9, 1e-3, 0.3, 0.5, 0.7, 1 - 1e-9, 1 - 2.0 ** -53],
                       [1e-6, 0.1, 1.0, 10.0, 1e6, 1e16])
    ref, p = extended_h_quantile(u, q, params)
    # each reading is exact at its end: near 0 to ulps of h, near T to ulps of T
    scale = np.where(p < 0.5, ref, params.t)
    assert np.all(np.abs(co.h_exact_quantile(u, q, params) - ref) <= 4 * eps * scale)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_streams_reproduce_identical_draws():
    a = co.sample_coalescence_times_block(9, PARAMS, RngStream(77, (3,)), 1)
    b = co.sample_coalescence_times_block(9, PARAMS, RngStream(77, (3,)), 1)
    assert np.array_equal(a, b)


def test_distinct_stream_paths_differ():
    a = co.sample_coalescence_times_block(9, PARAMS, RngStream(77).child(0), 1)
    b = co.sample_coalescence_times_block(9, PARAMS, RngStream(77).child(1), 1)
    assert not np.any(a == b)


def one_shot_heights(n, regime, rng, count):
    """The regime's latent column, then its full (count, n-1) uniform matrix
    through the regime's transform."""
    gen = rng.generator()
    if isinstance(regime, co.ExactFiniteT):
        q = co.sample_q(n, gen, size=(count, 1))
        return co.h_exact_quantile(open_uniform(gen, (count, n - 1)), q, regime)
    if isinstance(regime, co.FixedNLimit):
        q = co.sample_q(n, gen, size=(count, 1))
        u = co.u_given_q_quantile(open_uniform(gen, (count, n - 1)), q)
        return co.fixed_n_heights(q, u, regime.r, regime.t)
    w = -np.log(open_uniform(gen, (count, 1)))
    u = co.logistic_quantile(open_uniform(gen, (count, n - 1)))
    return co.large_n_heights(w, u, n, regime.r, regime.t)


@pytest.mark.parametrize("regime", [PARAMS, co.FixedNLimit(1.0),
                                    co.FixedNLimit(1.0, 40.0), co.LargeN(1.0, 30.0)],
                         ids=["exact", "fixed-n", "fixed-n-T", "large-n"])
@pytest.mark.parametrize("n", [2, 20, 100])
def test_height_chunks_stack_to_the_one_shot_draw(regime, n):
    step = max(1, co._CHUNK_HEIGHTS // (n - 1))
    count = 2 * step + 7
    chunks = [draw() for draw in co.height_draws(n, regime, RngStream(23), count)]
    assert [len(c) for c in chunks] == [step, step, 7]
    reference = one_shot_heights(n, regime, RngStream(23), count)
    assert np.array_equal(np.concatenate(chunks), reference)
    assert np.array_equal(co.sample_coalescence_times_block(n, regime, RngStream(23), count),
                          reference)


def test_check_finite_rows_counts_every_bad_row():
    good, bad = np.ones((3, 2)), np.array([[1.0, np.nan], [1.0, 2.0], [np.inf, 1.0]])
    matrix = np.concatenate([good, bad, good, bad[:1]])
    assert (co.nonfinite_rows(matrix), co.nonfinite_rows(good)) == (3, 0)
    with pytest.raises(NonFiniteTimes, match="^3 of 10 rows hold non-finite"):
        co.check_finite_rows(matrix)
    co.check_finite_rows(good)


def test_block_sampler_deterministic():
    a = co.sample_coalescence_times_block(5, co.FixedNLimit(1.0), RngStream(5), 100)
    b = co.sample_coalescence_times_block(5, co.FixedNLimit(1.0), RngStream(5), 100)
    assert np.array_equal(a, b)
