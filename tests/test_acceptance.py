"""Acceptance gate: every quantitative claim the package must reproduce,
one test per criterion, each printing a PASS/FAIL line (run with -s to see
them). Reference values are the published two-decimal constants and the
qualitative orderings of the simulation study; tolerances are pinned here.

Fixed seeds make every criterion deterministic. Full module runtime is a
couple of minutes on a laptop.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from bdgrowth import calibration as cal
import oracles as co
from bdgrowth import confidence as conf
import oracles as treeio
from bdgrowth import harness
from bdgrowth import estimators as est
from bdgrowth.rng import RngStream

SEED = 20260808

# reference constants: n -> (c_inv, c_mse, c_bias, 1/q_0.025, 1/q_0.975)
REFERENCE = {
    5: (0.80, 0.355, 0.59, 1.73, 0.21),
    6: (0.82, 0.49, 0.66, 1.62, 0.27),
    7: (0.83, 0.58, 0.71, 1.53, 0.32),
    8: (0.84, 0.63, 0.74, 1.49, 0.36),
    9: (0.85, 0.67, 0.76, 1.46, 0.40),
    10: (0.86, 0.70, 0.78, 1.43, 0.44),
    11: (0.86, 0.72, 0.80, 1.40, 0.45),
    12: (0.87, 0.74, 0.81, 1.38, 0.47),
    13: (0.88, 0.76, 0.82, 1.36, 0.49),
    14: (0.88, 0.77, 0.83, 1.35, 0.51),
    15: (0.89, 0.79, 0.84, 1.33, 0.52),
    16: (0.89, 0.80, 0.84, 1.32, 0.53),
    17: (0.89, 0.81, 0.85, 1.31, 0.55),
    18: (0.90, 0.82, 0.86, 1.30, 0.56),
    19: (0.90, 0.82, 0.86, 1.29, 0.57),
    20: (0.90, 0.83, 0.87, 1.28, 0.58),
    30: (0.93, 0.87, 0.92, 1.22, 0.65),
    40: (0.94, 0.90, 0.93, 1.20, 0.71),
    50: (0.95, 0.92, 0.93, 1.18, 0.74),
    60: (0.95, 0.93, 0.95, 1.16, 0.76),
    70: (0.96, 0.94, 0.96, 1.15, 0.78),
    80: (0.96, 0.94, 0.96, 1.14, 0.79),
    90: (0.96, 0.95, 0.96, 1.13, 0.80),
    100: (0.97, 0.95, 0.96, 1.13, 0.81),
}

C_TOL = 0.005 + 1e-9  # two-decimal rounding half-width (n = 6 sits exactly on it)
MC_C_TOL = 0.01
MC_Q_TOL = 0.02


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def constants_rows():
    """Monte Carlo rows at 10^6 replicates for the sizes the gate checks."""
    return {n: cal.build_constants_row(n, 1_000_000, SEED) for n in (5, 10, 15, 20, 40)}


@pytest.fixture(scope="module")
def study_result(constants_rows):
    config = harness.StudyConfig(
        ns=(5, 10, 20), rs=(0.5, 1.0), t=40.0, regime="exact",
        replicates=10_000, seed=SEED,
    )
    return harness.run_study(config, constants_rows)


def test_criterion_1_closed_form_constants():
    worst = max(abs(cal.c_inv_closed_form(n) - ref[0]) for n, ref in REFERENCE.items())
    report(1, worst <= C_TOL,
           f"closed-form c_inv matches all {len(REFERENCE)} tabulated values "
           f"(worst |diff| = {worst:.4f}, tol {C_TOL:.4g})")


def test_criterion_2_monte_carlo_constants(constants_rows):
    checks = []
    for n in (5, 10, 15, 20, 40):
        row = constants_rows[n]
        ref = REFERENCE[n]
        checks += [
            (f"c_mse({n})", row.c_mse, ref[1], MC_C_TOL),
            (f"c_bias({n})", row.c_bias, ref[2], MC_C_TOL),
            (f"1/q_lo({n})", row.inv_q_lo, ref[3], MC_Q_TOL),
            (f"1/q_hi({n})", row.inv_q_hi, ref[4], MC_Q_TOL),
        ]
    failures = [f"{name}: {got:.4f} vs {want} (tol {tol})"
                for name, got, want, tol in checks if abs(got - want) > tol]
    report(2, not failures,
           f"{len(checks)} Monte Carlo constants at 10^6 replicates within "
           f"tolerance" + ("" if not failures else f"; failed: {failures}"))


def test_criterion_3_moment_identities():
    checks = cal.moment_identities_check(1_000_000, RngStream(SEED).child(3))
    targets = [
        ("E[(U1-U2)^+]", checks.e_plus, 1.0),
        ("E[((U1-U2)^+)^2]", checks.e_plus_sq, math.pi ** 2 / 3.0),
        ("E[(U1-U2)^+(U2-U3)^+]", checks.e_chain, 2.0 - math.pi ** 2 / 6.0),
        ("E[(U1-U2)^+(U1-U3)^+]", checks.e_shared_top, 2.0),
    ]
    failures = [f"{name}: {got:.4f} vs {want:.4f}"
                for name, got, want in targets if abs(got - want) > 0.02]
    report(3, not failures,
           "logistic positive-part moments within 0.02 of (1, pi^2/3, "
           "2 - pi^2/6, 2)" + ("" if not failures else f"; failed: {failures}"))


def test_criterion_4_coverage(constants_rows):
    results = {}
    for n in (5, 10, 20):
        spec = conf.ConfidenceSpec.from_constants_row(constants_rows[n])
        results[n] = conf.coverage_study(
            n, 1.0, 40.0, 1000, "exact", RngStream(SEED).child(400, n), spec=spec
        )
    ok = all(0.93 <= c <= 0.97 for c in results.values())
    report(4, ok, f"finite-T coverage at 1000 replicates in [0.93, 0.97]: {results}")


def test_criterion_5_internal_length_limit():
    h = co.sample_coalescence_times_block(10, co.FixedNLimit(r=1.0),
                                          RngStream(SEED).child(5), 100_000)
    mean = float(est.internal_branch_length_rows(h).mean())
    target = 10.0 * (1.0 - 1.0 / 9.0)
    rel = abs(mean - target) / target
    report(5, rel < 0.02,
           f"mean internal length {mean:.4f} within 2% of {target:.4f} "
           f"(rel err {rel:.4f})")


def test_criterion_6_order_averaging_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        h = rng.random(4) * rng.uniform(0.5, 20.0)
        avg = np.mean([
            est.internal_branch_length_rows(np.array([p]))[0]
            for p in itertools.permutations(h)
        ])
        rhs = (h.max() - h.mean()) + est.pairwise_abs_sum_rows(h[None, :])[0] / 4.0
        worst = max(worst, abs(avg - rhs) / rhs)
    report(6, worst <= 1e-12,
           f"order-averaged internal length equals its order-statistic form "
           f"on 100 instances (worst rel err {worst:.2e})")


def test_criterion_7_asymptotic_variance():
    rep = harness.asymptotics_check(500, 1.0, 10_000, RngStream(SEED).child(7), t=40.0)
    ok = 0.64 <= rep.var_scaled_inv <= 0.78 and 0.9 <= rep.var_scaled_lengths <= 1.1
    ok = ok and rep.ks_pvalue_inv > 0.01
    report(7, ok,
           f"scaled variances at n=500: calibrated pairwise "
           f"{rep.var_scaled_inv:.4f} (target 0.710, band [0.64, 0.78]), "
           f"lengths {rep.var_scaled_lengths:.4f} (target 1.0, band [0.9, 1.1]), "
           f"normality p = {rep.ks_pvalue_inv:.3f}")


def test_criterion_8_study_orderings(study_result):
    by_cell = {}
    for m in study_result.metrics:
        by_cell.setdefault((m.n, m.r), {})[m.estimator] = m
    failures = []
    for (n, r), cell in sorted(by_cell.items()):
        mse_min = min(cell, key=lambda tag: cell[tag].mse)
        mae_min = min(cell, key=lambda tag: cell[tag].mae)
        bias = cell["Bias"].bias
        if mse_min != "MSE":
            failures.append(f"n={n},r={r}: MSE minimized by {mse_min}")
        if mae_min != "Bias":
            failures.append(f"n={n},r={r}: MAE minimized by {mae_min}")
        if abs(bias) >= 0.03 * r:
            failures.append(f"n={n},r={r}: |bias(Bias)| = {abs(bias):.4f}")
    report(8, not failures,
           "10^4-replicate study at T=40: MSE-calibrated estimator has the "
           "lowest MSE, bias-calibrated the lowest MAE and |bias| < 0.03r in "
           "all 6 cells" + ("" if not failures else f"; failed: {failures}"))


def test_criterion_9_constant_sweep(constants_rows):
    grid = np.arange(0.3, 1.3001, 0.01)
    sweep = harness.constant_sweep(10, 0.5, 40.0, grid, 10_000,
                                   RngStream(SEED).child(9))
    d_mse = abs(sweep.argmin_mse_c - constants_rows[10].c_mse)
    d_bias = abs(sweep.argmin_bias_c - constants_rows[10].c_bias)
    report(9, d_mse <= 0.05 and d_bias <= 0.05,
           f"sweep argmins: MSE at c={sweep.argmin_mse_c:.3f} "
           f"(|d|={d_mse:.3f} from c_mse(10)), |bias| at "
           f"c={sweep.argmin_bias_c:.3f} (|d|={d_bias:.3f} from c_bias(10))")


def test_criterion_10a_sampler_ks_suite():
    n_draws = 100_000
    params = co.BirthDeathParams(2.0, 1.0, 5.0)
    suite = [
        ("Y", co.sample_y(5, 0.2254, RngStream(SEED).child(10, 0), size=n_draws),
         lambda x: co.y_cdf(x, 5, 0.2254)),
        ("H|Y", co.sample_h_exact(0.5, params, RngStream(SEED).child(10, 1), size=n_draws),
         lambda x: co.h_exact_cdf(x, 0.5, params)),
        ("Q", co.sample_q(5, RngStream(SEED).child(10, 2), size=n_draws),
         lambda x: co.q_cdf(x, 5)),
        ("U|Q", co.sample_u_given_q(1.0, RngStream(SEED).child(10, 3), size=n_draws),
         lambda x: co.u_given_q_cdf(x, 1.0)),
    ]
    pvalues = {name: stats.kstest(draws, cdf).pvalue for name, draws, cdf in suite}
    report(10, all(p > 0.05 for p in pvalues.values()),
           f"sampler KS tests vs analytic CDFs at 10^5 draws: "
           f"{ {k: round(v, 3) for k, v in pvalues.items()} }")


def test_criterion_10b_pairwise_formula_exactness():
    rng = np.random.default_rng(SEED)
    bad = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 50))
        v = rng.integers(0, 10**6, size=m).astype(float)
        direct = np.abs(v[:, None] - v).sum() / 2.0  # O(m^2) definition
        if est.pairwise_abs_sum_rows(v[None, :])[0] != direct:
            bad += 1
    report(10, bad == 0,
           f"sorted prefix-sum equals the direct O(n^2) sum exactly on "
           f"10^4 integer-valued instances ({bad} mismatches)")


def test_criterion_10c_tree_round_trips():
    rng = np.random.default_rng(SEED)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 9))
        h = rng.integers(1, 2**12, size=n - 1) / 2.0**8  # dyadic: exact sums
        tree = treeio.build_cpp_tree(h, float(h.max()) + 1.0)
        if treeio.tree_internal_branch_length(tree) != est.internal_branch_length_rows(h[None, :])[0]:
            bad += 1
            continue
        back = treeio.extract_coalescence_times(tree)
        if sorted(back) != sorted(h):
            bad += 1
            continue
        text = treeio.serialize_newick(tree)
        again = treeio.extract_coalescence_times(treeio.parse_newick(text))
        if sorted(again) != sorted(h):
            bad += 1
    report(10, bad == 0,
           f"point-process tree internal length matches the branch-order "
           f"formula exactly and times survive build/extract/serialize round "
           f"trips on 10^4 instances with n <= 8 ({bad} failures)")
