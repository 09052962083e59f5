"""Point estimators of the net growth rate from coalescence times.

Four families, each a row-independent kernel on a (k, n-1) height matrix:

  pairwise      r_hat = c(n) * (n-1)(n-2) / sum_{i,j} (H_i - H_j)^+, the
                order-statistic estimator; the double sum equals the sum of
                |H_i - H_j| over unordered pairs, which on a sorted row
                v_(1) <= ... <= v_(m) is the gap form
                sum_k k(m-k) * (v_(k+1) - v_(k)): O(n log n), no term below
                0, and positive exactly when the row is not constant.

  lengths       r_hat = n / L_in, where L_in is the total internal branch
                length. On branch-ordered times
                L_in = (max_i H_i - H_1) + sum_{i<=n-2} (H_i - H_{i+1})^+;
                on a real tree the topology-true edge sum is used instead,
                since files carry no branch order.

  mle           fit H_i = a + b*U_i with U_i standard logistic by maximum
                likelihood (damped Newton on (a, log b), bisection fallback)
                and report r_hat = 1/b.

  raw (c = 1)   the pairwise estimator without calibration, used as the
                pivot for confidence intervals.

METHODS maps each method tag to its row kernel and constant;
estimates_for_matrix and simulated_estimates run it.

Pairwise and MLE estimates are permutation invariant; the branch-order
internal length deliberately is not.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coalescent import Regime, finite_chunks, height_chunks
from .errors import DegenerateTimes, NonConvergence, SampleTooSmall
from .treeio import TreeRecord, tree_internal_branch_length

# Tags other modules single out; METHODS below lists every tag.
LENGTHS, MLE, RAW = "Lengths", "MLE", "RawUnitConstant"

_GRAD_TOL = 1e-8  # on the dimensionless gradient in (a, log b)
_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


@dataclass(frozen=True)
class MleFit:
    """Per-row logistic fits from fit_logistic_rows."""

    a: np.ndarray
    b: np.ndarray
    loglik: np.ndarray
    converged: np.ndarray


def pairwise_abs_sum_rows(matrix: np.ndarray) -> np.ndarray:
    """Sum of |v_i - v_j| over unordered pairs, for each row of a (k, m) matrix.

    Gap form sum_k k(m-k) * (v_(k+1) - v_(k)) on the sorted row: every
    operation is elementwise or a per-row sum, so a row gives the same bits
    alone as inside any matrix. The test suite checks it against the O(m^2)
    double loop, exactly on integer-valued instances.
    """
    m = matrix.shape[1]
    gaps = np.diff(np.sort(matrix, axis=1), axis=1)
    k = np.arange(1.0, m)
    gaps *= k * (m - k)
    return gaps.sum(axis=1)


def raw_pairwise_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise c = 1 pairwise estimate (n-1)(n-2) / sum |H_i - H_j|; NaN
    where that sum is not positive (all heights equal)."""
    m = matrix.shape[1]  # n - 1
    d_sum = pairwise_abs_sum_rows(matrix)
    return np.divide(m * (m - 1), d_sum, out=np.full_like(d_sum, np.nan), where=d_sum > 0)


def internal_branch_length_rows(matrix: np.ndarray) -> np.ndarray:
    """Branch-order internal length for each row of a (replicates, n-1) matrix:
    (max_i H_i - H_1) plus the positive parts of consecutive differences."""
    d = matrix[:, :-1] - matrix[:, 1:]
    return (matrix.max(axis=1) - matrix[:, 0]) + np.where(d > 0, d, 0.0).sum(axis=1)


def lengths_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise lengths estimate n / L_in."""
    return (matrix.shape[1] + 1.0) / internal_branch_length_rows(matrix)


def estimate_lengths(n: int, tree: TreeRecord) -> float:
    """Lengths estimate n / L_in of a read tree with n tips, where L_in is
    the tree's topology-true internal edge sum: real trees never come with
    branch order."""
    if n < 3:
        raise SampleTooSmall("lengths estimator needs n >= 3")
    length = tree_internal_branch_length(tree)
    if length <= 0:
        raise DegenerateTimes("internal branch length is zero")
    point = n / length
    if not (point > 0 and math.isfinite(point)):
        raise ValueError("estimate must be positive and finite")
    return point


# ---------------------------------------------------------------------------
# Logistic location-scale maximum likelihood, every row of a matrix at once
# ---------------------------------------------------------------------------

_NEWTON_ITERATIONS = 60
_HALVINGS = 0.5 ** np.arange(1, 40)  # step lengths tried after a full Newton step fails
_FALLBACK_ROUNDS = 100
_BISECTIONS = 120
_BRACKET_TRIES = 200


def _loglik(z: np.ndarray, s):
    """sum(-z - 2*log(1 + exp(-z))) - m*s over the last axis, z = (h - a)/b, s = log b."""
    nz = -z
    return (nz - 2.0 * np.logaddexp(0.0, nz)).sum(axis=-1) - z.shape[-1] * s


def _score_and_hessian(z: np.ndarray, b: np.ndarray):
    """Gradient and negated Hessian in (a, log b) for each row of z = (h - a)/b.

    With t = tanh(z/2) and w = (1 - t^2)/2:
      b * dl/da    = sum(t)
      dl/ds        = sum(z*t) - m
      -d2l/da2     = sum(w)/b^2
      -d2l/dads    = (sum(t) + sum(w*z))/b
      -d2l/ds2     = sum(z*t) + sum(w*z^2)
    """
    # the five terms share one buffer, so one reduction gives all row sums
    terms = np.empty((5,) + z.shape)
    t, zt, w, wz, wzz = terms
    np.tanh(0.5 * z, out=t)
    np.multiply(z, t, out=zt)
    np.multiply(t, t, out=w)
    np.subtract(1.0, w, out=w)
    np.multiply(0.5, w, out=w)
    np.multiply(w, z, out=wz)
    np.multiply(wz, z, out=wzz)
    sum_t, sum_zt, sum_w, sum_wz, sum_wzz = np.add.reduce(terms, axis=-1)
    return sum_t, sum_zt - z.shape[1], sum_w / (b * b), (sum_t + sum_wz) / b, sum_zt + sum_wzz


def _solve_location(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sum tanh((h - a)/(2b)) is strictly decreasing in a with a sign change
    # inside [min h, max h]
    lo, hi = h.min(axis=1), h.max(axis=1)
    two_b = (2.0 * b)[:, None]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        up = np.tanh((h - mid[:, None]) / two_b).sum(axis=1) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _solve_scale(h: np.ndarray, a: np.ndarray, b_start: np.ndarray) -> np.ndarray:
    # sum z*tanh(z/2) - m is strictly decreasing in b; positive as b -> 0
    d = h - a[:, None]

    def phi(b):
        z = d / b[:, None]
        return (z * np.tanh(0.5 * z)).sum(axis=1) - h.shape[1]

    def bracket(b, outside, factor):
        # multiply b by factor until phi(b) is on the wanted side, row by row
        pending = np.ones(b.size, dtype=bool)
        for _ in range(_BRACKET_TRIES):
            pending &= ~outside(phi(b))
            if not pending.any():
                break
            b = np.where(pending, b * factor, b)
        return b

    lo = bracket(b_start, lambda v: v > 0.0, 0.25)
    hi = bracket(b_start, lambda v: v < 0.0, 4.0)
    for _ in range(_BISECTIONS):
        mid = np.sqrt(lo * hi)
        up = phi(mid) >= 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.sqrt(lo * hi)


def _converged(ga: np.ndarray, gs: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(ga), np.abs(gs)) < _GRAD_TOL


def _all(mask: np.ndarray) -> bool:
    return np.count_nonzero(mask) == mask.size  # a fraction of mask.all()'s overhead


def _newton(h: np.ndarray, fit: MleFit) -> None:
    """Damped Newton on (a, log b) from the moment start, every row at once.

    Writes each row's last iterate into fit. A row stops when its gradient
    is below tolerance (converged), when the Hessian is not negative
    definite or the step is not finite, when neither the full step nor any
    of 39 halvings gives a finite log-likelihood at least the current one,
    when the halving taken leaves (a, log b) unchanged, or after 60
    iterations. Stopped rows leave the arrays, so while every row takes its
    full step no indexing happens at all.
    """
    a = np.add.reduce(h, axis=1) / h.shape[1]
    d = h - a[:, None]
    s = np.log(np.sqrt((d * d).sum(axis=1) / (h.shape[1] - 1)) * _SQRT3_OVER_PI)
    b = np.exp(s)
    bb = b * b  # the Hessian divides by it: where it over- or underflows no step fits
    refused = ~(np.isfinite(bb) & (bb > 0.0))
    if refused.any():
        raise NonConvergence(f"moment start out of range in {int(refused.sum())} of "
                             f"{h.shape[0]} rows (first: b={b[np.argmax(refused)]})")
    z = d / b[:, None]
    ll = _loglik(z, s)
    rows = np.arange(h.shape[0])  # the fit index of each row still moving
    for _ in range(_NEWTON_ITERATIONS):
        ga, gs, n_aa, n_as, n_ss = _score_and_hessian(z, b)
        done = _converged(ga, gs)
        if _all(done):
            break
        g1 = ga / b
        det = n_aa * n_ss - n_as * n_as
        da = (n_ss * g1 - n_as * gs) / det
        ds = (n_aa * gs - n_as * g1) / det
        newton = ~done & (det > 0.0) & (n_aa > 0.0) & np.isfinite(da) & np.isfinite(ds)
        a_new, s_new = a + da, s + ds
        b_new = np.exp(s_new)
        z = (h - a_new[:, None]) / b_new[:, None]
        ll_new = _loglik(z, s_new)
        moved = newton & np.isfinite(ll_new) & (ll_new >= ll)
        if not _all(moved):
            retry = np.flatnonzero(newton & ~moved)
            if retry.size:
                # every halving of each failed step at once; the first accepted wins
                a_h = a[retry, None] + _HALVINGS * da[retry, None]
                s_h = s[retry, None] + _HALVINGS * ds[retry, None]
                b_h = np.exp(s_h)
                z_h = (h[retry, None, :] - a_h[:, :, None]) / b_h[:, :, None]
                ll_h = _loglik(z_h, s_h)
                ok = np.isfinite(ll_h) & (ll_h >= ll[retry, None])
                found = np.flatnonzero(ok.any(axis=1))
                j = ok[found].argmax(axis=1)
                hit = retry[found]
                a_new[hit], s_new[hit], b_new[hit] = a_h[found, j], s_h[found, j], b_h[found, j]
                ll_new[hit], z[hit] = ll_h[found, j], z_h[found, j]
                # a halving that leaves (a, s) bitwise unchanged is a fixed point: stop there
                moved[hit] = (a_new[hit] != a[hit]) | (s_new[hit] != s[hit])
            stop = ~moved
            out = rows[stop]
            fit.a[out], fit.b[out], fit.loglik[out] = a[stop], b[stop], ll[stop]
            fit.converged[out] = done[stop]
            if _all(stop):
                return
            rows, h, z = rows[moved], h[moved], z[moved]
            a_new, s_new, b_new, ll_new = a_new[moved], s_new[moved], b_new[moved], ll_new[moved]
        a, s, b, ll = a_new, s_new, b_new, ll_new
    else:
        done = False  # the iteration budget ran out before the gradient was checked
    fit.a[rows], fit.b[rows], fit.loglik[rows] = a, b, ll
    fit.converged[rows] = done


def _bisection_fallback(h: np.ndarray, b: np.ndarray, fit: MleFit, rows: np.ndarray) -> None:
    """Coordinate bisection on the two stationarity equations for the given
    fit rows, starting from scale b, at most 100 rounds; writes each row's
    last iterate into fit."""
    for _ in range(_FALLBACK_ROUNDS):
        a = _solve_location(h, b)
        b = _solve_scale(h, a, b)
        s = np.log(b)
        b_s = np.exp(s)
        z = (h - a[:, None]) / b_s[:, None]
        ga, gs, *_ = _score_and_hessian(z, b_s)
        done = _converged(ga, gs)
        fit.a[rows], fit.b[rows], fit.loglik[rows] = a, b_s, _loglik(z, s)
        fit.converged[rows] = done
        keep = ~done
        rows, h, b = rows[keep], h[keep], b[keep]
        if not rows.size:
            return


def fit_logistic_rows(matrix: np.ndarray) -> MleFit:
    """Maximum-likelihood (a, b) for h_i = a + b*U_i, U_i standard logistic,
    for each row of a (k, m) matrix; returns per-row arrays.

    Moment initialization (b0 = sd * sqrt(3)/pi), damped Newton on
    (a, log b), and a coordinate-bisection fallback on the stationarity
    equations for the rows where Newton stops short. Convergence means the
    dimensionless gradient (sum tanh(z/2), sum z*tanh(z/2) - m) has
    max-norm below 1e-8. Every step is row-wise, so a row's fit is the same
    bits whatever other rows share its matrix. NonConvergence is raised when
    a row leaves the feasible region, and at once when b0*b0 is not finite
    and positive.
    """
    h = np.asarray(matrix, dtype=float)
    k = h.shape[0]
    fit = MleFit(a=np.empty(k), b=np.empty(k), loglik=np.empty(k),
                 converged=np.zeros(k, dtype=bool))
    with np.errstate(all="ignore"):  # trial steps may overflow; such trials are rejected
        _newton(h, fit)
        if not _all(fit.converged):
            rows = np.flatnonzero(~fit.converged)
            _bisection_fallback(h[rows], fit.b[rows], fit, rows)
    bad = ~(np.isfinite(fit.loglik) & (fit.b > 0.0) & (fit.b < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonConvergence(f"optimizer left the feasible region in {int(bad.sum())} of "
                             f"{k} rows (first: a={fit.a[i]}, b={fit.b[i]})")
    return fit


def mle_rows(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise logistic-fit estimate 1/b, and how many rows did not converge."""
    fit = fit_logistic_rows(matrix)
    return 1.0 / fit.b, int(np.count_nonzero(~fit.converged))


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A method tag's row kernel ((k, n-1) heights -> k estimates at c = 1
    and the number of rows whose estimate is a fit that did not converge)
    and the ConstantsRow field holding its c (None: c = 1). Pairwise methods
    have no kernel: they scale the raw pivot and carry its interval."""

    rows: Callable[[np.ndarray], tuple[np.ndarray, int]] | None = None
    column: str | None = None

    @property
    def pairwise(self) -> bool:
        return self.rows is None

    def constant(self, row) -> float:
        return 1.0 if self.column is None else getattr(row, self.column)


METHODS: dict[str, Method] = {
    "MSE": Method(column="c_mse"),
    "Bias": Method(column="c_bias"),
    "Inv": Method(column="c_inv"),
    LENGTHS: Method(lambda matrix: (lengths_rows(matrix), 0)),  # closed form: nothing to converge
    MLE: Method(mle_rows),
    RAW: Method(),
}

# the five estimators the study compares; the c = 1 pivot only scores intervals
ALL_ESTIMATORS = tuple(tag for tag in METHODS if tag != RAW)


def estimates_for_matrix(
    h: np.ndarray, row, estimators=ALL_ESTIMATORS
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, int]]:
    """Per-replicate estimates for a (replicates, n-1) height matrix, with
    the constants of ConstantsRow row (None when no method needs one).

    Returns the estimate arrays and the raw c = 1 pivot (which the pairwise
    methods scale), both over the rows kept, and, for each method with any,
    the number of kept rows whose fit did not converge (their estimate is
    the fit's last iterate). Rows where all heights coincide would make
    every estimator blow up, so they are dropped; callers report the count.
    Every kernel is row-independent, so a row's estimates are the same bits
    in any matrix.
    """
    raw = raw_pairwise_rows(h)
    keep = ~np.isnan(raw)
    if not keep.all():
        h, raw = h[keep], raw[keep]
    out: dict[str, np.ndarray] = {}
    unconverged: dict[str, int] = {}
    for tag in estimators:
        method = METHODS[tag]
        values, failed = (raw, 0) if method.pairwise else method.rows(h)
        if failed:
            unconverged[tag] = failed
        out[tag] = method.constant(row) * values
    return out, raw, unconverged


def simulated_estimates(
    n: int, regime: Regime, rng, count: int, row, estimators=ALL_ESTIMATORS
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, int], int]:
    """estimates_for_matrix on the count replicates a regime draws from rng,
    one row chunk of height_chunks at a time, never the whole matrix.

    Returns the estimates and raw pivot over the kept rows, the unconverged
    counts summed over chunks, and the number of rows dropped. finite_chunks
    refuses non-finite rows before a kernel sees them. The kernels are
    row-independent, so the chunk size changes no bit of the result.
    """
    outs, raws, fails = zip(*(estimates_for_matrix(h, row, estimators)
                              for h in finite_chunks(height_chunks(n, regime, rng, count))))
    raw = np.concatenate(raws)
    estimates = {tag: np.concatenate([out[tag] for out in outs]) for tag in estimators}
    unconverged = {tag: total for tag in estimators
                   if (total := sum(fail.get(tag, 0) for fail in fails))}
    return estimates, raw, unconverged, count - raw.size
