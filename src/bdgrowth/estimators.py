"""Point estimators of the net growth rate from coalescence times.

Four families:

  pairwise      r_hat = c(n) * (n-1)(n-2) / sum_{i,j} (H_i - H_j)^+, the
                order-statistic estimator; the double sum equals the sum of
                |H_i - H_j| over unordered pairs and is evaluated with a
                sorted prefix-sum identity in O(n log n).

  lengths       r_hat = n / L_in, where L_in is the total internal branch
                length. On branch-ordered times
                L_in = (max_i H_i - H_1) + sum_{i<=n-2} (H_i - H_{i+1})^+;
                on a real tree the topology-true edge sum is used instead,
                since files carry no branch order.

  mle           fit H_i = a + b*U_i with U_i standard logistic by maximum
                likelihood (damped Newton on (a, log b), bisection fallback)
                and report r_hat = 1/b. fit_logistic_rows runs the fit on
                every row of a height matrix at once in numpy, and a row's
                result does not depend on the other rows; fit_logistic is
                its one-row case.

  raw (c = 1)   the pairwise estimator without calibration, used as the
                pivot for confidence intervals.

METHODS maps each method tag to its row kernel and constant; the validated
single-input functions compute through the kernels' one-row case.

Pairwise and MLE estimates are permutation invariant; the branch-order
internal length deliberately is not.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .coalescent import CoalescenceTimes
from .errors import BranchOrderUnknown, DegenerateTimes, NonConvergence, SampleTooSmall
from .treeio import SampleTree, tree_internal_branch_length

# Tags that single-input estimates report; METHODS below lists every tag.
LENGTHS, MLE, RAW = "Lengths", "MLE", "RawUnitConstant"

_GRAD_TOL = 1e-8  # on the dimensionless gradient in (a, log b)
_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


@dataclass(frozen=True)
class Estimate:
    method: str
    point: float
    ci: tuple[float, float] | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not (self.point > 0 and math.isfinite(self.point)):
            raise ValueError("estimate must be positive and finite")
        if self.ci is not None:
            lo, hi = self.ci
            if not (0 < lo < hi):
                raise ValueError("confidence interval must satisfy 0 < lower < upper")


@dataclass(frozen=True)
class MleFit:
    """A logistic fit: floats from fit_logistic, per-row arrays from
    fit_logistic_rows."""

    a: float | np.ndarray
    b: float | np.ndarray
    loglik: float | np.ndarray
    converged: bool | np.ndarray


def pairwise_abs_sum_rows(matrix: np.ndarray) -> np.ndarray:
    """Sum of |v_i - v_j| over unordered pairs, for each row of a (k, m) matrix.

    Sorted prefix-sum identity: with v_(1) <= ... <= v_(m), the sum equals
    sum_k (2k - m - 1) * v_(k). The test suite checks this against the
    O(m^2) double loop, exactly on integer-valued instances.
    """
    m = matrix.shape[1]
    srt = np.sort(matrix, axis=1)
    coef = 2.0 * np.arange(1, m + 1) - m - 1
    out = srt @ coef
    out[srt[:, 0] == srt[:, -1]] = 0.0
    return out


def pairwise_abs_sum(values: np.ndarray) -> float:
    """pairwise_abs_sum_rows of a single row."""
    return float(pairwise_abs_sum_rows(np.asarray(values)[None, :])[0])


def raw_pairwise_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise c = 1 pairwise estimate (n-1)(n-2) / sum |H_i - H_j|; NaN
    where that sum is not positive (all heights equal)."""
    m = matrix.shape[1]  # n - 1
    d_sum = pairwise_abs_sum_rows(matrix)
    return np.divide(m * (m - 1), d_sum, out=np.full_like(d_sum, np.nan), where=d_sum > 0)


def raw_pairwise_point(times: CoalescenceTimes) -> float:
    """The c = 1 pairwise estimate (n-1)(n-2) / d_sum of one sample."""
    if times.n < 3:
        raise SampleTooSmall("pairwise statistic needs n >= 3")
    raw = float(raw_pairwise_rows(times.as_array()[None, :])[0])
    if math.isnan(raw):
        raise DegenerateTimes("all coalescence times are equal")
    return raw


def estimate_pairwise(times: CoalescenceTimes, c: float = 1.0, method: str = RAW) -> Estimate:
    """Pairwise estimate with constant c; exactly c times the raw estimate."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("constant must be positive and finite")
    return Estimate(method=method, point=c * raw_pairwise_point(times))


def internal_branch_length_rows(matrix: np.ndarray) -> np.ndarray:
    """Branch-order internal length for each row of a (replicates, n-1) matrix:
    (max_i H_i - H_1) plus the positive parts of consecutive differences."""
    d = matrix[:, :-1] - matrix[:, 1:]
    return (matrix.max(axis=1) - matrix[:, 0]) + np.where(d > 0, d, 0.0).sum(axis=1)


def internal_branch_length(times: CoalescenceTimes) -> float:
    """internal_branch_length_rows of one sample.

    Order-sensitive by design, so order-statistic inputs are rejected.
    """
    if times.n < 3:
        raise SampleTooSmall("internal branch length needs n >= 3")
    if not times.branch_order:
        raise BranchOrderUnknown(
            "times carry only order statistics; use the tree-based internal length"
        )
    return float(internal_branch_length_rows(times.as_array()[None, :])[0])


def lengths_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise lengths estimate n / L_in."""
    return (matrix.shape[1] + 1.0) / internal_branch_length_rows(matrix)


def estimate_lengths(times: CoalescenceTimes, tree: SampleTree | None = None) -> Estimate:
    """Lengths-based estimate n / L_in.

    Without a tree, L_in comes from the branch-ordered times (point-process
    formula). With the parsed tree that times were extracted from, it is the
    tree's topology-true edge sum, since real trees never come with branch
    order; times.n is then the tree's tip count.
    """
    if tree is None:
        length = internal_branch_length(times)
    else:
        if times.n < 3:
            raise SampleTooSmall("lengths estimator needs n >= 3")
        length = tree_internal_branch_length(tree)
    if length <= 0:
        raise DegenerateTimes("internal branch length is zero")
    return Estimate(method=LENGTHS, point=times.n / length)


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
    or after 60 iterations. Stopped rows leave the arrays, so while every
    row takes its full step no indexing happens at all.
    """
    a = np.add.reduce(h, axis=1) / h.shape[1]
    d = h - a[:, None]
    s = np.log(np.sqrt((d * d).sum(axis=1) / (h.shape[1] - 1)) * _SQRT3_OVER_PI)
    b = np.exp(s)
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
                moved[hit] = True
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
    bits whatever other rows share its matrix.
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


def fit_logistic(h: np.ndarray) -> MleFit:
    """fit_logistic_rows of a single sample."""
    fit = fit_logistic_rows(np.asarray(h, dtype=float)[None, :])
    return MleFit(a=float(fit.a[0]), b=float(fit.b[0]), loglik=float(fit.loglik[0]),
                  converged=bool(fit.converged[0]))


def mle_rows(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise logistic-fit estimate 1/b, and how many rows did not converge."""
    fit = fit_logistic_rows(matrix)
    return 1.0 / fit.b, int(np.count_nonzero(~fit.converged))


def estimate_mle(times: CoalescenceTimes) -> tuple[Estimate, MleFit]:
    """Logistic-fit estimate of the growth rate, r_hat = 1/b."""
    if times.n < 3:
        raise SampleTooSmall("MLE needs n >= 3")
    h = times.as_array()
    if h.min() == h.max():
        raise DegenerateTimes("all coalescence times are equal")
    fit = fit_logistic(h)
    return Estimate(method=MLE, point=1.0 / fit.b), fit


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A method tag's row kernel ((k, n-1) heights -> k estimates at c = 1
    and the number of rows whose estimate is a fit that did not converge),
    its validated one-input estimate at c = 1 (from the times, and the tree
    when the input was Newick) and the ConstantsRow field holding its c
    (None: c = 1). Pairwise methods scale one shared pivot and carry its
    confidence interval."""

    rows: Callable[[np.ndarray], tuple[np.ndarray, int]]
    one: Callable[[CoalescenceTimes, SampleTree | None], float]
    column: str | None = None
    pairwise: bool = False

    def constant(self, row) -> float:
        return 1.0 if self.column is None else getattr(row, self.column)


def _raw_one(times, tree):
    return raw_pairwise_point(times)


def _lengths_one(times, tree):
    return estimate_lengths(times, tree).point


def _mle_one(times, tree):
    return estimate_mle(times)[0].point


def _closed_form(kernel: Callable[[np.ndarray], np.ndarray]):
    """A closed-form row kernel in the table's form: no row has a fit to converge."""
    return lambda matrix: (kernel(matrix), 0)


def _pairwise(column: str | None = None) -> Method:
    return Method(_closed_form(raw_pairwise_rows), _raw_one, column, pairwise=True)


METHODS: dict[str, Method] = {
    "MSE": _pairwise("c_mse"),
    "Bias": _pairwise("c_bias"),
    "Inv": _pairwise("c_inv"),
    LENGTHS: Method(_closed_form(lengths_rows), _lengths_one),
    MLE: Method(mle_rows, _mle_one),
    RAW: _pairwise(),
}
