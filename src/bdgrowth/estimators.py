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
                and report r_hat = 1/b.

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
    a: float
    b: float
    loglik: float
    converged: bool


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


def estimate_lengths(source: CoalescenceTimes | SampleTree) -> Estimate:
    """Lengths-based estimate n / L_in.

    Accepts branch-ordered times (point-process formula) or a parsed tree
    (topology-true edge sum); real trees never come with branch order.
    """
    if isinstance(source, SampleTree):
        n = source.n_tips
        if n < 3:
            raise SampleTooSmall("lengths estimator needs n >= 3")
        length = tree_internal_branch_length(source)
    else:
        n = source.n
        length = internal_branch_length(source)
    if length <= 0:
        raise DegenerateTimes("internal branch length is zero")
    return Estimate(method=LENGTHS, point=n / length)


# ---------------------------------------------------------------------------
# Logistic location-scale maximum likelihood
# ---------------------------------------------------------------------------


def _loglik_and_derivs(h: np.ndarray, a: float, s: float):
    """Log-likelihood plus gradient and Hessian pieces at (a, log b = s).

    With z = (h - a)/b and t = tanh(z/2):
      loglik     = sum(-s - z - 2*log(1 + exp(-z)))
      b * dl/da  = sum(t)
      dl/ds      = sum(z*t) - m
      d2l/da2    = -sum(w)/b^2,          w = (1 - t^2)/2
      d2l/dads   = -(sum(t) + sum(w*z))/b
      d2l/ds2    = -sum(z*t) - sum(w*z^2)
    """
    b = math.exp(s)
    z = (h - a) / b
    t = np.tanh(0.5 * z)
    w = 0.5 * (1.0 - t * t)
    ll = float(np.sum(-z - 2.0 * np.logaddexp(0.0, -z))) - h.size * s
    sum_t = float(np.sum(t))
    sum_zt = float(np.sum(z * t))
    sum_w = float(np.sum(w))
    sum_wz = float(np.sum(w * z))
    sum_wzz = float(np.sum(w * z * z))
    ga_scaled = sum_t
    gs = sum_zt - h.size
    h_aa = -sum_w / (b * b)
    h_as = -(sum_t + sum_wz) / b
    h_ss = -sum_zt - sum_wzz
    return ll, ga_scaled, gs, h_aa, h_as, h_ss


def _loglik(h: np.ndarray, a: float, s: float) -> float:
    z = (h - a) / math.exp(s)
    return float(np.sum(-z - 2.0 * np.logaddexp(0.0, -z))) - h.size * s


def _solve_location(h: np.ndarray, b: float) -> float:
    # sum tanh((h - a)/(2b)) is strictly decreasing in a with a sign change
    # inside [min h, max h]
    lo, hi = float(h.min()), float(h.max())
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.sum(np.tanh((h - mid) / (2.0 * b))) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_scale(h: np.ndarray, a: float, b_start: float) -> float:
    # sum z*tanh(z/2) - m is strictly decreasing in b; positive as b -> 0
    def phi(b):
        z = (h - a) / b
        return float(np.sum(z * np.tanh(0.5 * z))) - h.size

    lo = hi = b_start
    for _ in range(200):
        if phi(lo) > 0.0:
            break
        lo *= 0.25
    for _ in range(200):
        if phi(hi) < 0.0:
            break
        hi *= 4.0
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if phi(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def fit_logistic(h: np.ndarray) -> MleFit:
    """Maximum-likelihood (a, b) for h_i = a + b*U_i, U_i standard logistic.

    Moment initialization (b0 = sd * sqrt(3)/pi), damped Newton on
    (a, log b), and a coordinate-bisection fallback on the stationarity
    equations if Newton stalls. Convergence means the dimensionless gradient
    (sum tanh(z/2), sum z*tanh(z/2) - m) has max-norm below 1e-8.
    """
    h = np.asarray(h, dtype=float)
    a = float(np.mean(h))
    sd = float(np.std(h, ddof=1))
    s = math.log(sd * _SQRT3_OVER_PI)

    ll, ga, gs, h_aa, h_as, h_ss = _loglik_and_derivs(h, a, s)
    converged = False
    for _ in range(60):
        if max(abs(ga), abs(gs)) < _GRAD_TOL:
            converged = True
            break
        b = math.exp(s)
        g1, g2 = ga / b, gs
        det = h_aa * h_ss - h_as * h_as
        if not (det > 0.0 and h_aa < 0.0):
            break
        da = -(h_ss * g1 - h_as * g2) / det
        ds = -(h_aa * g2 - h_as * g1) / det
        if not (math.isfinite(da) and math.isfinite(ds)):
            break
        step = 1.0
        improved = False
        for _ in range(40):
            trial = _loglik(h, a + step * da, s + step * ds)
            if math.isfinite(trial) and trial >= ll:
                a, s = a + step * da, s + step * ds
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        ll, ga, gs, h_aa, h_as, h_ss = _loglik_and_derivs(h, a, s)

    if not converged:
        # coordinate bisection on the two stationarity equations
        b = math.exp(s)
        for _ in range(100):
            a = _solve_location(h, b)
            b = _solve_scale(h, a, b)
            s = math.log(b)
            ll, ga, gs, *_ = _loglik_and_derivs(h, a, s)
            if max(abs(ga), abs(gs)) < _GRAD_TOL:
                converged = True
                break

    b = math.exp(s)
    if not (math.isfinite(ll) and math.isfinite(b) and b > 0):
        raise NonConvergence(f"optimizer left the feasible region (a={a}, b={b})")
    return MleFit(a=a, b=b, loglik=ll, converged=converged)


def mle_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise logistic-fit estimate 1/b."""
    return np.array([1.0 / fit_logistic(row).b for row in matrix])


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
    """A method tag's row kernel ((k, n-1) heights -> k estimates at c = 1),
    its validated one-input estimate at c = 1 (from the times, and the tree
    when the input was Newick) and the ConstantsRow field holding its c
    (None: c = 1). Pairwise methods scale one shared pivot and carry its
    confidence interval."""

    rows: Callable[[np.ndarray], np.ndarray]
    one: Callable[[CoalescenceTimes, SampleTree | None], float]
    column: str | None = None
    pairwise: bool = False

    def constant(self, row) -> float:
        return 1.0 if self.column is None else getattr(row, self.column)


def _raw_one(times, tree):
    return raw_pairwise_point(times)


def _lengths_one(times, tree):  # a tree has a topology-true internal length
    return estimate_lengths(times if tree is None else tree).point


def _mle_one(times, tree):
    return estimate_mle(times)[0].point


def _pairwise(column: str | None = None) -> Method:
    return Method(raw_pairwise_rows, _raw_one, column, pairwise=True)


METHODS: dict[str, Method] = {
    "MSE": _pairwise("c_mse"),
    "Bias": _pairwise("c_bias"),
    "Inv": _pairwise("c_inv"),
    LENGTHS: Method(lengths_rows, _lengths_one),
    MLE: Method(mle_rows, _mle_one),
    RAW: _pairwise(),
}
