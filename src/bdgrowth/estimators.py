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

METHODS maps each method tag to its row kernel, which returns the
estimates and its fit, and its constant; estimates_for_matrix runs it on a
height matrix, and simulated_estimates on a simulation's row chunks, on
every usable CPU with the same bits.

Pairwise and MLE estimates are permutation invariant; the branch-order
internal length deliberately is not.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .coalescent import (
    Regime,
    chunk_rows,
    height_draws,
    keep_freed_chunks,
    nonfinite_rows,
    refuse_nonfinite_rows,
)
from .errors import DegenerateTimes, NonConvergence, SampleTooSmall
from .rng import each_item, thread_count
from .treeio import TreeRecord, tree_internal_branch_length

# Tags other modules single out; METHODS below lists every tag.
LENGTHS, MLE, RAW = "Lengths", "MLE", "RawUnitConstant"

_GRAD_TOL = 1e-8  # on the dimensionless gradient in (a, log b)
_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi


class MleFit(NamedTuple):
    """Per-row logistic fits from fit_logistic_rows. refused is 1 where the
    row's moment start is out of range (a and b hold it; the row is never
    iterated), 2 where its fit ends outside the feasible region, else 0."""

    a: np.ndarray
    b: np.ndarray
    loglik: np.ndarray
    converged: np.ndarray
    refused: np.ndarray

    @property
    def unconverged(self) -> int:
        """Fitted rows whose gradient never met the tolerance (estimate: the last iterate)."""
        return int(np.count_nonzero(~self.converged & (self.refused == 0)))

    def refusal(self, row: int | None = None, rows: int | None = None) -> NonConvergence | None:
        """The NonConvergence refusing this row fitted alone, or with no row
        the whole matrix, as the first check to refuse a row; None if none.
        rows counts the fitted rows when these are only the refused ones."""
        codes = self.refused if row is None else self.refused[row:row + 1]
        for code, what in ((1, "moment start out of range"),
                           (2, "optimizer left the feasible region")):
            hit = codes == code
            if hit.any():
                i = (row or 0) + int(np.argmax(hit))
                first = f"b={self.b[i]}" if code == 1 else f"a={self.a[i]}, b={self.b[i]}"
                return NonConvergence(f"{what} in {int(hit.sum())} of {rows or codes.size} rows "
                                      f"(first: {first})")
        return None

    def refused_only(self) -> "MleFit":
        """The refused rows' fits, in row order."""
        refused = self.refused != 0
        return MleFit(*(field[refused] for field in self))


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


def _bisect(lo: np.ndarray, hi: np.ndarray, midpoint, rises) -> np.ndarray:
    """Bisect each row's [lo, hi] at midpoint(lo, hi), keeping the upper half
    where rises(mid), for at most 120 steps; returns the last midpoint. A step
    depends on (lo, hi) alone, so the first that changes no bracket bitwise
    ends the loop with the bits of all 120. A NaN bracket never compares equal."""
    for _ in range(_BISECTIONS):
        mid = midpoint(lo, hi)
        up = rises(mid)
        lo_new, hi_new = np.where(up, mid, lo), np.where(up, hi, mid)
        if _all(lo_new == lo) and _all(hi_new == hi):
            break
        lo, hi = lo_new, hi_new
    return midpoint(lo, hi)


def _solve_location(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's root a of sum tanh((h - a)/(2b)), strictly decreasing in a, by
    _bisect on [min h, max h]; study rows reach the fixed point at about step 50."""
    two_b = (2.0 * b)[:, None]
    return _bisect(h.min(axis=1), h.max(axis=1), lambda lo, hi: 0.5 * (lo + hi),
                   lambda a: np.tanh((h - a[:, None]) / two_b).sum(axis=1) >= 0.0)


def _solve_scale(h: np.ndarray, a: np.ndarray, b_start: np.ndarray) -> np.ndarray:
    """Each row's root b of sum z*tanh(z/2) - m, z = (h - a)/b, strictly decreasing
    in b: bracketed from b_start, then _bisect geometrically to the fixed point,
    at about step 55 on study rows."""
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
    return _bisect(lo, hi, lambda lo, hi: np.sqrt(lo * hi), lambda b: phi(b) >= 0.0)


def _converged(ga: np.ndarray, gs: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(ga), np.abs(gs)) < _GRAD_TOL


def _all(mask: np.ndarray) -> bool:
    return np.count_nonzero(mask) == mask.size  # a fraction of mask.all()'s overhead


def _newton(h: np.ndarray, fit: MleFit) -> None:
    """Damped Newton on (a, log b) from the moment start, every row at once.

    Writes each row's last iterate into fit. A row whose moment start is
    out of range (b0*b0 not finite and positive) is refused and never
    iterated. A row stops when its gradient is below tolerance (converged),
    when the Hessian is not negative definite or the step is not finite,
    when neither the full step nor any of 39 halvings gives a finite
    log-likelihood at least the current one, when the halving taken leaves
    (a, log b) unchanged, or after 60 iterations. Refused and stopped rows
    leave the arrays, so while every row takes its full step no indexing
    happens at all.
    """
    a = np.add.reduce(h, axis=1) / h.shape[1]
    d = h - a[:, None]
    s = np.log(np.sqrt((d * d).sum(axis=1) / (h.shape[1] - 1)) * _SQRT3_OVER_PI)
    b = np.exp(s)
    bb = b * b  # the Hessian divides by it: where it over- or underflows no step fits
    rows = np.arange(h.shape[0])  # the fit index of each row still moving
    start = np.isfinite(bb) & (bb > 0.0)
    if not _all(start):
        out = ~start
        fit.a[out], fit.b[out], fit.loglik[out], fit.refused[out] = a[out], b[out], np.nan, 1
        rows, h, d, a, s, b = rows[start], h[start], d[start], a[start], s[start], b[start]
    z = d / b[:, None]
    ll = _loglik(z, s)
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
    last iterate into fit. A round is a function of its starting b alone, so
    a row whose round returns that b bitwise would repeat it to the end: it
    stops there with the same bits. Each of a round's two bisections stops
    the same way, at the first step that changes no row's bracket."""
    for _ in range(_FALLBACK_ROUNDS):
        a = _solve_location(h, b)
        b_new = _solve_scale(h, a, b)
        s = np.log(b_new)
        b_s = np.exp(s)
        z = (h - a[:, None]) / b_s[:, None]
        ga, gs, *_ = _score_and_hessian(z, b_s)
        done = _converged(ga, gs)
        fit.a[rows], fit.b[rows], fit.loglik[rows] = a, b_s, _loglik(z, s)
        fit.converged[rows] = done
        keep = ~done & (b_new != b)
        rows, h, b = rows[keep], h[keep], b_new[keep]
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
    bits whatever other rows share its matrix. Nothing is raised: a row
    whose b0*b0 is not finite and positive is refused before any iteration,
    and a row whose fit leaves the feasible region after it; MleFit.refused
    marks both and MleFit.refusal gives the error.
    """
    h = np.asarray(matrix, dtype=float)
    k = h.shape[0]
    fit = MleFit(a=np.empty(k), b=np.empty(k), loglik=np.empty(k),
                 converged=np.zeros(k, dtype=bool), refused=np.zeros(k, dtype=np.int8))
    with np.errstate(all="ignore"):  # trial steps may overflow; such trials are rejected
        _newton(h, fit)
        if not _all(fit.converged):
            rows = np.flatnonzero(~fit.converged & (fit.refused == 0))
            if rows.size:
                _bisection_fallback(h[rows], fit.b[rows], fit, rows)
    infeasible = ~(np.isfinite(fit.loglik) & (fit.b > 0.0) & (fit.b < np.inf))
    fit.refused[infeasible & (fit.refused == 0)] = 2
    return fit


def mle_rows(matrix: np.ndarray) -> tuple[np.ndarray, MleFit]:
    """Row-wise logistic-fit estimate 1/b, NaN where the fit is refused, and the fit."""
    fit = fit_logistic_rows(matrix)
    return np.divide(1.0, fit.b, out=np.full_like(fit.b, np.nan), where=fit.refused == 0), fit


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------


class Method(NamedTuple):
    """A method tag's row kernel ((k, n-1) heights -> k estimates at c = 1,
    NaN where it refuses the row, and their fit, None for a closed form) and
    the ConstantsRow field holding its c (None: c = 1). Pairwise methods have
    no kernel: they scale the raw pivot and carry its interval."""

    rows: Callable[[np.ndarray], tuple[np.ndarray, MleFit | None]] | None = None
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
    LENGTHS: Method(lambda matrix: (lengths_rows(matrix), None)),
    MLE: Method(mle_rows),
    RAW: Method(),
}

# the five estimators the study compares; the c = 1 pivot only scores intervals
ALL_ESTIMATORS = tuple(tag for tag in METHODS if tag != RAW)


class MatrixEstimates(NamedTuple):
    """estimates_for_matrix's findings over the rows kept, which kept masks:
    the estimates by tag, the raw c = 1 pivot the pairwise methods scale, and
    the fit of each tag whose kernel fits. An estimate that is not positive and
    finite failed: its fit refused the row (MleFit.refusal), or it overflowed."""

    estimates: dict[str, np.ndarray]
    raw: np.ndarray
    kept: np.ndarray
    fits: dict[str, MleFit]


def estimates_for_matrix(h: np.ndarray, row, estimators=ALL_ESTIMATORS) -> MatrixEstimates:
    """Per-replicate estimates for a (replicates, n-1) height matrix, with
    the constants of ConstantsRow row (None when no method needs one).

    Rows where all heights coincide would make every estimator blow up, so
    they are dropped; callers report them. No row stops the matrix: a row a
    kernel refuses or whose estimate overflows is reported in the result.
    Every kernel is row-independent, so a row's estimates are the same bits
    in any matrix.
    """
    with np.errstate(over="ignore"):  # an estimate that overflows is reported as failed
        raw = raw_pairwise_rows(h)
        kept = ~np.isnan(raw)
        if not _all(kept):
            h, raw = h[kept], raw[kept]
        found = MatrixEstimates({}, raw, kept, {})
        for tag in estimators:
            method = METHODS[tag]
            values, fit = (raw, None) if method.pairwise else method.rows(h)
            found.estimates[tag] = method.constant(row) * values
            if fit is not None:
                found.fits[tag] = fit
    return found


def simulated_estimates(
    n: int, regime: Regime, rng, count: int, row, estimators=ALL_ESTIMATORS,
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, int], int]:
    """estimates_for_matrix on the count replicates a regime draws from rng,
    one row chunk of height_draws at a time, never the whole matrix.

    Returns the estimates and raw pivot over the kept rows, the unconverged
    counts summed over chunks, and the number of rows dropped. The run takes
    rng.thread_count(chunks) threads, chunks being the count of full-size
    chunks (chunk_rows(n) rows): one per usable CPU, which `taskset` caps,
    and never more than those chunks. The threads split one budget of about
    2^17 heights, so each draws chunks of chunk_rows(n, threads) rows, and
    the heights in flight do not grow with the thread count. A thread takes
    the next chunk's draws from rng under a lock, so the stream is read in
    chunk order, then computes its heights and estimates outside it, and
    keeps them at that chunk's place. The draws fill row-major and the
    kernels are row-independent, so neither the chunk size nor the thread
    count changes a bit of the result.

    No kernel sees a chunk that holds a non-finite row, and a simulated
    replicate is no input of its own to give an error row. The faults are
    judged over the whole run, so no message depends on the chunk size: any
    non-finite row refuses the run, counting such rows over every chunk;
    otherwise the first check of a fit that refuses a row raises one
    NonConvergence, counting the rows it refuses out of all fitted rows and
    naming the first in row order. A run that keeps no replicate is refused
    too: there is nothing to score.
    """
    threads = thread_count(-(-count // chunk_rows(n)))
    draws = height_draws(n, regime, rng, count, threads)

    def run(_slot: int, draw) -> tuple:  # (non-finite rows, estimates, fits' findings)
        h = draw()
        if bad := nonfinite_rows(h):
            return bad, None, {}
        found = estimates_for_matrix(h, row, estimators)
        # the pass reads only this of the fits; holding them raised peak RSS 4% at n = 100
        fits = {tag: (fit.refused_only(), fit.unconverged) for tag, fit in found.fits.items()}
        found.fits.clear()
        return 0, found, fits

    keep_freed_chunks()
    results = each_item(run, draws, threads)
    refuse_nonfinite_rows(sum(bad for bad, _, _ in results), count)
    parts = [found for _, found, _ in results]
    raw = np.concatenate([part.raw for part in parts])
    unconverged: dict[str, int] = {}
    for tag in results[0][2]:
        chunks = [fits[tag] for _, _, fits in results]
        refused = MleFit(*map(np.concatenate, zip(*(fit for fit, _ in chunks))))
        if refusal := refused.refusal(rows=raw.size):
            raise refusal
        if missed := sum(k for _, k in chunks):
            unconverged[tag] = missed
    if not raw.size:
        raise DegenerateTimes(f"all {count} replicates dropped: each one's heights coincide")
    estimates = {tag: np.concatenate([part.estimates[tag] for part in parts])
                 for tag in estimators}
    return estimates, raw, unconverged, count - raw.size
