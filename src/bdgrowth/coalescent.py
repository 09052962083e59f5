"""Coalescence-time samplers for supercritical birth-death genealogies.

A sample of n individuals drawn at time T from a birth-death process with
birth rate lam, death rate mu and net growth rate r = lam - mu > 0 has n - 1
coalescence times, measured backwards from the sampling instant. Their joint
law has a coalescent-point-process form: one latent draw, then n - 1
conditionally i.i.d. branch heights. Three regimes are implemented:

  ExactFiniteT   the exact finite-T law. Latent Y on (0, 1) with density
                 n*d*y^(n-1) / (y + d - y*d)^(n+1), d = delta_t(params);
                 given Y = y the heights are i.i.d. on (0, T) with density
                 C * a*r^2*exp(-r*t) / (a + b*exp(-r*t))^2 where a = y*lam,
                 b = r - a and C normalizes.

  FixedNLimit    the T -> infinity law for fixed n. Latent Q on (0, inf)
                 with density n*q^(n-1)/(1+q)^(n+1); given Q = q the shifted
                 logistic variables U are i.i.d. on (-log q, inf) with
                 density (1+q)/q * exp(u)/(1+exp(u))^2, and the heights are
                 H_i = T - (log Q + U_i) / r.

  LargeN         additionally n -> infinity: W standard exponential, U_i
                 standard logistic on the whole real line, and
                 H_i = T - (log(1/W) + log n + U_i) / r.

A sample is a float row of its n - 1 heights, in branch order; samples of
one n stack into a (k, n-1) matrix. Without T only differences count.

All sampling is inverse transform through the closed-form CDFs below, which
the test suite validates against adaptive quadrature of the densities. The
logistic support in the LargeN regime is the full real line; the half-line
variant does not normalize and breaks E[(U_i - U_j)^+] = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteTimes
from .rng import as_generator, open_uniform

# Switch to the limiting (truncated-exponential) branch-height CDF when
# |r - y*lam| / r drops below this; the singularity there is removable.
_B_ZERO_REL = 1e-9

_TINY = 5e-324  # smallest positive subnormal double


@dataclass(frozen=True)
class BirthDeathParams:
    """Birth rate, death rate and observation time of the process."""

    lam: float
    mu: float
    t: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("birth rate must be positive and finite")
        if not (0 <= self.mu < self.lam):
            raise ValueError("need lam > mu >= 0 (supercritical)")
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError("observation time must be positive and finite")

    @property
    def r(self) -> float:
        return self.lam - self.mu


def check_finite_rows(matrix: np.ndarray) -> None:
    """Refuse a (k, n-1) height matrix that holds inf or nan, saying how many
    of its rows do."""
    bad = int(np.count_nonzero(~np.isfinite(matrix).all(axis=1)))
    if bad:
        raise NonFiniteTimes(
            f"{bad} of {len(matrix)} rows hold non-finite coalescence times")


@dataclass(frozen=True)
class ExactFiniteT:
    params: BirthDeathParams

    @property
    def t(self) -> float:
        return self.params.t


@dataclass(frozen=True)
class FixedNLimit:
    r: float
    t: float | None = None

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError("growth rate must be positive and finite")


@dataclass(frozen=True)
class LargeN:
    r: float
    t: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError("growth rate must be positive and finite")
        if not math.isfinite(self.t):
            raise ValueError("tree height must be finite")


Regime = ExactFiniteT | FixedNLimit | LargeN


def delta_t(params: BirthDeathParams) -> float:
    """Probability weight r*exp(-rT) / (lam*(1 - exp(-rT)) + r*exp(-rT)).

    Evaluated in log space so that large r*T underflows to the smallest
    positive double rather than to zero; the value is 1 only in the T -> 0
    limit and lies in (0, 1) for every valid parameter set.
    """
    r = params.r
    rt = r * params.t
    # 1 - exp(-rt) via expm1 keeps the T -> 0 limit accurate.
    denom = params.lam * (-math.expm1(-rt)) + r * math.exp(-rt)
    value = math.exp(math.log(r) - rt - math.log(denom))
    if value == 0.0:
        return _TINY
    return min(value, 1.0)


# ---------------------------------------------------------------------------
# Densities, CDFs, and quantile functions of the building-block distributions.
# The quantile functions are the inverse transforms the samplers use.
# ---------------------------------------------------------------------------


def y_density(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return n * delta * y ** (n - 1) / (y + delta - y * delta) ** (n + 1)


def y_cdf(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return (y / (y + delta * (1.0 - y))) ** n


def y_quantile(u, n: int, delta: float):
    """Inverse of y_cdf: u^(1/n)*delta / (1 - u^(1/n)*(1 - delta))."""
    w = np.log(u) / n
    t = np.exp(w)
    # denominator written as (1 - t) + t*delta; expm1 keeps 1 - t accurate
    return t * delta / (-np.expm1(w) + t * delta)


def h_exact_density(t, y: float, params: BirthDeathParams):
    t = np.asarray(t, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    e_t = np.exp(-r * t)
    e_cap = math.exp(-r * params.t)
    norm = (a + b * e_cap) / (a * -math.expm1(-r * params.t))
    return norm * a * r * r * e_t / (a + b * e_t) ** 2


def h_exact_cdf(t, y: float, params: BirthDeathParams):
    """CDF of a branch height given Y = y, on (0, T).

    General form C*(a*r/b)*(1/(a + b*exp(-r*t)) - 1/r) with
    C = (a + b*exp(-rT)) / (a*(1 - exp(-rT))); reduces to a truncated
    exponential when b = r - y*lam vanishes.
    """
    t = np.asarray(t, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    if abs(b) < _B_ZERO_REL * r:
        return np.expm1(-r * t) / np.expm1(-r * params.t)
    e_t = np.exp(-r * t)
    e_cap = math.exp(-r * params.t)
    c = (a + b * e_cap) / (a * -math.expm1(-r * params.t))
    return c * (a * r / b) * (1.0 / (a + b * e_t) - 1.0 / r)


def h_exact_quantile(u, y, params: BirthDeathParams):
    """Inverse of h_exact_cdf, exact at both support endpoints.

    Solving F(t) = u gives exp(-r*t) = (a*(1-u) + E*(b + u*a)) /
    (a + u*b + E*b*(1-u)) with E = exp(-rT); at u = 0 this is 1 and at
    u = 1 it is E, so no cancellation occurs near either endpoint. y may be
    an array broadcasting against u.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    r = params.r
    a = y * params.lam
    b = r - a
    e_cap = math.exp(-r * params.t)
    # both branches are finite everywhere, so evaluating and selecting is safe
    num = a * (1.0 - u) + e_cap * (b + u * a)
    den = a + u * b + e_cap * b * (1.0 - u)
    general = -np.log(num / den) / r
    limit = -np.log1p(u * (e_cap - 1.0)) / r
    out = np.where(np.abs(b) < _B_ZERO_REL * r, limit, general)
    return float(out) if out.ndim == 0 else out


def q_density(q, n: int):
    q = np.asarray(q, dtype=float)
    return n * q ** (n - 1) / (1.0 + q) ** (n + 1)


def q_cdf(q, n: int):
    q = np.asarray(q, dtype=float)
    return (q / (1.0 + q)) ** n


def q_quantile(u, n: int):
    """Inverse of q_cdf: v/(1-v) with v = u^(1/n)."""
    w = np.log(u) / n
    return np.exp(w) / (-np.expm1(w))


def u_given_q_density(u, q: float):
    u = np.asarray(u, dtype=float)
    out = (1.0 + q) / q * np.exp(u) / (1.0 + np.exp(u)) ** 2
    return np.where(u > -np.log(q), out, 0.0)


def u_given_q_cdf(u, q: float):
    u = np.asarray(u, dtype=float)
    return np.clip(1.0 - (1.0 + q) / (q * (1.0 + np.exp(u))), 0.0, None)


def u_given_q_quantile(v, q):
    """Inverse of u_given_q_cdf: log((1 + q*v) / (q*(1 - v)))."""
    v = np.asarray(v, dtype=float)
    return np.log1p(q * v) - np.log(q) - np.log1p(-v)


def logistic_quantile(v):
    v = np.asarray(v, dtype=float)
    return np.log(v) - np.log1p(-v)


# ---------------------------------------------------------------------------
# Samplers. Each accepts an RngStream (fresh, reproducible sequence) or a
# numpy Generator (continues an existing sequence); none keeps state.
# ---------------------------------------------------------------------------


def sample_y(n: int, delta: float, rng, size=None):
    if n < 2:
        raise ValueError("sample size must be >= 2")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    gen = as_generator(rng)
    return y_quantile(open_uniform(gen, size), n, delta)


def sample_h_exact(y, params: BirthDeathParams, rng, size=None):
    gen = as_generator(rng)
    return h_exact_quantile(open_uniform(gen, size), y, params)


def sample_q(n: int, rng, size=None):
    if n < 2:
        raise ValueError("sample size must be >= 2")
    gen = as_generator(rng)
    return q_quantile(open_uniform(gen, size), n)


def sample_u_given_q(q, rng, size=None):
    gen = as_generator(rng)
    return u_given_q_quantile(open_uniform(gen, size), q)


def fixed_n_heights(q, u, r: float, t: float | None):
    """Branch heights T - (log q + u)/r, or the relative values when t is None."""
    rel = -(np.log(q) + np.asarray(u, dtype=float)) / r
    return rel if t is None else t + rel


def large_n_heights(w, u, n: int, r: float, t: float):
    """Branch heights T - (log(1/w) + log n + u)/r of the large-sample regime."""
    return t - (np.log(1.0 / np.asarray(w, dtype=float)) + math.log(n) + np.asarray(u, dtype=float)) / r


def sample_coalescence_times_block(n: int, regime: Regime, rng, count: int) -> np.ndarray:
    """Vectorized replicates: a (count, n - 1) array, one branch-ordered row each.

    All latents are drawn first, then the height matrix, so the draws are
    fully deterministic given the stream and count. Finite ExactFiniteT
    heights lie strictly inside (0, T); at large r*T some rows hold inf or
    nan, which callers refuse with check_finite_rows. The two limiting regimes
    live on an unbounded axis, so occasional heights outside (0, T) are
    expected there; with no T the FixedNLimit rows are relative heights, of
    which only differences are meaningful.
    """
    if n < 2:
        raise ValueError("sample size must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = as_generator(rng)
    if isinstance(regime, ExactFiniteT):
        p = regime.params
        y = sample_y(n, delta_t(p), gen, size=(count, 1))
        with np.errstate(divide="ignore", invalid="ignore"):  # callers refuse such rows
            return h_exact_quantile(open_uniform(gen, (count, n - 1)), y, p)
    if isinstance(regime, FixedNLimit):
        q = sample_q(n, gen, size=(count, 1))
        u = u_given_q_quantile(open_uniform(gen, (count, n - 1)), q)
        return fixed_n_heights(q, u, regime.r, regime.t)
    if isinstance(regime, LargeN):
        w = -np.log(open_uniform(gen, (count, 1)))
        u = logistic_quantile(open_uniform(gen, (count, n - 1)))
        return large_n_heights(w, u, n, regime.r, regime.t)
    raise TypeError(f"unknown regime {regime!r}")
