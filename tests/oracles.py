"""Test oracles: the densities and CDFs that the samplers' quantile functions
invert, two single-factor samplers, and the Monte Carlo c_inv.

No command needs these; the tests check the closed-form CDFs against
quadrature of the densities and the samplers' draws against the CDFs. The
module also re-exports bdgrowth.coalescent, so a test can read samplers and
oracles from one namespace.
"""

import math

import numpy as np

from bdgrowth.calibration import SnSample
from bdgrowth.coalescent import *  # noqa: F403
from bdgrowth.coalescent import (
    _B_ZERO_REL,
    BirthDeathParams,
    h_exact_quantile,
    u_given_q_quantile,
)
from bdgrowth.rng import as_generator, open_uniform


def y_density(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return n * delta * y ** (n - 1) / (y + delta - y * delta) ** (n + 1)


def y_cdf(y, n: int, delta: float):
    y = np.asarray(y, dtype=float)
    return (y / (y + delta * (1.0 - y))) ** n


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


def q_density(q, n: int):
    q = np.asarray(q, dtype=float)
    return n * q ** (n - 1) / (1.0 + q) ** (n + 1)


def q_cdf(q, n: int):
    q = np.asarray(q, dtype=float)
    return (q / (1.0 + q)) ** n


def u_given_q_density(u, q: float):
    u = np.asarray(u, dtype=float)
    out = (1.0 + q) / q * np.exp(u) / (1.0 + np.exp(u)) ** 2
    return np.where(u > -np.log(q), out, 0.0)


def u_given_q_cdf(u, q: float):
    u = np.asarray(u, dtype=float)
    return np.clip(1.0 - (1.0 + q) / (q * (1.0 + np.exp(u))), 0.0, None)


def sample_h_exact(y, params: BirthDeathParams, rng, size=None):
    gen = as_generator(rng)
    return h_exact_quantile(open_uniform(gen, size), y, params)


def sample_u_given_q(q, rng, size=None):
    gen = as_generator(rng)
    return u_given_q_quantile(open_uniform(gen, size), q)


def c_inv_monte_carlo(sample: SnSample) -> float:
    """Sample mean of 1/S_n; cross-validates the sampler against the closed form."""
    v = sample.values
    if v.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(1.0 / v))
