"""Coalescence-time samplers for supercritical birth-death genealogies.

A sample of n individuals drawn at time T from a birth-death process with
birth rate lam, death rate mu and net growth rate r = lam - mu > 0 has n - 1
coalescence times, measured backwards from the sampling instant. Their joint
law has a coalescent-point-process form: one latent draw, then n - 1
conditionally i.i.d. branch heights. Three regimes are implemented:

  ExactFiniteT   the exact finite-T law of a process with birth rate lam,
                 death rate mu and observation time t, its three fields;
                 r = lam - mu is derived. Latent Y on (0, 1) with CDF
                 (y / (y + delta*(1 - y)))^n, delta = E*d, E = exp(-rT) and
                 d = r / (lam*(1 - E) + r*E); given Y = y the heights are
                 i.i.d. on (0, T) with density
                 C * a*r^2*exp(-r*t) / (a + b*exp(-r*t))^2 where a = y*lam,
                 b = r - a and C normalizes. Y/(1 - Y) = delta*Q with Q the
                 FixedNLimit latent below, so the sampler draws Q, and as
                 rT grows the law passes continuously into FixedNLimit
                 (Lambert & Stadler, Theor. Popul. Biol. 90, 2013).

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
Simulations come in row chunks (height_draws) whose threads share a budget
of about 2^17 heights: the random numbers of a chunk are drawn in stream
order, and its heights can then be computed on any thread, since every
transform is elementwise.

All sampling is inverse transform through the closed-form quantile
functions below; the test suite checks the CDFs they invert against
adaptive quadrature of the densities. The logistic support in the LargeN
regime is the full real line; the half-line variant does not normalize and
breaks E[(U_i - U_j)^+] = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteTimes, checked
from .rng import RngStream, open_uniform

_CHUNK_HEIGHTS = 1 << 17  # heights in flight, split between threads: 1 MB bounds kernel memory


def nonfinite_rows(matrix: np.ndarray) -> int:
    """How many rows of a height matrix hold inf or nan."""
    return int(np.count_nonzero(~np.isfinite(matrix).all(axis=1)))


def refuse_nonfinite_rows(bad: int, rows: int) -> None:
    """Refuse a height matrix of `rows` rows of which `bad` hold inf or nan,
    saying how many do; no refusal when bad is 0."""
    if bad:
        raise NonFiniteTimes(f"{bad} of {rows} rows hold non-finite coalescence times")


def check_finite_rows(matrix: np.ndarray) -> None:
    """Refuse a (k, n-1) height matrix that holds inf or nan, saying how many
    of its rows do."""
    refuse_nonfinite_rows(nonfinite_rows(matrix), len(matrix))


@checked
class ExactFiniteT(NamedTuple):
    """Birth rate, death rate and observation time of the process."""

    lam: float
    mu: float
    t: float

    def _check(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("birth rate must be positive and finite")
        if not (0 <= self.mu < self.lam):
            raise ValueError("need lam > mu >= 0 (supercritical)")
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError("observation time must be positive and finite")

    @property
    def r(self) -> float:
        return self.lam - self.mu


@checked
class FixedNLimit(NamedTuple):
    r: float
    t: float | None = None

    def _check(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError("growth rate must be positive and finite")
        if self.t is not None and not math.isfinite(self.t):
            raise ValueError("tree height must be finite")


@checked
class LargeN(NamedTuple):
    r: float
    t: float

    def _check(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError("growth rate must be positive and finite")
        if not math.isfinite(self.t):
            raise ValueError("tree height must be finite")
        if not self.t > 0:
            raise ValueError("tree height must be positive")


Regime = ExactFiniteT | FixedNLimit | LargeN
REGIME_NAMES = ("exact", "fixed-n", "large-n")


def make_regime(name: str, r: float, t: float | None, birth_rate: float = 1.0) -> Regime:
    """Translate a regime name plus (r, T) into a regime value.

    The exact regime needs full birth-death rates; the estimand only pins
    down r = lam - mu, so the birth rate is a separate knob (defaulting to
    1, the usual simulation convention) and mu = birth_rate - r.
    """
    if name == "exact":
        if t is None:
            raise ValueError("exact regime needs an observation time T")
        if birth_rate < r:
            raise ValueError(f"birth rate {birth_rate} below growth rate {r}")
        return ExactFiniteT(lam=birth_rate, mu=birth_rate - r, t=t)
    if name == "fixed-n":
        return FixedNLimit(r=r, t=t)
    if name == "large-n":
        if t is None:
            raise ValueError("large-n regime needs a reporting height T")
        return LargeN(r=r, t=t)
    raise ValueError(f"unknown regime {name!r}; choose from {REGIME_NAMES}")


# ---------------------------------------------------------------------------
# Quantile functions of the building-block distributions: the inverse
# transforms the samplers use. Each docstring names the CDF it inverts.
# ---------------------------------------------------------------------------


def h_exact_quantile(u, q, regime: ExactFiniteT):
    """Inverse of the CDF of a branch height given the latent Q = q, that is
    given Y = y with y/(1 - y) = delta*q: C*(a*r/b)*(1/(a + b*exp(-r*t)) - 1/r)
    on (0, T), with E = exp(-rT), a = y*lam, b = r - a and
    C = (a + b*E)/(a*(1 - E)).

    With d = r/(lam*(1 - E) + r*E) and A = a/E = lam*d*q/(1 + E*d*q), solving
    it for u gives exp(-r*h) = E*(A*(1 - E)*(1 - u) + r)/D, where
    D = E*A*(1 - E)*(1 - u) + r*(u + E*(1 - u)). Every term is positive, so
    nothing cancels, b = 0 is no special case and the formula is finite at
    every r*T; at E = 0 it is the FixedNLimit height. A and D are carried
    divided by r, so until the last step only r*T and lam/r enter.
    h is read as T - log1p(.)/r near T and, where P = 1 - exp(-r*h) =
    r*u*(1 - E)/D is below 1/2, as -log1p(-P)/r near 0. q may be an array
    broadcasting against u. The full-size steps run in place, in three
    arrays of u's broadcast size.
    """
    u = np.asarray(u, dtype=float)
    r, t, lam_r = regime.r, regime.t, regime.lam / regime.r
    e_cap, e_rest = math.exp(-r * t), -math.expm1(-r * t)
    dq = np.asarray(q, dtype=float) / (lam_r * e_rest + e_cap)
    a = lam_r * dq / (1.0 + e_cap * dq)
    v = np.subtract(1.0, u, out=np.empty(np.broadcast_shapes(u.shape, a.shape)))
    den = np.multiply(e_cap * e_rest * a, v, out=np.empty_like(v))
    p = np.multiply(e_cap, v, out=np.empty_like(v))
    den += np.add(u, p, out=p)  # D = E*A*(1 - E)*v + (u + E*v)
    np.multiply(u, e_rest, out=p)
    p /= den
    # h takes den's array, not v's: returning the first array allocated
    # left the freed later two at the heap top, and the allocator gave them
    # back to the system, so the next call faulted them in again
    v *= e_rest * (a * e_rest + 1.0)
    h = np.divide(v, den, out=den)
    del v, den
    np.log1p(h, out=h)
    h /= r
    np.subtract(t, h, out=h)
    near = p < 0.5
    h[near] = -np.log1p(-p[near]) / r
    return float(h) if h.ndim == 0 else h


def q_quantile(u, n: int):
    """Inverse of the CDF (q / (1 + q))^n of Q: v/(1-v) with v = u^(1/n)."""
    w = np.log(u) / n
    return np.exp(w) / (-np.expm1(w))


def u_given_q_quantile(v, q):
    """Inverse of the CDF 1 - (1 + q) / (q*(1 + e^u)) of U given Q = q on
    (-log q, inf): log((1 + q*v) / (q*(1 - v)))."""
    v = np.asarray(v, dtype=float)
    return np.log1p(q * v) - np.log(q) - np.log1p(-v)


def logistic_quantile(v):
    v = np.asarray(v, dtype=float)
    return np.log(v) - np.log1p(-v)


# ---------------------------------------------------------------------------
# Samplers. sample_q continues the Generator it is given; the regime samplers
# draw from a fresh generator at the start of their RngStream. None keeps state.
# ---------------------------------------------------------------------------


def sample_q(n: int, gen: np.random.Generator, size):
    if n < 2:
        raise ValueError("sample size must be >= 2")
    return q_quantile(open_uniform(gen, size), n)


def fixed_n_heights(q, u, r: float, t: float | None):
    """Branch heights T - (log q + u)/r, or the relative values when t is None."""
    rel = -(np.log(q) + np.asarray(u, dtype=float)) / r
    return rel if t is None else t + rel


def large_n_heights(w, u, n: int, r: float, t: float):
    """Branch heights T - (log(1/w) + log n + u)/r of the large-sample regime."""
    return t - (np.log(1.0 / np.asarray(w, dtype=float)) + math.log(n) + np.asarray(u, dtype=float)) / r


def chunk_rows(n: int, threads: int = 1) -> int:
    """Rows per drawn block of an n-tip height matrix when `threads` threads
    split one budget of about _CHUNK_HEIGHTS heights in flight: the same on
    every machine for a given thread count, and at least one row."""
    return max(1, _CHUNK_HEIGHTS // (n - 1) // threads)


def keep_freed_chunks() -> None:
    """Have glibc's malloc keep the memory a thread frees after a chunk for
    its next chunk, instead of handing it back to the system.

    glibc serves a block at or above its mmap threshold from a mapping of
    its own, and freeing such a block raises the threshold to the block's
    size and the trim threshold to twice that (mallopt(3)). Freeing one
    untouched block of eight chunks' heights thus lifts the trim threshold
    above the few chunk-sized arrays a thread frees after each chunk.
    Without it, each thread's arena returns them after every chunk and
    faults them in again for the next: about 13 000 page faults per 2*10^4
    replicates at n = 100. Other allocators just map and unmap the block.
    """
    np.empty(8 * _CHUNK_HEIGHTS)


def height_draws(n: int, regime: Regime, rng: RngStream, count: int,
                 threads: int = 1) -> Iterator[Callable[[], np.ndarray]]:
    """The (count, n - 1) replicate matrix of a regime, as consecutive row
    blocks of chunk_rows(n, threads) rows, one branch-ordered row per
    replicate: `threads` threads, each computing one block at a time, share
    one budget of about 2^17 heights. A block's random numbers are drawn
    when the iterator yields it, and its heights computed when it is called,
    on whichever thread calls it.

    The latent column of all count rows is drawn first, then each block's
    uniforms. gen fills row-major, so the blocks' uniforms are, in order,
    the numbers one (count, n-1) draw gives: the draws are fully
    deterministic given the stream and count, and the blocks stacked are the
    same bits whatever their size, since every transform is elementwise.
    ExactFiniteT heights are finite at every r*T and lie inside (0, T) up to
    rounding at its ends. The two limiting regimes live on an unbounded axis,
    so occasional heights outside (0, T) are expected there; with no T the
    FixedNLimit rows are relative heights, of which only differences are
    meaningful.
    """
    if n < 2:
        raise ValueError("sample size must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = rng.generator()
    if isinstance(regime, ExactFiniteT):
        latent = sample_q(n, gen, size=(count, 1))

        def heights(q, v):
            return h_exact_quantile(v, q, regime)
    elif isinstance(regime, FixedNLimit):
        latent = sample_q(n, gen, size=(count, 1))

        def heights(q, v):
            return fixed_n_heights(q, u_given_q_quantile(v, q), regime.r, regime.t)
    elif isinstance(regime, LargeN):
        latent = -np.log(open_uniform(gen, (count, 1)))

        def heights(w, v):
            return large_n_heights(w, logistic_quantile(v), n, regime.r, regime.t)
    else:
        raise TypeError(f"unknown regime {regime!r}")
    step = chunk_rows(n, threads)
    return (partial(heights, latent[start:start + step],
                    open_uniform(gen, (min(step, count - start), n - 1)))
            for start in range(0, count, step))


def sample_coalescence_times_block(n: int, regime: Regime, rng: RngStream,
                                   count: int) -> np.ndarray:
    """height_draws' blocks, each computed as it is drawn, stacked into one
    (count, n - 1) array: the same bits whatever the block size."""
    chunks = [draw() for draw in height_draws(n, regime, rng, count)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
