"""Quantile-calibrated confidence intervals for the growth rate.

With c = 1 the pairwise estimate is r_hat = r * S_n, so quantiles q_lo and
q_hi of S_n satisfying P(q_lo < S_n < q_hi) = level turn a single raw
estimate into the interval (r_hat / q_hi, r_hat / q_lo). Under the fixed-n
limiting law the coverage is exact by construction; at finite T it stays
close to the nominal level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calibration
from .coalescent import BirthDeathParams, ExactFiniteT, FixedNLimit, LargeN
from .errors import InsufficientReplicates, MismatchedN
from .estimators import simulated_estimates
from .rng import RngStream

REGIME_NAMES = ("exact", "fixed-n", "large-n")


@dataclass(frozen=True)
class ConfidenceSpec:
    """S_n quantiles for one sample size, plus the coverage level they target."""

    n: int
    q_lo: float
    q_hi: float
    level: float = 0.95

    def __post_init__(self):
        if not (0 < self.q_lo < self.q_hi):
            raise ValueError("need 0 < q_lo < q_hi")
        if not (0 < self.level < 1):
            raise ValueError("level must lie in (0, 1)")

    def interval(self, raw):
        """(raw/q_hi, raw/q_lo) for a raw estimate or an array of them."""
        return raw / self.q_hi, raw / self.q_lo

    @classmethod
    def from_constants_row(cls, row: calibration.ConstantsRow) -> "ConfidenceSpec":
        return cls(n=row.n, q_lo=1.0 / row.inv_q_lo, q_hi=1.0 / row.inv_q_hi)

    @classmethod
    def from_sample(cls, sample: calibration.SnSample, level: float = 0.95) -> "ConfidenceSpec":
        tail = (1.0 - level) / 2.0
        q_lo, q_hi = calibration.sn_quantiles(sample, tail, 1.0 - tail)
        return cls(n=sample.n, q_lo=q_lo, q_hi=q_hi, level=level)


class Coverage(float):
    """A covered fraction that carries `kept`, the count of replicates it is
    over; it compares, prints and computes as the fraction."""

    def __new__(cls, fraction: float, kept: int):
        self = super().__new__(cls, fraction)
        self.kept = kept
        return self


def covered_fraction(raw: np.ndarray, spec: ConfidenceSpec, r: float) -> float:
    """Fraction of the raw estimates whose interval contains r."""
    lo, hi = spec.interval(raw)
    return float(np.mean((lo < r) & (r < hi)))


def make_regime(name: str, r: float, t: float | None, birth_rate: float = 1.0):
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
        return ExactFiniteT(BirthDeathParams(lam=birth_rate, mu=birth_rate - r, t=t))
    if name == "fixed-n":
        return FixedNLimit(r=r, t=t)
    if name == "large-n":
        if t is None:
            raise ValueError("large-n regime needs a reporting height T")
        return LargeN(r=r, t=t)
    raise ValueError(f"unknown regime {name!r}; choose from {REGIME_NAMES}")


def coverage_study(
    n: int,
    r: float,
    t: float | None,
    replicates: int,
    regime: str,
    rng: RngStream,
    spec: ConfidenceSpec | None = None,
    calibration_replicates: int = 100_000,
    birth_rate: float = 1.0,
) -> Coverage:
    """Fraction of simulated replicates whose interval covers the true r,
    carrying the count of replicates kept.

    Quantiles are calibrated on a child stream when no spec is supplied, so
    the calibration draws never overlap the coverage draws. Replicates whose
    heights all coincide are dropped, as in the study.
    """
    if replicates < 1000:
        raise InsufficientReplicates("coverage needs at least 1000 replicates")
    if spec is None:
        sample = calibration.sample_sn(n, calibration_replicates, rng.child(0))
        spec = ConfidenceSpec.from_sample(sample)
    elif spec.n != n:
        raise MismatchedN(f"quantiles computed for n={spec.n}, study uses n={n}")
    regime_value = make_regime(regime, r, t, birth_rate)
    _, raw, _, _ = simulated_estimates(n, regime_value, rng.child(1), replicates, None, ())
    return Coverage(covered_fraction(raw, spec, r), raw.size)
