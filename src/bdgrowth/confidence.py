"""Quantile-calibrated confidence intervals for the growth rate, and their calibration.

With c = 1 the pairwise estimate is r_hat = r * S_n, so quantiles q_lo and
q_hi of S_n satisfying P(q_lo < S_n < q_hi) = level turn a single raw
estimate into the interval (r_hat / q_hi, r_hat / q_lo). Under the fixed-n
limiting law the coverage is exact by construction; at finite T it stays
close to the nominal level.

The constants and the quantiles both come from the law of S_n, which depends
on n alone: calibration_for takes them from a constants table, or from the
S_n draw that `calibrate` tabulates for the same (n, replicates, seed).
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from . import calibration
from .coalescent import BirthDeathParams, ExactFiniteT, FixedNLimit, LargeN
from .errors import InsufficientReplicates, checked
from .estimators import simulated_estimates
from .rng import RngStream

REGIME_NAMES = ("exact", "fixed-n", "large-n")
COVERAGE_HEADER = "n,r,T,coverage,replicates"


@checked
class ConfidenceSpec(NamedTuple):
    """S_n quantiles that bound an interval of some coverage level."""

    q_lo: float
    q_hi: float

    def _check(self):
        if not (0 < self.q_lo < self.q_hi):
            raise ValueError("need 0 < q_lo < q_hi")

    def interval(self, raw):
        """(raw/q_hi, raw/q_lo) for a raw estimate or an array of them."""
        return raw / self.q_hi, raw / self.q_lo

    @classmethod
    def from_constants_row(cls, row: calibration.ConstantsRow) -> "ConfidenceSpec":
        return cls(q_lo=1.0 / row.inv_q_lo, q_hi=1.0 / row.inv_q_hi)

    @classmethod
    def from_sample(cls, sample: calibration.SnSample, level: float = 0.95) -> "ConfidenceSpec":
        tail = (1.0 - level) / 2.0
        return cls(*calibration.sn_quantiles(sample, tail, 1.0 - tail))


def calibration_for(table: dict[int, calibration.ConstantsRow], n: int, replicates: int,
                    seed: int, level: float = 0.95
                    ) -> tuple[calibration.ConstantsRow, ConfidenceSpec]:
    """The constants row for sample size n, and the S_n quantiles of an
    interval at `level`.

    The row is table[n] when the table has one. Otherwise, after a warning,
    it is built from sample_sn(n, replicates, RngStream(seed).child(n)): the
    row `calibrate --n n --replicates replicates --seed seed` writes. At
    level 0.95 the quantiles are the row's. Another level takes them from
    that same draw, which is made at most once. Each draw says so on stderr
    in one line, naming n, the replicate count and a level other than 0.95.
    An n below 3 has no S_n, and fewer than 10^4 replicates give no
    quantiles; where a draw is needed, either is refused before the warning.
    """
    row, sample = table.get(n), None
    for_level = "" if level == 0.95 else f" for level {level}"
    if row is None or level != 0.95:
        if n < 3:
            raise ValueError("S_n needs n >= 3")
        calibration.check_quantile_replicates(replicates)
    if row is None:
        print(f"warning: no constants row for n={n}; "
              f"calibrating on the fly with {replicates} replicates{for_level}", file=sys.stderr)
        sample = calibration.sample_sn(n, replicates, RngStream(seed).child(n))
        row = calibration.row_from_sample(sample, seed)
    if level == 0.95:
        return row, ConfidenceSpec.from_constants_row(row)
    if sample is None:
        print(f"warning: the constants row for n={n} holds 95% quantiles only; "
              f"drawing {replicates} S_n replicates{for_level}", file=sys.stderr)
        sample = calibration.sample_sn(n, replicates, RngStream(seed).child(n))
    return row, ConfidenceSpec.from_sample(sample, level)


class CoverageRow(NamedTuple):
    """One line of a coverage.csv, under COVERAGE_HEADER."""

    n: int
    r: float
    t: float
    coverage: float
    replicates: int


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


def check_coverage_replicates(replicates: int) -> None:
    """Refuse fewer than 1000 replicates: coverage_study's floor, which the
    coverage command checks before it calibrates."""
    if replicates < 1000:
        raise InsufficientReplicates("coverage needs at least 1000 replicates")


def coverage_study(n: int, r: float, t: float | None, replicates: int, regime: str,
                   rng: RngStream, spec: ConfidenceSpec, birth_rate: float = 1.0) -> Coverage:
    """Fraction of simulated replicates whose interval under spec covers the
    true r, carrying the count of replicates kept.

    spec holds S_n quantiles for this n, as calibration_for returns them.
    The replicates are drawn on rng.child(1). Replicates whose heights all
    coincide are dropped, as in the study.
    """
    check_coverage_replicates(replicates)
    regime_value = make_regime(regime, r, t, birth_rate)
    _, raw, _, _ = simulated_estimates(n, regime_value, rng.child(1), replicates, None, ())
    return Coverage(covered_fraction(raw, spec, r), raw.size)
