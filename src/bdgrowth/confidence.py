"""Quantile-calibrated confidence intervals for the growth rate, and their calibration.

With c = 1 the pairwise estimate is r_hat = r * S_n, so quantiles q_lo and
q_hi of S_n satisfying P(q_lo < S_n < q_hi) = level turn a single raw
estimate into the interval (r_hat / q_hi, r_hat / q_lo). Under the fixed-n
limiting law the coverage is exact by construction; at finite T it stays
close to the nominal level.

The constants and the quantiles both come from the law of S_n, which depends
on n alone: calibration_for takes them from a constants table, or from the
S_n draw that `calibrate` tabulates for the same (n, replicates, seed), and
calibrations does so for every n of a study before its first draw.
coverage_study scores the intervals on replicates of a regime value that
the caller builds.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from . import calibration
from .coalescent import Regime
from .errors import InsufficientReplicates, checked
from .estimators import simulated_estimates
from .rng import RngStream

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
    def from_sample(cls, values: np.ndarray, level: float = 0.95) -> "ConfidenceSpec":
        tail = (1.0 - level) / 2.0
        return cls(*calibration.sn_quantiles(values, tail, 1.0 - tail))


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
    row = table.get(n)
    if row is not None and level == 0.95:
        return row, ConfidenceSpec.from_constants_row(row)
    if n < 3:
        raise ValueError("S_n needs n >= 3")
    calibration.check_quantile_replicates(replicates)
    for_level = "" if level == 0.95 else f" for level {level}"
    print(f"warning: no constants row for n={n}; calibrating on the fly with "
          f"{replicates} replicates{for_level}" if row is None else
          f"warning: the constants row for n={n} holds 95% quantiles only; "
          f"drawing {replicates} S_n replicates{for_level}", file=sys.stderr)
    values = calibration.sample_sn(n, replicates, RngStream(seed).child(n))
    if row is None:
        row = calibration.row_from_sample(n, values, seed)
    return row, (ConfidenceSpec.from_constants_row(row) if level == 0.95
                 else ConfidenceSpec.from_sample(values, level))


def calibrations(table: dict[int, calibration.ConstantsRow], ns, replicates: int, seed: int
                 ) -> dict[int, tuple[calibration.ConstantsRow, ConfidenceSpec]]:
    """calibration_for's constants row and 95% S_n quantiles for each
    distinct n in ns, by n, in ns order. table is only read. Every draw is
    made here, at most one per n, before the caller simulates."""
    return {n: calibration_for(table, n, replicates, seed) for n in dict.fromkeys(ns)}


class CoverageRow(NamedTuple):
    """One line of a coverage.csv, under COVERAGE_HEADER."""

    n: int
    r: float
    t: float
    coverage: float
    replicates: int


def covered_fraction(raw: np.ndarray, spec: ConfidenceSpec, r: float) -> float:
    """Fraction of the raw estimates whose interval contains r."""
    lo, hi = spec.interval(raw)
    return float(np.mean((lo < r) & (r < hi)))


def check_coverage_replicates(replicates: int) -> None:
    """Refuse fewer than 1000 replicates: coverage_study's floor, which the
    coverage command checks before it calibrates."""
    if replicates < 1000:
        raise InsufficientReplicates("coverage needs at least 1000 replicates")


def coverage_study(n: int, r: float, regime: Regime, replicates: int, rng: RngStream,
                   spec: ConfidenceSpec) -> CoverageRow:
    """The coverage row of n: the fraction of the regime's replicates whose
    interval under spec covers r, the rate the regime was made from (which
    an exact regime's lam - mu can miss by an ulp), and the count kept.

    spec holds S_n quantiles for this n, as calibration_for returns them.
    The replicates are drawn on rng.child(1). Replicates whose heights all
    coincide are dropped, as in the study.
    """
    check_coverage_replicates(replicates)
    _, raw, _, _ = simulated_estimates(n, regime, rng.child(1), replicates, None, ())
    return CoverageRow(n, r, regime.t, covered_fraction(raw, spec, r), raw.size)
