"""Calibration constants and quantiles for the pairwise estimator.

The raw pairwise estimate factorizes as r_hat = r * S_n with the
dimensionless pivot

    S_n = (n-1)(n-2) / sum_{i,j} (U_i - U_j)^+,

where the U's follow the fixed-n limiting law (latent Q, then shifted
logistics). The law of S_n depends on n alone, so per-n multipliers can be
tabulated once:

    c_mse(n)  = E[S_n] / E[S_n^2]   (minimizes mean squared error)
    c_bias(n) = 1 / E[S_n]          (removes the bias)
    c_inv(n)  = E[1 / S_n]          (makes 1/r_hat unbiased for 1/r)

c_inv has the closed form (n/(n-2)) * (1 - (sum_{k<n} 1/k)/(n-1)); the other
two and the 2.5% / 97.5% quantiles of S_n used for confidence intervals are
estimated by Monte Carlo and cached in a small versioned CSV table. Sampling
runs in fixed-size blocks of 50 000 replicates with one child stream per
block and a fixed-order merge, so the table is byte-stable for a given (n,
replicates, seed) regardless of worker count. A block is drawn and reduced
in row chunks of about 2 MB, which bound its memory and keep its bits.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import coalescent
from .errors import InsufficientReplicates
from .estimators import raw_pairwise_rows
from .rng import RngStream, open_uniform, ordered_map

_SN_BLOCK = 50_000  # replicates per stream block; fixed so tables reproduce
_TABLE_VERSION = "sn-constants-table v1"
_TABLE_COLUMNS = "n,c_inv,c_mse,c_bias,inv_q_lo,inv_q_hi,replicates,seed"

DEFAULT_REPLICATES = 1_000_000  # matches two-decimal table precision with margin


class SnSample(NamedTuple):
    n: int
    values: np.ndarray


class ConstantsRow(NamedTuple):
    n: int
    c_inv: float
    c_mse: float
    c_bias: float
    inv_q_lo: float  # 1 / q_0.025
    inv_q_hi: float  # 1 / q_0.975
    replicates: int
    seed: int


def harmonic_number(m: int) -> float:
    """Sum of 1/k for k = 1..m, by direct ascending summation."""
    total = 0.0
    for k in range(1, m + 1):
        total += 1.0 / k
    return total


def c_inv_closed_form(n: int) -> float:
    """(n/(n-2)) * (1 - H_{n-1}/(n-1)); strictly increasing to 1 for n >= 5."""
    if n <= 2:
        raise ValueError("c_inv is undefined for n <= 2")
    return n / (n - 2) * (1.0 - harmonic_number(n - 1) / (n - 1))


def _sn_block(n: int, count: int, gen) -> np.ndarray:
    q = coalescent.sample_q(n, gen, size=(count, 1))
    out = np.empty(count)
    start = 0
    for q_part, v in coalescent.uniform_chunks(gen, q, n):
        # u_given_q_quantile less its -log q row shift, which S_n ignores, with
        # one log per element, in place; v is freed before the kernel's sort
        u = q_part * v
        u += 1.0
        u /= np.subtract(1.0, v, out=v)
        del v
        out[start:start + len(u)] = raw_pairwise_rows(np.log(u, out=u))
        start += len(u)
    return out


def sample_sn(n: int, replicates: int, rng: RngStream, workers: int = 1) -> SnSample:
    """Monte Carlo draws of S_n, deterministic in (n, replicates, seed)."""
    if n < 3:
        raise ValueError("S_n needs n >= 3")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    sizes = [_SN_BLOCK] * (replicates // _SN_BLOCK)
    if replicates % _SN_BLOCK:
        sizes.append(replicates % _SN_BLOCK)

    def run(block: int) -> np.ndarray:
        return _sn_block(n, sizes[block], rng.child(block).generator())

    return SnSample(n=n, values=np.concatenate(ordered_map(run, len(sizes), workers)))


def c_mse(sample: SnSample) -> float:
    """Moment ratio E[S]/E[S^2] on the empirical measure."""
    v = sample.values
    if v.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(v) / np.mean(v * v))


def c_bias(sample: SnSample) -> float:
    """Reciprocal of the sample mean."""
    v = sample.values
    if v.size == 0:
        raise ValueError("empty sample")
    return float(1.0 / np.mean(v))


def sn_quantiles(sample: SnSample, lo: float = 0.025, hi: float = 0.975) -> tuple[float, float]:
    """Empirical (lo, hi) quantiles with type-7 linear interpolation.

    Below 10^4 replicates the quantile noise exceeds the precision of the
    published table, so such samples are refused.
    """
    if sample.values.size < 10_000:
        raise InsufficientReplicates(
            f"{sample.values.size} replicates; quantiles need at least 10000"
        )
    if not (0 < lo < hi < 1):
        raise ValueError("need 0 < lo < hi < 1")
    q = np.quantile(sample.values, [lo, hi], method="linear")
    return float(q[0]), float(q[1])


class MomentChecks(NamedTuple):
    """Monte Carlo values of the four logistic positive-part moments.

    For i.i.d. standard logistic U's the exact values are 1, pi^2/3,
    2 - pi^2/6 and 2; these feed the asymptotic-variance constant
    4 - pi^2/3 of the raw estimator.
    """

    e_plus: float          # E[(U1 - U2)^+]
    e_plus_sq: float       # E[((U1 - U2)^+)^2]
    e_chain: float         # E[(U1 - U2)^+ (U2 - U3)^+]
    e_shared_top: float    # E[(U1 - U2)^+ (U1 - U3)^+]
    replicates: int


def moment_identities_check(replicates: int, rng: RngStream) -> MomentChecks:
    if replicates < 1_000_000:
        raise InsufficientReplicates("moment identities need at least 10^6 replicates")
    sums = np.zeros(4)
    done = 0
    block = 0
    while done < replicates:
        count = min(_SN_BLOCK, replicates - done)
        gen = rng.child(block).generator()
        u = coalescent.logistic_quantile(open_uniform(gen, (count, 3)))
        d12 = np.maximum(u[:, 0] - u[:, 1], 0.0)
        d23 = np.maximum(u[:, 1] - u[:, 2], 0.0)
        d13 = np.maximum(u[:, 0] - u[:, 2], 0.0)
        sums += [d12.sum(), (d12 * d12).sum(), (d12 * d23).sum(), (d12 * d13).sum()]
        done += count
        block += 1
    m = sums / replicates
    return MomentChecks(m[0], m[1], m[2], m[3], replicates)


# ---------------------------------------------------------------------------
# Constants table
# ---------------------------------------------------------------------------


def build_constants_row(n: int, replicates: int, seed: int, workers: int = 1) -> ConstantsRow:
    sample = sample_sn(n, replicates, RngStream(seed).child(n), workers=workers)
    return row_from_sample(sample, seed)


def row_from_sample(sample: SnSample, seed: int) -> ConstantsRow:
    """The constants row of an S_n draw, checked; seed is recorded with it."""
    q_lo, q_hi = sn_quantiles(sample)
    row = ConstantsRow(
        n=sample.n,
        c_inv=c_inv_closed_form(sample.n),
        c_mse=c_mse(sample),
        c_bias=c_bias(sample),
        inv_q_lo=1.0 / q_lo,
        inv_q_hi=1.0 / q_hi,
        replicates=sample.values.size,
        seed=seed,
    )
    _check_row(row)
    return row


def _check_row(row: ConstantsRow):
    if not row.c_mse <= row.c_bias:  # Cauchy-Schwarz, holds on any sample
        raise RuntimeError(f"c_mse > c_bias at n={row.n}; sampler is broken")
    if 5 <= row.n <= 100:
        if not (0 < row.c_mse < row.c_bias < row.c_inv < 1):
            raise RuntimeError(
                f"constant ordering violated at n={row.n}: "
                f"{row.c_mse}, {row.c_bias}, {row.c_inv}"
            )


def build_constants_table(
    n_list, replicates: int, seed: int, path: str | Path | None = None, workers: int = 1
) -> list[ConstantsRow]:
    """Rows for every n, optionally persisted; regeneration is byte-stable."""
    rows = [build_constants_row(int(n), replicates, seed, workers=workers) for n in n_list]
    if path is not None:
        write_constants_table(rows, path)
    return rows


# 17 significant digits read back as the same double; every CSV of this
# package formats its floats with it
g17 = "{:.17g}".format


def write_rows(path: str | Path, header: str, rows):
    """CSV of NamedTuple rows, one line per row in field order, floats via g17."""
    lines = [header] + [",".join(g17(v) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_constants_table(rows, path: str | Path):
    write_rows(path, f"# {_TABLE_VERSION}\n{_TABLE_COLUMNS}", rows)


def load_constants_table(path: str | Path) -> dict[int, ConstantsRow]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0] != f"# {_TABLE_VERSION}":
        raise ValueError(f"{path}: not a {_TABLE_VERSION} file")
    if lines[1] != _TABLE_COLUMNS:
        raise ValueError(f"{path}: unexpected column header {lines[1]!r}")
    rows: dict[int, ConstantsRow] = {}
    for line in lines[2:]:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"{path}: malformed row {line!r}")
        row = ConstantsRow(
            n=int(parts[0]),
            c_inv=float(parts[1]),
            c_mse=float(parts[2]),
            c_bias=float(parts[3]),
            inv_q_lo=float(parts[4]),
            inv_q_hi=float(parts[5]),
            replicates=int(parts[6]),
            seed=int(parts[7]),
        )
        rows[row.n] = row
    return rows
