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
block, each written to its own slice of the result, so the table is
byte-stable for a given (n, replicates, seed) whatever the thread count.

The blocks run on rng.thread_count(blocks) threads: one per usable CPU, and
never more threads than blocks, so `taskset` caps them. Memory is
allocated on the calling thread only: freed memory of a worker thread stays
in that thread's malloc arena, which would raise the peak resident size.
The calling thread draws each block's latent column into the block's slice
of the result and allocates each thread's chunk buffers once, about 1 MB
split between the threads; a thread then draws and reduces its blocks in row
chunks of those buffers, in place, with the operations, in their order, of
the out-of-place transform and estimators.raw_pairwise_rows, so every S_n
keeps its bits whatever the thread count.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import coalescent
from .errors import InsufficientReplicates
from .rng import RngStream, each_item, thread_count

_SN_BLOCK = 50_000  # replicates per stream block; fixed so tables reproduce
_TABLE_VERSION = "sn-constants-table v1"
_TABLE_COLUMNS = "n,c_inv,c_mse,c_bias,inv_q_lo,inv_q_hi,replicates,seed"

DEFAULT_REPLICATES = 1_000_000  # matches two-decimal table precision with margin


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


def _sn_block(gen, out: np.ndarray, u: np.ndarray, v: np.ndarray, positive: np.ndarray):
    """Replace the latent column in out, drawn from gen, by the S_n values of
    its rows, drawing their uniforms from gen a chunk of u's rows at a time.

    u and v are (rows, n-1) buffers and positive a (rows,) one. The steps are
    those of u_given_q_quantile, less its -log q row shift, which S_n
    ignores, then of raw_pairwise_rows, each in place: a chunk's result goes
    to the rows of out whose latents it has read.
    """
    m = u.shape[1]  # n - 1
    k = np.arange(1.0, m)
    weights = k * (m - k)
    flat = v.reshape(-1)
    for start in range(0, len(out), len(u)):
        q = out[start:start + len(u)]
        rows = len(q)
        ur, vr, pos = u[:rows], v[:rows], positive[:rows]
        np.maximum(gen.random(out=vr), 2.0 ** -53, out=vr)  # open_uniform
        np.multiply(q[:, None], vr, out=ur)
        ur += 1.0
        ur /= np.subtract(1.0, vr, out=vr)
        np.log(ur, out=ur)
        ur.sort(axis=1)
        gaps = flat[:rows * (m - 1)].reshape(rows, m - 1)
        np.subtract(ur[:, 1:], ur[:, :-1], out=gaps)
        gaps *= weights
        np.add.reduce(gaps, axis=1, out=q)
        np.greater(q, 0.0, out=pos)
        np.divide(m * (m - 1), q, out=q, where=pos)
        if not pos.all():  # all heights equal
            q[~pos] = np.nan


def sample_sn(n: int, replicates: int, rng: RngStream) -> np.ndarray:
    """Monte Carlo draws of S_n, deterministic in (n, replicates, seed) and
    the same bits on any number of threads."""
    if n < 3:
        raise ValueError("S_n needs n >= 3")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    values = np.empty(replicates)
    blocks = []  # (stream, its rows of values)
    for block, start in enumerate(range(0, replicates, _SN_BLOCK)):
        gen, out = rng.child(block).generator(), values[start:start + _SN_BLOCK]
        out[:] = coalescent.sample_q(n, gen, size=len(out))
        blocks.append((gen, out))
    threads = thread_count(len(blocks))
    rows = coalescent.chunk_rows(n, threads)
    buffers = [(np.empty((rows, n - 1)), np.empty((rows, n - 1)), np.empty(rows, dtype=bool))
               for _ in range(threads)]
    each_item(lambda slot, block: _sn_block(*block, *buffers[slot]), blocks, threads)
    return values


def c_mse(values: np.ndarray) -> float:
    """Moment ratio E[S]/E[S^2] on the empirical measure of S_n draws."""
    if values.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(values) / np.mean(values * values))


def c_bias(values: np.ndarray) -> float:
    """Reciprocal of the sample mean of S_n draws."""
    if values.size == 0:
        raise ValueError("empty sample")
    return float(1.0 / np.mean(values))


def sn_quantiles(values: np.ndarray, lo: float = 0.025, hi: float = 0.975) -> tuple[float, float]:
    """Empirical (lo, hi) quantiles with type-7 linear interpolation.

    Below 10^4 replicates the quantile noise exceeds the precision of the
    published table, so such samples are refused.
    """
    check_quantile_replicates(values.size)
    if not (0 < lo < hi < 1):
        raise ValueError("need 0 < lo < hi < 1")
    q_lo, q_hi = linear_quantiles(values, (lo, hi))
    return q_lo, q_hi


def check_quantile_replicates(replicates: int) -> None:
    """Refuse fewer than 10^4 S_n replicates: sn_quantiles' floor, which its
    callers check before their first draw."""
    if replicates < 10_000:
        raise InsufficientReplicates(f"{replicates} replicates; quantiles need at least 10000")


def linear_quantiles(values: np.ndarray, probs) -> list[float]:
    """Type-7 quantiles of values at each probability in probs: bit for bit
    np.quantile(values, probs, method="linear"), from one np.partition and
    without the np.unique call that loads numpy.ma. A sample holding NaN has
    NaN quantiles.

    Position v = (n-1)p has order statistics a (index floor v) and b above
    it, and weight g = v - floor v; the value is a + (b-a)g, or b - (b-a)(1-g)
    where g >= 0.5. A position at the top takes index -1 for both, as numpy.
    """
    n = values.size
    spots = []
    for p in probs:
        if not 0 <= p <= 1:
            raise ValueError(f"quantile probability {p} outside [0, 1]")
        v = (n - 1) * p
        spots.append((v, int(v) if v < n - 1 else -1))
    kth = {n - 1}  # the largest value, or a NaN, which sorts last
    kth.update(j for _, i in spots if i >= 0 for j in (i, i + 1))
    part = np.partition(values, sorted(kth))
    if np.isnan(part[-1]):
        return [float("nan")] * len(spots)
    out = []
    for v, i in spots:
        a, b = float(part[i]), float(part[i + 1 if i >= 0 else i])
        g, d = v - i, b - a
        out.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
    return out


# ---------------------------------------------------------------------------
# Constants table
# ---------------------------------------------------------------------------


def build_constants_row(n: int, replicates: int, seed: int) -> ConstantsRow:
    values = sample_sn(n, replicates, RngStream(seed).child(n))
    return row_from_sample(n, values, seed)


def row_from_sample(n: int, values: np.ndarray, seed: int) -> ConstantsRow:
    """The constants row of S_n draws for n, checked; seed is recorded with it."""
    q_lo, q_hi = sn_quantiles(values)
    row = ConstantsRow(
        n=n,
        c_inv=c_inv_closed_form(n),
        c_mse=c_mse(values),
        c_bias=c_bias(values),
        inv_q_lo=1.0 / q_lo,
        inv_q_hi=1.0 / q_hi,
        replicates=values.size,
        seed=seed,
    )
    problem = _row_problem(row)
    if problem:
        raise RuntimeError(f"n={row.n}: {problem}; sampler is broken")
    return row


def _row_problem(row: ConstantsRow) -> str | None:
    """What makes a constants row unusable, or None if nothing does."""
    if row.n < 3 or row.replicates < 1:
        return "need n >= 3 and at least one replicate"
    if not all(0 < value < math.inf
               for value in (row.c_inv, row.c_mse, row.c_bias, row.inv_q_lo, row.inv_q_hi)):
        return "constants and quantiles must be finite and positive"
    if not row.inv_q_hi < row.inv_q_lo:
        return "need inv_q_hi < inv_q_lo"
    if not row.c_mse <= row.c_bias:  # Cauchy-Schwarz, holds on any sample
        return "c_mse > c_bias"
    if 5 <= row.n <= 100 and not row.c_mse < row.c_bias < row.c_inv < 1:
        return f"constant ordering violated: {row.c_mse}, {row.c_bias}, {row.c_inv}"
    return None


def build_constants_table(n_list, replicates: int, seed: int,
                          path: str | Path | None = None) -> list[ConstantsRow]:
    """Rows for every n, optionally persisted; regeneration is byte-stable.
    The replicate floor is checked before any draw."""
    check_quantile_replicates(replicates)
    rows = [build_constants_row(int(n), replicates, seed) for n in n_list]
    if path is not None:
        write_rows(path, f"# {_TABLE_VERSION}\n{_TABLE_COLUMNS}", rows)
    return rows


# 17 significant digits read back as the same double; every CSV of this
# package formats its floats so, through g17 or a "%.17g" template
g17 = "{:.17g}".format


def write_rows(path: str | Path, header: str, rows: list):
    """CSV of NamedTuple rows of one class, one line per row in field order.

    One %-template formats every row: "%.17g" for the fields annotated
    float, which writes g17's bytes, and "%s" for the rest. A value that is
    not a number in a float field raises.
    """
    lines = [header]
    if rows:
        hints = get_type_hints(type(rows[0]))
        template = ",".join("%.17g" if hints[f] is float else "%s" for f in rows[0]._fields)
        lines += [template % row for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_constants_table(path: str | Path) -> dict[int, ConstantsRow]:
    """The rows of a constants table by n. A malformed row, one that
    _row_problem finds unusable, or a second row for an n, is refused as a
    ValueError naming the file and the row, so a bad table stops a command
    before its first draw."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    if len(lines) < 2 or lines[0] != f"# {_TABLE_VERSION}":
        raise ValueError(f"{path}: not a {_TABLE_VERSION} file")
    if lines[1] != _TABLE_COLUMNS:
        raise ValueError(f"{path}: unexpected column header {lines[1]!r}")
    # each field read back by the type write_rows formats it by
    hints = get_type_hints(ConstantsRow)
    kinds = [hints[f] for f in ConstantsRow._fields]
    rows: dict[int, ConstantsRow] = {}
    for line in lines[2:]:
        if not line.strip():
            continue
        try:  # a wrong field count fails zip's strict check
            row = ConstantsRow(*[kind(v) for kind, v in zip(kinds, line.split(","), strict=True)])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {line!r}") from exc
        problem = _row_problem(row) or (row.n in rows and f"n={row.n} listed twice")
        if problem:
            raise ValueError(f"{path}: row {line!r}: {problem}")
        rows[row.n] = row
    return rows
