"""Study harness: metric identities, degenerate-replicate exclusion, output
determinism, the constant sweep, and the large-sample variance check."""

import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from bdgrowth import calibration as cal
from bdgrowth import coalescent as co
from bdgrowth import confidence as ci
from bdgrowth import estimators as est
from bdgrowth import harness
from bdgrowth.errors import NonConvergence, NonFiniteTimes
from bdgrowth.rng import RngStream
from oracles import CountedThread, with_chunks_changed, with_rows_set

SEED = 20260808
EXACT = co.ExactFiniteT(1.0, 0.0, 40.0)  # the study's default regime at r = 1, T = 40
STUDY_REPLICATES = 400
CELLS = [(0.5, co.ExactFiniteT(1.0, 0.5, 40.0)), (1.0, EXACT)]  # the study's default --r
PARAMETERS = {"seed": SEED}  # a summary.json's parameter fields, as its command gives them
# made-up constants: the tests below compare paths, not accuracy
ROW_20 = cal.ConstantsRow(n=20, c_inv=0.97, c_mse=0.9, c_bias=0.95, inv_q_lo=1.5,
                          inv_q_hi=0.6, replicates=1, seed=0)


@pytest.fixture(scope="module")
def small_constants():
    return {n: cal.build_constants_row(n, 50_000, SEED) for n in (5, 10)}


@pytest.fixture(scope="module")
def small_study(small_constants):
    return harness.run_study((5, 10), [(1.0, EXACT)], STUDY_REPLICATES, SEED,
                             table=small_constants, calibration_replicates=50_000)


def test_metrics_rows_complete(small_study):
    tags = {(m.estimator, m.n) for m in small_study.metrics}
    assert tags == {(t, n) for t in harness.ALL_ESTIMATORS for n in (5, 10)}
    for m in small_study.metrics:
        assert m.mse >= 0 and m.mae >= 0
        assert m.mse >= m.bias ** 2 - 1e-12


def test_mse_decomposes_into_variance_plus_bias_squared(small_study):
    # recompute from the per-replicate estimates the harness produced
    row = cal.build_constants_row(5, 50_000, SEED)
    estimates, *_ = est.simulated_estimates(5, EXACT, RngStream(SEED).child(0),
                                            STUDY_REPLICATES, row)
    for tag, values in estimates.items():
        mse = np.mean((values - 1.0) ** 2)
        var = np.var(values)
        bias = np.mean(values) - 1.0
        assert mse == pytest.approx(var + bias ** 2, rel=1e-9)


class PerBinRow(NamedTuple):
    """One density bin as a row of its own: calibration.write_rows over these
    rows gives the bytes harness.write_densities must write."""

    estimator: str
    n: int
    r: float
    bin_lo: float
    bin_hi: float
    count: int
    density: float


def per_bin_rows(group: harness.DensityGroup) -> list[PerBinRow]:
    return [PerBinRow(group.estimator, group.n, group.r, *fields) for fields in
            zip(group.edges[:-1], group.edges[1:], group.counts, group.density)]


def test_density_rows_account_for_most_replicates(small_study):
    for n in (5, 10):
        groups = [g for g in small_study.densities if g.estimator == "Inv" and g.n == n]
        assert len(groups) == 1
        group = groups[0]
        assert len(group.counts) == len(group.density) == len(group.edges) - 1 == \
            harness.DENSITY_BINS
        # the adaptive range clips the extreme upper tail only
        assert sum(group.counts) >= 0.995 * STUDY_REPLICATES


def test_density_rows_equal_the_per_bin_loop_bit_for_bit(small_study, small_constants):
    # the per-bin construction on np.quantile, as a reference for the
    # columnar one on calibration.linear_quantiles
    def per_bin(tag, n, r, values):
        hi = float(np.quantile(values, 0.999)) * 1.02
        counts, edges = np.histogram(values, bins=harness.DENSITY_BINS, range=(0.0, hi))
        width = edges[1] - edges[0]
        return [(tag, n, r, float(edges[i]), float(edges[i + 1]), int(counts[i]),
                 float(counts[i] / (values.size * width))) for i in range(harness.DENSITY_BINS)]

    estimates, *_ = est.simulated_estimates(5, EXACT, RngStream(SEED).child(0),
                                            STUDY_REPLICATES, small_constants[5])
    for tag, values in estimates.items():
        group = harness._density_group(tag, 5, 1.0, values)
        assert type(group) is harness.DensityGroup
        rows = per_bin_rows(group)
        want = per_bin(tag, 5, 1.0, values)
        assert [[repr(v) for v in row] for row in rows] == [[repr(v) for v in row] for row in want]


def test_density_writer_writes_the_bytes_of_the_per_bin_template(tmp_path):
    values = np.random.default_rng(7).gamma(2.0, 0.5, 400)
    shared = [harness._density_group("Inv", 5, 1.0, values),
              harness._density_group("MSE", 5, 1.0, 3.0 * values)]  # same counts, 3x the width
    pairs = [set(zip(g.counts, g.density)) for g in shared]
    # a count both groups hold, with another density in each: a memo shared
    # between groups would write the first group's density for the second
    assert any(c == c2 and d != d2 for c, d in pairs[0] if c for c2, d2 in pairs[1])
    one_bin = harness._density_group("Lengths", 10, 0.5, np.full(50, 2.0))
    assert sum(1 for c in one_bin.counts if c) == 1
    tenth = harness._density_group("MLE", 20, 0.1, values)  # %.17g writes r as 0.10000000000000001
    for groups in ([*shared, one_bin, tenth], []):
        harness.write_densities(tmp_path / "columns.csv", groups)
        cal.write_rows(tmp_path / "rows.csv", ",".join(PerBinRow._fields),
                       [row for group in groups for row in per_bin_rows(group)])
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        assert written.count(b"\n") == 1 + len(groups) * harness.DENSITY_BINS
        assert (b",0.10000000000000001," in written) == bool(groups)


def test_coverage_rows_present(small_study):
    assert [(c.n, c.r) for c in small_study.coverage] == [(5, 1.0), (10, 1.0)]
    for c in small_study.coverage:
        assert 0.85 <= c.coverage <= 1.0


def test_degenerate_rows_excluded_and_counted(small_constants):
    matrix = np.array([[1.0, 2.0, 3.0, 2.5], [2.0, 2.0, 2.0, 2.0]])
    found = est.estimates_for_matrix(matrix, small_constants[5])
    assert found.raw.tolist() == [4 * 3 / 6.5]  # the first row is kept, the second dropped
    assert found.kept.tolist() == [True, False]
    assert found.estimates["MSE"].size == 1
    fit = found.fits["MLE"]
    assert (fit.unconverged, fit.refusal()) == (0, None)
    assert all((np.isfinite(v) & (v > 0)).all() for v in found.estimates.values())  # none failed


def test_simulated_estimates_and_run_cell_are_the_one_shot_result_across_chunks():
    # the cell of a one-cell run_study grid, drawn on child 0 of the seed's stream
    count, stream = 15_000, RngStream(SEED).child(0)
    assert len(list(co.height_draws(20, EXACT, stream, count))) >= 2
    h = co.sample_coalescence_times_block(20, EXACT, stream, count)
    estimates, raw, _, fits = est.estimates_for_matrix(h, ROW_20)
    unconverged = {tag: fit.unconverged for tag, fit in fits.items() if fit.unconverged}
    got, got_raw, got_unconverged, excluded = est.simulated_estimates(
        20, EXACT, stream, count, ROW_20)
    study = harness.run_study((20,), [(1.0, EXACT)], count, SEED, table={20: ROW_20})
    assert {(20, 1.0): excluded} == study.excluded == {(20, 1.0): count - raw.size}
    assert got_unconverged == unconverged
    assert got_raw.tobytes() == raw.tobytes()
    assert list(got) == list(harness.ALL_ESTIMATORS)
    for tag, values in estimates.items():
        assert got[tag].tobytes() == values.tobytes()
    assert [m[4:] for m in study.metrics] == [
        (*harness._metrics(values, 1.0), raw.size) for values in estimates.values()]
    spec = ci.ConfidenceSpec.from_constants_row(ROW_20)
    assert study.coverage == [(20, 1.0, 40.0, ci.covered_fraction(raw, spec, 1.0), raw.size)]


def test_every_simulating_experiment_drops_and_counts_a_constant_row(monkeypatch):
    def constant_first_row(chunk):
        chunk[0] = chunk[0, 0]

    def both(run):
        clean = run()
        monkeypatch.setattr(est, "height_draws", with_chunks_changed(
            est.height_draws, {0: constant_first_row}))
        try:
            return clean, run()
        finally:
            monkeypatch.undo()

    # each pair: the unpatched result and the one whose first row is constant
    (clean_estimates, *_), (estimates, _, _, dropped) = both(lambda: est.simulated_estimates(
        20, EXACT, RngStream(SEED).child(0), 1000, ROW_20))
    assert dropped == 1
    for tag, values in clean_estimates.items():
        assert estimates[tag].tobytes() == values[1:].tobytes()
    clean, study = both(lambda: harness.run_study((20,), [(1.0, EXACT)], 1000, SEED,
                                                  table={20: ROW_20}))
    assert (clean.excluded, study.excluded) == ({(20, 1.0): 0}, {(20, 1.0): 1})
    assert [row.replicates for row in study.metrics + study.coverage] == [999] * 6
    assert [m[4:7] for m in study.metrics] == [harness._metrics(v, 1.0) for v in estimates.values()]

    regime = co.ExactFiniteT(1.0, 0.5, 40.0)
    (_, raw, _, _), (_, kept, _, dropped) = both(lambda: est.simulated_estimates(
        10, regime, RngStream(SEED), 4000, None, ()))
    assert dropped == 1 and kept.tobytes() == raw[1:].tobytes()
    _, sweep = both(lambda: harness.constant_sweep(10, 0.5, regime, [0.8], 4000,
                                                   RngStream(SEED)))
    assert sweep.rows[0].mse == np.mean((0.8 * kept - 0.5) ** 2)

    spec = ci.ConfidenceSpec.from_constants_row(ROW_20)
    (_, raw, _, _), _ = both(lambda: est.simulated_estimates(
        20, EXACT, RngStream(SEED).child(1), 1000, None, ()))
    clean, cov = both(lambda: ci.coverage_study(20, 1.0, EXACT, 1000, RngStream(SEED),
                                                spec=spec))
    assert cov.coverage == ci.covered_fraction(raw[1:], spec, 1.0)
    assert (clean.replicates, cov.replicates) == (1000, 999)

    (_, raw, _, _), _ = both(lambda: est.simulated_estimates(
        200, co.LargeN(1.0, 4.0 * math.log(200)), RngStream(SEED), 1000, None, ()))
    clean, report = both(lambda: harness.asymptotics_check(200, 1.0, 1000, RngStream(SEED)))
    assert (clean.replicates, report.replicates) == (1000, 999)
    scaled = math.sqrt(200) * (cal.c_inv_closed_form(200) * raw[1:] - 1.0)
    assert report.var_scaled_inv == float(np.var(scaled))
    assert math.isfinite(report.var_scaled_lengths)


def test_a_repeated_cell_adds_its_excluded_count_to_the_first_ones(monkeypatch, tmp_path):
    planted = iter([1, 2])  # constant rows in cell 0, then in cell 1

    def constant_rows(chunk):
        rows = next(planted)
        chunk[:rows] = chunk[:rows, :1]

    monkeypatch.setattr(est, "height_draws", with_chunks_changed(
        est.height_draws, {0: constant_rows}))
    regime = co.make_regime("exact", 0.3, 40.0)
    study = harness.run_study((5,), [(0.3, regime), (0.3, regime)], 300, SEED, ("MSE",),
                              {5: ROW_20._replace(n=5)})
    assert [m.replicates for m in study.metrics] == [299, 298]
    paths = harness.write_study_outputs(study, tmp_path, PARAMETERS)
    assert json.loads(paths["summary"].read_text())["excluded_degenerate"] == {"n=5,r=0.3": 3}


REGIMES = {"exact": EXACT, "fixed-n": co.FixedNLimit(1.0), "large-n": co.LargeN(1.0, 40.0)}


@pytest.mark.parametrize("n", [3, 20, 100])
@pytest.mark.parametrize("regime", REGIMES, ids=list(REGIMES))
def test_simulated_estimates_are_the_same_bits_on_any_cpu_count(monkeypatch, regime, n):
    # three chunks, the last ragged; n = 3 keeps to the cheaper kernels
    count = 2 * co.chunk_rows(n) + 7
    tags = ("MSE", "Lengths") if n == 3 else harness.ALL_ESTIMATORS
    results = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda cpus=cpus: cpus)
        results.append(est.simulated_estimates(n, REGIMES[regime], RngStream(SEED), count,
                                               ROW_20, tags))
    for estimates, raw, unconverged, dropped in results[1:]:
        assert raw.tobytes() == results[0][1].tobytes()
        assert (unconverged, dropped) == results[0][2:]
        assert list(estimates) == list(tags)
        for tag, values in estimates.items():
            assert values.tobytes() == results[0][0][tag].tobytes(), tag


def test_many_small_chunks_on_more_threads_than_cores_keep_their_bits(monkeypatch):
    # 154 chunks of 13 rows on 7 threads, switching threads as often as it can:
    # a chunk stored at the wrong place or drawn out of order changes the bits
    monkeypatch.setattr(co, "_CHUNK_HEIGHTS", 1 << 8)
    regime, tags = REGIMES["exact"], ("MSE", "Lengths", "MLE")
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 1)
    serial = est.simulated_estimates(20, regime, RngStream(SEED), 2000, ROW_20, tags)
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = est.simulated_estimates(20, regime, RngStream(SEED), 2000, ROW_20, tags)
    finally:
        sys.setswitchinterval(interval)
    assert threaded[1].tobytes() == serial[1].tobytes()
    assert threaded[2:] == serial[2:]
    for tag in tags:
        assert threaded[0][tag].tobytes() == serial[0][tag].tobytes(), tag


def test_simulated_estimates_start_no_thread_on_one_cpu_nor_more_than_chunks(monkeypatch):
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "made", 0)
    monkeypatch.setattr(CountedThread, "limit", 2)
    regime, count = REGIMES["exact"], 2 * co.chunk_rows(20) + 7  # three chunks
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 1)
    est.simulated_estimates(20, regime, RngStream(SEED), count, None, ())
    assert CountedThread.made == 0
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 100)
    est.simulated_estimates(20, regime, RngStream(SEED), count, None, ())
    assert CountedThread.made == 2  # the calling thread runs the third chunk
    est.simulated_estimates(20, regime, RngStream(SEED), 100, None, ())  # one chunk
    assert CountedThread.made == 2


def refuse_rows(chunk, rows, scale=1e200):
    """Give the first `rows` rows of a chunk a moment start the fit refuses:
    b*b overflows at scale 1e200 (first: b=inf) and underflows at 1e-300
    (first: b=0.0)."""
    chunk[:rows] = scale * np.arange(chunk.shape[1])


def test_the_first_refusal_in_chunk_order_is_raised_whatever_finishes_first(monkeypatch):
    # chunk 1 refuses one row, chunk 2 two rows; chunk 1 waits for chunk 2's
    # estimates before it is ready for its own, so chunk 2 finishes first
    real_estimates = est.estimates_for_matrix
    chunk_2_done, finished = threading.Event(), []

    def chunk_1(chunk):
        assert chunk_2_done.wait(timeout=60)
        refuse_rows(chunk, 1, scale=1e-300)

    def estimates(h, row, tags):
        found = real_estimates(h, row, tags)
        finished.append(int(np.count_nonzero(found.fits["MLE"].refused)))
        if finished[-1] == 2:
            chunk_2_done.set()
        return found

    monkeypatch.setattr(est, "height_draws", with_chunks_changed(
        est.height_draws, {1: chunk_1, 2: partial(refuse_rows, rows=2)}))
    monkeypatch.setattr(est, "estimates_for_matrix", estimates)
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 3)
    count = 4 * co.chunk_rows(20) + 7
    # counted over the run; the first refused row is chunk 1's
    with pytest.raises(NonConvergence, match=(
            f"^moment start out of range in 3 of {count} rows \\(first: b=0\\.0\\)$")):
        est.simulated_estimates(20, REGIMES["exact"], RngStream(SEED), count, None, ("MLE",))
    assert finished.index(2) < finished.index(1)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_simulated_estimates_raise_the_first_fault_in_chunk_order(monkeypatch, cpus):
    # the faults are judged over the run: a non-finite row anywhere refuses
    # it, else the refused fits are counted over every chunk and the first
    # refused row in chunk order is named
    real_draws = est.height_draws
    count = 4 * co.chunk_rows(20) + 7  # five full-size chunks
    step = co.chunk_rows(20, min(cpus, 5))  # the chunk length the run uses

    def poison(chunk):
        chunk[::3, 0] = np.nan

    def run(changes):
        monkeypatch.setattr(est, "height_draws", with_chunks_changed(real_draws, changes))
        est.simulated_estimates(20, REGIMES["exact"], RngStream(SEED), count, ROW_20,
                                ("MSE", "MLE"))

    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: cpus)
    two, three = partial(refuse_rows, rows=2, scale=1e-300), partial(refuse_rows, rows=3)
    with pytest.raises(NonConvergence, match=(
            f"^moment start out of range in 5 of {count} rows \\(first: b=0\\.0\\)$")):
        run({1: two, 2: three})
    with pytest.raises(NonConvergence, match=(
            f"^moment start out of range in 5 of {count} rows \\(first: b=inf\\)$")):
        run({1: three, 2: two})
    # a non-finite row after the refusals still refuses the run
    per_chunk = -(-step // 3)
    with pytest.raises(NonFiniteTimes, match=f"^{per_chunk} of {count} rows hold non-f"):
        run({1: two, 2: three, 3: poison})
    # counting the non-finite rows of every chunk, the later poisoned one too
    with pytest.raises(NonFiniteTimes, match=f"^{2 * per_chunk} of {count} rows hold non-f"):
        run({1: poison, 2: three, 3: poison})


def test_simulated_faults_read_the_same_on_any_cpu_count(monkeypatch):
    # 2000 rows of 4 heights in chunks of 64 // threads rows; each run plants
    # the same rows of the whole matrix, so every chunking sees the same faults
    monkeypatch.setattr(co, "_CHUNK_HEIGHTS", 1 << 8)
    left = [0.0, 1e-161, 5e-162, 2e-162]  # the fit leaves the feasible region
    over, under = ([scale * k for k in range(4)] for scale in (1e200, 1e-300))
    refused = {50: [1.0] * 4, 100: left, 300: over, 700: under, 1200: left}  # 50: dropped
    runs = {
        "refused": (refused, NonConvergence,
                    "moment start out of range in 2 of 1999 rows (first: b=inf)"),
        "left": ({50: [1.0] * 4, 100: left, 1200: left}, NonConvergence,
                 "optimizer left the feasible region in 2 of 1999 rows "
                 "(first: a=4.999999999999999e-162, b=0.0)"),
        "both": ({10: [np.nan] * 4, **refused, 1999: [np.inf] * 4}, NonFiniteTimes,
                 "2 of 2000 rows hold non-finite coalescence times"),
    }
    real_draws = est.height_draws
    for name, (rows, error, message) in runs.items():
        monkeypatch.setattr(est, "height_draws", with_rows_set(real_draws, rows))
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(error) as raised:
                est.simulated_estimates(5, REGIMES["exact"], RngStream(SEED), 2000, ROW_20,
                                        ("MSE", "MLE"))
            assert str(raised.value) == message, (name, cpus)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_simulated_chunks_reuse_freed_memory_instead_of_faulting_it_in():
    # a fresh process: a test run before may have raised the thresholds already
    code = "\n".join([
        "import resource",
        "from bdgrowth import coalescent as co, estimators as est",
        "from bdgrowth.rng import RngStream",
        "regime = co.ExactFiniteT(1.0, 0.0, 40.0)",
        "est.simulated_estimates(100, regime, RngStream(1), 20_000, None, ())",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "est.simulated_estimates(100, regime, RngStream(1), 20_000, None, ())",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    # about 9 000 on one thread and 13 000 on two when each chunk's arrays go back
    assert int(done.stdout) < 2000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's per-thread arenas")
def test_simulation_memory_does_not_grow_with_the_thread_count():
    # a fresh process per CPU count: each thread's malloc arena keeps what its
    # chunks freed, so the threads must split one budget of heights between
    # them. The peak is the process's own VmHWM: ru_maxrss keeps that of the
    # process it was forked from.
    code = "\n".join([
        "import sys",
        "import bdgrowth.rng",
        "from bdgrowth import coalescent as co, confidence as ci",
        "from bdgrowth.rng import RngStream",
        "def peak():",
        "    with open('/proc/self/status') as status:",
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM'))",
        "bdgrowth.rng.usable_cpus = lambda: int(sys.argv[1])",
        "spec, regime = ci.ConfidenceSpec(0.5, 2.0), co.ExactFiniteT(1.0, 0.0, 40.0)",
        "base = peak()",
        "for n in (20, 100):",
        "    ci.coverage_study(n, 1.0, regime, 20_000, RngStream(1), spec)",
        "print(peak() - base)",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    growth = [int(subprocess.run([sys.executable, "-c", code, str(cpus)], capture_output=True,
                                 text=True, check=True, env={**os.environ, "PYTHONPATH": src},
                                 timeout=120).stdout) for cpus in (1, 7)]
    # 2-vCPU x86 host: about 10.7 MB on 1 thread and 14.6 MB on 7; a full-size
    # chunk per thread took 35 MB on 7
    assert growth[1] < 2 * growth[0], growth


def test_run_cell_memory_is_bounded_by_the_chunks():
    # one cell of a run_study grid; the whole height matrix and the fit's terms peaked at 92 MiB or more here
    row = ROW_20._replace(n=100)
    tracemalloc.start()
    try:
        harness.run_study((100,), [(1.0, EXACT)], 10_000, 0, table={100: row})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20


def test_study_reports_unconverged_fits_once_per_cell(small_constants, monkeypatch, capsys,
                                                      tmp_path):
    mle = est.METHODS["MLE"]

    def two_unconverged(h):
        values, fit = mle.rows(h)
        fit.converged[:2] = False
        return values, fit

    monkeypatch.setitem(est.METHODS, "MLE", mle._replace(rows=two_unconverged))
    study = partial(harness.run_study, (5, 10), CELLS, 50, SEED, ("Inv", "MLE"), small_constants)
    result = study()
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: n={n} r={r}: 2 of 50 MLE fits did not converge; "
                   f"their estimates are the last iterate" for n in (5, 10) for r in (0.5, 1.0)]
    # the outputs carry no trace of it
    monkeypatch.undo()
    quiet = study()
    assert capsys.readouterr().err == ""
    for name, run in (("warned", result), ("quiet", quiet)):
        harness.write_study_outputs(run, tmp_path / name, PARAMETERS)
    for name in ("metrics.csv", "densities.csv", "coverage.csv", "summary.json"):
        assert (tmp_path / "warned" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes()


def test_study_outputs_are_byte_stable(tmp_path, small_constants):
    study = partial(harness.run_study, (5,), [(1.0, EXACT)], 200, SEED, table=small_constants,
                    calibration_replicates=50_000)
    harness.write_study_outputs(study(), tmp_path / "one", PARAMETERS)
    harness.write_study_outputs(study(), tmp_path / "two", PARAMETERS)
    for name in ("metrics.csv", "densities.csv", "coverage.csv", "summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_study_worker_count_independent(monkeypatch, small_constants):
    # n = 10 cells take three chunks, n = 5 cells one
    results = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda cpus=cpus: cpus)
        results.append(harness.run_study((5, 10), CELLS, 2 * co.chunk_rows(10) + 7, SEED,
                                         ("MSE", "Lengths", "MLE"), small_constants))
    assert all(result == results[0] for result in results[1:])


def test_config_validation(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("drew before every value was checked")

    monkeypatch.setattr(cal, "sample_sn", refused)
    monkeypatch.setattr(est, "height_draws", refused)
    for ns, replicates, estimators, message in [
        ((5,), 0, ("Inv",), "need at least one replicate"),
        ((5, 2), 100, ("Inv",), "study needs n >= 3"),
        ((5,), 100, ("Inv", "Nope"), "unknown estimator 'Nope'"),
    ]:
        with pytest.raises(ValueError, match=message):
            harness.run_study(ns, [(1.0, EXACT)], replicates, SEED, estimators,
                              calibration_replicates=20_000)


def test_experiments_score_against_the_given_rate_not_the_regimes_lam_minus_mu():
    regime = co.make_regime("exact", 0.3, 40.0)
    assert regime.r == 0.30000000000000004  # 1 - (1 - 0.3)
    row = ROW_20._replace(n=5)
    spec = ci.ConfidenceSpec.from_constants_row(row)
    study = harness.run_study((5,), [(0.3, regime)], 500, SEED, ("MSE", "Inv"), {5: row})
    estimates, raw, _, _ = est.simulated_estimates(5, regime, RngStream(SEED).child(0), 500, row,
                                                   ("MSE", "Inv"))
    assert [m.r for m in study.metrics + study.coverage] == [0.3] * 3
    for m, values in zip(study.metrics, estimates.values()):
        assert (m.mse, m.mae, m.bias) == harness._metrics(values, 0.3)
        assert (m.mse, m.bias) != harness._metrics(values, regime.r)[::2]
    assert study.coverage[0].coverage == ci.covered_fraction(raw, spec, 0.3)

    assert ci.coverage_study(5, 0.3, regime, 1000, RngStream(SEED), spec).r == 0.3
    _, raw, _, _ = est.simulated_estimates(5, regime, RngStream(SEED), 2000, None, ())
    sweep = harness.constant_sweep(5, 0.3, regime, [0.8], 2000, RngStream(SEED))
    err, off = 0.8 * raw - 0.3, 0.8 * raw - regime.r
    assert sweep.rows[0][1:] == (np.mean(err * err), abs(np.mean(err)))
    assert sweep.rows[0][1:] != (np.mean(off * off), abs(np.mean(off)))


# ---------------------------------------------------------------------------
# constant sweep
# ---------------------------------------------------------------------------


def test_sweep_curves_and_argmins(small_constants):
    grid = np.arange(0.3, 1.3001, 0.02)
    sweep = harness.constant_sweep(10, 0.5, co.ExactFiniteT(1.0, 0.5, 40.0), grid, 4000,
                                   RngStream(SEED))
    assert len(sweep.rows) == grid.size
    # the rescaled-error curve is an exact quadratic in c, so a quadratic
    # fit must open upward with an interior minimum
    cs = np.array([row.c for row in sweep.rows])
    mses = np.array([row.mse for row in sweep.rows])
    quad = np.polyfit(cs, mses, 2)
    argmin = -quad[1] / (2 * quad[0])
    assert quad[0] > 0
    assert grid[0] < argmin < grid[-1]
    assert abs(sweep.argmin_mse_c - small_constants[10].c_mse) < 0.15
    assert abs(sweep.argmin_bias_c - small_constants[10].c_bias) < 0.15


# ---------------------------------------------------------------------------
# large-sample variance
# ---------------------------------------------------------------------------


def test_asymptotics_smoke():
    report = harness.asymptotics_check(200, 1.0, 2000, RngStream(SEED))
    assert report.target_inv == pytest.approx(0.7101, abs=1e-4)
    assert 0.5 < report.var_scaled_inv < 1.0
    assert 0.7 < report.var_scaled_lengths < 1.3
    assert 0.0 <= report.ks_pvalue_inv <= 1.0


def test_asymptotics_needs_large_n():
    with pytest.raises(ValueError):
        harness.asymptotics_check(50, 1.0, 2000, RngStream(1))
