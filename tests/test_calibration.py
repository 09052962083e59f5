"""Calibration: the closed-form constant, Monte Carlo moments of the pivot,
quantile machinery, and the persisted constants table."""

import itertools
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from oracles import CountedThread
from bdgrowth import calibration as cal
from bdgrowth import coalescent as co
from bdgrowth.errors import InsufficientReplicates
from bdgrowth.estimators import raw_pairwise_rows
from bdgrowth.rng import RngStream, each_item, open_uniform

SEED = 20260808


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_closed_form_small_values():
    assert cal.c_inv_closed_form(3) == pytest.approx(0.75, rel=1e-14)
    assert cal.c_inv_closed_form(5) == pytest.approx(0.7986, abs=1e-4)
    assert cal.c_inv_closed_form(10) == pytest.approx(0.8571, abs=1e-4)


def test_closed_form_undefined_below_three():
    with pytest.raises(ValueError):
        cal.c_inv_closed_form(2)


def test_closed_form_monotone_increasing_to_one():
    # same ascending harmonic summation as the scalar routine, vectorized
    n = np.arange(2, 10_001)
    harmonic = np.cumsum(1.0 / np.arange(1, 10_001))
    values = n[3:] / (n[3:] - 2) * (1.0 - harmonic[3:-1] / (n[3:] - 1))  # n = 5..10000
    assert np.all(np.diff(values) > 0)
    assert values[-1] > 0.999
    assert values[0] == pytest.approx(cal.c_inv_closed_form(5), rel=1e-14)
    assert values[-1] == pytest.approx(cal.c_inv_closed_form(10_000), rel=1e-12)


# ---------------------------------------------------------------------------
# S_n sampling
# ---------------------------------------------------------------------------


def test_sample_sn_deterministic_and_positive():
    a = cal.sample_sn(6, 5000, RngStream(SEED))
    b = cal.sample_sn(6, 5000, RngStream(SEED))
    assert np.array_equal(a, b)
    assert np.all(a > 0)
    assert a.size == 5000


def test_sample_sn_worker_count_independent(monkeypatch):
    # each thread count splits the chunk buffers, so the chunks differ too
    for n, replicates in itertools.product((3, 20, 100), (10_000, 120_001)):
        drawn = set()
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda cpus=cpus: cpus)
            drawn.add(cal.sample_sn(n, replicates, RngStream(SEED)).tobytes())
        assert len(drawn) == 1, (n, replicates)


def test_sample_sn_starts_one_thread_less_than_it_runs(monkeypatch):
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "made", 0)
    monkeypatch.setattr(CountedThread, "limit", 2)
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 100_000)
    cal.sample_sn(5, 120_000, RngStream(SEED))  # three blocks
    assert CountedThread.made == 2  # the calling thread runs the third share
    cal.sample_sn(5, 50_000, RngStream(SEED))  # one block
    monkeypatch.setattr("bdgrowth.rng.usable_cpus", lambda: 1)
    cal.sample_sn(5, 120_000, RngStream(SEED))
    assert CountedThread.made == 2


def test_each_item_returns_the_results_in_item_order_reading_the_items_in_order():
    # 400 items, each drawn by a generator, on 7 threads switching as often as
    # they can; an item takes up to 1 ms, so items end out of order
    def draws(gen):
        for _ in range(400):
            yield gen.random(5)

    def run(slot, u):
        assert 0 <= slot < 7
        time.sleep(u[0] / 1000)
        return u.tobytes()

    serial = [run(0, u) for u in draws(np.random.default_rng(SEED))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = each_item(run, draws(np.random.default_rng(SEED)), 7)
        assert each_item(run, iter(()), 7) == []
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_each_item_raises_a_threads_error_after_every_thread_ends():
    failed = threading.Event()

    def run(slot, i):
        if i == 1:
            failed.set()
            raise FloatingPointError(f"item {i}")
        if threads > 1:  # item 0 ends on its thread after item 1 failed on the other
            assert failed.wait(timeout=60)
            time.sleep(0.05)
        done.append(i)

    def items():
        for i in range(100):
            taken.append(i)
            yield i

    for threads in (1, 2):
        taken, done = [], []
        with pytest.raises(FloatingPointError, match="item 1"):
            each_item(run, items(), threads)
        assert done == [0]  # raised once item 0's thread had ended
        assert taken == [0, 1]  # no item is taken after the error


def sn_one_shot(n, replicates, rng):
    """S_n as whole stream blocks give it: each block's latent column, then
    its full uniform matrix through _sn_block's transform."""
    for block, start in enumerate(range(0, replicates, cal._SN_BLOCK)):
        gen = rng.child(block).generator()
        count = min(cal._SN_BLOCK, replicates - start)
        q = co.sample_q(n, gen, size=(count, 1))
        v = open_uniform(gen, (count, n - 1))
        yield raw_pairwise_rows(np.log((q * v + 1.0) / (1.0 - v)))


@pytest.mark.parametrize("n", [3, 100, 257])
def test_sample_sn_is_the_one_shot_draw_for_any_count(n):
    step = max(1, co._CHUNK_HEIGHTS // (n - 1))
    for count in (1, step - 1, step, step + 1, 50_001):
        values = cal.sample_sn(n, count, RngStream(SEED))
        start = 0
        for block in sn_one_shot(n, count, RngStream(SEED)):
            assert np.array_equal(values[start:start + len(block)], block)
            start += len(block)
        assert start == values.size == count


def test_sample_sn_memory_is_bounded_by_the_chunks():
    # whole 5*10^4-row blocks peaked at 114.5 MiB here
    tracemalloc.start()
    try:
        cal.sample_sn(100, 100_000, RngStream(SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_monte_carlo_c_inv_matches_closed_form():
    sample = cal.sample_sn(10, 200_000, RngStream(SEED).child(10))
    mc = oracles.c_inv_monte_carlo(sample)
    se = float(np.std(1.0 / sample)) / math.sqrt(sample.size)
    assert abs(mc - cal.c_inv_closed_form(10)) < 3 * se


def test_moment_ratios_on_constant_sample():
    sample = np.full(100, 2.5)
    assert cal.c_mse(sample) == pytest.approx(0.4, rel=1e-14)
    assert cal.c_bias(sample) == pytest.approx(0.4, rel=1e-14)


def test_cauchy_schwarz_ordering_holds_in_sample():
    for n in (5, 10):
        sample = cal.sample_sn(n, 20_000, RngStream(SEED).child(n))
        assert cal.c_mse(sample) <= cal.c_bias(sample)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def test_quantiles_refuse_small_samples():
    sample = cal.sample_sn(5, 5000, RngStream(SEED))
    with pytest.raises(InsufficientReplicates):
        cal.sn_quantiles(sample)


def test_linear_quantiles_are_numpys_bit_for_bit():
    # sizes 1..3000, scales 1e-5..1e5, both signs, ties from rounding, and
    # an inf among the values; a sample holding NaN gives NaN, as numpy does
    gen = np.random.default_rng(SEED)
    probs = [0.0, 1.0, 0.025, 0.975, 0.999]
    for k in range(10_000):
        size = int(gen.integers(1, 3001)) if k % 2 else int(np.exp(gen.uniform(0, np.log(3000))))
        values = gen.standard_normal(size) * 10.0 ** gen.uniform(-5, 5)
        if k % 3 == 0:
            values = np.round(values, int(gen.integers(0, 3)))
        if k % 11 == 0:
            values[gen.integers(size)] = np.inf
        if k % 7 == 0:
            values[gen.integers(size)] = np.nan
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy interpolates
            want = np.quantile(values, probs, method="linear").tolist()
        got = cal.linear_quantiles(values, probs)
        assert [x.hex() for x in got] == [x.hex() for x in want], (k, size)
        if k % 7 == 0:
            assert all(math.isnan(x) for x in got)


def test_linear_quantiles_leave_the_sample_and_refuse_a_probability_outside_zero_one():
    values = np.array([3.0, 1.0, 2.0])
    assert cal.linear_quantiles(values, (0.5, 0.75)) == [2.0, 2.5]
    assert values.tolist() == [3.0, 1.0, 2.0]
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            cal.linear_quantiles(values, (p,))


def test_fresh_draws_fall_below_lower_quantile_at_nominal_rate():
    n = 5
    reference = cal.sample_sn(n, 1_000_000, RngStream(SEED).child(n))
    q_lo, q_hi = cal.sn_quantiles(reference)
    fresh = cal.sample_sn(n, 1_000_000, RngStream(SEED + 1).child(n))
    below = float(np.mean(fresh < q_lo))
    above = float(np.mean(fresh > q_hi))
    assert below == pytest.approx(0.025, abs=0.002)
    assert above == pytest.approx(0.025, abs=0.002)


# ---------------------------------------------------------------------------
# moment identities of the limiting logistic law
# ---------------------------------------------------------------------------


def test_moment_identities_enforce_replicate_floor():
    with pytest.raises(InsufficientReplicates):
        oracles.moment_identities_check(10_000, RngStream(1))


def test_moment_identities_values():
    checks = oracles.moment_identities_check(1_000_000, RngStream(7))
    assert checks.e_plus == pytest.approx(1.0, abs=0.02)
    assert checks.e_plus_sq == pytest.approx(math.pi ** 2 / 3.0, abs=0.02)
    assert checks.e_chain == pytest.approx(2.0 - math.pi ** 2 / 6.0, abs=0.01)
    assert checks.e_shared_top == pytest.approx(2.0, abs=0.02)


# ---------------------------------------------------------------------------
# constants table
# ---------------------------------------------------------------------------


def test_build_row_ordering_invariant():
    row = cal.build_constants_row(8, 50_000, SEED)
    assert 0 < row.c_mse < row.c_bias < row.c_inv < 1
    assert row.c_inv == cal.c_inv_closed_form(8)


def test_table_round_trip_and_byte_stability(tmp_path):
    path = tmp_path / "constants.csv"
    rows = cal.build_constants_table([5, 8], 20_000, SEED, path=path)
    first = path.read_bytes()
    loaded = cal.load_constants_table(path)
    assert loaded[5] == rows[0]
    assert loaded[8] == rows[1]
    cal.build_constants_table([5, 8], 20_000, SEED, path=path)
    assert path.read_bytes() == first


def test_row_independent_of_other_table_entries():
    lone = cal.build_constants_table([8], 20_000, SEED)[0]
    paired = cal.build_constants_table([5, 8], 20_000, SEED)[1]
    assert lone == paired


def test_build_constants_table_refuses_too_few_replicates_before_its_first_draw(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("drew before the replicate floor was checked")

    monkeypatch.setattr(cal, "sample_sn", refused)
    with pytest.raises(InsufficientReplicates, match="9999 replicates"):
        cal.build_constants_table([5, 8], 9999, SEED)


class MixedRow(NamedTuple):
    label: str
    count: int
    x: float
    y: float
    z: float
    w: float


def test_write_rows_writes_the_bytes_of_g17_and_str(tmp_path):
    rows = [
        MixedRow("a", 3, 0.1, np.float64(1 / 3), 0.95, -0.0),
        MixedRow("b c", -12, math.inf, -math.inf, math.nan, 1e-320),
        MixedRow("", 0, 2.0 ** 70, np.float64(-2.5e-300), 1.0, 5e17),
    ]
    path = tmp_path / "rows.csv"
    cal.write_rows(path, "label,count,x,y,z,w", rows)
    old = ["label,count,x,y,z,w"] + [
        ",".join(cal.g17(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "\n".join(old) + "\n"
    cal.write_rows(path, "label,count,x,y,z,w", [])
    assert path.read_text(encoding="utf-8") == "label,count,x,y,z,w\n"


def test_write_rows_refuses_a_value_that_is_not_a_number_in_a_float_field(tmp_path):
    rows = [MixedRow("a", 1, 0.5, 0.5, 0.5, 0.5), MixedRow("b", 2, 0.5, None, 0.5, 0.5)]
    with pytest.raises(TypeError):
        cal.write_rows(tmp_path / "rows.csv", "label,count,x,y,z,w", rows)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("n,c_inv\n5,0.8\n")
    with pytest.raises(ValueError):
        cal.load_constants_table(path)


@pytest.mark.parametrize("line", ["5,x,0.35,0.78,2,0.5,1000,3",  # a float field
                                  "5,1.3,0.35,0.78,2,0.5,1e3,3",  # an int field
                                  "5,1.3,0.35,0.78,2,0.5,1000"])  # a field short
def test_load_names_the_file_and_the_row_it_cannot_read(tmp_path, line):
    path = tmp_path / "constants.csv"
    path.write_text(f"# {cal._TABLE_VERSION}\n{cal._TABLE_COLUMNS}\n"
                    f"3,0.75,0.5,0.6,2,0.5,1000,3\n{line}\n")
    with pytest.raises(ValueError) as refused:
        cal.load_constants_table(path)
    assert str(refused.value) == f"{path}: malformed row {line!r}"


@pytest.mark.parametrize("line, problem", [
    ("5,0.79,nan,0.59,1.7,0.2,1000,1", "constants and quantiles must be finite and positive"),
    ("5,0.79,0.35,inf,1.7,0.2,1000,1", "constants and quantiles must be finite and positive"),
    ("5,0.79,0.35,0.59,1.7,-0.2,1000,1", "constants and quantiles must be finite and positive"),
    ("5,0.79,0.35,0.59,0.2,1.7,1000,1", "need inv_q_hi < inv_q_lo"),
    ("2,0.79,0.35,0.59,1.7,0.2,1000,1", "need n >= 3 and at least one replicate"),
    ("5,0.79,0.35,0.59,1.7,0.2,0,1", "need n >= 3 and at least one replicate"),
    ("3,0.75,0.6,0.5,2,0.5,1000,3", "c_mse > c_bias"),
    ("5,0.79,0.35,0.85,1.7,0.2,1000,1", "constant ordering violated: 0.35, 0.85, 0.79"),
    ("3,0.75,0.5,0.6,2.5,0.5,1000,3", "n=3 listed twice"),
], ids=["nan-c_mse", "inf-c_bias", "negative-quantile", "quantiles-swapped", "n-2",
        "no-replicate", "c_mse-above-c_bias", "c_bias-above-c_inv", "n-listed-twice"])
def test_load_refuses_a_row_it_cannot_use(tmp_path, line, problem):
    path = tmp_path / "constants.csv"
    path.write_text(f"# {cal._TABLE_VERSION}\n{cal._TABLE_COLUMNS}\n"
                    f"3,0.75,0.5,0.6,2,0.5,1000,3\n{line}\n")
    with pytest.raises(ValueError) as refused:
        cal.load_constants_table(path)
    assert str(refused.value) == f"{path}: row {line!r}: {problem}"


def test_the_benchmark_constants_table_loads():
    table = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "constants.csv"
    assert sorted(cal.load_constants_table(table))[:3] == [5, 8, 10]


def test_n3_row_still_computes_monte_carlo_columns():
    # the closed form at n=3 is 3*(1 - (1/2)(1 + 1/2)) = 0.75; the MC columns
    # are mechanical (the ordering assertion only binds n >= 5)
    row = cal.build_constants_row(3, 20_000, SEED)
    assert row.c_inv == pytest.approx(0.75, rel=1e-14)
    assert row.c_mse > 0
    assert row.c_bias > 0


def test_large_n_table_spot_values():
    # larger tabulated entries the gate does not already pin
    sample50 = cal.sample_sn(50, 300_000, RngStream(SEED).child(50))
    assert cal.c_mse(sample50) == pytest.approx(0.92, abs=0.01)
    sample100 = cal.sample_sn(100, 300_000, RngStream(SEED).child(100))
    assert cal.c_bias(sample100) == pytest.approx(0.96, abs=0.01)
