"""Tests of the benchmark itself, not of bdgrowth.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import newickgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIZES = workloads.TABLE_SIZES

# Runs the CLI, then changes one Inv estimate in its output by 0.1%.
CORRUPTING_CLI = """
import sys
import bdgrowth.cli
code = bdgrowth.cli.main(sys.argv[1:])
path = sys.argv[sys.argv.index("--out") + 1]
lines = open(path).read().splitlines()
fields = lines[1].split(",")
fields[3] = repr(float(fields[3]) * 1.001)
lines[1] = ",".join(fields)
open(path, "w").write("\\n".join(lines) + "\\n")
sys.exit(code)
"""

# Runs a 200 MB child, then an empty one; prints both peaks and RUSAGE_CHILDREN's.
RSS_PROBE = """
import json, resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
env, tmp = run.program_env(), Path(sys.argv[2])
big = run.run_child([sys.executable, "-c", "b = b'x' * (200 * 2**20)"], env, tmp / "a")
small = run.run_child([sys.executable, "-c", "pass"], env, tmp / "b")
children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps([big.peak_rss_mb, small.peak_rss_mb, children]))
"""


def test_generator_writes_identical_bytes_for_the_same_seed():
    text, _ = newickgen.make_batch(7, 40, SIZES)
    assert newickgen.make_batch(7, 40, SIZES)[0] == text
    assert newickgen.make_batch(8, 40, SIZES)[0] != text


def test_generated_trees_hold_the_heights_the_generator_reports():
    text, truths = newickgen.make_batch(3, 60, SIZES)
    assert "''" in text and "[&" in text and "'sample " in text
    trees = newickgen.read_trees(text)
    assert [t.n for t in truths] == [SIZES[i % len(SIZES)] for i in range(60)]
    for tree, truth in zip(trees, truths, strict=True):
        heights, tips = newickgen.node_heights(tree)
        assert len(tips) == truth.n
        assert sorted(heights) == pytest.approx(sorted(truth.heights), rel=1e-10)


def test_corrupted_output_is_caught_and_counted_in_failed_frac(tmp_path):
    (tmp_path / "in").mkdir()
    workload = workloads.Newick(5, tmp_path / "in", trees=12)

    clean = run.Runner(workload, tmp_path)
    it = clean.run([sys.executable, "-m", "bdgrowth.cli"], "clean")
    assert (it.child.exit_code, it.failed) == (0, 0), it.problems

    corrupt = run.Runner(workload, tmp_path)
    for _ in range(2):
        # the second run writes the same wrong bytes and must count the same
        it = corrupt.run([sys.executable, "-c", CORRUPTING_CLI], "corrupt")
        assert it.child.exit_code == 0
        assert it.failed == 1 and "tree 0 Inv" in it.problems[0]
    assert corrupt.attempted == 2 * workload.items
    assert corrupt.failed / corrupt.attempted == pytest.approx(1 / 12)


def test_a_failing_command_or_changed_bytes_fail_every_item(tmp_path):
    (tmp_path / "in").mkdir()
    workload = workloads.Newick(5, tmp_path / "in", trees=12)
    runner = run.Runner(workload, tmp_path)
    it = runner.run([sys.executable, "-c", "import sys; sys.exit(3)", "--"], "exit3")
    assert it.failed == workload.items

    runner.reference = "digest of an earlier run"
    out = tmp_path / "other"
    out.mkdir()
    (out / "estimates.csv").write_text("input\n")
    assert runner.judge(run.Child(1.0, 1.0, 1.0, 0, ""), out).failed == workload.items


def test_peak_rss_is_measured_per_child(tmp_path):
    # A child's peak RSS includes what it shared with its parent before exec,
    # so the probe runs from a parent as small as the benchmark's, not pytest.
    probe = subprocess.run([sys.executable, "-c", RSS_PROBE, str(BENCH), str(tmp_path)],
                           capture_output=True, text=True, check=True, timeout=60)
    big, small, all_children = json.loads(probe.stdout)
    assert big > 190
    assert small < 60
    # RUSAGE_CHILDREN would have charged the small child with the big one's peak
    assert all_children > 190


def test_tracer_sees_calls_made_through_names_imported_by_other_modules(tmp_path):
    text, _ = newickgen.make_batch(2, 6, SIZES)
    (tmp_path / "t.nwk").write_text(text)
    spans_path = tmp_path / "spans.json"
    child = run.run_child(
        [sys.executable, str(BENCH / "tracing.py"), str(spans_path), "--", "estimate",
         str(tmp_path / "t.nwk"), "--methods", "Lengths", "--constants", str(workloads.TABLE),
         "--out", str(tmp_path / "e.csv")],
        run.program_env(), tmp_path / "log")
    assert child.exit_code == 0, child.log
    data = json.loads(spans_path.read_text())
    by_id = {s[0]: s for s in data["spans"]}
    lengths = [s for s in data["spans"] if s[1] == "treeio.tree_internal_branch_length"]
    assert len(lengths) == 6
    assert {by_id[s[4]][1] for s in lengths} == {"estimators.estimate_lengths"}
    metrics = tracing.layer_metrics(data["spans"], data["counters"])
    assert metrics["treeio.trees_parsed"] == 6
    assert metrics["treeio.extract_per_tree"] == 1.0


def test_self_time_subtracts_child_spans_and_inclusive_time_counts_outermost():
    spans = [(0, "a.f", 0, 10, -1), (1, "b.g", 2, 5, 0), (2, "a.f", 6, 8, 0)]
    ix = tracing.SpanIndex(spans)
    assert ix.self_ns["a"] == (10 - 3 - 2) + 2
    assert ix.self_ns["b"] == 3
    assert ix.inclusive_ns["a.f"] == 10
    assert ix.calls["a.f"] == 2


def test_benchmark_json_matches_the_metrics_and_workloads_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = list(tracing.layer_metrics([], {})) + list(run.PROCESS_METRICS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric


def test_import_times_reads_top_level_and_scipy_stats_entries():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        300 | site\n"
           "import time:      2000 |    1200000 |     scipy.stats\n"
           "import time:      5000 |    1500000 | bdgrowth.cli\n")
    assert run.import_times(log) == (1.5003, 1.2)
