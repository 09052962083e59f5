"""bdgrowth benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload {study,newick,simulate-trees,coverage}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it runs the program from `src/`
(`PYTHONPATH=src`, nothing installed). It is a closed loop: one client runs
one `python -m bdgrowth.cli ...` command at a time, with the CLI's default
`--workers 1`, and starts the next only when the previous has exited.

With `--trace 0` it repeats, for about S seconds, a cycle of launches on the
same inputs: in every SETUP_EVERY-th cycle the set-up launch
`python -c "import bdgrowth.cli"`, then in every cycle the reference
`python -c "import scipy.stats"` and the workload command. It reports
medians over the cycles:

    wall_rel     wall time of the command divided by that of the reference
                 launched just before it
    setup_s      wall time of the set-up launch divided by that of the
                 reference launched just after it, times REFERENCE_S: the
                 set-up time on a machine whose reference launch takes
                 REFERENCE_S seconds
    peak_rss_mb  peak resident memory of the command's own process (os.wait4)

On a shared host the CPU speed can drift by a third over minutes, and a
launch's wall time drifts with it, so the run-to-run spread of raw wall times is
wider than any useful bound. The reference does not depend on the program and
slows down with its neighbours, so their ratios stay steady; a change that
makes the command or the set-up slower raises its ratio by the same factor.
The raw figures, `wall_s` (interpreter start-up and import included),
`items_per_s` (items as defined in workloads.py) and `setup_raw_s`, are
printed and kept in the run record.

With `--trace 1` it alternates the untraced command, the same command run
in-process under the span tracer of tracing.py, and an `-X importtime`
launch, and reports the per-layer metrics (medians over the cycles).

Every run checks the outputs (workloads.py), requires each run's outputs to
be byte-identical to the first run's (traced ones too), prints
`failed_frac`, and ends with one JSON line
`{"correct", "attempted", "failed", "metrics"}`. A run record with versions,
input and output digests, per-run samples and the traced spans is written
to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
WORK = HERE / "_work"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 40.0
END_TO_END = ("wall_rel", "setup_s", "peak_rss_mb")
# Independent of bdgrowth, so that it measures the machine, not the program.
REFERENCE = ["-c", "import scipy.stats"]
# Median wall time of REFERENCE over 449 launches on a shared 2-core Xeon
# (Python 3.11, scipy 1.17); setup_s is expressed on that machine's scale.
REFERENCE_S = 1.46
SETUP = ["-c", "import bdgrowth.cli"]
# A set-up launch in every other cycle leaves more of the run to the command,
# whose ratio spreads more; setup_s is gated on its median only.
SETUP_EVERY = 2
# per-layer metrics measured on the processes rather than taken from spans
PROCESS_METRICS = ("import.total_s", "import.scipy_stats_s", "proc.cpu_s", "proc.wall_s",
                   "trace.overhead_s")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    log: str


def run_child(argv: list[str], env: dict, log_path: Path) -> Child:
    """Run one process to completion and measure it alone.

    os.wait4 reports the resource use of this child only; RUSAGE_CHILDREN
    would give the maximum RSS over every child reaped so far. The peak also
    counts the pages the child shared with this process until its exec, so
    the benchmark process must stay smaller than the commands it measures.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 proc.returncode, log_path.read_text(encoding="utf-8", errors="replace"))


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def tree_digest(directory: Path, pattern: str = "*") -> str:
    """sha256 over the relative names and bytes of the files under a directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@dataclass
class Iteration:
    child: Child
    digest: str | None
    failed: int
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs one workload's command repeatedly and judges each run's outputs."""

    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = program_env()
        self.reference: str | None = None  # digest of the first fully checked outputs
        self.reference_verdict: tuple[int, list[str]] = (0, [])  # and what its check found
        self.attempted = 0
        self.failed = 0

    def run(self, prefix: list[str], tag: str) -> Iteration:
        out = self.work / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        child = run_child(prefix + self.workload.argv(out), self.env, self.work / f"{tag}.log")
        it = self.judge(child, out)
        self.attempted += self.workload.items
        self.failed += it.failed
        return it

    def judge(self, child: Child, out: Path) -> Iteration:
        items = self.workload.items
        if child.exit_code != 0:
            return Iteration(child, None, items, [f"exit code {child.exit_code}: "
                                                  + child.log[-500:]])
        digest = tree_digest(out)
        if self.reference is None:
            try:
                failed, problems = self.workload.check(out)
            except Exception:  # malformed output of any kind fails every item
                failed, problems = items, [traceback.format_exc(limit=3)]
            self.reference = digest
            self.reference_verdict = (min(failed, items), problems[:20])
        elif digest != self.reference:
            return Iteration(child, digest, items,
                             ["outputs differ from the first run with the same seed"])
        # the same bytes are wrong in the same items every time
        return Iteration(child, digest, *self.reference_verdict)


def import_times(log: str) -> tuple[float, float]:
    """(all imports, scipy.stats) in seconds from `-X importtime` output.

    Top-level entries carry a single space before the module name; their
    cumulative times add up to the whole import.
    """
    total = scipy_stats = 0
    for line in log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column header
        if parts[2].startswith(" ") and not parts[2].startswith("  "):
            total += cumulative
        if parts[2].strip() == "scipy.stats":
            scipy_stats = max(scipy_stats, cumulative)
    return total / 1e6, scipy_stats / 1e6


def unit_of(metric: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("_rel", "ratio"), ("_per_tree", "ratio"), ("_per_s", "1/s"),
                         ("_frac", "ratio"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _loop(seconds: float, step, min_runs: int) -> None:
    """Call step() at least `min_runs` times, and again while another call
    of the last one's length still ends within `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= min_runs and now - start + (now - t0) > seconds:
            return


def measure_end_to_end(runner: Runner, seconds: float, record: dict) -> dict[str, float]:
    python = [sys.executable]
    refs: list[Child] = []
    its: list[Iteration] = []
    setups: list[tuple[Child, Child]] = []  # (set-up launch, the reference after it)

    def launch(argv: list[str], name: str) -> Child:
        child = run_child(python + argv, runner.env, runner.work / f"{name}.log")
        if child.exit_code:
            raise SystemExit(f"{' '.join(argv)} failed:\n{child.log[-2000:]}")
        return child

    def cycle():
        setup = launch(SETUP, "setup") if len(its) % SETUP_EVERY == 0 else None
        refs.append(launch(REFERENCE, "reference"))
        if setup is not None:
            setups.append((setup, refs[-1]))
        its.append(runner.run(python + ["-m", "bdgrowth.cli"], "untraced"))

    _loop(seconds, cycle, MIN_RUNS)
    wall = statistics.median(it.child.wall_s for it in its)
    record.update(reference_s=[c.wall_s for c in refs],
                  setup_s=[c.wall_s for c, _ in setups],
                  runs=[_describe(it) for it in its],
                  raw={"wall_s": wall, "items_per_s": runner.workload.items / wall,
                       "setup_raw_s": statistics.median(c.wall_s for c, _ in setups)})
    return dict(zip(END_TO_END, (
        statistics.median(it.child.wall_s / ref.wall_s for it, ref in zip(its, refs)),
        REFERENCE_S * statistics.median(s.wall_s / ref.wall_s for s, ref in setups),
        statistics.median(it.child.peak_rss_mb for it in its),
    )))


def measure_layers(runner: Runner, seconds: float, record: dict) -> dict[str, float]:
    python = [sys.executable]
    spans_path = runner.work / "spans.json"
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    layers: list[dict[str, float]] = []
    imports: list[tuple[float, float]] = []

    def cycle():
        plain.append(runner.run(python + ["-m", "bdgrowth.cli"], "untraced"))
        spans_path.unlink(missing_ok=True)
        traced.append(runner.run(python + [str(HERE / "tracing.py"), str(spans_path), "--"],
                                 "traced"))
        if spans_path.exists():
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            layers.append(tracing.layer_metrics(data["spans"], data["counters"]))
            if "spans" not in record:
                t0 = min((s[2] for s in data["spans"]), default=0)
                record["spans"] = [[sid, name, (a - t0) / 1e9, (b - t0) / 1e9, parent]
                                   for sid, name, a, b, parent in data["spans"]]
                record["counters"] = data["counters"]
        child = run_child(python + ["-X", "importtime"] + SETUP,
                          runner.env, runner.work / "importtime.log")
        imports.append(import_times(child.log))

    _loop(seconds, cycle, 1)
    record["runs"] = [_describe(it) for it in plain]
    record["traced_runs"] = [_describe(it) for it in traced]
    if not layers:
        raise SystemExit("the traced run wrote no spans:\n" + traced[-1].child.log[-2000:])
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(zip(PROCESS_METRICS, (
        statistics.median(t for t, _ in imports),
        statistics.median(s for _, s in imports),
        statistics.median(it.child.cpu_s for it in plain),
        statistics.median(it.child.wall_s for it in plain),
        statistics.median(it.child.wall_s for it in traced)
        - statistics.median(it.child.wall_s for it in plain),
    )))
    return metrics


def _describe(it: Iteration) -> dict:
    out = asdict(it.child)
    del out["log"]
    out.update(outputs_sha256=it.digest, failed=it.failed, problems=it.problems)
    return out


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": tree_digest(SRC / "bdgrowth", "*.py"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bdgrowth" / "cli.py").is_file():
        print(f"error: no bdgrowth sources under {SRC}", file=sys.stderr)
        return 2
    if workloads.sha256_file(workloads.TABLE) != workloads.TABLE_SHA256:
        print(f"error: {workloads.TABLE} is not the frozen constants table", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work / "in")
        runner = Runner(workload, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "items_per_command": workload.items,
                  "argv": workload.argv(Path("<out>")),
                  "inputs_sha256": {p.name: workloads.sha256_file(p)
                                    for p in workload.inputs()},
                  **environment()}
        if args.trace:
            metrics = measure_layers(runner, args.seconds, record)
        else:
            metrics = measure_end_to_end(runner, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    record.update(metrics=metrics, outputs_sha256=runner.reference,
                  attempted=runner.attempted, failed=runner.failed,
                  failed_frac=failed_frac,
                  samples={key: len(record.get(key, ()))
                           for key in ("reference_s", "setup_s", "runs", "traced_runs")})
    RUNS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    runs = record["runs"]
    print(f"{args.workload} seed={args.seed}: {len(runs)} runs of {workload.items} items; "
          f"outputs sha256 {runner.reference}; record {record_path.name}")
    for problem in {p for r in runs + record.get("traced_runs", []) for p in r["problems"]}:
        print(f"FAILED CHECK: {problem}")
    for name, value in {**metrics, **record.get("raw", {}), "failed_frac": failed_frac}.items():
        print(f"{name:40s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
