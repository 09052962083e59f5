"""Print a sha256 digest of every output of a fixed set of bdgrowth commands.

The commands below run with small sizes and fixed seeds, in a temporary
directory, against the package under --src. Every file they leave there (a
command's stdout is saved as NAME.stdout) is printed as `sha256  file`, in
path order, after a `#` header naming the numpy and scipy versions and
numpy's CPU baseline and enabled dispatch targets, which can move the last
bits of a float. Run it on two source trees and diff the outputs to check
that a change keeps output bytes:

    python scripts/output_digests.py --src /path/to/parent/src > before.txt
    python scripts/output_digests.py --src src > after.txt
    diff before.txt after.txt

scripts/output_digests.sha256 is the listing of the committed source, which
tests/test_output_digests.py checks a fresh run against. A change that moves
output bytes regenerates it, so its diff shows which outputs moved:

    python scripts/output_digests.py --src src > scripts/output_digests.sha256

The commands run on every usable CPU at once: first those that write a file
another command reads, then the rest. Every command is expected to exit 0;
the script names on stderr each one that does not, and then exits 1. Stdlib
only; the whole run takes under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TABLE = str(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "constants.csv")
ALL_METHODS = "MSE,Bias,Inv,Lengths,MLE,RawUnitConstant"

# a good row, then rows each method refuses in its own way, then rows the
# reader refuses: no T column, n not an integer, T or a height not a number,
# n < 2, the wrong count of heights, inf or nan heights; last a row whose
# estimates overflow
ERROR_CSV = """n,T,h1,h2,h3,h4
5,40,3,1,2,0.5
2,40,1
5,40,2,2,2,2
5,40,1,x,2,3
5,,1,1.0000000000000002,1,1
4,40,0,1e200,3e199
5
5.0,40,3,1,2,0.5
5,x,3,1,2,0.5
1,40
5,40,3,1,2
5,40,3,inf,2,0.5
5,40,3,1,nan,0.5
4,40,0,1e-320,2e-320
"""
# Each refusal in the order a tree meets them: an edge without a length (the
# first one in the order the refusal names, 'D', not the first in the text),
# too few tips, not binary before not ultrametric, a tip-depth deviation
# just above the default 1e-6 tolerance (on paths of three edges) and one
# just below it. The tree before the unterminated one sums its lengths to inf.
ERROR_NEWICK = """((A:1,B:1):1,C:2);
(A:1,B:1);
((A:1,B:1):1,C:5);
((A:1,B:1,C:1):1,D:2);
((A:1,B:1):0,C:1);
((A:1,B:1):1e-320,C:1);
((A,B:1):1,(C:1,D):1);
((A:1):1);
((A:1,B:1,C:1)x:1,D:9);
(((A:0.1,B:0.1):0.7,C:0.8):1.3,D:2.1000022);
(((A:0.1,B:0.1):0.7,C:0.8):1.3,D:2.1000019);
((A:1.5e308,B:1.5e308):1.5e308,C:1.7e308);
((A:1,B:1
"""
# Trees as real files write them: quoted labels with spaces and escaped
# quotes, labels on internal nodes, [&...] comments, children in no
# particular order, and explicit root stems.
DECORATED_NEWICK = """[&R] (('sample 1':1.5[&rate=0.21],'O''Neil 2':1.5)n7:2.25,
  (('tip three':0.5, t4 : 0.5)[&height=0.5]:0.25,t5:0.75):3)[&root]:0.5;
(t3:3.5,((t1:1,(t2:0.5,'t''6':0.5)inner:0.5)mid:2,t4:3)'the root'[&x=1]:0.5):0;
((((c:0.1,b:0.1):0.7,a:0.8)[&posterior=0.97]:1.3,('d e':0.9,f:0.9)g:1.2):0.2,
  (h:1.35,(i:0.675,'j k':0.675):0.675):0.95);
('O''Neil':2.5,(('it''s':1,y:1):0.75,(z:1.5,'w v':1.5):0.25)q:0.75)top:1.25;
"""

# Bad trees, each followed by good ones: a quote inside a bare label (b'c),
# in a length token or after a node opens no quoted label, so reading
# resumes after the bad tree's own ';' and every good tree gets its rows.
RESUME_NEWICK = """(A:x,b'c:1);(D:1,E:1);
(A:x,bc:1);(D:1,E:1);
(A:1,b'c:1);(D:1,E:1);
((A:1,B:1):'x,C:2);((D:1,E:1):1,F:2);
((A:1,B:1):1 'x,C:2);((D:1,E:1):1,F:2);
"""


def refusals_csv() -> str:
    """A few hundred good n = 5 rows drawn from a seeded stdlib generator,
    with a row some method refuses after every 37th: rows at the 1e200 and
    the 4e-162 scale (the logistic fit's moment start is out of range), a
    constant row (dropped as degenerate), a row whose fit ends outside the
    feasible region and subnormal heights (the pairwise and lengths
    estimates overflow)."""
    rng = random.Random(14)
    bad = ["5,,0,1e200,3e199,1e199", "5,40,2,2,2,2", "5,,0,4e-162,2e-162,1e-162",
           "5,,0,1e-161,5e-162,2e-162", "5,40,0,1e-320,2e-320,3e-320"]
    lines = ["n,T,h1,h2,h3,h4"]
    for i in range(300):
        if i % 37 == 5:
            lines.append(bad[i // 37 % len(bad)])
        lines.append("5,40," + ",".join(repr(rng.uniform(0.0, 40.0)) for _ in range(4)))
    return "\n".join(lines) + "\n"


def newick_batch() -> str:
    """Some 400 ultrametric binary trees of 5 to 20 tips, about 230 kB, from
    a seeded stdlib generator, decorated as real files are: quoted labels
    with spaces and doubled quotes, [&...] comments, internal labels. One
    malformed tree (a ')' missing) sits in the middle."""
    rng = random.Random(30)
    trees = []
    for _ in range(400):
        # (height, text) per subtree; two random ones join until one is left
        nodes = [(0.0, rng.choice([f"t{k}", f"'tip {k}'", f"'O''Neil {k}'"]))
                 for k in range(rng.choice((5, 8, 10, 12, 16, 20)))]
        height = 0.0
        while len(nodes) > 1:
            height += rng.expovariate(len(nodes))
            joined = [nodes.pop(rng.randrange(len(nodes))) for _ in range(2)]
            inner = ",".join(f"{text}:{height - h:.12g}" + rng.choice(["", "", "[&rate=0.5]"])
                             for h, text in joined)
            nodes.append((height, f"({inner})" + rng.choice(["", "", f"n{rng.randrange(99)}"])))
        trees.append(nodes[0][1] + f":{rng.uniform(0, 2):.12g};")
    trees[200] = trees[200].replace(")", "", 1)
    return "[a batch]\n" + "\n".join(trees) + "\n"


# (name, argv); a command may read what another one writes (see waves)
COMMANDS = [
    ("calibrate", ["calibrate", "--n", "5,10", "--replicates", "20000", "--seed", "3",
                   "--out", "constants.csv"]),
    ("study-table", ["study", "--n", "5,10", "--r", "0.5,1", "--replicates", "500",
                     "--seed", "4", "--constants", TABLE, "--out", "study-table"]),
    ("study-fly", ["study", "--n", "6", "--r", "1", "--replicates", "500", "--seed", "4",
                   "--calibration-replicates", "20000", "--out", "study-fly"]),
    ("coverage-table", ["coverage", "--n", "10,20", "--replicates", "1000", "--seed", "5",
                        "--constants", TABLE, "--out", "coverage-table.csv"]),
    ("coverage-fly", ["coverage", "--n", "7", "--replicates", "1000", "--seed", "5",
                      "--calibration-replicates", "20000", "--out", "coverage-fly.csv"]),
    # the table coverage-fly calibrates on the fly; on it, coverage writes the same bytes
    ("calibrate-blocks", ["calibrate", "--n", "3,40", "--replicates", "120001", "--seed", "9",
                          "--out", "constants-blocks.csv"]),
    ("calibrate-7", ["calibrate", "--n", "7", "--replicates", "20000", "--seed", "5",
                     "--out", "constants-7.csv"]),
    ("coverage-fly-table", ["coverage", "--n", "7", "--replicates", "1000", "--seed", "5",
                            "--calibration-replicates", "20000", "--constants", "constants-7.csv",
                            "--out", "coverage-fly-table.csv"]),
    ("sweep", ["sweep", "--n", "10", "--replicates", "2000", "--seed", "6",
               "--out", "sweep.csv"]),
    ("asymptotics", ["asymptotics", "--n", "200", "--replicates", "1000", "--seed", "8",
                     "--out", "asymptotics.json"]),
    ("asymptotics-list", ["asymptotics", "--n", "200,300", "--replicates", "1000",
                          "--seed", "8", "--out", "asymptotics-list.json"]),
    ("simulate", ["simulate", "--n", "10", "--count", "300", "--seed", "7", "--T", "40",
                  "--out", "times.csv", "--trees", "trees.nwk"]),
    # r*T = 745, where exp(-rT) is the smallest subnormal double
    ("simulate-birth", ["simulate", "--n", "10", "--count", "300", "--seed", "7", "--r", "0.3",
                        "--T", "7", "--birth-rate", "2", "--out", "times-birth.csv"]),
    ("simulate-far", ["simulate", "--n", "10", "--count", "300", "--seed", "7", "--T", "745",
                      "--out", "times-far.csv"]),
    ("estimate-times", ["estimate", "times.csv", "--constants", TABLE,
                        "--methods", ALL_METHODS, "--out", "estimate-times.csv"]),
    ("estimate-trees", ["estimate", "trees.nwk", "--constants", TABLE,
                        "--methods", ALL_METHODS, "--out", "estimate-trees.csv"]),
    ("estimate-errors-csv", ["estimate", "errors.csv", "--constants", TABLE,
                             "--methods", ALL_METHODS, "--replicates", "20000",
                             "--out", "estimate-errors-csv.csv"]),
    ("estimate-errors-newick", ["estimate", "errors.nwk", "--constants", TABLE,
                                "--methods", ALL_METHODS, "--replicates", "20000",
                                "--out", "estimate-errors-newick.csv"]),
    ("estimate-level-table", ["estimate", "times.csv", "--constants", TABLE,
                              "--methods", ALL_METHODS, "--level", "0.9",
                              "--replicates", "20000", "--out", "estimate-level-table.csv"]),
    ("estimate-level-fly", ["estimate", "times.csv", "--methods", ALL_METHODS,
                            "--level", "0.9", "--replicates", "20000",
                            "--out", "estimate-level-fly.csv"]),
    ("estimate-json", ["estimate", "trees.nwk", "--constants", TABLE,
                       "--methods", ALL_METHODS, "--format", "json"]),
    # error records in JSON ("n": null), and JSON chosen by the --out suffix alone
    ("estimate-errors-json", ["estimate", "errors.csv", "--constants", TABLE,
                              "--methods", ALL_METHODS, "--replicates", "20000",
                              "--format", "json"]),
    ("estimate-suffix-json", ["estimate", "trees.nwk", "--constants", TABLE,
                              "--out", "estimate-suffix.json"]),
    ("estimate-refusals", ["estimate", "refusals.csv", "--constants", TABLE,
                           "--methods", ALL_METHODS, "--out", "estimate-refusals.csv"]),
    ("estimate-decorated", ["estimate", "decorated.nwk", "--constants", TABLE,
                            "--methods", ALL_METHODS, "--replicates", "20000",
                            "--out", "estimate-decorated.csv"]),
    # several 32 kB pieces of the Newick reader, one of them with a bad tree
    ("estimate-batch", ["estimate", "batch.nwk", "--constants", TABLE,
                        "--methods", ALL_METHODS, "--out", "estimate-batch.csv"]),
    # where reading resumes after a bad tree; the CSV goes to stdout
    ("estimate-resume", ["estimate", "resume.nwk", "--constants", TABLE,
                         "--methods", ALL_METHODS, "--replicates", "20000"]),
    # sizes that span several row chunks of the samplers and two S_n stream
    # blocks, so the digests cover the seams between them
    ("calibrate-chunks", ["calibrate", "--n", "60", "--replicates", "60001", "--seed", "9",
                          "--out", "constants-chunks.csv"]),
    ("coverage-chunks", ["coverage", "--n", "100", "--replicates", "6000", "--seed", "10",
                         "--calibration-replicates", "20000", "--out", "coverage-chunks.csv"]),
    ("sweep-chunks", ["sweep", "--n", "40", "--replicates", "20000", "--seed", "11",
                      "--out", "sweep-chunks.csv"]),
    ("asymptotics-chunks", ["asymptotics", "--n", "200", "--replicates", "3000", "--seed", "12",
                            "--out", "asymptotics-chunks.json"]),
    ("study-chunks", ["study", "--n", "20", "--r", "1", "--replicates", "15000", "--seed", "13",
                      "--estimators", "MSE,Lengths,MLE", "--constants", TABLE,
                      "--out", "study-chunks"]),
    # the limiting regimes through every command that takes --regime
    ("coverage-fixed-n", ["coverage", "--n", "8,12", "--regime", "fixed-n", "--replicates",
                          "1000", "--seed", "14", "--constants", TABLE,
                          "--out", "coverage-fixed-n.csv"]),
    ("sweep-large-n", ["sweep", "--n", "10", "--regime", "large-n", "--replicates", "2000",
                       "--seed", "15", "--out", "sweep-large-n.csv"]),
    ("study-fixed-n", ["study", "--n", "5,10", "--r", "0.5,1", "--regime", "fixed-n",
                       "--replicates", "500", "--seed", "16", "--constants", TABLE,
                       "--out", "study-fixed-n"]),
    ("simulate-large-n", ["simulate", "--n", "10", "--count", "300", "--seed", "17",
                          "--regime", "large-n", "--T", "40", "--out", "times-large-n.csv"]),
    # an exact-regime r whose death rate 1 - r does not give r back (1 - 0.7 is
    # 0.30000000000000004), so the outputs show which r they score against;
    # study lists it twice, and each listing is a cell of its own
    ("coverage-third", ["coverage", "--n", "10", "--r", "0.3", "--replicates", "1000",
                        "--seed", "18", "--constants", TABLE, "--out", "coverage-third.csv"]),
    ("sweep-third", ["sweep", "--n", "10", "--r", "0.3", "--replicates", "2000", "--seed", "19",
                     "--out", "sweep-third.csv"]),
    ("study-third", ["study", "--n", "5", "--r", "0.3,0.3", "--replicates", "300", "--seed", "20",
                     "--constants", TABLE, "--out", "study-third"]),
    # simulate's --T defaults to None: relative-axis times, with an empty T column
    ("simulate-relative", ["simulate", "--n", "10", "--count", "300", "--seed", "21",
                           "--regime", "fixed-n", "--out", "times-relative.csv"]),
    ("estimate-relative", ["estimate", "times-relative.csv", "--constants", TABLE,
                           "--methods", ALL_METHODS, "--out", "estimate-relative.csv"]),
    # a birth rate other than 1 through the other commands that take one
    ("sweep-birth", ["sweep", "--n", "10", "--birth-rate", "2", "--r", "0.5",
                     "--replicates", "2000", "--seed", "22", "--out", "sweep-birth.csv"]),
    ("coverage-birth", ["coverage", "--n", "10", "--birth-rate", "2", "--r", "0.5",
                        "--replicates", "1000", "--seed", "23", "--constants", TABLE,
                        "--out", "coverage-birth.csv"]),
    ("study-birth", ["study", "--n", "5,10", "--r", "0.5", "--birth-rate", "2",
                     "--replicates", "500", "--seed", "24", "--constants", TABLE,
                     "--out", "study-birth"]),
    ("study-large-n", ["study", "--n", "5", "--regime", "large-n", "--replicates", "500",
                       "--seed", "25", "--constants", TABLE, "--out", "study-large-n"]),
]


def outputs(argv: list[str]) -> set[str]:
    """The files a command's argv names as its outputs."""
    return {argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in ("--out", "--trees")}


def waves(commands) -> list[list]:
    """commands in two waves, each in list order: those that write a file
    another command reads, then the rest. No command of the first wave may
    read what the first wave writes."""
    read = {arg for _, argv in commands for arg in set(argv) - outputs(argv)}
    first = [command for command in commands if outputs(command[1]) & read]
    written = set().union(*(outputs(argv) for _, argv in first))
    assert not any(written & (set(argv) - outputs(argv)) for _, argv in first)
    return [first, [command for command in commands if command not in first]]


# the environment the commands run in, as the listing's header
ENVIRONMENT = """\
import numpy, scipy
from numpy._core import _multiarray_umath as umath
print("# numpy", numpy.__version__)
print("# scipy", scipy.__version__)
print("# numpy cpu baseline:", *umath.__cpu_baseline__)
enabled = umath.__cpu_features__
print("# numpy cpu dispatch:", *(t for t in umath.__cpu_dispatch__ if enabled.get(t)))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the bdgrowth package to run")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    failed = []
    sys.stdout.write(subprocess.run([sys.executable, "-c", ENVIRONMENT], env=env, check=True,
                                    capture_output=True, text=True).stdout)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "errors.csv").write_text(ERROR_CSV, encoding="utf-8")
        (work / "errors.nwk").write_text(ERROR_NEWICK, encoding="utf-8")
        (work / "decorated.nwk").write_text(DECORATED_NEWICK, encoding="utf-8")
        (work / "refusals.csv").write_text(refusals_csv(), encoding="utf-8")
        (work / "batch.nwk").write_text(newick_batch(), encoding="utf-8")
        (work / "resume.nwk").write_text(RESUME_NEWICK, encoding="utf-8")

        def run(command):
            name, argv = command
            done = subprocess.run([sys.executable, "-m", "bdgrowth.cli", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=120)
            (work / f"{name}.stdout").write_bytes(done.stdout)
            return name, done

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ThreadPoolExecutor(cpus or 1) as pool:
            for wave in waves(COMMANDS):
                for name, done in pool.map(run, wave):  # the wave ends before the next starts
                    if done.returncode:
                        failed.append(name)
                        print(f"{name}: exit {done.returncode}\n{done.stderr.decode()}",
                              file=sys.stderr)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
