"""Print a sha256 digest of every output of a fixed set of bdgrowth commands.

The commands below run with small sizes and fixed seeds, in a temporary
directory, against the package under --src. Every file they leave there (a
command's stdout is saved as NAME.stdout) is printed as `sha256  file`, in
path order. Run it on two source trees and diff the outputs to check that a
change keeps output bytes:

    python scripts/output_digests.py --src /path/to/parent/src > before.txt
    python scripts/output_digests.py --src src > after.txt
    diff before.txt after.txt

Every command is expected to exit 0; the script names on stderr each one that
does not, and then exits 1. Stdlib only; the whole run takes under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
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
# the tree before the unterminated one sums its lengths to inf
ERROR_NEWICK = """((A:1,B:1):1,C:2);
(A:1,B:1);
((A:1,B:1):1,C:5);
((A:1,B:1,C:1):1,D:2);
((A:1,B:1):0,C:1);
((A:1,B:1):1e-320,C:1);
((A:1.5e308,B:1.5e308):1.5e308,C:1.7e308);
((A:1,B:1
"""

# (name, argv); later commands read what earlier ones wrote
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
    ("sweep", ["sweep", "--n", "10", "--replicates", "2000", "--seed", "6",
               "--out", "sweep.csv"]),
    ("asymptotics", ["asymptotics", "--n", "200", "--replicates", "1000", "--seed", "8",
                     "--out", "asymptotics.json"]),
    ("simulate", ["simulate", "--n", "10", "--count", "300", "--seed", "7", "--T", "40",
                  "--out", "times.csv", "--trees", "trees.nwk"]),
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
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory holding the bdgrowth package to run")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "errors.csv").write_text(ERROR_CSV, encoding="utf-8")
        (work / "errors.nwk").write_text(ERROR_NEWICK, encoding="utf-8")
        for name, command in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "bdgrowth.cli", *command], cwd=work,
                                  env=env, capture_output=True, timeout=120)
            (work / f"{name}.stdout").write_bytes(done.stdout)
            if done.returncode:
                failed.append(name)
                print(f"{name}: exit {done.returncode}\n{done.stderr.decode()}", file=sys.stderr)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
