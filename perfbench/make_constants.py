"""Regenerate the frozen constants table that the benchmark workloads read.

    PYTHONPATH=src python3 perfbench/make_constants.py

The table covers every n that a workload with a table uses. It is frozen:
the benchmark refuses to run if the file's digest differs from
`workloads.TABLE_SHA256`, so that every commit is measured on the same
bytes. Regenerating it is a change to the benchmark, not to the program.
"""

import subprocess
import sys

from workloads import TABLE, TABLE_SIZES, sha256_file

if __name__ == "__main__":
    TABLE.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "bdgrowth.cli", "calibrate",
                    "--n", ",".join(map(str, TABLE_SIZES)), "--replicates", "1000000",
                    "--seed", "1", "--out", str(TABLE)], check=True)
    print(f"{TABLE}: sha256 {sha256_file(TABLE)}")
