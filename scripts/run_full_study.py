#!/usr/bin/env python3
"""Run the full estimator comparison: n = 5..10, 15, 20, 50 at T = 40 with
r = 0.5 and 1, 10^4 replicates per cell, all five estimators.

Emits metrics.csv (MSE/MAE/bias per estimator and cell), densities.csv
(256-bin histograms for external plotting), coverage.csv, and summary.json
under --out. Expect about ten seconds of runtime on a 2-core Xeon; --quick
shrinks everything for a smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bdgrowth import harness


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/study")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--replicates", type=int, default=10_000)
    parser.add_argument("--calibration-replicates", type=int, default=1_000_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if args.quick:
        ns, reps, cal_reps = (5, 10), 1000, 100_000
    else:
        ns, reps, cal_reps = (5, 6, 7, 8, 9, 10, 15, 20, 50), args.replicates, \
            args.calibration_replicates

    config = harness.StudyConfig(
        ns=ns, rs=(0.5, 1.0), t=40.0, regime="exact", replicates=reps,
        seed=args.seed, calibration_replicates=cal_reps, workers=args.workers,
    )
    start = time.time()
    result = harness.run_study(config)
    paths = harness.write_study_outputs(result, args.out)
    print(f"study finished in {time.time() - start:.1f}s")
    for key, path in paths.items():
        print(f"  {key}: {path}")

    by_cell = {}
    for m in result.metrics:
        by_cell.setdefault((m.n, m.r), {})[m.estimator] = m
    for (n, r), cell in sorted(by_cell.items()):
        order = sorted(cell, key=lambda tag: cell[tag].mse)
        print(f"n={n:>3} r={r}: MSE ranking {' < '.join(order)}; "
              f"bias(Bias) = {cell['Bias'].bias:+.4f}")


if __name__ == "__main__":
    main()
