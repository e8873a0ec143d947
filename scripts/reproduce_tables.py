#!/usr/bin/env python3
"""Regenerate the three result tables into an output directory.

Usage: python scripts/reproduce_tables.py [outdir] [--seed N] [--fast]

--fast shrinks samples and replication counts for a quick desk check; the
default settings match the full study (a few minutes of runtime).
"""

import argparse
import sys
import time
from pathlib import Path

from sketchks import experiments as ex


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="results")
    parser.add_argument("--seed", type=int, default=ex.DEFAULT_SEED)
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    reps = 3 if args.fast else 20
    sizes = dict(n=2000, m=2000) if args.fast else {}

    t0 = time.time()
    print("== convergence study (table 1) ==")
    rows = ex.run_convergence(
        n=2000 if args.fast else 10000, replications=reps, master_seed=args.seed
    )
    ex.write_convergence_csv(rows, outdir / "table1_convergence.csv")
    for r in rows:
        print("  " + ex.convergence_line(r))

    print("== hypothesis tests (table 2, experiments 1-5) ==")
    for i in range(1, 6):
        spec = ex.experiment_spec(i, replications=reps, master_seed=args.seed, **sizes)
        res = ex.run_experiment(spec)
        res.to_csv(outdir / f"table2_experiment{i}.csv")
        agg = res.aggregates()
        print(f"  exp {i}: D in [{agg['d_exact_min']:.4f}, {agg['d_exact_max']:.4f}]"
              f" max|err|={agg['max_abs_err']:.6f} (bound {spec.phi:g})"
              f" rejections {agg['rejections_exact']}/{agg['rejections_approx']}")

    print("== sketch comparison (table 3, experiments 6-10) ==")
    # experiment 8's precision (delta = 0.0005) needs more than 2000 points
    t3_sizes = dict(n=4000, m=4000) if args.fast else {}
    for i in range(6, 11):
        spec = ex.experiment_spec(
            i, replications=1, master_seed=args.seed, **t3_sizes
        )
        res = ex.run_experiment(spec)
        res.to_csv(outdir / f"table3_experiment{i}.csv")
        rec = res.records[0]
        print(f"  exp {i}: exact={rec.d_exact:.5f} cdf={rec.d_approx:.5f}"
              f" sketch={rec.d_sketch:.5f} (precision {spec.phi:g})"
              f" knots={rec.cdf_knots_x} tuples={rec.sketch_tuples_x}")

    print(f"done in {time.time() - t0:.1f}s -> {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
