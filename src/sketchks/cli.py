"""Command-line front end: single tests, data ingestion, experiment harness.

Commands: ks2 (one test, JSON to stdout), experiment (replicated synthetic
runs, CSV), convergence (CDF error study, CSV), cdf (knot export for
plotting).  Every command is byte-deterministic; experiment and convergence
draw their samples from --seed (default: env SKETCHKS_SEED, then 1729).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, ks
from .approx_cdf import build_cdf, empirical_cdf, plan_from_phi
from .ks import fmt17

__all__ = ["main", "ingest"]

_SEED_ENV = "SKETCHKS_SEED"


def ingest(path, *, skip_header: bool = False, skip_invalid: bool = False):
    """Parse a file of newline-delimited decimals.

    Returns (values array, skipped line count).  Without skip_invalid an
    unparsable or non-finite line raises with its line number; blank lines
    are always ignored.
    """
    skipped = 0

    def parsed(fh):
        nonlocal skipped
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if skip_header and lineno == 1:
                skipped += 1
                continue
            try:
                v = float(text)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                if skip_invalid:
                    skipped += 1
                    continue
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            yield v

    with open(path, "r", encoding="utf-8") as fh:
        values = np.fromiter(parsed(fh), dtype=float)
    if not values.size:
        raise ValueError(f"{path}: no data values found")
    return values, skipped


def _cmd_ks2(args) -> int:
    if (args.phi is None) == (args.beta is None):
        raise ValueError("provide exactly one of --phi or --beta")
    x, _ = ingest(args.file_x, skip_header=args.skip_header,
                  skip_invalid=args.skip_invalid)
    y, _ = ingest(args.file_y, skip_header=args.skip_header,
                  skip_invalid=args.skip_invalid)
    if args.phi is not None:
        precision = ks.TestPrecision(alpha=args.alpha, phi=args.phi)
    else:
        precision = ks.TestPrecision.from_alpha_beta(args.alpha, args.beta, x.size, y.size)
    outcome = ks.run_test(x, y, precision)
    plan_x, plan_y = outcome.plans
    params = ", ".join([
        f'"phi": {fmt17(precision.phi)}',
        f'"delta": {fmt17(plan_x.delta)}',
        f'"epsilon_x": {fmt17(plan_x.epsilon)}',
        f'"epsilon_y": {fmt17(plan_y.epsilon)}',
        f'"a_x": {plan_x.a}',
        f'"a_y": {plan_y.a}',
    ])
    body = outcome.to_json()
    print(body[:-1] + ', "params": {' + params + "}}")
    if outcome.reject and args.exit_on_reject:
        return 2
    return 0


def _check_out(path) -> None:
    """Fail before a study runs when its --out file cannot be written."""
    target = Path(path)
    if target.is_dir() or not os.access(target.parent, os.W_OK):
        raise OSError(f"cannot write --out {path}")


def _cmd_experiment(args) -> int:
    _check_out(args.out)
    spec = experiments.experiment_spec(
        args.id,
        replications=args.replications,
        master_seed=args.seed,
        n=args.n,
        m=args.m,
    )
    result = experiments.run_experiment(spec)
    result.to_csv(args.out)
    agg = result.aggregates()
    print(
        f"experiment {spec.id}: {spec.replications} replications, "
        f"max|d_approx - d_exact| = {agg['max_abs_err']:.6g}, "
        f"rejections exact/approx = "
        f"{agg['rejections_exact']}/{agg['rejections_approx']} -> {args.out}"
    )
    return 0


def _cmd_convergence(args) -> int:
    _check_out(args.out)
    rows = experiments.run_convergence(
        replications=args.replications, master_seed=args.seed
    )
    experiments.write_convergence_csv(rows, args.out)
    for r in rows:
        print(experiments.convergence_line(r))
    return 0 if all(r["within_bound"] for r in rows) else 1


def _write_knots(path: Path, probs, quantiles) -> None:
    lines = ["prob,quantile"]
    lines += [f"{fmt17(p)},{fmt17(q)}" for p, q in zip(probs, quantiles)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_cdf(args) -> int:
    data, _ = ingest(args.file, skip_header=args.skip_header,
                     skip_invalid=args.skip_invalid)
    n = data.size
    plan = plan_from_phi(2 * args.delta, n)  # doubling is exact: delta is kept
    cdf = build_cdf(data, plan)
    out = Path(args.out)
    _write_knots(out, cdf.probs, cdf.quantiles)
    print(f"wrote {plan.a} knots (delta={plan.delta:g}, eps={plan.epsilon:g}) -> {out}")
    if args.with_exact:
        exact_path = out.with_suffix(".exact.csv")
        ordered = np.sort(data)
        _write_knots(exact_path, empirical_cdf(ordered, ordered), ordered)
        print(f"wrote {n} exact CDF rows -> {exact_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchks",
        description="Approximate two-sample KS testing on quantile sketches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        # a string default is converted by type=int only when the flag is
        # absent, so a bad environment value fails just the commands that read it
        p.add_argument("--seed", type=int,
                       default=os.environ.get(_SEED_ENV) or experiments.DEFAULT_SEED,
                       help=f"master seed (default: ${_SEED_ENV} or "
                            f"{experiments.DEFAULT_SEED})")

    def add_file_flags(p):
        p.add_argument("--skip-header", action="store_true",
                       help="ignore the first line of each input file")
        p.add_argument("--skip-invalid", action="store_true",
                       help="drop unparsable/non-finite lines instead of failing")

    p = sub.add_parser("ks2", help="two-sample test between two files")
    p.add_argument("--file-x", required=True)
    p.add_argument("--file-y", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=None,
                   help="p-value precision; derives phi when --phi absent")
    p.add_argument("--phi", type=float, default=None,
                   help="explicit precision in the KS distance")
    p.add_argument("--exit-on-reject", action="store_true",
                   help="exit with status 2 when the null is rejected")
    add_file_flags(p)
    p.set_defaults(func=_cmd_ks2)

    p = sub.add_parser("experiment", help="run one synthetic experiment to CSV")
    p.add_argument("--id", type=int, required=True, choices=range(1, 11))
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--n", type=int, default=None,
                   help="override sample-1 size (re-derives phi for ids 1-5)")
    p.add_argument("--m", type=int, default=None,
                   help="override sample-2 size (re-derives phi for ids 1-5)")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("convergence", help="CDF approximation error study")
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("cdf", help="export approximate CDF knots as CSV")
    p.add_argument("--file", required=True)
    p.add_argument("--delta", type=float, required=True,
                   help="CDF error bound; epsilon and knot count follow")
    p.add_argument("--out", required=True)
    p.add_argument("--with-exact", action="store_true",
                   help="also write the full empirical CDF next to --out")
    add_file_flags(p)
    p.set_defaults(func=_cmd_cdf)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"sketchks: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
