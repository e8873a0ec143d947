"""Command-line front end: single tests, data ingestion, experiment harness.

Commands: ks2 (one test, JSON to stdout), experiment / lall-compare
(replicated synthetic runs, CSV), convergence (CDF error study, CSV), cdf
(knot export for plotting).  All commands are deterministic given --seed
(default: env SKETCHKS_SEED, then 1729).
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
    values: list[float] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
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
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no data values found")
    return np.asarray(values, dtype=float), skipped


def _require_one(args, first: str, second: str) -> None:
    if (getattr(args, first) is None) == (getattr(args, second) is None):
        raise ValueError(f"provide exactly one of --{first} or --{second}")


def _cmd_ks2(args) -> int:
    _require_one(args, "phi", "beta")
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


def _cmd_experiment(args, *, lall_only: bool = False) -> int:
    if lall_only and args.id not in range(6, 11):
        raise ValueError("lall-compare supports experiment ids 6-10 only")
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
    _require_one(args, "phi", "delta")
    data, _ = ingest(args.file, skip_header=args.skip_header,
                     skip_invalid=args.skip_invalid)
    n = data.size
    if args.phi is not None:
        plan = plan_from_phi(args.phi, n)
    else:
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


def _default_seed() -> int:
    env = os.environ.get(_SEED_ENV)
    return int(env) if env else experiments.DEFAULT_SEED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchks",
        description="Approximate two-sample KS testing on quantile sketches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=_default_seed(),
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
    add_common(p)
    p.set_defaults(func=_cmd_ks2)

    for name, lall in (("experiment", False), ("lall-compare", True)):
        p = sub.add_parser(
            name,
            help="run one synthetic experiment to CSV"
            if not lall else "experiment restricted to the sketch-comparison ids 6-10",
        )
        p.add_argument("--id", type=int, required=True, choices=range(1, 11))
        p.add_argument("--replications", type=int, default=20)
        p.add_argument("--n", type=int, default=None,
                       help="override sample-1 size (re-derives phi for ids 1-5)")
        p.add_argument("--m", type=int, default=None,
                       help="override sample-2 size (re-derives phi for ids 1-5)")
        p.add_argument("--out", required=True)
        add_common(p)
        p.set_defaults(func=lambda a, _l=lall: _cmd_experiment(a, lall_only=_l))

    p = sub.add_parser("convergence", help="CDF approximation error study")
    p.add_argument("--replications", type=int, default=20)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("cdf", help="export approximate CDF knots as CSV")
    p.add_argument("--file", required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="CDF error bound; epsilon and knot count follow")
    p.add_argument("--phi", type=float, default=None,
                   help="KS precision; equivalent to --delta phi/2")
    p.add_argument("--out", required=True)
    p.add_argument("--with-exact", action="store_true",
                   help="also write the full empirical CDF next to --out")
    add_file_flags(p)
    add_common(p)
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
