"""Command-line front end: single tests, data ingestion, experiment harness.

Commands: ks2 (one test, JSON to stdout), experiment (replicated synthetic
runs, CSV), convergence (CDF error study, CSV), cdf (knot export for
plotting).  Every command is byte-deterministic; experiment and convergence
draw their samples from --seed (default 1729).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import stat
import sys
from array import array
from pathlib import Path

import numpy as np

from . import experiments, ks
from .approx_cdf import build_cdf, empirical_cdf, plan_from_phi, sketch_cdf
from .gk_sketch import QuantileSketch
from .ks import fmt17

__all__ = ["main", "ingest"]

_BLOCK_LINES = 1 << 12  # lines `_blocks` holds and parses at a time
_COUNT_CHARS = 1 << 16  # characters `_line_count` reads at a time


def ingest(path, *, skip_header: bool = False, skip_invalid: bool = False):
    """Parse a file of newline-delimited decimals.

    Returns (values array, skipped line count).  Without skip_invalid an
    unparsable or non-finite line raises with its line number; blank lines
    and a leading byte-order mark are always ignored, and a line that is
    not UTF-8 always raises with its line number.  The line scanner `_scan`
    defines these rules, the header's too; `_blocks` reads the file through
    `_open` and hands `_scan` line 1 under skip_header and each line
    float() cannot read.
    """
    parts, skipped = [], 0
    for values, n in _blocks(path, skip_header, skip_invalid):
        parts.append(values)
        skipped += n
    return np.concatenate(parts), skipped


def _open(path):
    """The file as `_blocks` and `_line_count` read it: text with universal
    newlines, undecodable bytes kept as lone surrogates, and no leading
    byte-order mark (utf-8-sig drops it, as spreadsheet exports write it)."""
    return open(path, "r", encoding="utf-8-sig", errors="surrogateescape")


def _blocks(path, skip_header: bool, skip_invalid: bool):
    """The file's values block by block, as `_open` splits its lines, with
    the rules of `ingest`.

    Yields (finite values, skipped line count) for each block of
    _BLOCK_LINES lines (a skipped header counts in the first), and raises
    after the last block when no line held a value.  `_floats` gives value
    i of a block from line i in one C-level pass of float().  float()
    strips no more than str.strip(), so a line it reads as a finite number
    holds the value `_scan` would give it; `_scan` re-reads the other lines
    in place, and under skip_header line 1 too, whatever float() made of
    it, since the header rule is `_scan`'s.
    """
    lineno, found = 1, False
    with _open(path) as fh:
        while lines := list(itertools.islice(fh, _BLOCK_LINES)):
            values, skipped = _floats(lines), 0
            if skip_header and lineno == 1:
                values[0] = math.nan  # `_scan` skips a header float() can read
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                values[bad], skipped = _scan(
                    [(lineno + i, lines[i]) for i in bad.tolist()],
                    path, skip_header, skip_invalid)
                values = values[np.isfinite(values)]
            found = found or values.size > 0
            yield values, skipped
            lineno += len(lines)
    if not found:
        raise ValueError(f"{path}: no data values found")


def _line_count(path, skip_header: bool) -> int:
    """The file's lines as `_blocks` reads them through `_open`, less the
    header line under skip_header; it bounds the file's values from above.
    Text mode turns CR and CRLF, even a CRLF split across two reads, into
    one newline, and an unterminated last line counts too."""
    lines, last = 0, "\n"
    with _open(path) as fh:
        while text := fh.read(_COUNT_CHARS):
            lines += text.count("\n")
            last = text[-1]
    lines += last != "\n"
    return max(lines - skip_header, 0)


def _file_cdf(path, plan, skip_header: bool, skip_invalid: bool):
    """(value count, CDF under plan) of a file streamed into a sketch at
    plan.epsilon; the CDF is None when the count is not plan.n.

    The sketch cuts its chunks from the stream, so the summary is that of
    one `extend` of the whole file; the working set is one block, the
    sketch's chunk buffer and its tuples.
    """
    sketch = QuantileSketch(plan.epsilon)
    for values, _ in _blocks(path, skip_header, skip_invalid):
        sketch.extend(values)
    if sketch.count != plan.n:
        return sketch.count, None
    return plan.n, sketch_cdf(sketch.seal(), plan)


def _floats(lines):
    """float(line) for each line, NaN where float() raises: one float64
    per line.  After float() raises, map() resumes after the failing line.
    """
    buf, it = array("d"), iter(lines)
    while True:
        try:
            buf.extend(map(float, it))
            return np.frombuffer(buf)
        except ValueError:
            buf.append(math.nan)


def _scan(numbered, path, skip_header: bool, skip_invalid: bool):
    """The rule for a line behind `ingest`, the header's included:
    (values, skipped) for an iterable of (line number, line) pairs, one
    value per line.  Under skip_header a non-blank line 1 is skipped even
    where float() reads it.  A line that holds no value (blank, a skipped
    header or a skipped invalid line) gives NaN; any other bad line raises
    with its number."""
    values, skipped = array("d"), 0
    for lineno, line in numbered:
        values.append(math.nan)
        text = line.strip()
        if not text:
            continue
        if not text.isascii():
            # undecodable bytes arrive as lone surrogates
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raw = text.encode("utf-8", "surrogateescape")
                raise ValueError(f"{path}:{lineno}: not UTF-8 text: {raw!r}") from None
        if skip_header and lineno == 1:
            skipped += 1
            continue
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if math.isfinite(v):
            values[-1] = v
        elif skip_invalid:
            skipped += 1
        else:
            raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
    return np.frombuffer(values), skipped


def _cmd_ks2(args) -> int:
    if (args.phi is None) == (args.beta is None):
        raise ValueError("provide exactly one of --phi or --beta")
    outcome = _streamed_ks2(args)
    if outcome is None:
        # no certified plan at the sizes known, or a file that cannot be
        # streamed: ingest both files, then plan, so every error is the
        # one that order meets first
        x, _ = ingest(args.file_x, skip_header=args.skip_header,
                      skip_invalid=args.skip_invalid)
        y, _ = ingest(args.file_y, skip_header=args.skip_header,
                      skip_invalid=args.skip_invalid)
        outcome = ks.run_test(x, y, _precision(args, x.size, y.size))
    print(_ks2_json(outcome))
    if outcome.reject and args.exit_on_reject:
        return 2
    return 0


def _precision(args, n: int, m: int) -> ks.TestPrecision:
    phi = args.phi if args.beta is None else ks.phi_for_test(
        args.alpha, args.beta, n, m)
    return ks.TestPrecision(alpha=args.alpha, phi=phi)


def _streamed_ks2(args):
    """The ks2 outcome with each file streamed into its sketch, or None
    when an input is not a regular file or the sizes known so far admit
    no certified plan.

    Two passes, so each file is read at most twice.  The first reads the
    files in order, each planned from the counts known so far: the line
    counts, then each value count as a read finds it (under --beta a
    count moves phi, and so the other file's plan too).  The second reads
    again only a file whose plan moved since its read; a count that moves
    again means the file changed.  Each CDF is made, and its sketch
    dropped, before the next file is read.  A pipe or other non-regular
    file may not be read twice, so it is not streamed.
    """
    files = (args.file_x, args.file_y)
    try:
        if not all(stat.S_ISREG(os.stat(f).st_mode) for f in files):
            return None
        counts = [_line_count(f, args.skip_header) for f in files]
    except OSError:
        return None
    cdfs = [None, None]
    for second in (False, True):
        for i in (0, 1):
            try:
                precision = _precision(args, *counts)
                plans = [plan_from_phi(precision.phi, c) for c in counts]
            except ValueError:
                return None
            if cdfs[i] is not None and cdfs[i].plan == plans[i]:
                continue
            cdfs[i] = None  # a stale CDF goes before the next read
            counts[i], cdfs[i] = _file_cdf(files[i], plans[i], args.skip_header,
                                           args.skip_invalid)
            if cdfs[i] is None and second:
                raise ValueError(f"{files[i]}: file changed while it was read")
    return ks.decide(*cdfs, precision)


def _ks2_json(outcome: ks.KsOutcome) -> str:
    """`outcome.to_json()` with the test's params appended."""
    plan_x, plan_y = outcome.plans
    params = ", ".join([
        f'"phi": {fmt17(outcome.d_error_bound)}',
        f'"delta": {fmt17(plan_x.delta)}',
        f'"epsilon_x": {fmt17(plan_x.epsilon)}',
        f'"epsilon_y": {fmt17(plan_y.epsilon)}',
        f'"a_x": {plan_x.a}',
        f'"a_y": {plan_y.a}',
    ])
    return outcome.to_json()[:-1] + ', "params": {' + params + "}}"


def _check_out(path) -> None:
    """Fail before any work when the --out file cannot be written: an
    existing file must be writable, a new one needs a writable directory."""
    target = Path(path)
    probe = target if target.exists() else target.parent
    if target.is_dir() or not os.access(probe, os.W_OK):
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
    if not 0 < args.delta < 1:
        raise ValueError(f"--delta must be in (0, 1), got {args.delta}")
    _check_out(args.out)
    if args.with_exact:
        _check_out(Path(args.out).with_suffix(".exact.csv"))
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
        p.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED,
                       help=f"master seed (default: {experiments.DEFAULT_SEED})")

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
