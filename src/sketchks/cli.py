"""Command-line front end: single tests, data ingestion, experiment harness.

Commands: ks2 (one test, JSON to stdout; a line on stderr when the
decision is not certain), experiment (replicated synthetic
runs, CSV), convergence (CDF error study, CSV), tables (the three result
tables, CSV), cdf (knot export for plotting).  Every command is
byte-deterministic but for the timing line of tables; experiment,
convergence and tables draw their samples from --seed (default 1729).
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import itertools
import math
import os
import pickle
import signal
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from . import experiments, ks
from .approx_cdf import _sealed, build_cdf, empirical_cdf, plan_from_phi
from .gk_sketch import QuantileSketch
from .ks import fmt17

__all__ = ["main", "ingest"]

_BLOCK_LINES = 1 << 12  # lines `_blocks` holds and parses at a time
_COUNT_BYTES = 1 << 16  # bytes `_line_count` reads at a time


def ingest(path, *, skip_header: bool = False, skip_invalid: bool = False):
    """Parse a file of newline-delimited decimals.

    Returns (values array, the lines that held no value: blank lines and
    lines dropped under skip_invalid).  The two add up to the count
    `_line_count` gives, the file's lines less the header line under
    skip_header, which bounds its values.  Without skip_invalid an
    unparsable or non-finite line raises with its line number; blank
    lines and a leading byte-order mark are always ignored, and a line
    that is not UTF-8 always raises with its line number.  The line
    scanner `_scan` defines these rules, the header's too; `_blocks`
    reads the file through `_open` and hands `_scan` line 1 under
    skip_header and each line float() cannot read.
    """
    parts = []
    for values, lines in _blocks(path, skip_header, skip_invalid):
        parts.append(values)
    values = np.concatenate(parts)
    return values, lines - values.size


def _open(path):
    """The file as `_blocks` reads it: text with universal newlines, so
    LF, CR and CRLF each end a line, undecodable bytes kept as lone
    surrogates, and no leading byte-order mark (utf-8-sig drops it, as
    spreadsheet exports write it)."""
    return open(path, "r", encoding="utf-8-sig", errors="surrogateescape")


def _blocks(path, skip_header: bool, skip_invalid: bool):
    """The file's values block by block, as `_open` splits its lines, with
    the rules of `ingest`.

    Yields (finite values, lines read so far less line 1 under
    skip_header) for each block of _BLOCK_LINES lines, and raises
    after the last block when no line held a value.  `_floats` gives value
    i of a block from line i, each by float().  float() strips no more
    than str.strip(), so a line it reads as a finite number holds the
    value `_scan` would give it; `_scan` re-reads the other lines in
    place, and under skip_header line 1 too, whatever float() made of it,
    since the header rule is `_scan`'s: float() is handed "nan" for it.
    Blocks are converted in one call until the first block with a line
    `_scan` re-reads, a skipped header aside; the file's later blocks go
    straight to the resume loop, so a dirty file pays for at most one
    failed one-call attempt.
    """
    lineno, found, one_call = 1, False, True
    with _open(path) as fh:
        while lines := list(itertools.islice(fh, _BLOCK_LINES)):
            head = skip_header and lineno == 1
            values = _floats(["nan", *lines[1:]] if head else lines, one_call)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size > head:
                one_call = False
            if bad.size:
                values[bad] = _scan(
                    [(lineno + i, lines[i]) for i in bad.tolist()],
                    path, skip_header, skip_invalid)
                values = values[np.isfinite(values)]
            found = found or values.size > 0
            lineno += len(lines)
            del lines  # the block's str objects go before the caller's work
            yield values, lineno - 1 - skip_header
    if not found:
        raise ValueError(f"{path}: no data values found")


def _line_count(path, skip_header: bool) -> int:
    """The file's lines as `_blocks` reads them through `_open`, less the
    header line under skip_header; it bounds the file's values from above.

    Counted over the raw bytes, _COUNT_BYTES at a time: LF + CR - CRLF
    line ends, a CRLF split across two reads counted once, plus an
    unterminated last line unless the file holds only a byte-order mark.
    This is text mode's count: universal newlines end a line at each LF,
    CR and CRLF and nowhere else, and in UTF-8, undecodable bytes kept as
    surrogates, the bytes 0x0A and 0x0D only ever encode LF and CR.
    """
    # head: the file's first 4 bytes, enough to tell a lone byte-order mark
    lines, head, last = 0, b"", ord("\n")
    with open(path, "rb") as fh:
        while data := fh.read(_COUNT_BYTES):
            b = np.frombuffer(data, np.uint8)
            lf, cr = b == ord("\n"), b == ord("\r")
            lines += int(np.count_nonzero(lf) + np.count_nonzero(cr)
                         - np.count_nonzero(cr[:-1] & lf[1:]))
            lines -= last == ord("\r") and data[0] == ord("\n")
            head += data[:4 - len(head)]
            last = data[-1]
    lines += last not in b"\r\n" and head != codecs.BOM_UTF8
    return max(lines - skip_header, 0)


def _file_sketch(path, epsilon: float, skip_header: bool, skip_invalid: bool):
    """The sealed sketch at epsilon of a file streamed through `_blocks`,
    the read of each streamed `ks2` pass, here or in its worker.

    The sketch cuts its chunks from the stream, so the summary is that of
    one `extend` of the whole file.  The working set is one block's values
    (`_blocks` drops its lines before it yields them), the sketch's tuples
    and its chunk buffer, which a merge drops before its own arrays peak.
    """
    sketch = QuantileSketch(epsilon)
    for values, _ in _blocks(path, skip_header, skip_invalid):
        sketch.extend(values)
    return sketch.seal()


def _floats(lines, one_call: bool):
    """float(line) for each line, NaN where float() raises: one float64
    per line.  With one_call, a block float() reads throughout takes one
    np.array call, which converts each str by float(); otherwise, or once
    that call raises, map() resumes after each failing line.
    """
    if one_call:
        with contextlib.suppress(ValueError):
            return np.array(lines, dtype=np.float64)
    buf, it = array("d"), iter(lines)
    while True:
        try:
            buf.extend(map(float, it))
            return np.frombuffer(buf)
        except ValueError:
            buf.append(math.nan)


def _scan(numbered, path, skip_header: bool, skip_invalid: bool):
    """The rule for a line behind `ingest`, the header's included: the
    values of an iterable of (line number, line) pairs, one per line.
    Under skip_header a non-blank line 1 is skipped even where float()
    reads it.  A line that holds no value (blank, a skipped
    header or a skipped invalid line) gives NaN; any other bad line raises
    with its number."""
    values = array("d")
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
            continue
        try:
            v = float(text)
        except ValueError:
            v = math.nan
        if math.isfinite(v):
            values[-1] = v
        elif not skip_invalid:
            raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
    return np.frombuffer(values)


@contextlib.contextmanager
def _forked(fn):
    """fn() in a forked worker where one can start, else here: yields a
    callable that returns fn's result or raises its exception.

    A worker starts only on Linux where /proc/self/stat reads, its field
    20 counts one OS thread (a fork copies only the calling one), two CPUs
    are usable and a pipe and a process can be made; otherwise the
    callable is fn, and no descriptor is held.  The count includes native
    threads, such as the pool numpy's OpenBLAS starts at import unless
    OPENBLAS_NUM_THREADS=1; CPython 3.12+ reads it before it warns that a
    fork may deadlock, so no worker starts where that warning is raised.

    The worker sends back through a pipe only fn's pickled result or
    exception, and exits by os._exit: it flushes no inherited stdio buffer
    and runs no atexit hook.  Leaving the block kills and reaps it, so none
    outlives the caller; one that has exited stays a zombie, holding its
    pid, until then, so the kill cannot reach another process.
    """
    pid = None
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):  # no worker: fn runs here
            with open("/proc/self/stat", "rb") as fh:
                stat = fh.read().rsplit(b")", 1)[1].split()  # field k: [k - 3]
            threads, cpu, cpus = int(stat[17]), int(stat[36]), os.sched_getaffinity(0)
            del stat  # ~2 KB, which the parent would hold for the whole read
            if threads == 1 and len(cpus) >= 2:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # EAGAIN or ENOMEM: keep no descriptor
                    os.close(r)
                    os.close(w)
                    raise
    if pid is None:
        yield fn
        return
    if pid == 0:  # the child
        try:
            os.close(r)
            # Move off field 39, the CPU the parent last ran on, then run
            # anywhere: a scheduler may start a child on its parent's CPU and
            # keep both there while another idles.  On a 2-vCPU VM (Intel
            # Xeon, Linux 6.18) a forked `ks2` whose worker did not move was
            # slower than one process at 32,768 and 65,536 lines a file, and
            # at 200,000 faster in only some runs (BENCH_fork_cutoff.json).
            with contextlib.suppress(OSError):  # the only CPU, or offline
                os.sched_setaffinity(0, cpus - {cpu})
                os.sched_setaffinity(0, cpus)
            try:
                sent = True, fn()
            except BaseException as exc:  # the parent raises it
                sent = False, exc
            with open(w, "wb") as out:
                pickle.dump(sent, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)  # the parent kills and reaps, and reads no status
    try:
        os.close(w)
        with open(r, "rb") as pipe:
            def result():
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(
                        "a worker process ended without a result") from None
                if not ok:
                    raise value
                return value

            yield result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _cmd_ks2(args) -> int:
    """One test by `ks._decide_sources`, which plans each file from its
    line count.  Where both are regular files, each is streamed, never held
    whole, and y's read runs in `_forked`, whose worker, where one starts,
    sends back only the summary.  A pipe may not be read twice, so
    otherwise both files are ingested whole, x then y, and each read as
    its array of values."""
    if (args.phi is None) == (args.beta is None):
        raise ValueError("provide exactly one of --phi or --beta")
    files, flags = (args.file_x, args.file_y), (args.skip_header, args.skip_invalid)
    if all(map(os.path.isfile, files)):
        outcome = ks._decide_sources(
            *files, args.alpha, args.phi, args.beta,
            known=lambda f: _line_count(f, args.skip_header),
            read=lambda f, epsilon: _file_sketch(f, epsilon, *flags),
            ahead=_forked)
    else:
        samples = [ingest(f, skip_header=flags[0], skip_invalid=flags[1]) for f in files]
        outcome = ks._decide_sources(*samples, args.alpha, args.phi, args.beta,
                                     known=lambda s: s[0].size + s[1],
                                     read=lambda s, epsilon: _sealed(s[0], epsilon))
    print(outcome.to_json())
    if not outcome.decision_certain:
        print("sketchks: warning: the decision is not certain: a distance within "
              "d_error_bound of d_ks decides the other way", file=sys.stderr)
    if outcome.reject and args.exit_on_reject:
        return 2
    return 0


def _check_out(path, what: str = "--out") -> None:
    """Fail before any work when an output file cannot be written: an
    existing file must be writable, a new one needs a writable directory."""
    target = Path(path)
    probe = target if target.exists() else target.parent
    if target.is_dir() or not os.access(probe, os.W_OK):
        raise OSError(f"cannot write {what} {path}")


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


# the files of `tables`; entry i (1-10) is experiment i's
_TABLE_FILES = ["table1_convergence.csv"] + [
    f"table{2 if i < 6 else 3}_experiment{i}.csv" for i in range(1, 11)]


def _cmd_tables(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _TABLE_FILES:
        _check_out(outdir / name, "table")
    reps = 3 if args.fast else 20
    t0 = time.perf_counter()
    print("== convergence study (table 1) ==")
    rows = experiments.run_convergence(
        n=2000 if args.fast else 10000, replications=reps, master_seed=args.seed)
    experiments.write_convergence_csv(rows, outdir / _TABLE_FILES[0])
    for r in rows:
        print("  " + experiments.convergence_line(r))
    print("== hypothesis tests (table 2, experiments 1-5) ==")
    sizes = dict(n=2000, m=2000) if args.fast else {}
    for i in range(1, 6):
        spec = experiments.experiment_spec(i, replications=reps,
                                           master_seed=args.seed, **sizes)
        res = experiments.run_experiment(spec)
        res.to_csv(outdir / _TABLE_FILES[i])
        agg = res.aggregates()
        print(f"  exp {i}: D in [{agg['d_exact_min']:.4f}, {agg['d_exact_max']:.4f}]"
              f" max|err|={agg['max_abs_err']:.6f} (bound {spec.phi:g})"
              f" rejections {agg['rejections_exact']}/{agg['rejections_approx']}")
    print("== sketch comparison (table 3, experiments 6-10) ==")
    # experiment 8's precision (delta = 0.0005) needs more than 2000 points
    sizes = dict(n=4000, m=4000) if args.fast else {}
    for i in range(6, 11):
        spec = experiments.experiment_spec(i, replications=1,
                                           master_seed=args.seed, **sizes)
        res = experiments.run_experiment(spec)
        res.to_csv(outdir / _TABLE_FILES[i])
        rec = res.records[0]
        print(f"  exp {i}: exact={rec.d_exact:.5f} cdf={rec.d_approx:.5f}"
              f" sketch={rec.d_sketch:.5f} (precision {spec.phi:g})"
              f" knots={rec.cdf_knots_x} tuples={rec.sketch_tuples_x}")
    print(f"done in {time.perf_counter() - t0:.1f}s -> {outdir}/")
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
    plan = plan_from_phi(2 * args.delta, data.size)  # doubling is exact: delta is kept
    cdf = build_cdf(data, plan)
    out = Path(args.out)
    _write_knots(out, *cdf.knots())
    print(f"wrote {plan.a} knots (delta={plan.delta:g}, eps={plan.epsilon:g}) -> {out}")
    if args.with_exact:
        exact_path = out.with_suffix(".exact.csv")
        ordered = np.sort(data)
        _write_knots(exact_path, empirical_cdf(ordered, ordered), ordered)
        print(f"wrote {data.size} exact CDF rows -> {exact_path}")
    return 0


# one parser per process: each is a web of reference cycles, which only
# the cyclic collector frees
@functools.cache
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

    p = sub.add_parser("tables", help="reproduce the three result tables")
    p.add_argument("outdir", nargs="?", default="results",
                   help="directory for the eleven CSVs (default: results)")
    p.add_argument("--fast", action="store_true",
                   help="desk scale: smaller samples, 3 replications")
    add_seed(p)
    p.set_defaults(func=_cmd_tables)

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
