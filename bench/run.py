"""sketchks benchmark: time to a KS decision and its peak memory, sketch
route against sort route.

    python3 bench/run.py --workload loose-1m --seed 1 --seconds 4 --trace 0

Workloads: loose-1m, planned-file, paper-tables (see bench/README.md).
The load is a closed loop with one client in one process: operation i gets
fresh inputs drawn from (seed, i), runs the sketch route, then the sort
route on the same inputs, and its outputs are checked before the next
operation starts.  Operations start until --seconds have passed (at least
one; two with --trace 1, one untraced and one traced).

--trace 0 prints the end-to-end metrics: decision_s and exact_s (median
seconds per operation on each route, at the reference speed that
calibrate.SpeedProbe measures during the routes), peak_mem_mb and
exact_peak_mem_mb (tracemalloc peak of a re-run of operation 0 on each
route, untimed; that re-run must also reproduce operation 0's output
bytes) and setup_s (median of five set-ups in fresh interpreters, also
at the reference speed).
--trace 1 alternates untraced and traced operations and prints per-layer
metrics from the traced ones, with the tracing overhead.

The metric names and units come from BENCHMARK.json at the repository
root.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's detail.
Exits with status 1 and no result when sketchks cannot be imported from
this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
WARMUP_N = 2000


def _import_sketchks():
    """Import the package from this checkout's src/, pinned to one thread."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sketchks
    except ImportError as exc:
        sys.exit(f"bench: cannot import sketchks from {ROOT / 'src'}: {exc}")
    if Path(sketchks.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"bench: sketchks imported from {sketchks.__file__}, "
                 f"not from {ROOT / 'src'}")


def _warm_up():
    from sketchks import ks, synth
    x = synth.sample(synth.normal(0, 1), WARMUP_N, 1)
    y = synth.sample(synth.normal(0, 1), WARMUP_N, 2)
    ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=0.05))


def _setup_probe(args, workdir: Path) -> tuple[float, float]:
    """One set-up as a fresh interpreter pays it: import, op-0 inputs and a
    warm-up.  Returns its seconds at the reference speed, and its wall time."""
    import calibrate
    t0 = time.perf_counter()
    with calibrate.SpeedProbe() as speed:
        _import_sketchks()
        import workloads
        workloads.WORKLOADS[args.workload].prepare(args.seed, 0, workdir)
        _warm_up()
        t1 = time.perf_counter()
    return speed.net(t0, t1) * speed.scale(), t1 - t0


def _measure_setup(args, workdir: Path) -> list[tuple[float, float]]:
    probes = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             str(probe_dir), "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        probes.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
        shutil.rmtree(probe_dir)
    return probes


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 1e6


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(samples: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value_s": sorted(samples)[n - 11],
            "samples": n}


def _environment(args, wl) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sizes": wl.sizes()}


@dataclass
class FirstOp:
    """Operation 0, kept for the memory pass and the verifier self-check."""

    inputs: object
    output: object
    output_bytes: bytes
    tests: list


class Run:
    """One benchmark run: operation timings, failures and operation 0."""

    def __init__(self, args, wl, workdir: Path):
        self.args, self.wl, self.workdir = args, wl, workdir
        self.attempted = self.failed = 0
        self.err_over_phi: list[float] = []
        self.first: FirstOp | None = None
        self.errors: list[str] = []

    def fail(self, what: list[str]):
        self.failed += 1
        self.errors.extend(what)
        for line in what:
            print(f"bench: FAILED {line}", file=sys.stderr)

    def op(self, i: int, tracer=None, probe=False):
        """Prepare, run both routes and check one operation.  Returns its
        timings, or None on failure.  With a tracer, spans cover the prepare
        step and both routes.  With `probe`, a SpeedProbe runs during the
        routes: wall times exclude its kernel, and the routes' times are
        also given at the reference speed."""
        import calibrate
        import workloads
        wl = self.wl
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.op = i
            with tracer if tracer is not None else contextlib.nullcontext():
                inp = wl.prepare(self.args.seed, i, self.workdir)
                with (calibrate.SpeedProbe() if probe
                      else contextlib.nullcontext()) as speed:
                    t0 = time.perf_counter()
                    out = wl.sketch_route(inp)
                    t1 = time.perf_counter()
                    exact = wl.sort_route(inp)
                    t2 = time.perf_counter()
            tests, bad = wl.verify(inp, out, exact)
            for t in tests:
                bad += workloads.check_test(t)
        except Exception:
            self.fail([f"op {i}: {traceback.format_exc()}"])
            return None
        if not tests:
            bad.append(f"op {i}: no decision to check")
        if bad:
            self.fail(bad)
            return None
        self.err_over_phi.append(workloads.err_over_phi(tests))
        if i == 0:
            self.first = FirstOp(inp, out, wl.output_bytes(out, self.workdir), tests)
        else:
            for f in self.workdir.glob(f"op{i}-*"):
                f.unlink()
        if speed is None:
            return {"decision_wall_s": t1 - t0, "exact_wall_s": t2 - t1}
        scale = speed.scale()
        d, e = speed.net(t0, t1), speed.net(t1, t2)
        return {"decision_wall_s": d, "exact_wall_s": e, "speed": scale,
                "decision_s": d * scale, "exact_s": e * scale}

    def memory_pass(self) -> tuple[float, float]:
        """Untimed re-run of op 0 under tracemalloc, once per route; the
        sketch route must reproduce op 0's output bytes."""
        self.attempted += 1
        first = self.first
        out, peak = _peak_mb(self.wl.sketch_route, first.inputs)
        _, exact_peak = _peak_mb(self.wl.sort_route, first.inputs)
        if self.wl.output_bytes(out, self.workdir) != first.output_bytes:
            self.fail(["op 0 re-run: output bytes differ from the first run"])
        return peak, exact_peak

    def self_check(self) -> bool:
        """The checks must reject op 0 with its distance moved by 2*phi."""
        import workloads
        return bool(workloads.check_test(workloads.corrupt(self.first.tests[0])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["loose-1m", "planned-file", "paper-tables"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.setup_probe:
        print(json.dumps(_setup_probe(args, Path(args.setup_probe))))
        return 0

    _import_sketchks()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return _run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir: Path) -> int:
    import tracing
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    detail = {"env": _environment(args, wl)}
    phase = time.perf_counter()
    setup = _measure_setup(args, workdir) if args.trace == 0 else []
    phases = {"setup_probes": time.perf_counter() - phase}
    _warm_up()

    run = Run(args, wl, workdir)
    ops, traced, layers, shares, spans = [], [], [], [], []
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    i = 0
    while i < 1 + args.trace or time.perf_counter() - origin < args.seconds:
        if args.trace and i % 2 == 1:
            t_op = time.perf_counter()
            res = run.op(i, tracer)
            if res is not None:
                traced.append(res["decision_wall_s"])
                rows = tracer.by_name(i)
                layers.append({**tracing.layer_metrics(rows, res["decision_wall_s"]),
                               "ks.err_over_phi": run.err_over_phi[-1]})
                shares.append(tracing.self_shares(rows, time.perf_counter() - t_op))
                spans.append(sum(r["calls"] for r in rows.values()))
        else:
            res = run.op(i, probe=not args.trace)
            if res is not None:
                ops.append(res)
        i += 1
    phases["loop"] = time.perf_counter() - origin
    series = {k: [op[k] for op in ops] for k in (ops[0] if ops else {})}
    detail["ops"] = {**series, "traced_decision_wall_s": traced,
                     "decision_tail": _tail(series.get("decision_s", [])),
                     "exact_tail": _tail(series.get("exact_s", []))}
    decision_wall = _median(series.get("decision_wall_s", []))
    selfcheck = run.first is not None and run.self_check()
    detail["verifier_self_check"] = selfcheck
    if run.first is not None:
        detail["plans"] = wl.plans(run.first.output)
        detail["degenerate_plans"] = sum(p["degenerate"] for p in detail["plans"])

    if args.trace == 0:
        peak = exact_peak = 0.0
        phase = time.perf_counter()
        if run.first is not None:
            try:
                peak, exact_peak = run.memory_pass()
            except Exception:
                run.fail([f"memory pass: {traceback.format_exc()}"])
        phases["memory_pass"] = time.perf_counter() - phase
        values = {"decision_s": _median(series.get("decision_s", [])),
                  "exact_s": _median(series.get("exact_s", [])),
                  "peak_mem_mb": peak, "exact_peak_mem_mb": exact_peak,
                  "setup_s": _median([scaled for scaled, _ in setup])}
        detail["setup_probes"] = [{"setup_s": scaled, "wall_s": wall}
                                  for scaled, wall in setup]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        summary = (f"{wl.name}: sketch route {values['decision_s']:.4g} s "
                   f"({decision_wall:.4g} s wall), {peak:.4g} MB | sort route "
                   f"{values['exact_s']:.4g} s "
                   f"({_median(series.get('exact_wall_s', [])):.4g} s wall), "
                   f"{exact_peak:.4g} MB | setup {values['setup_s']:.4g} s")
    else:
        per_layer = {k: _median([m[k] for m in layers]) for k in layers[0]} if layers else {}
        per_layer["trace.overhead_share"] = (
            _median(traced) / decision_wall - 1 if traced and ops else 0.0)
        detail["layers"] = per_layer
        detail["tracing_overhead_s"] = _median(traced) - decision_wall
        detail["spans_per_traced_op"] = spans
        detail["self_share_of_op"] = shares
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl", origin)
        summary = (f"{wl.name}: traced {_median(traced):.4g} s against untraced "
                   f"{decision_wall:.4g} s wall per decision")
    detail["phase_s"] = phases
    detail["error_rate"] = run.failed / run.attempted
    detail["errors"] = run.errors
    print(summary)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": run.failed == 0 and selfcheck,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
