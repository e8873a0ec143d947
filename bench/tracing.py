"""Span recorder for the traced pass.

Wraps the public entry points of each sketchks module from the benchmark's
side; nothing in the package is edited.  A wrapper is swapped in for every
module-level binding of a function (``from .x import f`` copies the binding
into the importing module, so each copy is replaced) and for the traced
``QuantileSketch`` methods, and the originals are put back on exit.

Each call records one span: name, start, end, parent span and the op it
belongs to, plus a few counts read from its arguments.  Per-value calls
(``insert``, ``query_quantile``, ``rank_bounds``) get no span, so the
overhead stays a small share of the run.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from sketchks import approx_cdf, cli, experiments, ks, synth
from sketchks.gk_sketch import QuantileSketch


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cdf_counts(args, kwargs, result):
    plan = _arg(args, kwargs, 1, "plan")
    degenerate = plan.epsilon > 0 and math.floor(2 * plan.epsilon * plan.n) < 2
    return {"knots": plan.a, "degenerate": int(degenerate)}


def _seal_counts(args, kwargs, result):
    sketch = args[0]
    return {"tuples": sketch.tuple_count, "values": sketch.count}


def _lall_counts(args, kwargs, result):
    return {"values": args[0].tuple_count + args[1].tuple_count}


def _query_counts(args, kwargs, result):
    return {"queries": len(result)}


def _ingest_counts(args, kwargs, result):
    values, skipped = result
    return {"lines": int(values.size) + skipped}


def _sample_counts(args, kwargs, result):
    return {"values": int(result.size)}


# (owner, attribute, span name, counts read from args/result)
_FUNCTIONS = [
    (cli, "main", "cli.main", None),
    (cli, "ingest", "cli.ingest", _ingest_counts),
    (ks, "run_test", "ks.run_test", None),
    (ks, "phi_for_test", "ks.phi_for_test", None),
    (ks, "approx_two_sample_ks", "ks.approx_two_sample_ks", None),
    (ks, "exact_ks_distance", "ks.exact_ks_distance", None),
    (ks, "p_value", "ks.p_value", None),
    (ks, "lall_ks", "ks.lall_ks", _lall_counts),
    (approx_cdf, "build_cdf", "approx_cdf.build_cdf", _cdf_counts),
    (approx_cdf, "eval_cdf", "approx_cdf.eval_cdf", None),
    (approx_cdf, "empirical_cdf", "approx_cdf.empirical_cdf", None),
    (synth, "sample", "synth.sample", _sample_counts),
    (experiments, "run_replication", "experiments.run_replication", None),
    (experiments, "run_convergence", "experiments.run_convergence", None),
]
_METHODS = [
    ("extend", "gk_sketch.extend", None),
    ("compress", "gk_sketch.compress", None),
    ("query_quantiles", "gk_sketch.query_quantiles", _query_counts),
    ("seal", "gk_sketch.seal", _seal_counts),
]


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that records spans while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, tracer.op, parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "sketchks" or n.startswith("sketchks.")]
        for owner, attr, name, counter in _FUNCTIONS:
            original = getattr(owner, attr)
            traced = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, traced)
        for attr, name, counter in _METHODS:
            original = QuantileSketch.__dict__[attr]
            self._restore.append((QuantileSketch, attr, original))
            setattr(QuantileSketch, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        return False

    def by_name(self, op: int) -> dict[str, dict]:
        """Per span name for one op: calls, total and self seconds, counts."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            row = out.setdefault(s.name, defaultdict(float))
            dur = s.end - s.start
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            for k, v in s.counts.items():
                row[k] += v
        return out

    def write(self, path, origin: float) -> None:
        """One JSON line per span, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.op, s.name, s.parent,
                                     s.start - origin, s.end - origin]) + "\n")


def layer_metrics(rows: dict[str, dict], sketch_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span table."""

    def get(name, key):
        return rows.get(name, {}).get(key, 0.0)

    ingested = get("gk_sketch.seal", "values")
    ingest_s = get("gk_sketch.extend", "total_s")
    ingest_lines = get("cli.ingest", "lines")
    cli_ingest_s = get("cli.ingest", "total_s")
    m = {
        "gk_sketch.extend_self_s": get("gk_sketch.extend", "self_s"),
        "gk_sketch.ingest_ns_per_value": 1e9 * ingest_s / ingested if ingested else 0.0,
        "gk_sketch.compress_s": get("gk_sketch.compress", "total_s"),
        "gk_sketch.compress_calls": get("gk_sketch.compress", "calls"),
        "gk_sketch.query_s": get("gk_sketch.query_quantiles", "total_s"),
        "gk_sketch.queries": get("gk_sketch.query_quantiles", "queries"),
        "gk_sketch.tuples_per_value": (
            get("gk_sketch.seal", "tuples") / ingested if ingested else 0.0),
        "approx_cdf.build_self_s": get("approx_cdf.build_cdf", "self_s"),
        "approx_cdf.knots": get("approx_cdf.build_cdf", "knots"),
        "approx_cdf.eval_s": get("approx_cdf.eval_cdf", "total_s"),
        "approx_cdf.empirical_s": get("approx_cdf.empirical_cdf", "total_s"),
        "approx_cdf.degenerate_plans": get("approx_cdf.build_cdf", "degenerate"),
        "ks.plan_s": get("ks.phi_for_test", "total_s"),
        "ks.approx_distance_s": get("ks.approx_two_sample_ks", "total_s"),
        "ks.exact_distance_s": get("ks.exact_ks_distance", "total_s"),
        "ks.p_value_s": get("ks.p_value", "total_s"),
        "ks.lall_s": get("ks.lall_ks", "total_s"),
        "ks.lall_values": get("ks.lall_ks", "values"),
        "synth.sample_s": get("synth.sample", "total_s"),
        "synth.values": get("synth.sample", "values"),
        "cli.ingest_s": cli_ingest_s,
        "cli.ingest_lines_per_s": ingest_lines / cli_ingest_s if cli_ingest_s else 0.0,
        "cli.self_s": get("cli.main", "self_s"),
        "experiments.replication_s": get("experiments.run_replication", "total_s"),
        "experiments.replications": get("experiments.run_replication", "calls"),
        "experiments.convergence_s": get("experiments.run_convergence", "total_s"),
        "experiments.self_s": (get("experiments.run_replication", "self_s")
                               + get("experiments.run_convergence", "self_s")),
    }
    gk_self = sum(r["self_s"] for n, r in rows.items() if n.startswith("gk_sketch."))
    m["gk_sketch.self_share"] = gk_self / sketch_wall_s
    return m


def self_shares(rows: dict[str, dict], wall_s: float) -> dict[str, float]:
    """Self time of each module as a share of `wall_s`."""
    shares: dict[str, float] = defaultdict(float)
    for name, row in rows.items():
        shares[name.split(".")[0]] += row["self_s"] / wall_s
    return dict(shares)
