"""Presets and runners for the synthetic KS experiments.

Experiments 1-5 are the hypothesis-testing study: exact versus approximate
distances, p-values, and rejection decisions over seeded replications.
Experiments 6-10 compare the approximate-CDF distance and the sketch-direct
distance against the exact one at a common target precision, recording the
storage each route needs.

The distance precision for experiments 1-3 (phi = 0.000399) and 4-5
(phi = 0.00077, i.e. a CDF bound of 0.000385) is pinned to the values the
original study published for (alpha=0.05, beta=0.025) and (alpha=0.20,
beta=0.1).  They are stricter than what `ks.phi_for_test` gives at those
configurations (0.001086 and 0.001240), so the tables are certified at a
tighter precision than (alpha, beta) asks for; acceptance criterion 6b
checks this.  Rerunning at other sample sizes re-derives phi from
(alpha, beta).  Experiments 6-10 take the target precision directly, with
the CDF bound at precision/2 and the comparison sketches at precision/6.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ks
from .approx_cdf import CdfPlan, build_cdf, empirical_cdf, error_bound, eval_cdf
from .gk_sketch import QuantileSketch
from .synth import DistributionSpec, gamma, normal, sample, uniform

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ReplicationRecord",
    "experiment_spec",
    "run_experiment",
    "run_convergence",
    "convergence_line",
    "CONVERGENCE_ROWS",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729

# Convergence-study grid: (knots, quantile error); bound delta = 1/(a-1)+eps.
CONVERGENCE_ROWS = [
    (11, 0.1), (21, 0.1), (51, 0.1),
    (11, 0.01), (21, 0.01), (51, 0.01),
    (101, 0.001), (201, 0.001), (501, 0.001),
]

# Published phi values; each is stricter than phi_for_test at its
# configuration (0.001086 and 0.001240), which criterion 6b checks.
_PHI_GAUSS = 0.000399   # alpha=0.05, beta=0.025 at N=M=1e4
_PHI_GAMMA = 0.00077    # alpha=0.20, beta=0.1 at N=84000, M=7000

# "N(0,2)" in the study uses the N(mean, variance) notation: its distance
# band 0.0837..0.0976 matches sd = sqrt(2) (true D = 0.0829), not sd = 2.
_VAR2 = normal(0, math.sqrt(2))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration; ids 1-5 and 6-10 follow the presets."""

    id: int
    dist1: DistributionSpec
    dist2: DistributionSpec
    n: int
    m: int
    alpha: float
    phi: float
    beta: float | None = None
    with_sketch: bool = False
    replications: int = 20
    master_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(
                f"replications must be at least 1, got {self.replications}")

    @property
    def sketch_epsilon(self) -> float | None:
        """GK accuracy of the lall_ks sketches: phi/6, where its precision holds."""
        return self.phi / 6.0 if self.with_sketch else None


_PRESETS = {spec.id: spec for spec in [
    ExperimentSpec(1, normal(0, 1), normal(1, 1), 10000, 10000, 0.05, _PHI_GAUSS, 0.025),
    ExperimentSpec(2, normal(0, 1), _VAR2, 10000, 10000, 0.05, _PHI_GAUSS, 0.025),
    ExperimentSpec(3, normal(0, 1), normal(0, 1), 10000, 10000, 0.05, _PHI_GAUSS, 0.025),
    ExperimentSpec(4, gamma(0.5, 1), uniform(0, 1), 84000, 7000, 0.20, _PHI_GAMMA, 0.10),
    ExperimentSpec(5, gamma(0.5, 1), gamma(0.5, 1), 84000, 7000, 0.20, _PHI_GAMMA, 0.10),
    ExperimentSpec(6, normal(0, 1), normal(1, 1), 10000, 10000, 0.05, 0.05, with_sketch=True),
    ExperimentSpec(7, normal(0, 1), _VAR2, 10000, 10000, 0.05, 0.01, with_sketch=True),
    ExperimentSpec(8, normal(0, 1), normal(0, 1), 100000, 100000, 0.05, 0.001,
                   with_sketch=True),
    ExperimentSpec(9, gamma(0.5, 1), uniform(0, 1), 84000, 84000, 0.05, 0.05,
                   with_sketch=True),
    ExperimentSpec(10, gamma(0.5, 1), gamma(0.5, 1), 84000, 84000, 0.05, 0.002,
                   with_sketch=True),
]}


def experiment_spec(
    exp_id: int,
    *,
    replications: int = 20,
    master_seed: int = DEFAULT_SEED,
    n: int | None = None,
    m: int | None = None,
) -> ExperimentSpec:
    """Preset for one experiment id, optionally rescaled to other sizes.

    Overriding n or m on ids 1-5 re-derives phi from (alpha, beta) at the
    new sizes; on ids 6-10 the target precision is size-independent.
    """
    if exp_id not in _PRESETS:
        raise ValueError(f"experiment id must be 1..10, got {exp_id}")
    preset = _PRESETS[exp_id]
    n = preset.n if n is None else n
    m = preset.m if m is None else m
    phi = preset.phi
    if preset.beta is not None and (n, m) != (preset.n, preset.m):
        phi = ks.phi_for_test(preset.alpha, preset.beta, n, m)
    return replace(preset, n=n, m=m, phi=phi, replications=replications,
                   master_seed=master_seed)


@dataclass(frozen=True)
class ReplicationRecord:
    replication: int
    seed: int
    d_exact: float
    d_approx: float
    p_exact: float
    p_approx: float
    reject_exact: bool
    reject_approx: bool
    abs_err: float
    d_sketch: float | None = None
    cdf_knots_x: int | None = None
    cdf_knots_y: int | None = None
    sketch_tuples_x: int | None = None
    sketch_tuples_y: int | None = None


# record fields with min / max aggregates; d_sketch last, as only ids 6-10 have it
_RANGED = ("d_exact", "d_approx", "p_exact", "p_approx", "d_sketch")


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list[ReplicationRecord] = field(default_factory=list)

    def aggregates(self) -> dict:
        recs = self.records
        ranged = _RANGED if self.spec.with_sketch else _RANGED[:-1]
        agg = {}
        for k in ranged:
            values = [getattr(r, k) for r in recs]
            agg[f"{k}_min"], agg[f"{k}_max"] = min(values), max(values)
        agg["max_abs_err"] = max(r.abs_err for r in recs)
        agg["rejections_exact"] = sum(r.reject_exact for r in recs)
        agg["rejections_approx"] = sum(r.reject_approx for r in recs)
        agg["decision_agreements"] = sum(r.reject_exact == r.reject_approx for r in recs)
        if self.spec.with_sketch:
            agg["max_sketch_err"] = max(abs(r.d_sketch - r.d_exact) for r in recs)
        return agg

    def to_csv(self, path) -> None:
        """Per-replication rows, then min / max / summary aggregate rows."""
        agg = self.aggregates()
        rows = [asdict(r) for r in self.records]
        for stat in ("min", "max"):
            rows.append({"replication": stat,
                         **{k: agg.get(f"{k}_{stat}") for k in _RANGED}})
        rows.append({
            "replication": "summary",
            "d_sketch": agg.get("max_sketch_err"),
            "reject_exact": agg["rejections_exact"],
            "reject_approx": agg["rejections_approx"],
            "abs_err": agg["max_abs_err"],
        })
        _write_csv(path, _CSV_FIELDS, rows)


def run_replication(spec: ExperimentSpec, rep: int) -> ReplicationRecord:
    # per-replication seed = master + index; one stream per sample side
    seed = spec.master_seed + rep
    x = sample(spec.dist1, spec.n, 2 * seed)
    y = sample(spec.dist2, spec.m, 2 * seed + 1)

    d_exact = ks.exact_ks_distance(x, y)
    p_exact = ks.p_value(d_exact, spec.n, spec.m)
    approx = ks.run_test(x, y, ks.TestPrecision(alpha=spec.alpha, phi=spec.phi))

    extra: dict = {}
    if spec.with_sketch:
        s1 = QuantileSketch(spec.sketch_epsilon)
        s1.extend(x)
        s2 = QuantileSketch(spec.sketch_epsilon)
        s2.extend(y)
        s1.seal()
        s2.seal()
        extra = {
            "d_sketch": ks.lall_ks(s1, s2),
            "cdf_knots_x": approx.plans[0].a,
            "cdf_knots_y": approx.plans[1].a,
            "sketch_tuples_x": s1.tuple_count,
            "sketch_tuples_y": s2.tuple_count,
        }
    return ReplicationRecord(
        replication=rep,
        seed=seed,
        d_exact=d_exact,
        d_approx=approx.d,
        p_exact=p_exact,
        p_approx=approx.p_value,
        reject_exact=p_exact <= spec.alpha,
        reject_approx=approx.reject,
        abs_err=abs(approx.d - d_exact),
        **extra,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    result = ExperimentResult(spec=spec)
    for rep in range(spec.replications):
        result.records.append(run_replication(spec, rep))
    return result


# table style: p-values below this (and exact zeros from underflow) print
# as 0.0; KsOutcome keeps the raw value
P_VALUE_FLOOR = 1e-300


def _csv_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if 0 <= x < P_VALUE_FLOOR:
        return "0.0"
    return ks.fmt17(x)


_CSV_FIELDS = [
    "replication", "seed", "d_exact", "d_approx", "d_sketch",
    "p_exact", "p_approx", "reject_exact", "reject_approx", "abs_err",
    "cdf_knots_x", "cdf_knots_y", "sketch_tuples_x", "sketch_tuples_y",
]


def _write_csv(path, fields: list[str], rows: list[dict]) -> None:
    """Header plus one line per row; a field missing from a row is blank."""
    lines = [",".join(fields)]
    lines += [",".join(_csv_num(row.get(f)) for f in fields) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_convergence(
    *,
    n: int = 10000,
    replications: int = 20,
    master_seed: int = DEFAULT_SEED,
) -> list[dict]:
    """Max CDF approximation error over seeded standard-normal samples.

    One output row per (a, epsilon) configuration; the final row is the
    exact-quantile plan (a = n, epsilon = 0), whose knots are the sorted
    sample, so its error is only the float noise of the knot probabilities.
    Each replication's sample and exact CDF are computed once and shared by
    every configuration.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    configs = [(a, eps) for a, eps in CONVERGENCE_ROWS if a <= n] + [(n, 0.0)]
    plans = [CdfPlan(n=n, delta=1.0 / (a - 1) + eps, epsilon=eps, a=a)
             for a, eps in configs]
    worst = [0.0] * len(plans)
    for rep in range(replications):
        data = sample(normal(0, 1), n, master_seed + rep)
        exact = empirical_cdf(data, data)
        for i, plan in enumerate(plans):
            err = np.max(np.abs(eval_cdf(build_cdf(data, plan), data) - exact))
            worst[i] = max(worst[i], float(err))
    return [{
        "a": plan.a,
        "epsilon": plan.epsilon,
        "delta": plan.delta,
        "max_abs_error": w,
        "within_bound": w <= error_bound(plan),
    } for plan, w in zip(plans, worst)]


_CONVERGENCE_FIELDS = ["a", "epsilon", "delta", "max_abs_error", "within_bound"]


def write_convergence_csv(rows: list[dict], path) -> None:
    _write_csv(path, _CONVERGENCE_FIELDS, rows)


def convergence_line(row: dict) -> str:
    """Console summary of one convergence-study row."""
    flag = "ok" if row["within_bound"] else "EXCEEDS BOUND"
    return (f"a={row['a']:>6d} eps={row['epsilon']:<7g} delta={row['delta']:<8g}"
            f" max|error|={row['max_abs_error']:.6g} {flag}")
