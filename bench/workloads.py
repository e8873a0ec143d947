"""The three benchmark workloads and the checks on their outputs.

Each workload turns (seed, op index) into fresh inputs, runs the sketch
route and the sort route on them through the public sketchks API, and
reduces the outputs to "tests": one record per two-sample decision with the
approximate distance, its certified precision phi and the exact oracle's
distance.  `check_test` verifies a record against the certified bounds, not
against pinned bytes, so a change that legitimately moves the stored tuples
still passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from sketchks import cli, experiments, ks, synth
from sketchks.approx_cdf import plan_from_phi

ORACLE_TOL = 1e-12  # |exact_ks_distance - reference|: the two round differently


def op_seed(seed: int, op: int, stream: int) -> int:
    """Independent 32-bit seed for input stream `stream` of operation `op`."""
    return int(np.random.SeedSequence([seed, op, stream]).generate_state(1)[0])


def reference_ks(x, y) -> float:
    """Two-sample KS distance with integer counts: max |c_x*m - c_y*n| / (n*m)."""
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    cx = np.searchsorted(xs, grid, side="right").astype(np.int64)
    cy = np.searchsorted(ys, grid, side="right").astype(np.int64)
    n, m = xs.size, ys.size
    return float(np.max(np.abs(cx * m - cy * n))) / (n * m)


def plan_record(phi: float, n: int) -> dict:
    plan = plan_from_phi(phi, n)
    return {"n": n, "phi": phi, "delta": plan.delta, "eps": plan.epsilon,
            "a": plan.a, "degenerate": degenerate(plan.epsilon, n)}


def degenerate(eps: float, n: int) -> bool:
    """A sketch plan that can never compress: floor(2*eps*n) < 2."""
    return eps > 0 and math.floor(2 * eps * n) < 2


def check_test(t: dict) -> list[str]:
    """Failures of one decision record against the certified bounds."""
    bad = []
    if not 0 <= t["d"] <= 1:
        bad.append(f"d={t['d']} outside [0, 1]")
    if not 0 <= t["p"] <= 1:
        bad.append(f"p={t['p']} outside [0, 1]")
    if t["reject"] != (t["p"] <= t["alpha"]):
        bad.append("reject flag disagrees with p <= alpha")
    if abs(t["d"] - t["d_exact"]) > t["phi"]:
        bad.append(f"|d - d_exact| = {abs(t['d'] - t['d_exact'])} > phi = {t['phi']}")
    if "d_sketch" in t and abs(t["d_sketch"] - t["d_exact"]) > t["phi"]:
        bad.append(f"|d_sketch - d_exact| = {abs(t['d_sketch'] - t['d_exact'])} "
                   f"> precision {t['phi']}")
    d_crit = ks.d_crit(t["alpha"], t["n"], t["m"])
    if abs(t["d_exact"] - d_crit) > t["phi"] and t["reject"] != t["reject_exact"]:
        bad.append("decision differs from the exact route outside the phi band")
    return [f"{t['label']}: {b}" for b in bad]


def err_over_phi(tests: list[dict]) -> float:
    return max(abs(t["d"] - t["d_exact"]) / t["phi"] for t in tests)


def corrupt(t: dict) -> dict:
    """The record with d moved by 2*phi, which the checks must reject."""
    shift = 2 * t["phi"] if t["d"] + 2 * t["phi"] <= 1 else -2 * t["phi"]
    return {**t, "d": t["d"] + shift}


def _oracle_failures(label, d_sort, x, y) -> list[str]:
    d_ref = reference_ks(x, y)
    if abs(d_sort - d_ref) > ORACLE_TOL:
        return [f"{label}: exact_ks_distance {d_sort!r} != reference {d_ref!r}"]
    return []


class Loose:
    """run_test at a loose precision on two in-memory samples of 10^6."""

    name = "loose-1m"
    n = m = 10**6
    alpha, phi = 0.05, 0.01
    dist_x, dist_y = synth.normal(0, 1), synth.normal(0.05, 1)

    def sizes(self) -> dict:
        return {"n": self.n, "m": self.m, "alpha": self.alpha, "phi": self.phi}

    def prepare(self, seed: int, op: int, workdir: Path) -> dict:
        return {"x": synth.sample(self.dist_x, self.n, op_seed(seed, op, 0)),
                "y": synth.sample(self.dist_y, self.m, op_seed(seed, op, 1))}

    def sketch_route(self, inp):
        return ks.run_test(inp["x"], inp["y"],
                           ks.TestPrecision(alpha=self.alpha, phi=self.phi))

    def sort_route(self, inp):
        d = ks.exact_ks_distance(inp["x"], inp["y"])
        return d, ks.p_value(d, self.n, self.m)

    def output_bytes(self, out, workdir: Path) -> bytes:
        return out.to_json().encode()

    def verify(self, inp, out, exact) -> tuple[list[dict], list[str]]:
        d_sort, p_sort = exact
        bad = _oracle_failures(self.name, d_sort, inp["x"], inp["y"])
        if (out.n, out.m, out.alpha, out.d_error_bound) != (
                self.n, self.m, self.alpha, self.phi):
            bad.append(f"{self.name}: outcome fields {out} do not echo the inputs")
        test = {"label": self.name, "d": out.d, "phi": out.d_error_bound,
                "p": out.p_value, "reject": out.reject, "alpha": out.alpha,
                "n": out.n, "m": out.m, "d_exact": d_sort,
                "reject_exact": p_sort <= self.alpha}
        return [test], bad

    def plans(self, out) -> list[dict]:
        return [plan_record(self.phi, self.n), plan_record(self.phi, self.m)]


class PlannedFile:
    """`sketchks ks2 --alpha 0.05 --beta 0.025` on two files of 2*10^5 lines."""

    name = "planned-file"
    n = m = 200_000
    alpha, beta = 0.05, 0.025
    dist_x, dist_y = synth.normal(0, 1), synth.normal(0.01, 1)

    def sizes(self) -> dict:
        return {"n": self.n, "m": self.m, "alpha": self.alpha, "beta": self.beta}

    def prepare(self, seed: int, op: int, workdir: Path) -> dict:
        inp = {"x": synth.sample(self.dist_x, self.n, op_seed(seed, op, 0)),
               "y": synth.sample(self.dist_y, self.m, op_seed(seed, op, 1))}
        for side in ("x", "y"):
            path = workdir / f"op{op}-{side}.txt"
            path.write_text("\n".join(format(v, ".17g") for v in inp[side].tolist())
                            + "\n", encoding="utf-8")
            inp["file_" + side] = str(path)
        return inp

    def sketch_route(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["ks2", "--file-x", inp["file_x"], "--file-y", inp["file_y"],
                           "--alpha", str(self.alpha), "--beta", str(self.beta)])
        return rc, buf.getvalue()

    def sort_route(self, inp):
        x, _ = cli.ingest(inp["file_x"])
        y, _ = cli.ingest(inp["file_y"])
        d = ks.exact_ks_distance(x, y)
        return d, ks.p_value(d, x.size, y.size)

    def output_bytes(self, out, workdir: Path) -> bytes:
        return out[1].encode()

    def verify(self, inp, out, exact) -> tuple[list[dict], list[str]]:
        rc, text = out
        d_sort, p_sort = exact
        bad = _oracle_failures(self.name, d_sort, inp["x"], inp["y"])
        if rc != 0:
            return [], bad + [f"{self.name}: ks2 exited with {rc}"]
        res = json.loads(text)
        par = res["params"]
        phi = ks.phi_for_test(self.alpha, self.beta, self.n, self.m)
        if (res["n"], res["m"], res["alpha"]) != (self.n, self.m, self.alpha):
            bad.append(f"{self.name}: n/m/alpha do not echo the inputs")
        if not (res["d_error_bound"] == par["phi"] == phi and par["delta"] == phi / 2):
            bad.append(f"{self.name}: phi/delta {par} not planned from alpha, beta")
        for side, size in (("x", self.n), ("y", self.m)):
            if not (0 <= par["epsilon_" + side] < par["delta"]
                    and 3 <= par["a_" + side] <= size):
                bad.append(f"{self.name}: plan for {side} out of range: {par}")
        test = {"label": self.name, "d": res["d_ks"], "phi": res["d_error_bound"],
                "p": res["p_value"], "reject": res["reject"], "alpha": res["alpha"],
                "n": res["n"], "m": res["m"], "d_exact": d_sort,
                "reject_exact": p_sort <= self.alpha}
        return [test], bad

    def plans(self, out) -> list[dict]:
        par = json.loads(out[1])["params"]
        return [{"n": size, "phi": par["phi"], "delta": par["delta"],
                 "eps": par["epsilon_" + s], "a": par["a_" + s],
                 "degenerate": degenerate(par["epsilon_" + s], size)}
                for s, size in (("x", self.n), ("y", self.m))]


class PaperTables:
    """One replication of the convergence study and of experiments 1-10."""

    name = "paper-tables"
    ids = range(1, 11)
    convergence_n = 10_000
    replications = 1

    def sizes(self) -> dict:
        specs = [experiments.experiment_spec(i) for i in self.ids]
        return {"convergence_n": self.convergence_n,
                "replications": self.replications,
                "experiments": {s.id: [s.n, s.m] for s in specs}}

    def prepare(self, seed: int, op: int, workdir: Path) -> dict:
        master = op_seed(seed, op, 0)
        specs = [experiments.experiment_spec(i, replications=self.replications,
                                             master_seed=master) for i in self.ids]
        pairs = [(synth.sample(s.dist1, s.n, op_seed(seed, op, 2 * s.id)),
                  synth.sample(s.dist2, s.m, op_seed(seed, op, 2 * s.id + 1)))
                 for s in specs]
        return {"master": master, "specs": specs, "pairs": pairs}

    def sketch_route(self, inp):
        rows = experiments.run_convergence(
            n=self.convergence_n, replications=self.replications,
            master_seed=inp["master"])
        return rows, [experiments.run_experiment(s) for s in inp["specs"]]

    def sort_route(self, inp):
        out = []
        for x, y in inp["pairs"]:
            d = ks.exact_ks_distance(x, y)
            out.append((d, ks.p_value(d, x.size, y.size)))
        return out

    def output_bytes(self, out, workdir: Path) -> bytes:
        rows, results = out
        path = workdir / "tables.csv"
        chunks = []
        experiments.write_convergence_csv(rows, path)
        chunks.append(path.read_bytes())
        for res in results:
            res.to_csv(path)
            chunks.append(path.read_bytes())
        return b"".join(chunks)

    def verify(self, inp, out, exact) -> tuple[list[dict], list[str]]:
        rows, results = out
        bad = [f"convergence a={r['a']} eps={r['epsilon']}: error "
               f"{r['max_abs_error']} exceeds delta {r['delta']}"
               for r in rows if not r["within_bound"]]
        for s, (x, y), (d, p) in zip(inp["specs"], inp["pairs"], exact):
            bad += _oracle_failures(f"sort route {s.id}", d, x, y)
            if not 0 <= p <= 1:
                bad.append(f"sort route {s.id}: p={p} outside [0, 1]")
        tests = []
        for res in results:
            s = res.spec
            if len(res.records) != s.replications:
                bad.append(f"experiment {s.id}: {len(res.records)} records")
            for r in res.records:
                if r.reject_exact != (r.p_exact <= s.alpha):
                    bad.append(f"experiment {s.id}: exact reject flag disagrees with p")
                t = {"label": f"experiment {s.id} rep {r.replication}",
                     "d": r.d_approx, "phi": s.phi, "p": r.p_approx,
                     "reject": r.reject_approx, "alpha": s.alpha, "n": s.n,
                     "m": s.m, "d_exact": r.d_exact, "reject_exact": r.reject_exact}
                if s.with_sketch:
                    t["d_sketch"] = r.d_sketch
                tests.append(t)
        return tests, bad

    def plans(self, out) -> list[dict]:
        plans = []
        for res in out[1]:
            s = res.spec
            for size in (s.n, s.m):
                plans.append({"experiment": s.id, **plan_record(s.phi, size)})
            if s.with_sketch:
                plans.append({"experiment": s.id, "lall_eps": s.sketch_epsilon,
                              "degenerate": degenerate(s.sketch_epsilon, s.n)})
        return plans


WORKLOADS = {w.name: w for w in (Loose(), PlannedFile(), PaperTables())}
