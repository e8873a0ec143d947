"""Experiment harness: presets, replication records, CSV output, determinism."""

import dataclasses
import math

import pytest

import sketchks.ks as ks
from sketchks import experiments as ex
from sketchks.gk_sketch import QuantileSketch
from sketchks.synth import gamma, normal, sample, uniform


class TestPresets:
    def test_table2_parameters(self):
        s1 = ex.experiment_spec(1)
        assert (s1.n, s1.m) == (10000, 10000)
        assert (s1.alpha, s1.beta) == (0.05, 0.025)
        assert s1.phi == 0.000399
        assert not s1.with_sketch
        s4 = ex.experiment_spec(4)
        assert (s4.n, s4.m) == (84000, 7000)
        assert (s4.alpha, s4.beta) == (0.20, 0.10)
        assert s4.phi == 0.00077

    def test_table3_parameters(self):
        s6 = ex.experiment_spec(6)
        assert (s6.n, s6.m) == (10000, 10000)
        assert s6.phi == 0.05
        assert s6.sketch_epsilon == pytest.approx(0.05 / 6)
        s10 = ex.experiment_spec(10)
        assert (s10.n, s10.m) == (84000, 84000)
        assert s10.phi == 0.002
        assert s10.sketch_epsilon == pytest.approx(0.002 / 6)

    @pytest.mark.parametrize("exp_id", range(1, 11))
    def test_sketch_epsilon_is_phi_over_six(self, exp_id):
        spec = ex.experiment_spec(exp_id)
        if exp_id >= 6:
            assert spec.with_sketch
            assert spec.sketch_epsilon == spec.phi / 6
        else:
            assert not spec.with_sketch and spec.sketch_epsilon is None

    # (dist1, dist2, n, m, alpha, phi, beta, with_sketch) at default sizes;
    # N(0,2) is N(mean, variance), so sd sqrt(2)
    @pytest.mark.parametrize("exp_id, pinned", [
        (1, (normal(0, 1), normal(1, 1), 10000, 10000, 0.05, 0.000399, 0.025, False)),
        (2, (normal(0, 1), normal(0, math.sqrt(2)), 10000, 10000, 0.05, 0.000399, 0.025,
             False)),
        (3, (normal(0, 1), normal(0, 1), 10000, 10000, 0.05, 0.000399, 0.025, False)),
        (4, (gamma(0.5, 1), uniform(0, 1), 84000, 7000, 0.20, 0.00077, 0.10, False)),
        (5, (gamma(0.5, 1), gamma(0.5, 1), 84000, 7000, 0.20, 0.00077, 0.10, False)),
        (6, (normal(0, 1), normal(1, 1), 10000, 10000, 0.05, 0.05, None, True)),
        (7, (normal(0, 1), normal(0, math.sqrt(2)), 10000, 10000, 0.05, 0.01, None, True)),
        (8, (normal(0, 1), normal(0, 1), 100000, 100000, 0.05, 0.001, None, True)),
        (9, (gamma(0.5, 1), uniform(0, 1), 84000, 84000, 0.05, 0.05, None, True)),
        (10, (gamma(0.5, 1), gamma(0.5, 1), 84000, 84000, 0.05, 0.002, None, True)),
    ])
    def test_every_preset_pinned(self, exp_id, pinned):
        s = ex.experiment_spec(exp_id)
        assert (s.dist1, s.dist2, s.n, s.m, s.alpha, s.phi, s.beta,
                s.with_sketch) == pinned
        assert (s.id, s.replications, s.master_seed) == (exp_id, 20, ex.DEFAULT_SEED)

    def test_resized_presets_pinned(self):
        s4 = ex.experiment_spec(4, n=2000)
        assert (s4.dist1, s4.dist2, s4.n, s4.m, s4.alpha, s4.beta, s4.with_sketch) == (
            gamma(0.5, 1), uniform(0, 1), 2000, 7000, 0.20, 0.10, False)
        assert s4.phi == ks.phi_for_test(0.20, 0.10, 2000, 7000)
        s9 = ex.experiment_spec(9, m=3000)
        assert (s9.dist1, s9.dist2, s9.n, s9.m, s9.alpha, s9.phi, s9.beta,
                s9.with_sketch) == (gamma(0.5, 1), uniform(0, 1), 84000, 3000, 0.05,
                                    0.05, None, True)
        # the default sizes passed explicitly keep the published phi
        assert ex.experiment_spec(1, n=10000, m=10000).phi == 0.000399

    def test_size_override_rederives_phi(self):
        desk = ex.experiment_spec(1, n=2000, m=2000)
        assert desk.phi == ks.phi_for_test(0.05, 0.025, 2000, 2000)

    def test_size_override_keeps_precision_for_sketch_rows(self):
        desk = ex.experiment_spec(6, n=2000, m=2000)
        assert desk.phi == 0.05

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            ex.experiment_spec(11)

    def test_zero_replications(self):
        with pytest.raises(ValueError, match="replications"):
            ex.experiment_spec(1, replications=0)


class TestReplications:
    def test_desk_scale_error_bound(self):
        spec = ex.experiment_spec(1, n=2000, m=2000, replications=3)
        result = ex.run_experiment(spec)
        assert len(result.records) == 3
        for r in result.records:
            assert r.abs_err <= spec.phi
            assert r.reject_exact and r.reject_approx

    def test_same_distribution_rarely_rejects(self):
        spec = ex.experiment_spec(3, n=1000, m=1000, replications=8)
        result = ex.run_experiment(spec)
        agg = result.aggregates()
        assert agg["rejections_approx"] <= 2

    def test_sketch_rows_record_sizes(self):
        spec = ex.experiment_spec(6, n=2000, m=2000, replications=1)
        rec = ex.run_experiment(spec).records[0]
        assert rec.d_sketch is not None
        assert abs(rec.d_sketch - rec.d_exact) <= spec.phi
        assert rec.cdf_knots_x >= 3
        assert rec.sketch_tuples_x > 0

    def test_paper_scale_sketch_row_peak_memory(self, traced_peak):
        # experiment 8 (1e5 per side) peaks at 2.59 MB with numpy 2.4.6: the
        # two samples (1.6 MB) and the second lall_ks sketch's chunk buffer
        # and merge.  Sorted copies for the exact oracle would add 1.6 MB,
        # and a second open chunk buffer 0.5 MB
        spec = ex.experiment_spec(8, replications=1)
        ex.run_replication(spec, 0)  # first calls allocate caches
        _, peak = traced_peak(ex.run_replication, spec, 0)
        assert peak <= 2.9e6

    def test_record_stores_its_outcome(self):
        assert [f.name for f in dataclasses.fields(ex.ReplicationRecord)] == [
            "replication", "seed", "approx", "d_exact", "d_sketch",
            "sketch_tuples_x", "sketch_tuples_y"]

    @pytest.mark.parametrize("exp_id", [1, 6])
    def test_record_properties_read_off_the_outcome(self, exp_id):
        spec = ex.experiment_spec(exp_id, n=2000, m=2000, replications=1)
        rec = ex.run_replication(spec, 0)
        out = rec.approx
        assert (out.n, out.m, out.alpha) == (spec.n, spec.m, spec.alpha)
        assert (rec.d_approx, rec.p_approx, rec.reject_approx) == (
            out.d, out.p_value, out.reject)
        assert rec.p_exact == ks.p_value(rec.d_exact, spec.n, spec.m)
        assert rec.reject_exact == (rec.p_exact <= spec.alpha)
        assert rec.abs_err == abs(out.d - rec.d_exact)
        if exp_id == 1:
            assert (rec.d_sketch, rec.sketch_tuples_x, rec.sketch_tuples_y) == (
                None, None, None)
            assert rec.cdf_knots_x is None and rec.cdf_knots_y is None
        else:
            assert rec.sketch_tuples_x > 0 and rec.sketch_tuples_y > 0
            assert (rec.cdf_knots_x, rec.cdf_knots_y) == (
                out.plans[0].a, out.plans[1].a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.d_exact = 0.0

    def test_result_is_frozen(self):
        result = ex.run_experiment(ex.experiment_spec(3, n=500, m=500, replications=2))
        assert isinstance(result.records, tuple) and len(result.records) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.records = ()

    def test_distinct_streams_within_replication(self):
        spec = ex.experiment_spec(3, n=500, m=500, replications=1)
        rec = ex.run_experiment(spec).records[0]
        assert rec.d_exact > 0  # same distribution but independent draws


class TestAggregates:
    def test_match_recomputation(self):
        spec = ex.experiment_spec(2, n=1500, m=1500, replications=4)
        result = ex.run_experiment(spec)
        agg = result.aggregates()
        recs = result.records
        assert agg["d_exact_min"] == min(r.d_exact for r in recs)
        assert agg["d_exact_max"] == max(r.d_exact for r in recs)
        assert agg["max_abs_err"] == max(abs(r.d_approx - r.d_exact) for r in recs)
        assert agg["rejections_exact"] == sum(r.reject_exact for r in recs)
        assert agg["decision_agreements"] == sum(
            r.reject_exact == r.reject_approx for r in recs
        )


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        spec = ex.experiment_spec(6, n=1200, m=1200, replications=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.run_experiment(spec).to_csv(p1)
        ex.run_experiment(spec).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout(self, tmp_path):
        spec = ex.experiment_spec(1, n=800, m=800, replications=2)
        path = tmp_path / "exp.csv"
        ex.run_experiment(spec).to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("replication,seed,d_exact,d_approx,d_sketch")
        assert len(lines) == 1 + 2 + 3  # header, reps, min/max/summary
        assert lines[-3].startswith("min,")
        assert lines[-2].startswith("max,")
        assert lines[-1].startswith("summary,")

    def test_tiny_p_prints_as_zero(self, tmp_path):
        spec = ex.experiment_spec(1, replications=1)  # p ~ 1e-590 underflow aside
        result = ex.run_experiment(spec)
        path = tmp_path / "exp1.csv"
        result.to_csv(path)
        row = path.read_text().split("\n")[1].split(",")
        assert row[5] == "0.0" and row[6] == "0.0"


class TestConvergence:
    def test_rows_within_bounds_smoke(self):
        rows = ex.run_convergence(n=2000, replications=2)
        assert len(rows) == 10  # 9 study rows + exact-quantile row
        for r in rows:
            assert r["within_bound"], r
        exact_row = rows[-1]
        assert exact_row["epsilon"] == 0.0
        assert exact_row["max_abs_error"] <= 1 / (2000 - 1)

    def test_csv_roundtrip(self, tmp_path):
        rows = ex.run_convergence(n=500, replications=1)
        path = tmp_path / "conv.csv"
        ex.write_convergence_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "a,epsilon,delta,max_abs_error,within_bound"
        # the a=501 study row is skipped at n=500; exact row appended
        assert len(lines) == 1 + 8 + 1

    def test_zero_replications(self):
        with pytest.raises(ValueError, match="replications"):
            ex.run_convergence(n=500, replications=0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_small_sample(self, n, monkeypatch):
        monkeypatch.setattr(ex, "sample", None)  # refused before sampling
        with pytest.raises(ValueError, match=f"n must be at least 3, got {n}"):
            ex.run_convergence(n=n, replications=1)

    def test_one_sample_per_replication(self, monkeypatch):
        calls = []

        def counting_sample(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(ex, "sample", counting_sample)
        rows = ex.run_convergence(n=500, replications=3)
        assert len(rows) == 9
        assert [seed for *_, seed in calls] == [ex.DEFAULT_SEED + rep for rep in range(3)]

    def test_one_sketch_per_epsilon_per_replication(self, monkeypatch):
        # the nine study rows share three epsilons, and each replication
        # reads each row's CDF off the one sketch of its epsilon
        eps, extend = [], QuantileSketch.extend

        def counting_extend(sketch, values):
            eps.append(sketch.epsilon)
            return extend(sketch, values)

        monkeypatch.setattr(QuantileSketch, "extend", counting_extend)
        ex.run_convergence(n=10_000, replications=2)
        assert eps == [0.1, 0.01, 0.001] * 2
