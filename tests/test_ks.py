"""KS distances, significance function, critical values, sketch-direct test."""

import bisect
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sketchks.ks as ks
from sketchks import gk_sketch
from sketchks.approx_cdf import (
    ApproxCdf,
    CdfPlan,
    _sealed,
    build_cdf,
    error_bound,
    eval_cdf,
    plan_from_phi,
)
from sketchks.gk_sketch import QuantileSketch, SketchStateError
from sketchks.synth import normal, sample

# frozen from a 60-digit mpmath summation of 2*sum (-1)^(k-1) exp(-2 k^2 L^2)
QKS_ONE = 0.2699996716773545
P_AT_0976 = 8.5345368e-42   # p_value(0.0976, 1e4, 1e4)
P_AT_0837 = 7.5111236e-31   # p_value(0.0837, 1e4, 1e4)


def all_knots_ks(cdf1, cdf2):
    """Both interpolants at every knot of either CDF, kept as an oracle for
    approx_two_sample_ks."""
    d1 = np.max(np.abs(eval_cdf(cdf1, cdf1.quantiles) - eval_cdf(cdf2, cdf1.quantiles)))
    d2 = np.max(np.abs(eval_cdf(cdf1, cdf2.quantiles) - eval_cdf(cdf2, cdf2.quantiles)))
    return float(np.maximum(d1, d2))


def reference_rank_bounds(sketch, v):
    """Scalar rank interval kept as an oracle: four branches on one value."""
    values, rmin, rmax = (a.tolist() for a in sketch.summary())
    n = sketch.count
    if v < values[0]:
        return (0, 0)
    if v > values[-1]:
        return (n, n)
    i = bisect.bisect_right(values, v) - 1
    if i == len(values) - 1:
        return (n, n)
    return (rmin[i], rmax[i + 1] - 1)


def reference_lall(sketch1, sketch2):
    """Per-value loop kept as an oracle for lall_ks, in Python ints:
    max |(lo1+hi1)*m - (lo2+hi2)*n| / (2*n*m), rounded once by Fraction."""
    stored = set(sketch1.summary()[0].tolist()) | set(sketch2.summary()[0].tolist())
    n, m = sketch1.count, sketch2.count
    best = 0
    for v in sorted(stored):
        lo1, hi1 = reference_rank_bounds(sketch1, v)
        lo2, hi2 = reference_rank_bounds(sketch2, v)
        best = max(best, abs((lo1 + hi1) * m - (lo2 + hi2) * n))
    return float(Fraction(best, 2 * n * m))


def reference_interval(sketch1, sketch2):
    """Per-value loop kept as an oracle for distance_interval, in Python
    ints: the largest upper and lower bounds on |c1*m - c2*n| over the
    stored values, the lower floored at 0, each rounded once by Fraction."""
    stored = set(sketch1.summary()[0].tolist()) | set(sketch2.summary()[0].tolist())
    n, m = sketch1.count, sketch2.count
    upper = lower = 0
    for v in sorted(stored):
        lo1, hi1 = reference_rank_bounds(sketch1, v)
        lo2, hi2 = reference_rank_bounds(sketch2, v)
        upper = max(upper, hi1 * m - lo2 * n, hi2 * n - lo1 * m)
        lower = max(lower, lo1 * m - hi2 * n, lo2 * n - hi1 * m)
    return float(Fraction(lower, n * m)), float(Fraction(upper, n * m))


class TestExactDistance:
    def test_identical_multisets(self):
        assert ks.exact_ks_distance([3, 1, 2, 2], [2, 1, 3, 2]) == 0.0

    def test_disjoint_supports(self):
        assert ks.exact_ks_distance([1, 2, 3, 4], [5, 6, 7, 8]) == 1.0

    def test_hand_case(self):
        # F1(2) = 1, F2(2) = 0.5
        assert ks.exact_ks_distance([1, 2], [1, 3]) == 0.5

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        y = rng.normal(1, 1, size=60)
        d = ks.exact_ks_distance(x, y)
        assert ks.exact_ks_distance(y, x) == d
        assert ks.exact_ks_distance(rng.permutation(x), rng.permutation(y)) == d

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n, m = rng.integers(1, 200, size=2)
            x = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=n)  # force ties
            y = rng.normal(size=m)
            assert ks.exact_ks_distance(x, y) == count_ks(x.tolist(), y.tolist())

    def test_correctly_rounded_where_float_cdfs_are_not(self):
        # F1(1) - F2(1) = 3/10 - 1/10: 0.3 - 0.1 is 0.19999999999999998
        x = [1, 1, 1, 4, 4, 4, 4, 4, 4, 4]
        y = [1, 2, 2, 4, 4, 4, 4, 4, 4, 4]
        assert ks.exact_ks_distance(x, y) == 0.2

    @staticmethod
    def assert_peak_within_sorted_copies_and_one_block(traced_peak, x, y):
        _, peak = traced_peak(ks.exact_ks_distance, x, y)
        # the two sorted copies, then one merge's temporaries: fewer than
        # _PROBE_BLOCK values a side, 25 bytes a pooled value, plus 16 KiB
        # for the plan's cuts and small objects
        assert peak <= 8 * (x.size + y.size) + 25 * 2 * ks._PROBE_BLOCK + 2**14

    def test_peak_memory_per_value(self, traced_peak):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=10**5), rng.normal(0.01, 1, size=10**5)
        self.assert_peak_within_sorted_copies_and_one_block(traced_peak, x, y)

    def test_peak_memory_per_value_on_ties(self, traced_peak):
        rng = np.random.default_rng(5)  # 1,000 values shared by both samples
        x, y = (rng.integers(0, 1000, size=10**5).astype(float) for _ in "xy")
        self.assert_peak_within_sorted_copies_and_one_block(traced_peak, x, y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks.exact_ks_distance([], [1.0])
        with pytest.raises(ValueError):
            ks.exact_ks_distance([1.0], [])


class TestSortedKernel:
    """`_sorted_ks_distance` is `exact_ks_distance` after the sort."""

    @staticmethod
    def assert_kernel_matches(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        assert ks._sorted_ks_distance(np.sort(x), np.sort(y)) == ks.exact_ks_distance(x, y)

    def test_ties_across_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = rng.integers(1, 300, size=2)
            self.assert_kernel_matches(rng.integers(0, 5, n), rng.integers(0, 5, m))

    def test_constant_data(self):
        self.assert_kernel_matches([2.0] * 7, [2.0] * 3)
        self.assert_kernel_matches([2.0] * 7, [3.0] * 3)

    def test_single_values(self):
        self.assert_kernel_matches([1.0], [1.0])
        self.assert_kernel_matches([1.0], [0.0])
        self.assert_kernel_matches([0.5], sample(normal(0, 1), 1000, 4))

    def test_unequal_sizes_past_one_block(self):
        x = sample(normal(0, 1), 3 * ks._PROBE_BLOCK + 5, 12)
        y = sample(normal(0.1, 1), 777, 13)
        self.assert_kernel_matches(x, y)
        self.assert_kernel_matches(y, x)

    def test_same_errors(self):
        empty, one = np.array([]), np.array([1.0])
        for fn in (ks.exact_ks_distance, ks._sorted_ks_distance):
            with pytest.raises(ValueError, match="non-empty"):
                fn(empty, one)
            with pytest.raises(ValueError, match="non-empty"):
                fn(one, empty)
            with pytest.raises(ValueError, match="x contains a non-finite value: nan"):
                fn(np.array([0.0, np.nan]), one)
            with pytest.raises(ValueError, match="y contains a non-finite value: inf"):
                fn(one, np.array([0.0, np.inf]))
            with pytest.raises(ValueError, match="x contains a non-finite value: -inf"):
                fn(np.array([-np.inf, 0.0]), one)

    def test_count_guard(self):
        # stride-0 views: 2**32 values a side with 8 bytes behind them; the
        # kernel's finiteness check reads only each sorted sample's ends.
        # The public function reaches this guard through the kernel.
        big = np.broadcast_to(np.float64(1.0), (2**32,))
        with pytest.raises(ValueError, match="n\\*m must be below 2\\*\\*63"):
            ks._sorted_ks_distance(big, big)

    def test_walk_reads_a_tie_group_in_one_step(self):
        # 10**6 values a side over 5 distinct values: every value is a
        # cut, whose whole tie group the plan's binary searches count, so
        # no interval between cuts holds a value and nothing is merged
        xs = np.repeat(np.arange(5.0), 200_000)
        ys = np.repeat(np.arange(5.0), [300_000, 100_000, 250_000, 150_000, 200_000])
        with mock.patch.object(ks, "_merged_lead", wraps=ks._merged_lead) as merge:
            assert ks._sorted_ks_distance(xs, ys) == 0.1
        merge.assert_not_called()

    def test_merges_only_intervals_whose_bound_beats_the_lead(self):
        # 400 values a side cut every 8th value: ~101 cuts.  Far apart
        # samples lead at the cuts by more than most intervals' bounds
        # allow; this draw leaves a few intervals to merge
        rng = np.random.default_rng(4)
        x, y = np.sort(rng.normal(size=400)), np.sort(rng.normal(3, 1, size=400))
        cuts = np.unique(np.concatenate((x[7::8], y[7::8], [y[-1]])))
        with mock.patch.object(ks, "_PROBE_BLOCK", 8), \
                mock.patch.object(ks, "_merged_lead", wraps=ks._merged_lead) as merge:
            assert ks._sorted_ks_distance(x, y) == count_ks(x.tolist(), y.tolist())
        assert 0 < merge.call_count < cuts.size

    def test_reads_sorted_samples_in_place(self, traced_peak):
        # exact_ks_distance needs 1.71 MB here; the kernel copies nothing,
        # and holds only its plan and one merge's temporaries
        rng = np.random.default_rng(5)
        xs = np.sort(rng.normal(size=10**5))
        ys = np.sort(rng.normal(0.01, 1, size=10**5))
        _, peak = traced_peak(ks._sorted_ks_distance, xs, ys)
        assert peak <= 0.25e6


class TestApproxDistance:
    def test_same_object_zero(self):
        data = sample(normal(0, 1), 500, 1)
        cdf = build_cdf(data, plan_from_phi(0.2, 500))
        assert ks.approx_two_sample_ks(cdf, cdf) == 0.0

    def test_same_sample_two_plans(self):
        data = sample(normal(0, 1), 2000, 2)
        c1 = build_cdf(data, plan_from_phi(0.1, 2000))
        c2 = build_cdf(data, plan_from_phi(0.3, 2000))
        d = ks.approx_two_sample_ks(c1, c2)
        assert d <= 0.05 + 0.15  # delta1 + delta2

    def test_gaussian_shift_within_reported_band(self):
        # N(0,1) vs N(1,1) at 1e4 points: distance near Phi(.5)-Phi(-.5)=0.383
        x = sample(normal(0, 1), 10000, 40)
        y = sample(normal(1, 1), 10000, 41)
        d_exact = ks.exact_ks_distance(x, y)
        cdf1 = build_cdf(x, plan_from_phi(0.000399, 10000))
        cdf2 = build_cdf(y, plan_from_phi(0.000399, 10000))
        d = ks.approx_two_sample_ks(cdf1, cdf2)
        assert 0.3684 <= d <= 0.4007
        assert abs(d - d_exact) <= 0.000399

    def test_error_bound_randomized(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            n = int(rng.integers(50, 400))
            m = int(rng.integers(50, 400))
            x = rng.normal(size=n)
            y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=m)
            phi1 = float(rng.uniform(0.05, 0.5))
            phi2 = float(rng.uniform(0.05, 0.5))
            p1 = plan_from_phi(phi1, n)
            p2 = plan_from_phi(phi2, m)
            d = ks.approx_two_sample_ks(build_cdf(x, p1), build_cdf(y, p2))
            bound = error_bound(p1) + error_bound(p2)
            assert abs(d - ks.exact_ks_distance(x, y)) <= bound, trial

    def test_peak_memory_on_tied_knots(self, traced_peak):
        # the loose-1m shape: 14,144 knots on under 200 distinct values a side
        plan = plan_from_phi(0.01, 10**6)
        cdf1 = build_cdf(sample(normal(0, 1), 10**6, 5), plan)
        cdf2 = build_cdf(sample(normal(0.05, 1), 10**6, 6), plan)
        assert plan.a == 14144 and np.unique(cdf1.quantiles).size < 200
        d, peak = traced_peak(ks.approx_two_sample_ks, cdf1, cdf2)
        assert peak <= 0.1e6
        assert d == all_knots_ks(cdf1, cdf2)

    def test_nan_is_not_dropped(self, monkeypatch):
        # a NaN at the second CDF's knots must reach the caller, not lose
        # to the first CDF's maximum
        x = sample(normal(0, 1), 500, 3)
        y = sample(normal(1, 1), 500, 4)
        cdf1 = build_cdf(x, plan_from_phi(0.2, 500))
        cdf2 = build_cdf(y, plan_from_phi(0.2, 500))
        real = ks.eval_cdf
        marker = cdf2.quantiles[-1]

        def poisoned(cdf, xs):
            out = real(cdf, xs)
            out[xs == marker] = math.nan
            return out

        monkeypatch.setattr(ks, "eval_cdf", poisoned)
        assert math.isnan(ks.approx_two_sample_ks(cdf1, cdf2))


class TestQks:
    def test_large_lambda_tail(self):
        assert ks.qks(5.0) <= 1e-20

    def test_small_lambda_convention(self):
        assert ks.qks(1e-6) == 1.0
        assert ks.qks(0.0) == 1.0

    def test_against_series_oracle(self):
        assert ks.qks(1.0) == pytest.approx(QKS_ONE, abs=1e-6)

    def test_slowly_converging_lambda_returns_one(self):
        # terms decay too slowly inside 100 terms; convention says 1
        assert ks.qks(0.01) == 1.0

    def test_monotone_non_increasing(self):
        grid = np.linspace(0.0, 3.0, 301)
        vals = [ks.qks(float(l)) for l in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        assert vals[-1] < 1e-7

    def test_domain(self):
        with pytest.raises(ValueError):
            ks.qks(-0.1)
        with pytest.raises(ValueError, match="nan"):
            ks.qks(float("nan"))


class TestPValue:
    def test_zero_distance(self):
        assert ks.p_value(0.0, 10, 10) == 1.0

    def test_huge_distance_underflows_to_zero(self):
        assert ks.p_value(0.3684, 10**4, 10**4) == 0.0  # true value ~ 8e-590

    def test_band_endpoints_order_of_magnitude(self):
        # largest distance of the variance-shift study pairs with the
        # smallest p and vice versa (7.4e-42 / 7.0e-31 after rounding)
        assert ks.p_value(0.0976, 10**4, 10**4) == pytest.approx(P_AT_0976, rel=1e-5)
        assert ks.p_value(0.0837, 10**4, 10**4) == pytest.approx(P_AT_0837, rel=1e-5)

    def test_non_increasing_in_d(self):
        ds = np.linspace(0, 0.1, 101)
        ps = [ks.p_value(float(d), 500, 700) for d in ds]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ks.p_value(-0.1, 10, 10)
        with pytest.raises(ValueError):
            ks.p_value(1.1, 10, 10)
        with pytest.raises(ValueError):
            ks.p_value(0.5, 0, 10)


class TestDCrit:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_round_trip(self, alpha):
        d = ks.d_crit(alpha, 10**4, 10**4)
        assert ks.p_value(d, 10**4, 10**4) == pytest.approx(alpha, abs=1e-8)

    def test_monotone_in_alpha(self):
        n = m = 10**4
        assert ks.d_crit(0.01, n, m) > ks.d_crit(0.05, n, m) > ks.d_crit(0.20, n, m)

    def test_against_dense_tabulation_oracle(self):
        # invert by scanning a dense lambda grid, independent of bisection
        lams = np.linspace(0.3, 3.0, 200001)
        qs = np.array([ks.qks(float(l)) for l in lams[:: 100]])
        for alpha in (0.05, 0.2):
            coarse = lams[::100][np.argmin(np.abs(qs - alpha))]
            en = math.sqrt(10**4 * 10**4 / (2 * 10**4))
            assert ks.d_crit(alpha, 10**4, 10**4) == pytest.approx(
                coarse / en, abs=2e-4
            )

    def test_mpmath_frozen_value(self):
        # lambda(0.05) = 1.3580986393225506 from the 60-digit oracle
        assert ks.d_crit(0.05, 10**4, 10**4) * math.sqrt(5000) == pytest.approx(
            1.3580986393225506, abs=1e-7
        )

    @pytest.mark.parametrize("alpha", [1e-9, 1e-11, 1e-13])
    def test_round_trip_at_tiny_alpha(self, alpha):
        # an absolute 1e-10 stop is 10% of alpha = 1e-9, and below 1e-10 it
        # ends at the first midpoint, lambda = 5 (p-value 3.9e-22)
        d = ks.d_crit(alpha, 1000, 1000)
        assert abs(ks.p_value(d, 1000, 1000) - alpha) <= 1e-6 * alpha

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                ks.d_crit(bad, 10, 10)
        # below Q(10) ~ 2.8e-87 the bracket [1e-6, 10] cannot reach alpha
        with pytest.raises(ValueError, match=r"at least Q\(10\)"):
            ks.d_crit(1e-90, 10, 10)
        for n, m in ((0, 10), (10, 0), (-3, 10)):
            with pytest.raises(ValueError, match="sample sizes must be positive"):
                ks.d_crit(0.05, n, m)


class TestPhiForTest:
    def test_beta_to_zero_continuity(self):
        assert ks.phi_for_test(0.05, 1e-6, 10**4, 10**4) < 1e-4

    def test_tiny_alpha_plans_a_positive_phi(self):
        assert ks.phi_for_test(1e-11, 5e-12, 10**5, 10**5) > 0

    def test_matches_definition(self):
        alpha, beta, n, m = 0.1, 0.04, 3000, 5000
        base = ks.d_crit(alpha, n, m)
        expect = min(
            abs(ks.d_crit(alpha + beta, n, m) - base),
            abs(ks.d_crit(alpha - beta, n, m) - base),
        )
        assert ks.phi_for_test(alpha, beta, n, m) == expect

    def test_beta_that_d_crit_cannot_resolve_is_refused(self):
        # d_crit stops within min(1e-10, 1e-6*alpha) of its level, which
        # absorbs these shifts: phi would be 0, refused under the caller's names
        for beta in (1e-320, 1e-12, 1e-10):
            with pytest.raises(ValueError) as info:
                ks.phi_for_test(0.05, beta, 10**4, 10**4)
            assert str(info.value) == (f"beta = {beta} is too small for d_crit to "
                                       "resolve at alpha = 0.05: phi would be 0")

    def test_domain(self):
        with pytest.raises(ValueError):
            ks.phi_for_test(0.05, 0.06, 100, 100)
        with pytest.raises(ValueError):
            ks.phi_for_test(0.97, 0.05, 100, 100)
        with pytest.raises(ValueError, match="sample sizes must be positive"):
            ks.phi_for_test(0.05, 0.025, 0, 10)
        for beta in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="beta must be positive"):
                ks.phi_for_test(0.05, beta, 100, 100)
        # alpha itself is checked first, in the words `--phi` gives it
        for alpha in (1.5, 0.0, -0.2, float("nan")):
            with pytest.raises(ValueError) as info:
                ks.phi_for_test(alpha, 0.025, 100, 100)
            assert str(info.value) == f"alpha must be in (0, 1), got {alpha}"

    def test_level_below_q10_is_named_as_alpha_minus_beta(self):
        # alpha itself is above Q(10); alpha - beta, which d_crit is handed,
        # is not, and the error names it as the caller wrote it
        with pytest.raises(ValueError) as info:
            ks.phi_for_test(1e-86, 9e-87, 100, 100)
        assert str(info.value) == ("alpha +/- beta must be at least Q(10) = 2.77e-87, "
                                   "got 1.0000000000000017e-87")


class TestLallKs:
    def _sealed(self, data, eps):
        s = QuantileSketch(eps)
        s.extend(np.asarray(data).tolist())
        return s.seal()

    def test_same_stream_self_bound(self):
        data = sample(normal(0, 1), 3000, 9)
        s1 = self._sealed(data, 0.01)
        s2 = self._sealed(data, 0.01)
        d = ks.lall_ks(s1, s2)
        assert d <= 2 * 0.01 + 2 / 3000

    def test_gaussian_shift_configuration(self):
        # mean-shift row of the sketch comparison: precision 0.05, eps = 1/120
        x = sample(normal(0, 1), 10000, 50)
        y = sample(normal(1, 1), 10000, 51)
        d = ks.lall_ks(self._sealed(x, 0.05 / 6), self._sealed(y, 0.05 / 6))
        assert abs(d - ks.exact_ks_distance(x, y)) <= 0.05

    def test_gamma_uniform_configuration(self):
        from sketchks.synth import gamma, uniform

        x = sample(gamma(0.5, 1), 84000, 52)
        y = sample(uniform(0, 1), 84000, 53)
        d = ks.lall_ks(self._sealed(x, 0.05 / 6), self._sealed(y, 0.05 / 6))
        exact = ks.exact_ks_distance(x, y)
        assert abs(d - exact) <= 0.05
        assert exact == pytest.approx(0.2751, abs=0.02)

    def test_correctly_rounded_on_exact_summaries(self):
        # 2*eps*n < 2 stores every value, so the estimate is the exact CDF:
        # 6/20 - 2/20 must give 0.2, not 0.3 - 0.1 = 0.19999999999999998
        x = [1, 1, 1, 4, 4, 4, 4, 4, 4, 4]
        y = [1, 2, 2, 4, 4, 4, 4, 4, 4, 4]
        assert ks.lall_ks(self._sealed(x, 0.01), self._sealed(y, 0.01)) == 0.2

    def test_open_sketches_read_as_sealed(self):
        x = sample(normal(0, 1), 3000, 60)
        y = sample(normal(0.2, 1), 2000, 61)
        s1, s2 = QuantileSketch(0.01), QuantileSketch(0.01)
        s1.extend(x)
        s2.extend(y)
        d = ks.lall_ks(s1, s2)
        assert d == ks.lall_ks(self._sealed(x, 0.01), self._sealed(y, 0.01))
        assert d == ks.lall_ks(s1.seal(), s2.seal())

    def test_state_errors(self):
        sealed = self._sealed([1.0, 2.0], 0.1)
        for read in (ks.lall_ks, ks.distance_interval):
            with pytest.raises(SketchStateError):
                read(QuantileSketch(0.1), sealed)
            with pytest.raises(SketchStateError):
                read(QuantileSketch(0.1), QuantileSketch(0.1))

    def test_refuses_counts_whose_terms_leave_int64(self):
        # 2*n*m reaches 2**63 at n = m = 2**31; only the guard reads count
        s1, s2 = self._sealed([1.0, 2.0], 0.1), self._sealed([1.5], 0.1)
        with mock.patch.object(QuantileSketch, "count", new_callable=mock.PropertyMock,
                               return_value=2**31):
            for read in (ks.lall_ks, ks.distance_interval):
                with pytest.raises(ValueError, match=r"2\*n\*m must be below 2\*\*63"):
                    read(s1, s2)

    def test_first_call_imports_nothing(self):
        # np.union1d would import numpy.ma on first use with numpy 2
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from sketchks import ks
            from sketchks.gk_sketch import QuantileSketch
            s1, s2 = QuantileSketch(0.01), QuantileSketch(0.01)
            s1.extend(np.arange(1000.0))
            s2.extend(np.arange(500.0, 1500.0))
            s1.seal()
            s2.seal()
            before = set(sys.modules)
            ks.lall_ks(s1, s2)
            print(" ".join(sorted(set(sys.modules) - before)))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(ks.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == []


class TestRunTest:
    def test_identical_sources(self):
        data = sample(normal(0, 1), 4000, 77)
        precision = ks.TestPrecision(alpha=0.05, phi=0.01)
        out = ks.run_test(data, data, precision)
        assert out.d <= 0.01
        assert out.p_value > 0.9
        assert not out.reject
        assert out.d_error_bound == 0.01
        uneven = ks.run_test(data, data[:1000], precision)
        assert uneven.plans == (plan_from_phi(0.01, 4000), plan_from_phi(0.01, 1000))

    def test_variance_shift_rejects(self):
        # N(0,1) vs N(0, var 2): true distance 0.0829, observed near 0.09
        precision = ks.TestPrecision(alpha=0.05, phi=0.000399)
        for rep in range(3):
            x = sample(normal(0, 1), 10000, 100 + 2 * rep)
            y = sample(normal(0, math.sqrt(2)), 10000, 101 + 2 * rep)
            out = ks.run_test(x, y, precision)
            assert out.reject
            assert out.d == pytest.approx(0.0906, abs=0.03)

    def test_data_spanning_more_than_dbl_max(self):
        # knot spans overflow; scaling both samples by 1/4 is exact and must
        # not move the distance (no NaN dropped, no RuntimeWarning raised)
        x = np.array([-1e308, -1e308, 1.5e308])
        y = np.array([1e308] * 3)
        precision = ks.TestPrecision(alpha=0.05, phi=1.5)
        for a, b in ((x, y), (y, x)):
            out = ks.run_test(a, b, precision)
            assert out.d == ks.run_test(a / 4, b / 4, precision).d
            assert out.d == pytest.approx(1 / 3)
            assert abs(out.d - ks.exact_ks_distance(a, b)) <= precision.phi

    def test_decide_is_run_test_on_built_cdfs(self):
        x = sample(normal(0, 1), 3000, 80)
        y = sample(normal(0.1, 1), 2000, 81)
        precision = ks.TestPrecision(alpha=0.05, phi=0.02)
        cdfs = [build_cdf(v, plan_from_phi(0.02, v.size)) for v in (x, y)]
        assert ks.decide(*cdfs, precision.alpha) == ks.run_test(x, y, precision)

    def test_error_bound_is_read_off_the_plans(self):
        # CDFs planned at phi 0.2 certify |d - D| <= 0.2 and no less, so no
        # caller's phi may stand in for the bound: here |d - D| ~ 0.14
        x = sample(normal(0, 1), 20000, 3)
        y = sample(normal(0, 1), 20000, 4)
        cdfs = [build_cdf(v, plan_from_phi(0.2, v.size)) for v in (x, y)]
        out = ks.decide(*cdfs, 0.05)
        assert out.d_error_bound == 0.2
        assert abs(out.d - ks.exact_ks_distance(x, y)) <= out.d_error_bound

    def test_peak_memory_on_the_loose_1m_shape(self, traced_peak):
        # two 1e6 samples at phi 0.01: 14,144 knots a side over <200 values.
        # The peak is the sketch's 512 KiB chunk buffer plus the first CDF's
        # run ends while the second sample is ingested; the first CDF's
        # a-long knot arrays (~0.23 MB) are not held
        x = sample(normal(0, 1), 10**6, 5)
        y = sample(normal(0.05, 1), 10**6, 6)
        _, peak = traced_peak(ks.run_test, x, y, ks.TestPrecision(alpha=0.05, phi=0.01))
        assert peak <= 0.65e6

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            ks.TestPrecision(alpha=1.5, phi=0.01)
        with pytest.raises(ValueError, match="phi must be in"):
            ks.TestPrecision(alpha=0.05, phi=2.0)

    def test_empty_sample_rejected(self):
        precision = ks.TestPrecision(alpha=0.05, phi=0.1)
        for x, y in (([], [1.0, 2.0]), ([1.0, 2.0], [])):
            with pytest.raises(ValueError, match="non-empty"):
                ks.run_test(x, y, precision)

    @pytest.mark.parametrize("x, y, bad", [
        ([1.0, np.nan, 2.0, 3.0], np.arange(10.0), "nan"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, np.inf, 2.0], "inf"),
        ([1.0, np.nan, 2.0, 3.0], [1.0, np.inf, 2.0], "nan"),
    ])
    def test_sample_errors_come_before_the_plans(self, x, y, bad):
        # no plan reaches phi 1e-6 on 4 points, so the planner counts both
        # by reading them: x's error first, y's after x reads, then the plan's
        with pytest.raises(ValueError, match=f"non-finite value: {bad}$"):
            ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=1e-6))
        with pytest.raises(ValueError, match="cannot reach a CDF error bound"):
            ks.run_test([1.0, 2.0, 3.0, 4.0], np.arange(10.0),
                        ks.TestPrecision(alpha=0.05, phi=1e-6))

    @pytest.mark.parametrize("counts", ["planned", "unplanned", "uncounted"])
    def test_ahead_wraps_the_first_pass_reads(self, counts):
        # the planner's one process seam, with no worker: `ahead` is
        # handed y's read alone, entered once before x's planned read, and
        # hands back a call that reads y at y's plan; where the bounds
        # cannot plan (2 points cannot reach phi 0.1, or no count is known)
        # the planner counts both first, then enters the hook as well
        x, y = np.linspace(-2, 2, 300), np.linspace(-1, 3, 200)
        names = {id(x): "x", id(y): "y"}
        plans = [plan_from_phi(0.1, s.size) for s in (x, y)]
        events, handed = [], []

        def read(s, epsilon):
            events.append(("read", names[id(s)], epsilon))
            return _sealed(s, epsilon)

        @contextmanager
        def ahead(read_y):
            events.append(("ahead",))

            def recorded():
                handed.append(read_y())
                return handed[-1]

            yield recorded
            events.append(("left",))

        def known(s):
            if counts == "uncounted":
                raise ValueError("no count")
            return s.size if counts == "planned" else 2

        out = ks._decide_sources(x, y, 0.05, 0.1, known=known, read=read, ahead=ahead)
        assert out == ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=0.1))
        reads = [("read", "x", plans[0].epsilon), ("read", "y", plans[1].epsilon)]
        counting = [] if counts == "planned" else [
            ("read", s, ks._COUNT_EPSILON) for s in ("x", "y")]
        assert events == [*counting, ("ahead",), *reads, ("left",)]
        (sketch,) = handed
        assert (sketch.count, sketch.epsilon) == (200, plans[1].epsilon)
        for got, want in zip(sketch.summary(), _sealed(y, plans[1].epsilon).summary()):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(SketchStateError, match="sealed"):
            sketch.extend([0.0])


class TestKsOutcomeJson:
    PLANS = (plan_from_phi(0.2, 1000), plan_from_phi(0.2, 2000))

    def test_schema_and_precision(self):
        assert [f.name for f in dataclasses.fields(ks.KsOutcome)] == [
            "d", "alpha", "plans",
        ]
        out = ks.KsOutcome(d=0.123456789012345678, alpha=0.05, plans=self.PLANS)
        doc = json.loads(out.to_json())
        assert list(doc) == [
            "d_ks", "d_error_bound", "p_value", "n", "m", "alpha", "reject", "params",
        ]
        assert list(doc["params"]) == [
            "phi", "delta", "epsilon_x", "epsilon_y", "a_x", "a_y",
        ]
        plan_x, plan_y = self.PLANS
        assert doc["params"] == {
            "phi": 0.2, "delta": 0.1, "epsilon_x": plan_x.epsilon,
            "epsilon_y": plan_y.epsilon, "a_x": plan_x.a, "a_y": plan_y.a,
        }
        assert doc["d_ks"] == pytest.approx(0.12345678901234568, rel=1e-16)
        assert doc["d_error_bound"] == 0.2
        assert doc["p_value"] == ks.p_value(out.d, 1000, 2000)
        assert doc["n"] == 1000 and doc["m"] == 2000
        assert doc["reject"] is True

    def test_each_delta_when_the_plans_differ(self):
        # phi 0.2 for x and 0.02 for y: x's delta, then y's, summing to
        # the bound; plans at one phi print one delta (above)
        rng = np.random.default_rng(8)
        cdfs = [build_cdf(rng.normal(size=5000), plan_from_phi(phi, 5000))
                for phi in (0.2, 0.02)]
        doc = json.loads(ks.decide(*cdfs, alpha=0.05).to_json())
        assert list(doc["params"])[:3] == ["phi", "delta", "delta_y"]
        assert (doc["params"]["delta"], doc["params"]["delta_y"]) == (0.1, 0.01)
        assert doc["params"]["delta"] + doc["params"]["delta_y"] == doc["d_error_bound"]

    @pytest.mark.parametrize("d, alpha, match", [
        (-0.1, 0.5, "d must be"), (1.5, 0.5, "d must be"),
        (0.1, 0.0, "alpha must be"), (0.1, 1.0, "alpha must be"),
        (0.1, math.nan, "alpha must be"),
    ])
    def test_range_enforced(self, d, alpha, match):
        with pytest.raises(ValueError, match=match):
            ks.KsOutcome(d=d, alpha=alpha, plans=self.PLANS)


class TestDecisionCertain:
    # at n = m = 20000, d_crit(0.05) ~ 0.0136 lies inside [d - 0.01, d + 0.01]
    # only for d near it
    PLANS = (plan_from_phi(0.01, 20000), plan_from_phi(0.01, 20000))

    @pytest.mark.parametrize("d, certain", [
        (0.0, True), (0.003, True), (0.0136, False), (0.02, False), (0.03, True),
        (1.0, True),
    ])
    def test_reads_the_p_values_at_the_band_ends(self, d, certain):
        out = ks.KsOutcome(d=d, alpha=0.05, plans=self.PLANS)
        assert out.decision_certain is certain
        assert "certain" not in out.to_json()

    def test_flags_the_false_rejections_of_same_distribution_pairs(self):
        # pairs of one N(0,1) at n = m = 1e5 and phi = 0.01: the sketch
        # route rejects each while the exact test accepts, and each is flagged
        for s in range(1000, 1010):
            x = sample(normal(0, 1), 10**5, 2 * s)
            y = sample(normal(0, 1), 10**5, 2 * s + 1)
            out = ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=0.01))
            p_exact = ks.p_value(ks.exact_ks_distance(x, y), 10**5, 10**5)
            assert out.reject and p_exact > 0.05, s
            assert not out.decision_certain, s


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.tuples(st.integers(min_value=102, max_value=3000),
                    st.integers(min_value=102, max_value=3000)),
    shift=st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]),
    decimals=st.sampled_from([0, 1, 17]),  # 0 and 1: ties within and across
    phi=st.sampled_from([0.02, 0.05, 0.1, 0.3]),
    alpha=st.sampled_from([0.01, 0.05, 0.5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_certain_decision_is_the_exact_tests(sizes, shift, decimals, phi, alpha, seed):
    # |d - D| <= d_error_bound and p_value does not increase with d
    rng = np.random.default_rng(seed)
    x = rng.normal(size=sizes[0]).round(decimals)
    y = (rng.normal(size=sizes[1]) + shift).round(decimals)
    out = ks.run_test(x, y, ks.TestPrecision(alpha=alpha, phi=phi))
    exact = ks.p_value(ks.exact_ks_distance(x, y), x.size, y.size) <= alpha
    assert not out.decision_certain or out.reject == exact


@settings(max_examples=200, deadline=None)
@given(phi=st.floats(min_value=0, max_value=2, exclude_min=True, exclude_max=True),
       n=st.integers(min_value=3, max_value=10**7))
@example(phi=2.225073858507e-311, n=3)  # 1/delta overflows: refused, not raised
def test_planned_deltas_sum_to_phi(phi, n):
    # the outcome's bound delta_x + delta_y echoes the phi both sides were
    # planned at, which ks2's golden and its JSON readers rely on; a phi no
    # plan reaches raises ValueError
    try:
        plan = plan_from_phi(phi, n)
    except ValueError:
        return
    assert plan.delta + plan.delta == phi


def count_ks(x, y):
    """Independent oracle in Python ints: max_t |c_x(t)*m - c_y(t)*n| / (n*m),
    rounded once by Fraction."""
    n, m = len(x), len(y)
    best = max(abs(sum(v <= t for v in x) * m - sum(v <= t for v in y) * n)
               for t in x + y)
    return float(Fraction(best, n * m))


_TIES = st.integers(-3, 3).map(float)
_FLOATS = st.floats(min_value=-50, max_value=50,
                    allow_nan=False, allow_infinity=False)


@given(pair=st.one_of(
    st.tuples(st.lists(_TIES, min_size=1, max_size=60),
              st.lists(_TIES, min_size=1, max_size=60)),
    st.tuples(st.lists(_FLOATS, min_size=1, max_size=60),
              st.lists(_FLOATS, min_size=1, max_size=60)),
))
def test_exact_distance_is_correctly_rounded(pair):
    x, y = pair
    assert ks.exact_ks_distance(x, y) == count_ks(x, y)


@settings(max_examples=200, deadline=None)
@given(block=st.sampled_from([1, 2, 3, 7]), below=st.booleans(), data=st.data())
def test_exact_distance_is_the_same_at_every_probe_block(block, below, data):
    # tie groups of _TIES straddle cuts and are shared by both samples;
    # sizes include 1, exact multiples of the cut spacing and up to twelve
    # spacings, so one sample's cuts can end many cuts before the other's;
    # runs of one value up to four spacings long give tie groups that span
    # several cuts; under `below` every x value lies below every y value,
    # so the intervals below y's minimum hold x values alone
    size = st.one_of(st.just(1), st.integers(1, 12).map(lambda k: k * block),
                     st.integers(1, 40))
    plain = size.flatmap(lambda n: st.lists(_TIES, min_size=n, max_size=n))
    runs = st.lists(st.tuples(_TIES, st.integers(1, 4 * block)),
                    min_size=1, max_size=6).map(
        lambda rs: [v for v, k in rs for _ in range(k)])
    x, y = (data.draw(st.one_of(plain, runs)) for _ in "xy")
    if below:
        y = [v + 10 for v in y]
    with mock.patch.object(ks, "_PROBE_BLOCK", block):
        assert ks.exact_ks_distance(x, y) == count_ks(x, y)


@st.composite
def _cdf(draw, values):
    """An ApproxCdf on drawn quantiles, with its own n and knot count."""
    quantiles = sorted(draw(st.lists(values, min_size=3, max_size=80)))
    a = len(quantiles)
    n = draw(st.integers(min_value=a, max_value=10**6))
    plan = CdfPlan(n=n, delta=1 / (a - 1) + 0.25, epsilon=0.25, a=a)
    return ApproxCdf(plan, np.array(quantiles))


@given(pair=st.one_of(st.tuples(_cdf(_TIES), _cdf(_TIES)),
                      st.tuples(_cdf(_FLOATS), _cdf(_FLOATS))))
def test_approx_distance_matches_all_knots(pair):
    cdf1, cdf2 = pair
    assert ks.approx_two_sample_ks(cdf1, cdf2) == all_knots_ks(cdf1, cdf2)
    assert ks.approx_two_sample_ks(cdf2, cdf1) == all_knots_ks(cdf1, cdf2)


def _sealed_stream(kind, n, seed, eps):
    data = np.random.default_rng(seed).normal(size=n).round(1)  # ties
    if kind == "sorted":
        data = np.sort(data)
    elif kind == "reversed":
        data = np.sort(data)[::-1]
    s = QuantileSketch(eps)
    s.extend(data.tolist())
    return s.seal()


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["as drawn", "sorted", "reversed"])] * 2),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=3000)] * 2),
    seed=st.integers(min_value=0, max_value=2**32 - 2),
    eps=st.sampled_from([0.1, 0.01, 0.001]),
)
def test_lall_and_rank_bounds_match_scalar_reference(kinds, sizes, seed, eps):
    s1 = _sealed_stream(kinds[0], sizes[0], seed, eps)
    s2 = _sealed_stream(kinds[1], sizes[1], seed + 1, eps)
    assert ks.lall_ks(s1, s2) == reference_lall(s1, s2)
    assert ks.distance_interval(s1, s2) == reference_interval(s1, s2)
    probes = np.concatenate((s2.summary()[0], [-10.0, 10.0, 0.05, 0.0]))
    lo, hi = s1.rank_bounds(probes)
    assert list(zip(lo.tolist(), hi.tolist())) == [
        reference_rank_bounds(s1, v) for v in probes.tolist()]


def _lall_sample(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(n, 2.0)
    if kind == "ties":  # few values, shared by both samples
        return rng.integers(0, 5, size=n).astype(float)
    return rng.normal(size=n)


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["normal", "ties", "constant"])] * 2),
    sizes=st.tuples(*[st.sampled_from([1, 2, 7, 150, 2000])] * 2),
    eps=st.tuples(*[st.sampled_from([0.2, 0.05, 0.01, 0.002])] * 2),
    seed=st.integers(min_value=0, max_value=2**32 - 2),
    chunk=st.sampled_from([17, 4096]),
)
def test_lall_within_the_sum_of_the_sketch_epsilons(kinds, sizes, eps, seed, chunk):
    x = _lall_sample(kinds[0], sizes[0], seed)
    y = _lall_sample(kinds[1], sizes[1], seed + 1)
    s1, s2 = QuantileSketch(eps[0]), QuantileSketch(eps[1])
    with mock.patch.object(gk_sketch, "_CHUNK", chunk):
        s1.extend(x)
        s2.extend(y)
    d, lall = ks.exact_ks_distance(x, y), ks.lall_ks(s1, s2)
    # both distances are correctly rounded, so their float difference may
    # exceed the exact one by rounding errors of at most 2**-52 in all
    assert abs(lall - d) <= eps[0] + eps[1] + 2**-52
    # the bounds are correctly rounded too, and rounding keeps the order of
    # the exact quotients; their width carries the same 2**-52
    d_lo, d_hi = ks.distance_interval(s1, s2)
    assert 0 <= d_lo <= d <= d_hi
    assert d_lo <= lall <= d_hi
    assert d_hi - d_lo <= 2 * eps[0] + 2 * eps[1] + 2**-52


def _identity_sample(rng, n, decimals, scale):
    # decimals 0 and 1 give ties within and across the samples; the scales
    # reach subnormals and ~2**1020, inside |values| < 2**1022, so doubling
    # stays exact
    return rng.normal(size=n).round(decimals) * scale


def _decision(x, y, phi):
    try:
        out = ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=phi))
    except ValueError:  # no certified plan at these sizes
        return None
    return out.d, out.p_value, out.reject


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.tuples(*[st.integers(min_value=1, max_value=3000)] * 2),
    decimals=st.sampled_from([0, 1, 17]),
    scale=st.sampled_from([1.0, 2.0**-1070, 2.0**1018]),
    eps=st.tuples(*[st.sampled_from([0.1, 0.03, 0.01, 0.001])] * 2),
    phi=st.sampled_from([0.05, 0.1, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_doubling_and_swapping_are_identities(sizes, decimals, scale, eps, phi, seed):
    # GK summaries and the CDF route read values only through comparisons
    # and differences, which doubling scales exactly, and every distance is
    # symmetric in its samples: no oracle is needed, and each reading is
    # bit-identical.  Negation is not an identity: GK's compress walks one
    # way, so a mirrored stream gives another valid summary
    rng = np.random.default_rng(seed)
    x, y = (_identity_sample(rng, k, decimals, scale) for k in sizes)
    assert np.all(np.abs(np.concatenate((x, y))) < 2.0**1022)

    sx, sy, s2x, s2y = (_sealed(v, e) for v, e in ((x, eps[0]), (y, eps[1]),
                                                   (2 * x, eps[0]), (2 * y, eps[1])))
    for read in (ks.lall_ks, ks.distance_interval):
        assert read(s2x, s2y) == read(sx, sy)
        assert read(sy, sx) == read(sx, sy)
    want = _decision(x, y, phi)
    assert _decision(2 * x, 2 * y, phi) == want
    assert _decision(y, x, phi) == want


def _bounded(x, y, excess):
    """`_decide_sources`' known: each sample's size plus its excess, an
    upper bound on its values as a file's line count is."""
    return lambda s: s.size + excess[s is y]


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.tuples(*[st.integers(min_value=400, max_value=4000)] * 2),
    excess=st.tuples(*[st.integers(min_value=0, max_value=3000)] * 2),
    shift=st.sampled_from([0.0, 0.03, 0.06, 0.1]),
    decimals=st.sampled_from([0, 1, 17]),  # 0 and 1: ties within and across
    level=st.sampled_from([(0.05, 0.025), (0.1, 0.05), (0.2, 0.1), (0.5, 0.3),
                           (0.5, 0.45)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# y's 400 values cannot fill the 974 knots its bound of 3,400 plans
@example(sizes=(4000, 400), excess=(0, 3000), shift=0.0, decimals=17,
         level=(0.5, 0.45), seed=0)
def test_a_beta_planned_decision_is_the_exact_test_within_beta(
        sizes, excess, shift, decimals, level, seed):
    # the band `_decide_sources` proves: planned from beta at bounds N >= n
    # and M >= m, a rejection has exact p <= alpha + beta and an acceptance
    # exact p > alpha - beta, both at the value counts.  The proof holds up
    # to d_crit's bisection tolerance (it stops within min(1e-10,
    # 1e-6*alpha) of each level), so the band is allowed 1e-9
    alpha, beta = level
    rng = np.random.default_rng(seed)
    x = rng.normal(size=sizes[0]).round(decimals)
    y = (rng.normal(size=sizes[1]) + shift).round(decimals)
    bounds = (x.size + excess[0], y.size + excess[1])
    try:
        out = ks._decide_sources(x, y, alpha, beta=beta, known=_bounded(x, y, excess))
    except ValueError:  # no certified plan at these sizes
        return
    try:
        phi = ks.phi_for_test(alpha, beta, *bounds)
        for b in bounds:
            plan_from_phi(phi, b)
    except ValueError:  # the bounds admit no plan: both are planned from their counts
        bounds = sizes
    assert out.d_error_bound == ks.phi_for_test(alpha, beta, *bounds)
    assert (out.n, out.m) == sizes
    p_exact = ks.p_value(ks.exact_ks_distance(x, y), x.size, y.size)
    if out.reject:
        assert p_exact <= alpha + beta + 1e-9
    else:
        assert p_exact > alpha - beta - 1e-9


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.tuples(*[st.integers(min_value=3, max_value=600)] * 2),
    excess=st.tuples(*[st.integers(min_value=0, max_value=5000)] * 2),
    shift=st.sampled_from([0.0, 0.3]),
    decimals=st.sampled_from([0, 1, 17]),
    phi=st.sampled_from([0.1, 0.2, 0.3, 0.6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# x's 40 values cannot fill the 185 knots its bound of 5,040 plans at phi 0.3
@example(sizes=(40, 500), excess=(5000, 0), shift=0.0, decimals=1, phi=0.3, seed=0)
def test_a_phi_planned_distance_is_within_its_bound(sizes, excess, shift, decimals,
                                                    phi, seed):
    # planned at a caller's phi from bounds N >= n and M >= m, d is within
    # d_error_bound of the exact distance at the value counts, also where a
    # sample's values cannot fill the knots its bound plans and it is
    # planned again from its count
    rng = np.random.default_rng(seed)
    x = rng.normal(size=sizes[0]).round(decimals)
    y = (rng.normal(size=sizes[1]) + shift).round(decimals)
    try:
        out = ks._decide_sources(x, y, 0.05, phi, known=_bounded(x, y, excess))
    except ValueError:  # no certified plan at these sizes
        return
    assert (out.n, out.m) == sizes
    assert out.d_error_bound == phi
    assert abs(out.d - ks.exact_ks_distance(x, y)) <= out.d_error_bound


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the distance bound fails at a left limit (ROADMAP item 25)")
@settings(max_examples=200, deadline=None)
@given(
    sizes=st.tuples(*[st.integers(min_value=20, max_value=400)] * 2),
    moved=st.sampled_from([0.25, 0.5, 0.9, 1.0]),
    decimals=st.sampled_from([0, 1, 17]),  # 0 and 1: ties within and across
    phi=st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3, 0.6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# x's 22 values on five integers, y 60 of them moved one float down:
# |d - D| = 0.1023 > 0.1, with D reached at a left limit
@example(sizes=(22, 60), moved=1.0, decimals=0, phi=0.1, seed=16)
def test_a_distance_reached_at_a_left_limit_is_within_its_bound(sizes, moved, decimals,
                                                                phi, seed):
    # y holds x's values moved one float down, the share `moved` of its
    # size, and further draws: F_y - F_x then peaks just below x's values,
    # so the exact distance is reached at a left limit, between the knots
    # of both plans.  d is within d_error_bound of it, with no tolerance.
    # It is not: at sizes near the least a plan at phi reaches, d misses D
    # by up to ~1.2 times the bound, so the test is expected to fail until
    # the bound is proved or widened
    rng = np.random.default_rng(seed)
    x = rng.normal(size=sizes[0]).round(decimals)
    k = round(moved * sizes[1])
    y = np.concatenate([np.nextafter(rng.choice(x, size=k), -np.inf),
                        rng.normal(size=sizes[1] - k).round(decimals)])
    try:
        out = ks.run_test(x, y, ks.TestPrecision(alpha=0.05, phi=phi))
    except ValueError:  # no certified plan at these sizes
        return
    assert abs(out.d - ks.exact_ks_distance(x, y)) <= out.d_error_bound
