"""KS distances, significance function, critical values, sketch-direct test."""

import bisect
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchks.ks as ks
from sketchks.approx_cdf import (
    ApproxCdf,
    CdfPlan,
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


def brute_force_ks(x, y):
    """Independent oracle: both ECDFs at every pooled point, double loop."""
    best = 0.0
    for t in list(x) + list(y):
        f1 = sum(1 for v in x if v <= t) / len(x)
        f2 = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(f1 - f2))
    return best


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
            assert ks.exact_ks_distance(x, y) == pytest.approx(
                brute_force_ks(x, y), abs=1e-12
            )

    def test_correctly_rounded_where_float_cdfs_are_not(self):
        # F1(1) - F2(1) = 3/10 - 1/10: 0.3 - 0.1 is 0.19999999999999998
        x = [1, 1, 1, 4, 4, 4, 4, 4, 4, 4]
        y = [1, 2, 2, 4, 4, 4, 4, 4, 4, 4]
        assert ks.exact_ks_distance(x, y) == 0.2

    def test_peak_memory_per_value(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=10**5), rng.normal(0.01, 1, size=10**5)
        tracemalloc.start()
        try:
            ks.exact_ks_distance(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * (x.size + y.size)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks.exact_ks_distance([], [1.0])
        with pytest.raises(ValueError):
            ks.exact_ks_distance([1.0], [])


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

    def test_peak_memory_on_tied_knots(self):
        # the loose-1m shape: 14,144 knots on under 200 distinct values a side
        plan = plan_from_phi(0.01, 10**6)
        cdf1 = build_cdf(sample(normal(0, 1), 10**6, 5), plan)
        cdf2 = build_cdf(sample(normal(0.05, 1), 10**6, 6), plan)
        assert plan.a == 14144 and np.unique(cdf1.quantiles).size < 200
        tracemalloc.start()
        try:
            d = ks.approx_two_sample_ks(cdf1, cdf2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
        with pytest.raises(SketchStateError):
            ks.lall_ks(QuantileSketch(0.1), sealed)


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


class TestKsOutcomeJson:
    def test_schema_and_precision(self):
        out = ks.KsOutcome(
            d=0.123456789012345678,
            d_error_bound=0.01,
            p_value=1e-12,
            n=100,
            m=200,
            alpha=0.05,
            reject=True,
        )
        doc = json.loads(out.to_json())
        assert list(doc) == [
            "d_ks", "d_error_bound", "p_value", "n", "m", "alpha", "reject",
        ]
        assert doc["d_ks"] == pytest.approx(0.12345678901234568, rel=1e-16)
        assert doc["n"] == 100 and doc["m"] == 200
        assert doc["reject"] is True

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            ks.KsOutcome(d=0.1, d_error_bound=0.0, p_value=0.2, n=5, m=5,
                         alpha=0.05, reject=True)

    @pytest.mark.parametrize("d, p, match", [
        (-0.1, 0.5, "d must be"), (1.5, 0.5, "d must be"),
        (0.1, -0.1, "p_value must be"), (0.1, 1.5, "p_value must be"),
    ])
    def test_range_enforced(self, d, p, match):
        with pytest.raises(ValueError, match=match):
            ks.KsOutcome(d=d, d_error_bound=0.0, p_value=p, n=5, m=5,
                         alpha=0.05, reject=p <= 0.05)


@settings(max_examples=40, deadline=None)
@given(
    x=st.lists(st.floats(min_value=-50, max_value=50,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=60),
    y=st.lists(st.floats(min_value=-50, max_value=50,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=60),
)
def test_exact_distance_equals_brute_force(x, y):
    assert ks.exact_ks_distance(x, y) == pytest.approx(brute_force_ks(x, y), abs=1e-12)


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
).filter(lambda p: len(p[0]) != len(p[1])))
def test_exact_distance_is_correctly_rounded(pair):
    x, y = pair
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
    probes = np.concatenate((s2.summary()[0], [-10.0, 10.0, 0.05, 0.0]))
    lo, hi = s1.rank_bounds(probes)
    assert list(zip(lo.tolist(), hi.tolist())) == [
        reference_rank_bounds(s1, v) for v in probes.tolist()]
