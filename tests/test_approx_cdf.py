"""CDF approximation: parameter selection, construction, evaluation, bounds."""

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchks import approx_cdf
from sketchks.approx_cdf import (
    ApproxCdf,
    CdfPlan,
    build_cdf,
    empirical_cdf,
    eps45,
    error_bound,
    eval_cdf,
    num_probs,
    plan_from_phi,
    _knot_probs,
)
from sketchks.gk_sketch import QuantileSketch
from sketchks.synth import normal, sample


class TestEps45:
    def test_table_values(self):
        assert eps45(0.025, 10000) == pytest.approx(0.0234189, abs=5e-7)
        assert eps45(0.005, 10000) == pytest.approx(0.0042929, abs=5e-7)

    def test_clamps_to_zero(self):
        # sqrt(delta/n) exceeds delta for tiny delta and small n
        assert eps45(1e-4, 10) == 0.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                eps45(bad, 100)
        with pytest.raises(ValueError):
            eps45(0.1, 0)


class TestNumProbs:
    def test_table_values(self):
        assert num_probs(10000, 0.025, eps45(0.025, 10000)) == 634
        assert num_probs(10000, 0.005, eps45(0.005, 10000)) == 1416

    def test_small_n_clamp(self):
        assert num_probs(5, 0.5, 0.0) == 3

    def test_rounded_count_certifies_the_plan(self):
        # sqrt(n/delta) = 65 exactly: ceil(1/(delta - eps) + 1) = 66 misses
        # the bound by 3.5e-18 in float, so num_probs takes one knot more
        d = 73 / 65**2
        eps = eps45(d, 73)
        assert num_probs(73, d, eps) == 67
        CdfPlan(73, d, eps, num_probs(73, d, eps))

    def test_uncapped_count_certifies_on_the_root_lattice(self):
        # delta = n/k^2 puts sqrt(n/delta) = k on an integer
        for k in range(2, 41):
            for n in range(2, k * k):
                d = n / k**2
                eps = eps45(d, n)
                a = num_probs(n, d, eps)
                if a < n:
                    CdfPlan(n, d, eps, a)

    def test_domain(self):
        with pytest.raises(ValueError):
            num_probs(100, 0.01, 0.01)
        with pytest.raises(ValueError):
            num_probs(100, 0.01, 0.02)


class TestPlanFromPhi:
    def test_experiment6_parameters(self):
        plan = plan_from_phi(0.05, 10000)
        assert plan.delta == 0.025
        assert plan.epsilon == pytest.approx(0.0234189, abs=5e-7)
        assert plan.a == 634

    def test_rescaled_reference_sample(self):
        plan = plan_from_phi(0.05, 84000)
        assert plan.delta == 0.025
        assert plan.epsilon == pytest.approx(0.0244544, abs=5e-7)
        assert plan.a == 1835

    def test_gaussian_study_plan(self):
        # computed 7081; the original report rounds to 7083 (accept +/- 3)
        plan = plan_from_phi(0.000399, 10000)
        assert plan.delta == pytest.approx(0.0001995)
        assert plan.epsilon == pytest.approx(5.83e-5, abs=2e-6)
        assert plan.a == 7081
        assert abs(plan.a - 7083) <= 3

    def test_domain(self):
        for bad in (0.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                plan_from_phi(bad, 1000)
        for n in (1, 2):
            with pytest.raises(ValueError, match="cannot reach"):
                plan_from_phi(0.5, n)

    def test_impossible_precision_raises(self):
        with pytest.raises(ValueError, match="cannot reach"):
            plan_from_phi(0.002, 10)

    def test_never_plans_exact_quantiles(self):
        # eps45 = 0 and a = n: 1/(n-1) exceeds delta = 5e-7 by 2.5e-13
        with pytest.raises(ValueError, match="cannot reach"):
            plan_from_phi(1e-6, 2_000_000)

    def test_rounded_knot_count_gains_a_knot(self):
        # sqrt(n/delta) = 65 exactly; ceil(1/(delta - eps) + 1) = 66 misses
        # the bound in float, so the plan takes 67 knots, or n = 66 refuses
        assert plan_from_phi(2 * 73 / 65**2, 73).a == 67
        with pytest.raises(ValueError, match="cannot reach"):
            plan_from_phi(2 * 66 / 65**2, 66)

    def test_integer_root_lattice_certified(self):
        # phi = 2n/k^2 puts sqrt(n/delta) = k on an integer, where the
        # rounding of 1/(delta - eps) decides the knot count
        for k in range(2, 71):
            for n in range(2, k * k):
                _assert_certified_or_refused(2 * n / k**2, n)


def _assert_certified_or_refused(phi, n):
    try:
        plan = plan_from_phi(phi, n)
    except ValueError as exc:
        assert "cannot reach" in str(exc)
        return
    assert plan.epsilon > 0
    assert 1 / (plan.a - 1) + plan.epsilon <= plan.delta
    assert error_bound(plan) <= plan.delta


@settings(max_examples=300, deadline=None)
@given(phi=st.floats(min_value=1e-7, max_value=2, exclude_max=True),
       n=st.integers(min_value=2, max_value=10**7))
def test_plan_certified_without_slack_property(phi, n):
    _assert_certified_or_refused(phi, n)


class TestCdfPlanValidation:
    def test_error_bound_invariant_enforced(self):
        with pytest.raises(ValueError, match="error bound"):
            CdfPlan(n=100, delta=0.05, epsilon=0.0, a=5)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            CdfPlan(n=100, delta=0.5, epsilon=0.6, a=10)
        with pytest.raises(ValueError):
            CdfPlan(n=2, delta=0.9, epsilon=0.0, a=3)
        with pytest.raises(ValueError):
            CdfPlan(n=100, delta=1.5, epsilon=0.0, a=10)
        with pytest.raises(ValueError, match="n must be positive"):
            CdfPlan(n=0, delta=0.5, epsilon=0.0, a=3)


class TestBuildCdf:
    def test_constant_data(self):
        plan = CdfPlan(n=50, delta=0.3, epsilon=0.0, a=5)
        cdf = build_cdf(np.full(50, 3.25), plan)
        assert np.all(cdf.quantiles == 3.25)

    def test_exact_order_statistics(self):
        plan = CdfPlan(n=100, delta=0.26, epsilon=0.0, a=5)
        cdf = build_cdf(np.arange(1, 101, dtype=float), plan)
        assert cdf.probs == pytest.approx([0.01, 0.2575, 0.505, 0.7525, 1.0])
        # ranks ceil(p*n): 1, 26, 51, 76, 100
        assert cdf.quantiles.tolist() == [1, 26, 51, 76, 100]

    @pytest.mark.parametrize("n", [2000, 10000])
    def test_exact_plan_reads_every_order_statistic(self, n):
        # at a = n the knots are the sorted sample; float ranks ceil(p*n)
        # read one rank too high at 154 of 2,000 knots
        data = sample(normal(0, 1), n, 5)
        cdf = build_cdf(data, CdfPlan(n=n, delta=1 / (n - 1), epsilon=0.0, a=n))
        assert cdf.quantiles.tolist() == np.sort(data).tolist()

    def test_exact_plan_integer_ranks_on_ties(self):
        # one value, then pairs: rank 1 + 2i ends a pair and rank 2 + 2i
        # starts the next, so an off-by-one rank reads the wrong value
        a = 1001
        n = 2 * a - 1
        data = np.concatenate([[-1.0], np.repeat(np.arange(a - 1.0), 2)])
        np.random.default_rng(3).shuffle(data)
        plan = CdfPlan(n=n, delta=1 / (a - 1), epsilon=0.0, a=a)
        ranks = [1 + math.ceil(Fraction(i * (n - 1), a - 1)) for i in range(a)]
        assert build_cdf(data, plan).quantiles.tolist() == np.sort(data)[
            np.array(ranks) - 1].tolist()

    def test_sketch_backed_construction(self):
        data = sample(normal(0, 1), 10000, 2024)
        plan = CdfPlan(n=10000, delta=0.2, epsilon=0.1, a=11)
        cdf = build_cdf(data, plan)
        assert cdf.probs[0] == 1 / 10000
        assert cdf.probs[-1] == 1.0
        assert np.all(np.diff(cdf.quantiles) >= 0)
        assert np.all(np.isin(cdf.quantiles, data))

    def test_reads_a_sketch_as_build_cdf_does(self):
        data = sample(normal(0, 1), 3000, 4)
        plan = plan_from_phi(0.05, 3000)
        sketch = QuantileSketch(plan.epsilon)
        sketch.extend(data)
        cdf = build_cdf(sketch.seal(), plan)
        assert cdf.plan == plan
        assert cdf.quantiles.tolist() == build_cdf(data, plan).quantiles.tolist()
        fine = QuantileSketch(plan.epsilon / 2)
        fine.extend(data)
        assert build_cdf(fine, plan).plan == plan
        grown = QuantileSketch(plan.epsilon)
        grown.extend(np.append(data, 0.0))
        with pytest.raises(ValueError, match="expects 3000 observations, got 3001"):
            build_cdf(grown, plan)
        coarse = QuantileSketch(2 * plan.epsilon)
        coarse.extend(data)
        with pytest.raises(ValueError, match="coarser"):
            build_cdf(coarse, plan)

    def test_count_mismatch(self):
        plan = CdfPlan(n=100, delta=0.26, epsilon=0.0, a=5)
        with pytest.raises(ValueError, match="expects 100"):
            build_cdf(np.arange(99, dtype=float), plan)

    def test_non_finite_rejected(self):
        plan = CdfPlan(n=4, delta=0.5, epsilon=0.0, a=3)
        with pytest.raises(ValueError, match="non-finite"):
            build_cdf([1.0, 2.0, np.nan, 4.0], plan)

    def test_non_finite_rejected_by_sketch(self):
        data = sample(normal(0, 1), 500, 1)
        data[7] = np.inf
        plan = plan_from_phi(0.2, 500)
        assert plan.epsilon > 0
        with pytest.raises(ValueError, match="non-finite"):
            build_cdf(data, plan)


class TestEvalCdf:
    # n=4, a=3: knots at p = 1/4, 1/4 + (3/4)/2 = 0.625 and 1
    def _simple(self):
        plan = CdfPlan(n=4, delta=0.6, epsilon=0.0, a=3)
        return ApproxCdf(plan, np.array([0.0, 10.0, 20.0]))

    def test_at_knots(self):
        cdf = self._simple()
        for p, q in zip(cdf.probs, cdf.quantiles):
            assert eval_cdf(cdf, q) == p

    def test_segment_midpoint(self):
        cdf = self._simple()
        # 0.25 + (5/10) * 0.375 and 0.625 + (5/10) * 0.375
        assert eval_cdf(cdf, 5.0) == pytest.approx(0.4375)
        assert eval_cdf(cdf, 15.0) == pytest.approx(0.8125)

    def test_endpoint_clamping(self):
        cdf = self._simple()
        assert eval_cdf(cdf, -100.0) == 0.25
        assert eval_cdf(cdf, 100.0) == 1.0

    def test_duplicate_knots_step(self):
        plan = CdfPlan(n=4, delta=0.6, epsilon=0.0, a=3)
        cdf = ApproxCdf(plan, np.array([0.0, 0.0, 10.0]))
        assert eval_cdf(cdf, 0.0) == 0.625  # largest tied probability

    def test_vectorized_matches_scalar(self):
        cdf = self._simple()
        xs = np.linspace(-5, 25, 41)
        vec = eval_cdf(cdf, xs)
        assert vec.tolist() == [eval_cdf(cdf, float(x)) for x in xs]
        assert np.all(np.diff(vec) >= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            eval_cdf(self._simple(), float("nan"))

    def test_span_beyond_dbl_max(self):
        # q[hi] - q[lo] overflows; the fraction must equal the one on the
        # same knots scaled by 1/4, where nothing overflows
        plan = CdfPlan(n=4, delta=0.6, epsilon=0.0, a=3)
        knots = np.array([-1e308, 1.5e308, 1.7e308])
        wide = ApproxCdf(plan, knots)
        narrow = ApproxCdf(plan, knots / 4)
        xs = np.array([-1e308, -1e300, 0.0, 1e308, 1.5e308, 1.6e308])
        got = eval_cdf(wide, xs)
        assert got.tolist() == eval_cdf(narrow, xs / 4).tolist()
        # (1e308 + 1e308) / 2.5e308 = 0.8 of the first segment
        assert got[3] == pytest.approx(0.55)

    @pytest.mark.parametrize("knots", [
        [-np.inf, 0.0, np.inf],
        [np.nan, np.nan, np.nan],
        [0.0, 1.0, np.nan],
    ])
    def test_non_finite_knots_rejected(self, knots):
        plan = CdfPlan(n=100, delta=0.5, epsilon=0.0, a=3)
        with pytest.raises(ValueError, match="quantiles"):
            ApproxCdf(plan, knots)

    def test_quantiles_must_match_plan(self):
        # two knots cannot certify an a=100 plan: on 99 zeros and a one they
        # would read F(0) = 0.01 against the exact 0.99
        plan = CdfPlan(n=100, delta=0.02, epsilon=0.0, a=100)
        with pytest.raises(ValueError, match="a = 100"):
            ApproxCdf(plan, [0.0, 1.0])
        with pytest.raises(ValueError, match="a = 100"):
            ApproxCdf(plan, np.zeros((100, 1)))
        with pytest.raises(ValueError, match="non-decreasing"):
            ApproxCdf(plan, np.arange(100.0)[::-1])


class TestEmpiricalCdf:
    @pytest.mark.parametrize("sample,x", [
        ([1.0, 2.0], float("nan")),
        ([1.0, 2.0], [1.0, float("inf")]),
        ([1.0, float("nan")], 2.0),
        ([-float("inf"), 1.0], 2.0),
    ])
    def test_non_finite_rejected(self, sample, x):
        with pytest.raises(ValueError, match="finite"):
            empirical_cdf(sample, x)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            empirical_cdf([], 1.0)


class TestErrorBound:
    def test_values(self):
        assert error_bound(CdfPlan(n=10000, delta=0.2, epsilon=0.1, a=11)) == pytest.approx(0.2)
        assert error_bound(CdfPlan(n=10000, delta=0.03, epsilon=0.01, a=51)) == pytest.approx(0.03)
        assert error_bound(CdfPlan(n=100, delta=0.5, epsilon=0.0, a=3)) == pytest.approx(0.5)

    def test_convergence_row_one(self):
        # the coarsest study row: 20 standard-normal samples stay within 0.20
        plan = CdfPlan(n=10000, delta=0.2, epsilon=0.1, a=11)
        worst = 0.0
        for rep in range(20):
            data = sample(normal(0, 1), 10000, 7000 + rep)
            cdf = build_cdf(data, plan)
            err = np.max(np.abs(eval_cdf(cdf, data) - empirical_cdf(data, data)))
            worst = max(worst, float(err))
        assert worst <= 0.20
        assert worst > 0.05  # same order as the reported 0.1456


class TestTradeoffCurve:
    def test_hyperbola_matches_num_probs(self):
        delta, n = 0.02, 50000
        e45 = eps45(delta, n)
        for eps in np.linspace(0.0, e45, 7):
            a = num_probs(n, delta, eps)
            assert a == min(int(np.ceil(1 / (delta - eps) + 1)), n)
            assert 1 / (a - 1) + eps <= delta + 1e-12

    @pytest.mark.parametrize("delta,n", [(0.025, 10000), (0.2, 10000), (0.001, 84000)])
    def test_unit_slope_at_eps45(self, delta, n):
        # in (x, y) = (eps/delta, a/N) coordinates the hyperbola slope is -1
        # at eps45; central finite difference on the continuous knot count
        e45 = eps45(delta, n)
        assert e45 > 0

        def y_of_x(x):
            eps = x * delta
            return (1 / (delta - eps) + 1) / n

        x0 = e45 / delta
        h = 1e-7
        slope = (y_of_x(x0 + h) - y_of_x(x0 - h)) / (2 * h)
        assert abs(abs(slope) - 1.0) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-1e4, max_value=1e4,
                            allow_nan=False, allow_infinity=False),
                  min_size=20, max_size=300),
    a=st.integers(min_value=3, max_value=15),
    eps=st.sampled_from([0.0, 0.01, 0.05, 0.1]),
)
def test_cdf_error_within_bound_property(data, a, eps):
    n = len(data)
    a = min(a, n)
    delta = 1 / (a - 1) + eps
    if delta >= 1:
        return
    plan = CdfPlan(n=n, delta=delta, epsilon=eps, a=a)
    arr = np.asarray(data)
    cdf = build_cdf(arr, plan)
    err = np.max(np.abs(eval_cdf(cdf, arr) - empirical_cdf(arr, arr)))
    assert err <= error_bound(plan)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=3000),
    excess=st.one_of(st.just(0), st.integers(min_value=1, max_value=3000)),
    phi=st.sampled_from([0.003, 0.01, 0.03, 0.1, 0.3, 0.6]),
    decimals=st.sampled_from([0, 1, 17]),  # 0 and 1: ties
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_bound_planned_cdf_is_within_delta_at_every_sample_value(
        n, excess, phi, decimals, seed):
    # planned as `ks._decide_sources` plans a file: from an upper bound
    # n + excess on its values, again from n where a > n, and made at n.
    # The bound delta holds at every sample value; between values, and at
    # a left limit, the GK contract's floor can add up to 1/n
    data = np.random.default_rng(seed).normal(size=n).round(decimals)
    try:
        plan = plan_from_phi(phi, n + excess)
        if plan.a > n:
            plan = plan_from_phi(phi, n)
    except ValueError:  # no certified plan at this size
        return
    plan = dataclasses.replace(plan, n=n)
    cdf = build_cdf(data, plan)
    values = np.unique(data)

    def err(xs):
        return np.max(np.abs(eval_cdf(cdf, xs) - empirical_cdf(data, xs)))

    assert err(values) <= plan.delta
    assert err(np.nextafter(values, -np.inf)) <= plan.delta + 1 / n
    if values.size > 1:
        assert err((values[1:] + values[:-1]) / 2) <= plan.delta + 1 / n


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(min_value=-100, max_value=100,
                            allow_nan=False, allow_infinity=False),
                  min_size=10, max_size=200),
    probe=st.floats(min_value=-150, max_value=150,
                    allow_nan=False, allow_infinity=False),
)
def test_eval_monotone_property(data, probe):
    n = len(data)
    plan = CdfPlan(n=n, delta=0.35, epsilon=0.05, a=min(5, n))
    cdf = build_cdf(np.asarray(data), plan)
    assert eval_cdf(cdf, probe) <= eval_cdf(cdf, probe + 1.0)


def full_grid(data, plan):
    """All plan.a knots, read independently of ApproxCdf: the sketch's
    answers at the knot grid, or exact order statistics at eps = 0."""
    probs = _knot_probs(plan.n, plan.a)
    if plan.epsilon == 0.0:
        ranks = [1 + math.ceil(Fraction(i * (plan.n - 1), plan.a - 1))
                 for i in range(plan.a)]
        return probs, np.sort(data)[np.array(ranks) - 1]
    sketch = QuantileSketch(plan.epsilon)
    sketch.extend(data)
    return probs, sketch.query_quantiles(probs)


def assert_run_ends_give_full_interpolant(data, plan):
    cdf = build_cdf(data, plan)
    probs, quantiles = full_grid(data, plan)
    got_probs, got_quantiles = cdf.knots()
    assert got_probs.tobytes() == probs.tobytes()
    assert got_quantiles.tobytes() == quantiles.tobytes()
    # each stored knot is the first or last of a run of the full grid
    distinct = np.unique(quantiles)
    assert cdf.quantiles.size <= 2 * distinct.size
    assert np.isin(cdf.probs, probs).all()
    # the full-knot interpolant: eval_cdf's arithmetic over all a knots
    full = SimpleNamespace(probs=probs, quantiles=quantiles)
    rng = np.random.default_rng(plan.n)
    lo, hi = quantiles[0], quantiles[-1]
    xs = np.concatenate([
        quantiles,
        (distinct[1:] + distinct[:-1]) / 2,
        rng.uniform(lo - 1, hi + 1, size=200),
        [lo - 1e6, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), hi + 1e6],
    ])
    assert eval_cdf(cdf, xs).tobytes() == eval_cdf(full, xs).tobytes()
    return cdf


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(
        st.lists(st.integers(-3, 3).map(float), min_size=3, max_size=400),
        st.lists(st.floats(min_value=-1e3, max_value=1e3,
                           allow_nan=False, allow_infinity=False),
                 min_size=3, max_size=400),
        st.tuples(st.floats(min_value=-1e3, max_value=1e3), st.integers(3, 400))
        .map(lambda c: [c[0]] * c[1]),
    ),
    a=st.integers(min_value=3, max_value=80),
    eps=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.1]),
)
def test_run_ends_give_the_full_knot_interpolant(data, a, eps):
    # few distinct values, any floats, constant data; small n; eps = 0
    # plans read exact order statistics
    n = len(data)
    a = min(a, n)
    plan = CdfPlan(n=n, delta=1 / (a - 1) + eps, epsilon=eps, a=a)
    assert_run_ends_give_full_interpolant(np.asarray(data), plan)


@pytest.mark.parametrize("values", [5, 1000])
def test_run_ends_on_a_planned_tie_heavy_sample(values):
    data = np.random.default_rng(values).integers(0, values, 50000).astype(float)
    plan = plan_from_phi(0.01, data.size)
    cdf = assert_run_ends_give_full_interpolant(data, plan)
    assert cdf.quantiles.size <= 2 * values < plan.a


def assert_blocks_give_the_full_grid(sketch, plan):
    cdf = build_cdf(sketch, plan)
    full = ApproxCdf(plan, sketch.query_quantiles(_knot_probs(plan.n, plan.a)))
    assert cdf.probs.tobytes() == full.probs.tobytes()
    assert cdf.quantiles.tobytes() == full.quantiles.tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1, 2, 3 * approx_cdf._QUERY_KNOTS + 5])
def test_sketch_cdf_blocks_at_the_block_size(extra):
    # a knots: one block less one, one block, one block and one knot, one
    # block and two knots, and several blocks
    a = approx_cdf._QUERY_KNOTS + extra
    data = sample(normal(0, 1), 4 * a, a)
    eps = 1e-4
    plan = CdfPlan(n=data.size, delta=1 / (a - 1) + 2 * eps, epsilon=eps, a=a)
    sketch = QuantileSketch(eps)
    sketch.extend(data)
    assert_blocks_give_the_full_grid(sketch.seal(), plan)


@pytest.mark.parametrize("values", [3, 12])
def test_sketch_cdf_is_the_same_at_every_block_seam(values):
    # every block size from one knot to the whole grid puts a seam between
    # each pair of neighbouring knots in turn: inside a run of equal
    # quantiles, before its first knot and after its last
    data = np.random.default_rng(values).integers(0, values, 400).astype(float)
    plan = CdfPlan(n=data.size, delta=1 / 59 + 0.01, epsilon=0.01, a=60)
    sketch = QuantileSketch(plan.epsilon)
    sketch.extend(data)
    sketch.seal()
    quantiles = sketch.query_quantiles(_knot_probs(plan.n, plan.a))
    run_ends = np.flatnonzero(np.diff(quantiles)) + 1  # first knot of a run
    assert run_ends.size >= values - 1 and np.diff(run_ends).max() >= 3
    for block in range(1, plan.a + 1):
        with mock.patch.object(approx_cdf, "_QUERY_KNOTS", block):
            assert_blocks_give_the_full_grid(sketch, plan)


@pytest.mark.parametrize("answer, message", [
    (lambda p: np.where(p > 0.5, 0.0, 1.0), "non-decreasing"),
    (lambda p: np.where(p > 0.5, np.inf, 1.0), "non-finite"),
])
def test_sketch_cdf_checks_the_answers_across_block_seams(answer, message):
    # a drop across a block seam, or a run of infinities that starts on a
    # block's first knot
    plan = CdfPlan(n=100, delta=1 / 20 + 0.01, epsilon=0.01, a=21)
    sketch = SimpleNamespace(count=plan.n, epsilon=plan.epsilon,
                             query_quantiles=answer)
    assert _knot_probs(plan.n, plan.a)[10] > 0.5 > _knot_probs(plan.n, plan.a)[9]
    with mock.patch.object(approx_cdf, "_QUERY_KNOTS", 10):
        with pytest.raises(ValueError, match=message):
            build_cdf(sketch, plan)


def test_sketch_cdf_queries_each_knot_once():
    plan = CdfPlan(n=100, delta=1 / 20 + 0.01, epsilon=0.01, a=21)
    for block in range(1, plan.a + 1):
        asked = []

        def answer(p):
            asked.append(p.copy())
            return p

        sketch = SimpleNamespace(count=plan.n, epsilon=plan.epsilon,
                                 query_quantiles=answer)
        with mock.patch.object(approx_cdf, "_QUERY_KNOTS", block):
            build_cdf(sketch, plan)
        assert max(p.size for p in asked) <= block
        assert np.concatenate(asked).tobytes() == _knot_probs(plan.n, plan.a).tobytes()
