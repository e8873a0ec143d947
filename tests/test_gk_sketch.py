"""Greenwald-Khanna summary: rank guarantees, invariants, maintenance."""

import bisect
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchks import gk_sketch
from sketchks.gk_sketch import QuantileSketch, SketchStateError


def eq4_holds(stream, eps, p, answer):
    """Sort oracle for the rank contract; tie runs accept any member rank."""
    ordered = sorted(stream)
    n = len(ordered)
    lo_rank = ordered.index(answer) + 1          # first rank of a tied run
    hi_rank = n - ordered[::-1].index(answer)    # last rank of a tied run
    lo = math.floor((p - eps) * n)
    hi = math.ceil((p + eps) * n)
    return lo_rank <= hi and hi_rank >= lo


def reference_quantiles(sketch, probs):
    """Scalar read path kept as an oracle: per p, bisect on r_min, then the
    first stored value with r_max <= hi (the maximum if none), clamped to be
    non-decreasing."""
    values, rmin, rmax = (a.tolist() for a in sketch.summary())
    n, eps = sketch.count, sketch.epsilon
    out = []
    for p in probs:
        q = values[-1]
        if p != 1.0:
            p = max(p, 1.0 / n)
            lo = math.floor((p - eps) * n)
            hi = math.ceil((p + eps) * n)
            start = bisect.bisect_left(rmin, lo)
            q = next((values[i] for i in range(start, len(rmin)) if rmax[i] <= hi),
                     values[-1])
        if out and q < out[-1]:
            q = out[-1]
        out.append(q)
    return out


class TestInsert:
    def test_count_conservation(self):
        s = QuantileSketch(0.1)
        for v in [5, 1, 3, 2, 4, 6, 0]:
            s.extend([v])
        s.seal()
        assert s.summary()[1][-1] == 7
        assert s.count == 7

    def test_extremes_retained(self):
        s = QuantileSketch(0.1)
        s.extend(range(1, 101))
        assert s.tuple_count <= 100
        values = s.summary()[0]
        assert values[0] == 1
        assert values[-1] == 100

    def test_identity_permutation_rank_bounds(self):
        # sorted integers: value == rank, so every query is directly checkable
        s = QuantileSketch(0.01)
        s.extend(np.arange(1.0, 10001.0))
        s.seal()
        for k in range(1, 101):
            p = k / 100
            v = s.query_quantiles([p])[0]
            lo = math.floor((p - 0.01) * 10000)
            hi = math.ceil((p + 0.01) * 10000)
            assert lo <= v <= hi, (p, v)

    def test_rejects_non_finite(self):
        s = QuantileSketch(0.1)
        with pytest.raises(ValueError, match="finite"):
            s.extend([float("nan")])
        with pytest.raises(ValueError, match="finite"):
            s.extend([float("inf")])

    def test_non_finite_batch_rejected_whole(self):
        s = QuantileSketch(0.1)
        s.extend(np.arange(50.0))
        before = s.summary()
        with pytest.raises(ValueError, match="finite"):
            s.extend([1.0, 2.0, float("nan"), 3.0])
        assert s.count == 50
        for x, y in zip(before, s.summary()):
            assert np.array_equal(x, y)

    def test_sealed_sketch_rejects_extend(self):
        s = QuantileSketch(0.1)
        s.extend([1.0, 2.0])
        s.seal()
        with pytest.raises(SketchStateError):
            s.extend([3.0])
        assert s.count == 2

    def test_extend_rejects_generator(self):
        s = QuantileSketch(0.01)
        s.extend(np.arange(50.0))
        before = s.summary()
        with pytest.raises(TypeError):
            s.extend(float(v) for v in range(1000, 0, -1))
        assert s.count == 50
        for x, y in zip(before, s.summary()):
            assert np.array_equal(x, y)

    def test_extend_rejects_2d(self):
        s = QuantileSketch(0.1)
        with pytest.raises(ValueError, match="1-d"):
            s.extend(np.ones((2, 3)))
        assert s.count == 0

    def test_bad_epsilon(self):
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                QuantileSketch(eps)


class TestCompress:
    def test_empty_unchanged(self):
        s = QuantileSketch(0.05)
        s.compress()
        assert s.tuple_count == 0 and s.count == 0

    def test_compress_shrinks_uncompressed_stream(self):
        s = QuantileSketch(0.05)
        s.extend(np.arange(1.0, 1001.0))
        before = s.tuple_count
        s.compress()
        assert s.tuple_count <= before < 1000
        s.check_invariants()

    def test_post_compress_rank_bounds(self):
        rng = np.random.default_rng(7)
        stream = rng.normal(size=1000).tolist()
        s = QuantileSketch(0.05)
        s.extend(stream)
        s.compress()
        s.seal()
        for k in range(1, 10):
            p = k / 10
            assert eq4_holds(stream, 0.05, p, s.query_quantiles([p])[0])


class TestQuantileQueries:
    def test_single_element_any_p(self):
        s = QuantileSketch(0.1)
        s.extend([42.0])
        for p in (0.01, 0.3, 0.5, 1.0):
            assert s.query_quantiles([p])[0] == 42.0

    def test_median_of_hundred(self):
        s = QuantileSketch(0.1)
        s.extend(range(1, 101))
        assert 40 <= s.query_quantiles([0.5])[0] <= 60

    def test_randomized_permutations(self):
        rng = np.random.default_rng(123)
        base = np.arange(1, 10001, dtype=float)
        for trial in range(20):
            stream = rng.permutation(base)
            s = QuantileSketch(0.01)
            s.extend(stream.tolist())
            s.seal()
            for k in range(1, 101):
                p = k / 100
                v = s.query_quantiles([p])[0]
                lo = math.floor((p - 0.01) * 10000)
                hi = math.ceil((p + 0.01) * 10000)
                assert lo <= v <= hi, (trial, p, v)

    def test_domain_errors(self):
        s = QuantileSketch(0.1)
        with pytest.raises(SketchStateError):
            s.query_quantiles([0.5])
        s.extend([1.0])
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                s.query_quantiles([p])

    def test_query_quantiles_p1_is_max(self):
        s = QuantileSketch(0.1)
        s.extend([3.0, 9.0, 1.0])
        assert s.query_quantiles([1.0]).tolist() == [9.0]

    def test_query_quantiles_monotone(self):
        stream = list(range(1, 101))
        s = QuantileSketch(0.1)
        s.extend(stream)
        out = s.query_quantiles([0.25, 0.5, 0.75]).tolist()
        assert out == sorted(out)
        for p, v in zip([0.25, 0.5, 0.75], out):
            assert eq4_holds(stream, 0.1, p, v)

    def test_query_quantiles_fig4_knots(self):
        # the 11 linearly spaced probabilities used by the plot construction
        rng = np.random.default_rng(11)
        stream = rng.normal(size=10000).tolist()
        s = QuantileSketch(0.1)
        s.extend(stream)
        s.seal()
        n = 10000
        probs = [1 / n + i * (1 - 1 / n) / 10 for i in range(11)]
        out = s.query_quantiles(probs).tolist()
        assert len(out) == 11
        assert out == sorted(out)
        for p, v in zip(probs, out):
            assert eq4_holds(stream, 0.1, p, v)

    def test_query_quantiles_validation(self):
        s = QuantileSketch(0.1)
        s.extend([1.0])
        with pytest.raises(ValueError, match="non-empty"):
            s.query_quantiles([])
        with pytest.raises(ValueError, match="non-decreasing"):
            s.query_quantiles([0.5, 0.25])


class TestRankBounds:
    def test_extreme_values(self):
        s = QuantileSketch(0.01)
        s.extend(range(1, 101))
        s.seal()
        assert s.rank_bounds(0.5) == (0, 0)
        assert s.rank_bounds(101.0) == (100, 100)
        assert s.rank_bounds(100.0) == (100, 100)

    def test_interval_width_and_coverage(self):
        s = QuantileSketch(0.01)
        s.extend(np.arange(1.0, 1001.0))
        s.seal()
        lo, hi = s.rank_bounds(500.0)
        assert lo <= 500 <= hi
        assert hi - lo <= 2 * 0.01 * 1000 + 1

    def test_open_sketch_reads_as_sealed(self):
        stream = np.random.default_rng(4).normal(size=3000)
        probes = np.concatenate([stream[::7], [-9.0, 9.0]])
        s = QuantileSketch(0.02)
        s.extend(stream)
        lo, hi = s.rank_bounds(probes)
        s.seal()
        sealed_lo, sealed_hi = s.rank_bounds(probes)
        assert np.array_equal(lo, sealed_lo) and np.array_equal(hi, sealed_hi)

    def test_empty_raises(self):
        with pytest.raises(SketchStateError, match="empty"):
            QuantileSketch(0.1).rank_bounds(1.0)

    def test_coverage_random_queries(self):
        rng = np.random.default_rng(5)
        stream = rng.normal(size=2000)
        s = QuantileSketch(0.02)
        s.extend(stream.tolist())
        s.seal()
        ordered = np.sort(stream)
        for x in rng.normal(size=50):
            lo, hi = s.rank_bounds(float(x))
            true_rank = int(np.searchsorted(ordered, x, side="right"))
            assert lo <= true_rank <= hi
            assert hi - lo <= 2 * 0.02 * 2000 + 1


class TestDeterminismAndSpace:
    def test_identical_streams_identical_tuples(self):
        rng = np.random.default_rng(99)
        stream = rng.normal(size=3000).tolist()
        a = QuantileSketch(0.02)
        a.extend(stream)
        b = QuantileSketch(0.02)
        b.extend(stream)
        for x, y in zip(a.summary(), b.summary()):
            assert np.array_equal(x, y)

    def test_extend_peak_memory(self):
        # one reused 512 KiB chunk buffer plus a summary of ~190 tuples
        data = np.random.default_rng(5).normal(size=10**6)
        s = QuantileSketch(0.00493)
        tracemalloc.start()
        try:
            s.extend(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7e6
        s.check_invariants()

    @pytest.mark.parametrize("eps,n", [(0.1, 5000), (0.01, 20000), (0.001, 20000)])
    def test_space_soft_bound(self, eps, n):
        # monitored bound (11/(2 eps)) log2(2 eps n) + 4, asserted with 2x slack
        rng = np.random.default_rng(int(1 / eps))
        s = QuantileSketch(eps)
        s.extend(rng.normal(size=n).tolist())
        s.seal()
        if 2 * eps * n > 1:
            bound = (11 / (2 * eps)) * math.log2(2 * eps * n) + 4
            assert s.tuple_count <= 2 * bound


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=20, max_size=600,
    ),
    eps=st.sampled_from([0.1, 0.01, 0.001]),
    pk=st.integers(min_value=1, max_value=20),
)
def test_rank_guarantee_property(values, eps, pk):
    p = pk / 20
    s = QuantileSketch(eps)
    s.extend(values)
    s.seal()
    assert eq4_holds(values, eps, p, s.query_quantiles([p])[0])
    s.check_invariants()


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=400),
    eps=st.sampled_from([0.05, 0.2]),
)
def test_conservation_after_every_insert(values, eps):
    s = QuantileSketch(eps)
    for v in values:
        s.extend([v])
        assert s.summary()[1][-1] == s.count
    s.compress()
    s.check_invariants()


def _stream(kind, n, seed):
    if kind == "constant":
        return np.full(n, 2.5)
    data = np.random.default_rng(seed).normal(size=n)
    if kind == "distinct":
        return data
    data = data.round(1)  # ties
    if kind == "sorted":
        data = np.sort(data)
    elif kind == "reversed":
        data = np.sort(data)[::-1]
    return data


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["as drawn", "sorted", "reversed"]),
    n=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.sampled_from([0.1, 0.01, 0.001]),
    probs=st.lists(st.floats(min_value=0, max_value=1, exclude_min=True),
                   min_size=1, max_size=40).map(sorted),
)
def test_query_quantiles_matches_scalar_reference(kind, n, seed, eps, probs):
    s = QuantileSketch(eps)
    s.extend(_stream(kind, n, seed))
    s.seal()
    knots = [1 / n + i * (1 - 1 / n) / 49 for i in range(49)] + [1.0]
    for grid in (probs, knots):
        assert s.query_quantiles(grid).tolist() == reference_quantiles(s, grid)


def test_broken_rank_contract_raises():
    s = QuantileSketch(0.01)
    s.extend(np.arange(1.0, 10001.0))
    s.seal()
    s._rmax[1:-1] += s.count
    assert reference_quantiles(s, [0.5]) == [10000.0]  # the silent maximum
    with pytest.raises(SketchStateError, match="rank contract"):
        s.query_quantiles([0.5])


@pytest.mark.parametrize("field,index,value,message", [
    ("_values", 1, 1e9, "non-decreasing"),
    ("_rmin", 2, -10**6, "g < 1"),
    ("_rmax", 2, -10**6, "delta < 0"),
    ("_rmin", -1, -2, "sum of g"),
    ("_rmax", 3, 10000, "g [+] delta >"),
    ("_rmax", 0, 1, "first tuple"),
])
def test_check_invariants_detects_broken_tuples(field, index, value, message):
    s = QuantileSketch(0.01)
    s.extend(np.arange(1.0, 10001.0))
    s.check_invariants()
    getattr(s, field)[index] += value
    with pytest.raises(SketchStateError, match=message):
        s.check_invariants()


def _assert_stored_ranks(s, stream):
    """A stored value's rank lies somewhere in its run of ties."""
    ordered = np.sort(stream)
    values, rmin, rmax = s.summary()
    assert np.all(rmin <= np.searchsorted(ordered, values, side="right"))
    assert np.all(rmax >= np.searchsorted(ordered, values, side="left") + 1)


def test_tie_order_across_batches():
    # the stored 1.0 ranks before the second batch's 1.0s, so its r_max must
    # cover every item of that batch below 1.0 (the tie-heavy reversed case)
    first = [2.0, 2.0, 1.0]
    second = [1.0] * 8 + [0.0] * 11 + [-1.0] * 9 + [-2.0] * 2
    s = QuantileSketch(0.1)
    s.extend(first)
    s.extend(second)
    s.check_invariants()
    _assert_stored_ranks(s, np.array(first + second))



@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["as drawn", "constant", "sorted", "reversed", "distinct"]),
    n=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.sampled_from([0.1, 0.03, 0.01, 0.001]),
    chunk=st.sampled_from([1, 3, 17, "n"]),
    cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=6),
)
def test_batch_ingest_matches_exact_ranks(kind, n, seed, eps, chunk, cuts):
    stream = _stream(kind, n, seed)
    bounds = sorted({0, n} | {min(c, n) for c in cuts})
    s = QuantileSketch(eps)
    with mock.patch.object(gk_sketch, "_CHUNK", n if chunk == "n" else chunk):
        for lo, hi in zip(bounds, bounds[1:]):
            s.extend(stream[lo:hi])
    s.check_invariants()
    compressed = s.summary()
    s.compress()  # every merged chunk was compressed: nothing more to delete
    for got, want in zip(s.summary(), compressed):
        assert np.array_equal(got, want)
    s.seal()
    _assert_stored_ranks(s, stream)
    ordered = np.sort(stream)
    values = s.summary()[0]
    probes = np.concatenate([
        values,
        (values[1:] + values[:-1]) / 2,
        np.random.default_rng(seed).normal(size=30).round(1),
        [ordered[0] - 1, ordered[-1] + 1],
    ])
    lower, upper = s.rank_bounds(probes)
    true = np.searchsorted(ordered, probes, side="right")
    assert np.all(lower <= true) and np.all(true <= upper)
    probs = [k / 100 for k in range(1, 101)]
    for p, v in zip(probs, s.query_quantiles(probs)):
        assert eq4_holds(stream.tolist(), eps, p, v)


def reference_ingest(batches, eps, chunk):
    """Batch ingest in the gap form (value, g, delta), kept as an oracle.

    Each chunk of each batch is sorted, thinned at the stride
    floor(eps*k/2) + 1 and merged with per-tuple gap formulas; after every
    chunk COMPRESS folds tuple i into its right neighbour while g_i + g_next
    + delta_next <= floor(2*eps*n).  Returns (values, r_min, r_max) with r_min =
    cumsum(g) and r_max = r_min + delta.
    """
    values = np.empty(0)
    g = np.empty(0, dtype=np.int64)
    delta = np.empty(0, dtype=np.int64)
    count = 0
    for batch in batches:
        for start in range(0, len(batch), chunk):
            part = np.sort(batch[start:start + chunk])
            k = part.size
            ranks = np.arange(1, k + 1, math.floor(eps * k / 2) + 1)
            if ranks[-1] != k:
                ranks = np.append(ranks, k)
            kept, gaps = part[ranks - 1], np.diff(ranks, prepend=0)
            if values.size == 0:
                values, g, delta = kept, gaps, np.zeros(kept.size, dtype=np.int64)
            else:
                pos = np.searchsorted(values, kept, side="right")
                succ = np.minimum(pos, values.size - 1)
                interior = (pos > 0) & (pos < values.size)
                kept_delta = np.where(interior, g[succ] + delta[succ] - 1, 0)
                grown = np.append(gaps - 1, 0)[np.searchsorted(kept, values, side="left")]
                values = np.insert(values, pos, kept)
                g = np.insert(g, pos, gaps)
                delta = np.insert(delta + grown, pos, kept_delta)
            count += k
            threshold = math.floor(2.0 * eps * count)
            if values.size < 3 or threshold < 2:
                continue
            keep, kept_g = [values.size - 1], [int(g[-1])]
            for i in range(values.size - 2, 0, -1):
                if g[i] + kept_g[-1] + delta[keep[-1]] <= threshold:
                    kept_g[-1] += int(g[i])
                else:
                    keep.append(i)
                    kept_g.append(int(g[i]))
            keep.append(0)
            kept_g.append(int(g[0]))
            idx = np.array(keep[::-1])
            values, g, delta = values[idx], np.array(kept_g[::-1], dtype=np.int64), delta[idx]
    rmin = np.cumsum(g)
    return values, rmin, rmin + delta


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["as drawn", "constant", "sorted", "reversed", "distinct"]),
    n=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.sampled_from([0.3, 0.1, 0.03, 0.01, 0.001, 5e-5]),
    chunk=st.sampled_from([1, 3, 17, "n"]),
    cuts=st.lists(st.integers(min_value=0, max_value=3000), max_size=6),
)
def test_rank_form_matches_gap_form_reference(kind, n, seed, eps, chunk, cuts):
    stream = _stream(kind, n, seed)
    bounds = sorted({0, n} | {min(c, n) for c in cuts})
    batches = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    size = n if chunk == "n" else chunk
    s = QuantileSketch(eps)
    with mock.patch.object(gk_sketch, "_CHUNK", size):
        for batch in batches:
            s.extend(batch)
    for got, want in zip(s.summary(), reference_ingest(batches, eps, size)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def reference_compress(values, rmin, rmax, threshold):
    """The greedy right-to-left COMPRESS pass, kept as an oracle: from the
    last tuple, keep tuple i when r_max of the last kept tuple minus r_min
    of tuple i-1 exceeds threshold; always keep tuple 0."""
    lo, hi = rmin.tolist(), rmax.tolist()
    keep = [len(lo) - 1]
    for i in range(len(lo) - 2, 0, -1):
        if hi[keep[-1]] - lo[i - 1] > threshold:
            keep.append(i)
    keep.append(0)
    idx = np.array(keep[::-1])
    return values[idx], rmin[idx], rmax[idx]


@settings(max_examples=300, deadline=None)
@given(
    gaps=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 12)),
                  min_size=3, max_size=60),
    slack=st.integers(0, 20),
)
# three tuples at threshold 2: r_max(2) - r_min(0) = 2 deletes the middle
# one, 3 keeps it
@example(gaps=[(1, 0), (1, 0), (1, 0)], slack=0)
@example(gaps=[(1, 0), (1, 1), (1, 1)], slack=0)
@example(gaps=[(1, 0), (1, 1), (2, 0)], slack=0)
def test_compress_matches_greedy_loop_on_summaries(gaps, slack):
    # any strictly increasing r_min with r_max >= r_min; threshold 2 + slack
    rmin = np.cumsum([g for g, _ in gaps])
    rmax = rmin + np.array([d for _, d in gaps])
    count = int(rmin[-1])
    threshold = min(2 + slack, 2 * count - 1)
    s = QuantileSketch((threshold + 0.5) / (2 * count))
    s._values, s._rmin, s._rmax, s._count = rmin * 0.5, rmin, rmax, count
    want = reference_compress(*s.summary(), threshold)
    s.compress()
    for got, ref in zip(s.summary(), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_rank_bounds_rejects_non_finite():
    s = QuantileSketch(0.1)
    s.extend(np.arange(1.0, 11.0))
    s.seal()
    for bad in (float("nan"), float("inf"), [1.0, float("nan")], np.array([-np.inf])):
        with pytest.raises(ValueError, match="finite"):
            s.rank_bounds(bad)
    assert s.rank_bounds(np.empty(0))[0].size == 0
