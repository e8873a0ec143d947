"""A bounded-exhaustive check of the certificate's integer rules.

Each rule the certificate rests on is a floor or a ceiling: the chunk
stride, the compress threshold, the `floor(2*eps*n) + 1` tuple bound, the
cells of the sketch-direct distance.  Following the small-scope hypothesis
(Andoni, Daniliuc, Khurshid and Marinov, "Evaluating the small scope
hypothesis", 2002), `check` builds every input up to a small size, under
chunk sizes that cut a merge and one that does not, over a grid of eps,
and checks each sealed sketch, each pair of sketches and each merge of
two against oracles that count the data directly.  Each chunk size is
also the exact oracle's cut spacing `ks._PROBE_BLOCK`, so its plans cut
at every value, every second or third value, or only at the maximum:

- the sketch passes `check_invariants`;
- `rank_bounds` holds the true count of values <= t at every value and
  every midpoint between values, and beyond both ends, within
  floor(2*eps*n);
- `query_quantiles` meets the GK contract at p = j/(4n), j = 1..4n;
- for pairs: `exact_ks_distance` is the distance D counted in Python
  ints and rounded once; at each pooled value t, c1(t)*m - c2(t)*n
  counted in Python ints lies in [-down, up], the `ks._one_sided` bounds
  of the `ks._cells` cell that holds t; `lall_ks` is within eps1 + eps2 of D,
  and `distance_interval` gives 0 <= d_lo <= D <= d_hi and d_lo <=
  lall_ks <= d_hi, with d_hi - d_lo within (floor(2*eps1*n)*m + floor(2*eps2*m)*n) /
  (n*m);
- for merges: `gk_sketch._merge` of the sealed sketches of each input's
  prefix and the rest, split at every point, passes every check of a
  sealed sketch of the whole input at the larger of their eps (the
  merge lemma of `gk_sketch`'s docstring).

`check_plans` checks the planner on every n in [1, 64] over a grid of phi:
a geometric sweep of [1e-3, 1.99] and the lattice phi = 2*k/j**2
(1 <= k < j), where delta = phi/2 makes 1/(delta - eps45(delta, k)) the
integer j, with both float neighbours of each lattice point:

- `plan_from_phi(phi, n)` returns a plan exactly when some a in [3, n]
  has `_bound(a, eps45(phi/2, n)) <= phi/2`, and otherwise raises
  "cannot reach";
- a plan has delta = phi/2, epsilon = eps45(delta, n) > 0, 3 <= a <= n and
  `_bound(a, epsilon) <= delta`, with no tolerance;
- a plan at n implies a plan at n + 1;
- `num_probs` below its cap certifies the bound at eps 0, delta/3,
  delta/2 and eps45, and `CdfPlan` refuses the count at eps45 wherever
  the planner raises (it builds every plan it returns).

`check_orders` streams n distinct values through `extend` in each order
of `orders` (random, sorted, reversed, stride-w for w = 2, 10 and 100,
the chunk-sized blocks of the sorted values last block first, and
stride-(n // p) for p = 3, 5 and 7, the worst order found), for each n
under each chunk size that cuts it into at most `max_chunks` chunks and
each eps, then seals the sketch:

- it passes `check_invariants` and holds n values;
- its tuple count is within the `gk_sketch` docstring's ceiling: the sum
  over its chunks of min(k, ceil(2/eps) + 1), a chunk of k values;
- its tuple count times eps is at most the scope's `max_units`, a guard
  measured, not proven, a little above the scope's worst order: in
  `ORDERS_FULL`, stride-(n // 7) at n = 2**20, chunk 1,024 and eps 0.01,
  reads 6.20.  A COMPRESS at half its threshold reads 5.5 in
  `ORDERS_SMALL` (worst 2.3) and 3.1 in `ORDERS_MEDIUM` (worst 1.37).

Tier-1 runs `SMALL`, `PLANS_SMALL`, `ORDERS_SMALL` and `ORDERS_MEDIUM`
(n = 4 * 65,536 at the default chunk) in a few seconds.
`python tests/test_small_scope.py` runs `FULL` (about 32 times the work),
`PLANS_FULL` and `ORDERS_FULL`, and prints what it checked and the worst
order's tuple count in units of 1/eps.
"""

import bisect
import functools
import itertools
import math
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np

from sketchks import gk_sketch, ks
from sketchks.approx_cdf import CdfPlan, _bound, eps45, num_probs, plan_from_phi
from sketchks.gk_sketch import QuantileSketch

# chunk sizes 1, 2 and 3 cut a merge into every input of two values or
# more; 64 cuts none
SMALL = dict(max_n=5, chunks=(1, 2, 3, 64), epsilons=(0.1, 0.25, 0.34, 0.5, 0.9))
FULL = dict(max_n=7, chunks=(1, 2, 3, 5, 64),
            epsilons=(0.02, 0.1, 0.17, 0.25, 0.34, 0.5, 0.9))
# the planner's scope: n in [1, max_n], and the lattice for j <= lattice
PLANS_SMALL = dict(max_n=64, lattice=30)
PLANS_FULL = dict(max_n=64, lattice=70)
# the arrival orders' scope: each n under each chunk size that cuts it
# into at most max_chunks chunks; max_units is measured, not proven
ORDERS_SMALL = dict(ns=(1, 2, 7, 100, 1000), chunks=(1, 3, 16, 64),
                    epsilons=(0.01, 0.05, 0.2, 0.5), max_chunks=128,
                    max_units=2.5)
ORDERS_MEDIUM = dict(ns=(4 * gk_sketch._CHUNK,), chunks=(gk_sketch._CHUNK,),
                     epsilons=(1e-3, 1.2e-4), max_chunks=4, max_units=1.5)
ORDERS_FULL = dict(ns=(1, 2, 3, 5, 7, 64, 100, 1000, 4096, 2**14, 2**16, 2**18,
                       2**20),
                   chunks=(1, 2, 3, 5, 16, 64, 256, 1024),
                   epsilons=(0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.34, 0.5, 0.9),
                   max_chunks=1024, max_units=6.5)

# both bounds are correctly rounded, so their float difference may exceed
# the exact width by rounding errors of at most 2**-52 in all
_SLACK = 2**-52


def inputs(max_n):
    """Every sequence of 1 to max_n values over {0, 1, 2} and every
    permutation of 1 to max_n distinct values (0, 1, ...), each once."""
    found = {}
    for n in range(1, max_n + 1):
        for data in itertools.chain(itertools.product((0.0, 1.0, 2.0), repeat=n),
                                    itertools.permutations(map(float, range(n)))):
            found[data] = None
    return list(found)


def check_sketch(data, sketch):
    """The sealed sketch of `data` against counts of the data itself."""
    sketch.check_invariants()
    n, eps = len(data), sketch.epsilon
    width = math.floor(2 * eps * n)
    ordered = sorted(data)
    distinct = sorted(set(data))
    probes = ([distinct[0] - 1] + distinct + [distinct[-1] + 1]
              + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])])
    lo, hi = sketch.rank_bounds(probes)
    for t, low, high in zip(probes, lo.tolist(), hi.tolist()):
        count = bisect.bisect_right(ordered, t)
        assert low <= count <= high and high - low <= width, (data, eps, t, low, high)
    probs, contract = _contract(n, eps)
    answers = sketch.query_quantiles(probs).tolist()
    for p, v, (low, high) in zip(probs, answers, contract):
        # v holds the ranks first..last; one of them must meet the contract
        first, last = bisect.bisect_left(ordered, v) + 1, bisect.bisect_right(ordered, v)
        assert first <= last and first <= high and last >= low, (data, eps, p, v)


@functools.lru_cache(maxsize=None)
def _contract(n, eps):
    """The probes p = j/(4n) and the GK contract's rank range
    [floor((p-eps)*n), ceil((p+eps)*n)] at each, in exact arithmetic on
    the float p and eps."""
    probs = [j / (4 * n) for j in range(1, 4 * n + 1)]
    return probs, [(math.floor((Fraction(p) - Fraction(eps)) * n),
                    math.ceil((Fraction(p) + Fraction(eps)) * n)) for p in probs]


@functools.lru_cache(maxsize=None)
def counted_differences(x, y):
    """c_x(t)*m - c_y(t)*n at each pooled value t, in Python ints."""
    n, m = len(x), len(y)
    return {t: sum(v <= t for v in x) * m - sum(v <= t for v in y) * n for t in x + y}


def counted_distance(x, y):
    """max_t |c_x(t)*m - c_y(t)*n| / (n*m) over the pooled t, in Python
    ints, rounded once by Fraction."""
    best = max(map(abs, counted_differences(x, y).values()))
    return float(Fraction(best, len(x) * len(y)))


def check_pair(x, sketch1, y, sketch2):
    """exact_ks_distance against the counted D, the one-sided bounds of
    each cell against the counts in it, then lall_ks and distance_interval
    of two sealed sketches against D."""
    n, m = len(x), len(y)
    eps1, eps2 = sketch1.epsilon, sketch2.epsilon
    d = ks.exact_ks_distance(x, y)
    assert d == counted_distance(x, y), (x, y, d)
    _, _, up, down = ks._cells(sketch1, sketch2)
    up, down = up.tolist(), down.tolist()
    stored = sorted({*sketch1.summary()[0].tolist(), *sketch2.summary()[0].tolist()})
    for t, difference in counted_differences(x, y).items():
        k = bisect.bisect_right(stored, t) - 1  # the cell that holds t
        assert k >= 0 and -down[k] <= difference <= up[k], (x, y, t, k, up, down)
    lall = ks.lall_ks(sketch1, sketch2)
    d_lo, d_hi = ks.distance_interval(sketch1, sketch2)
    case = (x, eps1, y, eps2, d, lall, d_lo, d_hi)
    assert abs(lall - d) <= eps1 + eps2 + _SLACK, case
    assert 0 <= d_lo <= d <= d_hi and d_lo <= lall <= d_hi, case
    width = math.floor(2 * eps1 * n) * m + math.floor(2 * eps2 * m) * n
    assert d_hi - d_lo <= width / (n * m) + _SLACK, case


def check_merge(data, sketch1, sketch2, checked):
    """`_merge` of the sealed sketches of a prefix of data and of the rest,
    checked as the sealed sketch of data at the larger eps.  The check
    reads only the sorted data, that eps and the merged summary, so a merge
    that repeats all three of one in `checked` is not checked again."""
    eps = max(sketch1.epsilon, sketch2.epsilon)
    summary = gk_sketch._merge([*sketch1.summary(), sketch1.count],
                               [*sketch2.summary(), sketch2.count])
    case = (tuple(sorted(data)), eps, *(a.tobytes() for a in summary[:3]))
    if case not in checked:
        checked.add(case)
        merged = QuantileSketch(eps)
        merged._values, merged._rmin, merged._rmax, merged._count = summary
        check_sketch(data, merged.seal())


def check(max_n, chunks, epsilons):
    """Check every input of up to max_n values under each chunk size and
    eps, every pair of them drawn as below, and every merge of a prefix's
    sketch with the rest's; returns the counts (sketches, pairs, merges).

    Pairs and merges take the same chunk size and each eps with itself and
    with the next one in `epsilons` (the last with the first).  Pairs take
    each input x with the input that follows it in `inputs` order (the
    last with the first), so they share values, differ in length at each
    length boundary, and differ in arrival order.  Merges split each input
    at every point, so their two sides tie wherever the input repeats a
    value across the split.
    """
    data = inputs(max_n)
    sketches = pairs = merges = 0
    pairings = list(itertools.chain(
        zip(epsilons, epsilons), zip(epsilons, epsilons[1:] + epsilons[:1])))
    for chunk in chunks:
        with mock.patch.object(gk_sketch, "_CHUNK", chunk), \
                mock.patch.object(ks, "_PROBE_BLOCK", chunk):
            sealed, summaries, merged, checked = {}, {}, set(), set()

            def sketch(x, eps):
                """The sealed sketch of x at eps, built once."""
                if (x, eps) not in sealed:
                    s = QuantileSketch(eps)
                    s.extend(x)
                    sealed[x, eps] = s.seal()
                    summaries[s] = (s.count, *(a.tobytes() for a in s.summary()))
                return sealed[x, eps]

            for eps in epsilons:
                for x in data:
                    check_sketch(x, sketch(x, eps))
                    sketches += 1
            for eps1, eps2 in pairings:
                for x, y in zip(data, data[1:] + data[:1]):
                    check_pair(x, sealed[x, eps1], y, sealed[y, eps2])
                    pairs += 1
                for x in data:
                    ordered = tuple(sorted(x))
                    for split in range(1, len(x)):
                        sides = sketch(x[:split], eps1), sketch(x[split:], eps2)
                        # the merge and its check read only the sorted input,
                        # the larger eps and the two summaries
                        case = (ordered, max(eps1, eps2), *map(summaries.get, sides))
                        if case not in merged:
                            merged.add(case)
                            check_merge(x, *sides, checked)
                        merges += 1
    return sketches, pairs, merges


def phis(lattice):
    """The phi grid of `check_plans`: 200 points geometric in [1e-3, 1.99],
    and each 2*k/j**2 (1 <= k < j <= lattice) with its two float
    neighbours, ascending and each once."""
    grid = {1e-3 * (1.99 / 1e-3) ** (i / 199) for i in range(200)}
    for j in range(2, lattice + 1):
        for k in range(1, j):
            phi = 2 * k / j**2
            grid.update((math.nextafter(phi, 0), phi, math.nextafter(phi, 2)))
    return sorted(grid)


def check_plans(max_n, lattice):
    """Check the planner at every phi of `phis(lattice)` and every n in
    [1, max_n]; returns the counts (phi values, plans asked for)."""
    grid = phis(lattice)
    for phi in grid:
        delta, planned = phi / 2, False
        for n in range(1, max_n + 1):
            eps = eps45(delta, n)
            reachable = any(_bound(a, eps) <= delta for a in range(n, 2, -1))
            try:
                plan = plan_from_phi(phi, n)
            except ValueError as exc:
                assert "cannot reach" in str(exc), (phi, n, exc)
                plan = None
            assert (plan is not None) == reachable, (phi, n, plan)
            assert plan is not None or not planned, (phi, n)  # a plan at n - 1
            if plan is not None:
                assert plan.n == n and plan.delta == delta, (phi, plan)
                assert plan.epsilon == eps > 0, (phi, plan)
                assert 3 <= plan.a <= n and _bound(plan.a, eps) <= delta, (phi, plan)
            planned = plan is not None
            for e in (0.0, delta / 3, delta / 2, eps):
                a = num_probs(n, delta, e)
                assert a <= n and (a == n or _bound(a, e) <= delta), (phi, n, e, a)
            if plan is None and a >= 3:
                # CdfPlan refuses the planner's count where the planner does
                try:
                    CdfPlan(n=n, delta=delta, epsilon=eps, a=a)
                except ValueError:
                    pass
                else:
                    raise AssertionError((phi, n, a))
    return len(grid), len(grid) * max_n


def _stride(values, w):
    """values[0::w], then values[1::w], and so on."""
    return np.concatenate([values[i::w] for i in range(min(w, values.size))])


def orders(n, chunk):
    """The arrival orders of `check_orders` over the values 0 .. n-1: pairs
    (name, values in arrival order), made one at a time."""
    values = np.arange(n, dtype=float)
    yield "random", np.random.default_rng(n).permutation(values)
    yield "sorted", values
    yield "reversed", values[::-1]
    # a chunk is sorted whole, so only the blocks' order matters
    yield "blocks-reversed", np.concatenate(
        [values[i:i + chunk] for i in range(0, n, chunk)][::-1])
    for w in (2, 10, 100):
        yield f"stride-{w}", _stride(values, w)
    for p in (3, 5, 7):  # p ascending runs and a short one, interleaved
        yield f"stride-n//{p}", _stride(values, max(n // p, 1))


def check_orders(ns, chunks, epsilons, max_chunks, max_units):
    """Check the sealed sketch of every order of `orders` in scope;
    returns the count checked and the largest tuple count times eps with
    its order, n, chunk size and eps."""
    checked, worst = 0, (0.0,)
    for chunk in chunks:
        with mock.patch.object(gk_sketch, "_CHUNK", chunk):
            for n in ns:
                sizes = [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)
                if len(sizes) > max_chunks:
                    continue
                for name, data in orders(n, chunk):
                    for eps in epsilons:
                        sketch = QuantileSketch(eps)
                        sketch.extend(data)
                        sketch.seal().check_invariants()
                        ceiling = sum(min(size, math.ceil(2 / eps) + 1) for size in sizes)
                        case = (name, n, chunk, eps, sketch.tuple_count, ceiling)
                        assert sketch.count == n and sketch.tuple_count <= ceiling, case
                        assert sketch.tuple_count * eps <= max_units, case
                        worst = max(worst, (sketch.tuple_count * eps, name, n, chunk, eps))
                        checked += 1
    return checked, worst


def test_small_scope():
    check(**SMALL)


def test_small_scope_plans():
    check_plans(**PLANS_SMALL)


def test_arrival_orders_small():
    check_orders(**ORDERS_SMALL)


def test_arrival_orders_medium():
    check_orders(**ORDERS_MEDIUM)


if __name__ == "__main__":
    start = time.perf_counter()
    sketches, pairs, merges = check(**FULL)
    print(f"{sketches} sketches, {pairs} pairs and {merges} merges checked in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    start = time.perf_counter()
    grid, plans = check_plans(**PLANS_FULL)
    print(f"{plans} plans over {grid} phi values checked in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    start = time.perf_counter()
    checked, (units, name, n, chunk, eps) = check_orders(**ORDERS_FULL)
    print(f"{checked} arrival orders checked in {time.perf_counter() - start:.1f} s; "
          f"the most tuples, {units:.2f}/eps, {name} at n = {n}, chunk {chunk}, "
          f"eps {eps}", file=sys.stderr)
