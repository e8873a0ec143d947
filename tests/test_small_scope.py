"""A bounded-exhaustive check of the certificate's integer rules.

Each rule the certificate rests on is a floor or a ceiling: the chunk
stride, the compress threshold, the `floor(2*eps*n) + 1` tuple bound, the
cells of the sketch-direct distance.  Following the small-scope hypothesis
(Andoni, Daniliuc, Khurshid and Marinov, "Evaluating the small scope
hypothesis", 2002), `check` builds every input up to a small size, under
chunk sizes that cut a merge and one that does not, over a grid of eps,
and checks each sealed sketch and each pair of sketches against oracles
that count the data directly:

- the sketch passes `check_invariants`;
- `rank_bounds` holds the true count of values <= t at every value and
  every midpoint between values, and beyond both ends, within
  floor(2*eps*n);
- `query_quantiles` meets the GK contract at p = j/(4n), j = 1..4n;
- for pairs: `lall_ks` is within eps1 + eps2 of `exact_ks_distance` D,
  and `distance_interval` gives 0 <= d_lo <= D <= d_hi and d_lo <=
  lall_ks <= d_hi, with d_hi - d_lo within (floor(2*eps1*n)*m + floor(2*eps2*m)*n) /
  (n*m).

Tier-1 runs `SMALL` in a few seconds.  `python tests/test_small_scope.py`
runs `FULL` (about 32 times the work) and prints what it checked.
"""

import bisect
import functools
import itertools
import math
import sys
import time
from fractions import Fraction
from unittest import mock

from sketchks import gk_sketch, ks
from sketchks.gk_sketch import QuantileSketch

# chunk sizes 1, 2 and 3 cut a merge into every input of two values or
# more; 64 cuts none
SMALL = dict(max_n=5, chunks=(1, 2, 3, 64), epsilons=(0.1, 0.25, 0.34, 0.5, 0.9))
FULL = dict(max_n=7, chunks=(1, 2, 3, 5, 64),
            epsilons=(0.02, 0.1, 0.17, 0.25, 0.34, 0.5, 0.9))

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


def check_pair(x, sketch1, y, sketch2):
    """lall_ks and distance_interval of two sealed sketches against D."""
    n, m = len(x), len(y)
    eps1, eps2 = sketch1.epsilon, sketch2.epsilon
    d = ks.exact_ks_distance(x, y)
    lall = ks.lall_ks(sketch1, sketch2)
    d_lo, d_hi = ks.distance_interval(sketch1, sketch2)
    case = (x, eps1, y, eps2, d, lall, d_lo, d_hi)
    assert abs(lall - d) <= eps1 + eps2 + _SLACK, case
    assert 0 <= d_lo <= d <= d_hi and d_lo <= lall <= d_hi, case
    width = math.floor(2 * eps1 * n) * m + math.floor(2 * eps2 * m) * n
    assert d_hi - d_lo <= width / (n * m) + _SLACK, case


def check(max_n, chunks, epsilons):
    """Check every input of up to max_n values under each chunk size and
    eps, and every pair of them drawn as below; returns the counts
    (sketches, pairs).

    Pairs take the same chunk size, each eps with itself and with the next
    one in `epsilons` (the last with the first), and each input x with the
    input that follows it in `inputs` order (the last with the first), so
    they share values, differ in length at each length boundary, and
    differ in arrival order.
    """
    data = inputs(max_n)
    sketches = pairs = 0
    for chunk in chunks:
        with mock.patch.object(gk_sketch, "_CHUNK", chunk):
            sealed = {}
            for eps in epsilons:
                for x in data:
                    s = QuantileSketch(eps)
                    s.extend(x)
                    check_sketch(x, s.seal())
                    sealed[x, eps] = s
                    sketches += 1
            for eps1, eps2 in itertools.chain(
                    zip(epsilons, epsilons), zip(epsilons, epsilons[1:] + epsilons[:1])):
                for x, y in zip(data, data[1:] + data[:1]):
                    check_pair(x, sealed[x, eps1], y, sealed[y, eps2])
                    pairs += 1
    return sketches, pairs


def test_small_scope():
    check(**SMALL)


if __name__ == "__main__":
    start = time.perf_counter()
    sketches, pairs = check(**FULL)
    print(f"{sketches} sketches and {pairs} pairs checked in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
