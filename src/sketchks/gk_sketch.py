"""Greenwald-Khanna summary for epsilon-approximate quantile queries.

The summary keeps an ordered list of stored values with their rank bounds
(value, r_min, r_max): the true rank of every stored value lies in
[r_min, r_max].  Greenwald-Khanna's gap form is the same information:
g = r_min minus the previous tuple's r_min (0 before the first) and
delta = r_max - r_min.  For a stream of n items it answers any quantile
query at probability p with a value whose true rank r satisfies

    floor((p - eps) * n) <= r <= ceil((p + eps) * n).

Ingestion is by batch only, the buffered scheme of Spark's
QuantileSummaries on top of Greenwald-Khanna (SIGMOD 2001): values fill one
buffer, cut into a chunk every _CHUNK values and at each read.  Each chunk
is sorted, thinned to an exact summary of itself and merged with the stored
summary by `_merge`, the one merge of two summaries (Agarwal et al., PODS
2012); COMPRESS then runs after every merged chunk.  A buffer exists only
while it holds values: it is dropped once the kept values are copied out,
before the merge peaks, and the next `extend` makes a new one.
Ranks are 1-based.  Ties are ordered by arrival: an item ranks after every
equal item of an earlier chunk, and within a chunk by its sorted position.

One rule gives the rank interval of a probe x in a summary of N items.
Let i count the stored values <= x (or < x, when x ranks before its equal
stored values).  Then at least r_min of the i-th stored value (0 when
i = 0) and at most r_max of the (i+1)-th less one (N when i counts every
stored value) items rank before x.  `rank_bounds` and `_merge` use it.

Why the rank bounds and the width bound hold.  A summary of n items is
valid when its values are non-decreasing, g >= 1, delta >= 0, the last
r_min is n and the first r_max is 1, and within W when every tuple has
g + delta <= W.  `_merge(a, b)` ranks a's items before b's equal ones and
adds to each tuple's interval the other summary's at its position, which
the rule above counts, so every true rank stays in bounds.  Lemma: merging
valid summaries of n_a and n_b items within W_a and W_b gives a valid
summary of n_a + n_b items within W_a + W_b - 1.  Proof: a merged tuple
that closes the first i tuples of a and j of b has r_min = r_min_a(i) +
r_min_b(j), with r_min(0) = 0, so its g is its own tuple's and the last
r_min is n_a + n_b.  If it is a's i-th tuple, its r_max is r_max_a(i) +
r_max_b(j+1) - 1, so its g + delta, (g + delta)_a(i) + (g + delta)_b(j+1)
less 1, is at most W_a + W_b - 1, and its delta is at least delta_a(i) +
g_b(j+1) - 1, so at least 0; past b's last tuple it has r_max_a(i) + n_b,
which adds 0 to both.  For b's tuples swap a and b.  The first tuple gets
r_max 1 + 1 - 1 = 1, or 1 + 0 past an empty side.

With W = floor(2*eps*n) + 1 on each side and floor(x) + floor(y) <=
floor(x + y), the merge is within floor(2*max(eps_a, eps_b)*(n_a + n_b))
plus 1.  A sorted chunk c_1 <= ... <= c_k is thinned to the order
statistics at ranks j_1 = 1, 1 + s, 1 + 2s, ... and always k, with r_min =
r_max = j_t: a valid summary with delta = 0 and g <= s, so within the
stride s = floor(eps*k/2) + 1 <= floor(2*eps*k) + 1, which is why s is
legal.  The largest legal stride would leave COMPRESS no slack: merged
tuples would sit at the width bound, so it could delete few and the
summary would grow; s leaves it three quarters of the chunk's.  A chunk
of k values adds at most min(k, ceil(2/eps) + 1) tuples; no bound free
of the chunk count is proven (ROADMAP item 17).  The worst order found,
stride n // 7, kept 6.2/eps tuples at eps 0.01, 1,024 chunks of 1,024.

COMPRESS deletes tuples and moves no rank bound.  It keeps the greedy
right-to-left pass's tuples: from a kept tuple j the next kept one is the
largest i < j whose left neighbour has r_min < r_max(j) - floor(2*eps*n),
and tuple 0 when there is none.  Every deleted tuple lies between two kept
ones whose r_max minus the left one's r_min is <= floor(2*eps*n), which
keeps the bound for the right one, and the first and last tuples are kept.
With r_min strictly increasing that next index is one searchsorted per
tuple, so the kept set is a path through those pointers, found by pointer
doubling.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuantileSketch", "SketchStateError"]

# values a sketch buffers, then sorts and merges as one chunk
_CHUNK = 1 << 16


class SketchStateError(RuntimeError):
    """A write to a sealed sketch, a read of an empty one, or a broken summary."""


def _check_finite(a: np.ndarray, name: str) -> None:
    # the extremes are NaN or infinite iff some value is; no mask is built
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        bad = a[~np.isfinite(a)].flat[0]
        raise ValueError(f"{name} contains a non-finite value: {bad}")


def _bounds(r_min, r_max, n, i):
    """Rank interval of probes in the summary (values, r_min, r_max) of n items.

    i is the probes' searchsorted position in values: the count of stored
    values <= x (side="right") or < x (side="left").  At least r_min[i-1]
    and at most r_max[i] - 1 items rank before x; 0 and n past the ends.
    """
    lower = np.concatenate(([0], r_min))
    upper = np.concatenate(([0], r_max[1:] - 1, [n]))
    return lower[i], upper[i]


def _scatter(a, at_a, b, at_b):
    """a and b merged into one array at slots at_a and at_b."""
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[at_a] = a
    out[at_b] = b
    return out


def _merge(a, b):
    """Summary (values, r_min, r_max, count) of a's items, then b's.

    a and b are lists [values, r_min, r_max, count] that it empties, so each
    array is dropped once its last output is built.  A tuple adds the other
    summary's `_bounds` interval at its position to its own (module
    docstring); a's items rank before b's equal ones."""
    (values_a, lo_a, hi_a, n_a), (values_b, lo_b, hi_b, n_b) = a, b
    a.clear()
    b.clear()
    # a's tuples go after b's values < them, b's after a's values <= them
    at_a = np.searchsorted(values_b, values_a, side="left")
    at_b = np.searchsorted(values_a, values_b, side="right")
    min_a, max_a = _bounds(lo_b, hi_b, n_b, at_a)
    min_b, max_b = _bounds(lo_a, hi_a, n_a, at_b)
    min_a += lo_a
    max_a += hi_a
    min_b += lo_b
    max_b += hi_b
    del lo_a, hi_a, lo_b, hi_b
    # merged slots: plus the tuples before it on its own side
    at_a += np.arange(values_a.size)
    at_b += np.arange(values_b.size)
    values = _scatter(values_a, at_a, values_b, at_b)
    del values_a, values_b
    r_min = _scatter(min_a, at_a, min_b, at_b)
    del min_a, min_b
    return values, r_min, _scatter(max_a, at_a, max_b, at_b), n_a + n_b


class QuantileSketch:
    """Streaming epsilon-approximate quantile summary.

    Single-threaded while open, as reads merge the buffered values; `seal()`
    merges them and stops writes, so a sealed sketch holds no buffer and is
    immutable and shareable.  Reads need data, not a seal; `summary()`
    copies the tuples.
    """

    def __init__(self, epsilon: float):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._values = np.empty(0, dtype=np.float64)
        self._rmin = np.empty(0, dtype=np.int64)
        self._rmax = np.empty(0, dtype=np.int64)
        self._count = 0  # values merged into the tuples
        self._buffer, self._held = None, 0  # the open chunk
        self._sealed = False

    @property
    def count(self) -> int:
        return self._count + self._held

    @property
    def tuple_count(self) -> int:
        self._flush()
        return self._values.size

    def extend(self, values) -> None:
        """Add a batch: a 1-d array-like of finite numbers.

        The whole batch is rejected, and the sketch left unchanged, if it is
        not a 1-d array of finite numbers (a generator raises TypeError).
        Chunks are cut from the stream, not per batch (module docstring).
        """
        if self._sealed:
            raise SketchStateError("cannot extend a sealed sketch")
        batch = np.asarray(values, dtype=np.float64)
        if batch.ndim != 1:
            raise ValueError("values must be a 1-d sequence")
        _check_finite(batch, "values")
        while batch.size:
            if self._buffer is None:
                self._buffer = np.empty(_CHUNK)
            room = _CHUNK - self._held
            part, batch = batch[:room], batch[room:]
            self._buffer[self._held:self._held + part.size] = part
            self._held += part.size
            if self._held == _CHUNK:
                self._flush()

    def _flush(self) -> None:
        """Merge the buffered values as one chunk; every read calls it."""
        if self._held:
            # a separate call, so its temporaries are freed before compress
            self._merge_chunk()
            self.compress()

    def _merge_chunk(self) -> None:
        k = self._held
        chunk = self._buffer[:k]
        chunk.sort()  # in place: the values it keeps are copied out
        ranks = np.arange(1, k + 1, math.floor(self.epsilon * k / 2) + 1)
        if ranks[-1] != k:
            ranks = np.append(ranks, k)
        # the chunk's exact summary; the buffer goes before the merge peaks,
        # and `extend` makes the next
        exact = [chunk[ranks - 1], ranks, ranks, k]
        self._buffer, self._held, chunk, ranks = None, 0, None, None
        stored = [self._values, self._rmin, self._rmax, self._count]
        del self._values, self._rmin, self._rmax  # `_merge` drops them
        self._values, self._rmin, self._rmax, self._count = _merge(stored, exact)

    def compress(self) -> None:
        """Delete tuples while the GK maintenance condition allows.

        Keeps the tuples of the greedy right-to-left pass: from a kept tuple
        j it deletes tuples j-1, j-2, ... while r_max[j] minus r_min of the
        next tuple to the left is at most floor(2*eps*n).  As r_min strictly
        increases, that pass keeps next nxt[j] = min(j-1, #{r_min < r_max[j]
        - floor(2*eps*n)}), or tuple 0 when that is below 1, so the kept set
        is the path last -> nxt[last] -> ... -> 0.  Pointer doubling walks
        it in O(log length) array steps.  No rank bound moves, and the
        extreme tuples are never removed, so the exact minimum and maximum
        stay queryable.
        """
        threshold = math.floor(2.0 * self.epsilon * self._count)
        if threshold < 2:  # deletes nothing, yet the pass costs ~0.45 ms/1e4 tuples
            return
        rmin, rmax = self._rmin, self._rmax
        below = np.searchsorted(rmin, rmax - threshold, side="left")
        jump = np.arange(-1, rmin.size - 1)
        np.minimum(jump, below, out=jump)
        del below
        np.maximum(jump, 0, out=jump)
        # after round r, `on` holds the first 2**r tuples of the path
        on = np.zeros(rmin.size, dtype=bool)
        on[-1] = True
        while not on[0]:
            on[jump[on]] = True
            jump = jump[jump]
        self._values = self._values[on]
        self._rmin = rmin[on]
        self._rmax = rmax[on]

    def seal(self) -> "QuantileSketch":
        """Stop writes; reads are unaffected.  The flush leaves no buffer."""
        self._flush()
        self._sealed = True
        return self

    def check_invariants(self) -> None:
        """Raise SketchStateError unless the stored tuples form a valid summary.

        With g = r_min minus the previous tuple's r_min (0 before the first)
        and delta = r_max - r_min, checks non-decreasing values, g >= 1,
        delta >= 0, sum g = count (r_min = count on the last tuple),
        g + delta <= floor(2*eps*count) + 1 and r_max = 1 on the first tuple.
        """
        self._flush()
        values, rmin, rmax = self._values, self._rmin, self._rmax
        g = np.diff(rmin, prepend=0)
        delta = rmax - rmin
        if np.any(values[1:] < values[:-1]):
            raise SketchStateError("stored values are not non-decreasing")
        if np.any(g < 1) or np.any(delta < 0):
            raise SketchStateError("a tuple has g < 1 or delta < 0")
        if int(g.sum()) != self._count:
            raise SketchStateError(f"sum of g is {int(g.sum())}, count is {self._count}")
        if np.any(g + delta > math.floor(2.0 * self.epsilon * self._count) + 1):
            raise SketchStateError("a tuple has g + delta > floor(2*eps*n) + 1")
        if values.size and rmax[0] != 1:
            raise SketchStateError("the first tuple does not have r_max = 1")

    def summary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored values with their rank bounds: (values, r_min, r_max).

        Fresh copies of the stored arrays.
        """
        self._flush()
        return self._values.copy(), self._rmin.copy(), self._rmax.copy()

    def query_quantiles(self, probs) -> np.ndarray:
        """Quantile answers for a non-decreasing grid of p in (0, 1].

        Each p is answered by the first stored value with r_min >= lo =
        floor((p-eps)n); p = 1 returns the maximum.  That value also has
        r_max <= hi = ceil((p+eps)n), so its rank satisfies the
        eps-approximate contract: every tuple keeps g + delta <=
        floor(2*eps*n) + 1 and its left neighbour has r_min <= lo - 1, so
        r_max <= lo + floor(2*eps*n) <= hi.  The first tuple is the minimum
        with r_max = 1 <= hi; it answers every p <= 1/n, as lo <= 1 there.
        A summary that fails the check raises SketchStateError.  Answers are
        non-decreasing because the targets are.
        """
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if np.any(probs[1:] < probs[:-1]):
            raise ValueError("probs must be non-decreasing")
        self._flush()
        if self._count == 0:
            raise SketchStateError("cannot query an empty sketch")
        bad = probs[~((probs > 0) & (probs <= 1))]
        if bad.size:
            raise ValueError(f"p must be in (0, 1], got {bad[0]}")
        n = self._count
        # one buffer holds lo, then hi
        bound = probs - self.epsilon
        bound *= n
        np.floor(bound, out=bound)
        idx = np.searchsorted(self._rmin, bound, side="left")
        idx[probs == 1.0] = self._values.size - 1
        np.add(probs, self.epsilon, out=bound)
        bound *= n
        np.ceil(bound, out=bound)
        if np.any(self._rmax[idx] > bound):
            raise SketchStateError("summary breaks the GK rank contract")
        return self._values[idx]

    def rank_bounds(self, x):
        """Interval [r_min, r_max] containing the exact rank of x.

        Rank means the number of stream items <= x, so anything below the
        minimum maps to (0, 0) and anything at or above the maximum to
        (n, n).  The width is at most floor(2*eps*n): g + delta - 1 of the
        stored value above x (r_max less 1 minus its neighbour's r_min), 0
        past the ends.  x may be a scalar or an array of finite numbers; the
        bounds have its shape.  An empty sketch raises SketchStateError, as
        in `query_quantiles`.
        """
        self._flush()
        if self._count == 0:
            raise SketchStateError("cannot query an empty sketch")
        xs = np.asarray(x, dtype=np.float64)
        _check_finite(xs, "x")
        i = np.searchsorted(self._values, xs, side="right")
        return _bounds(self._rmin, self._rmax, self._count, i)
