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
is sorted, thinned to an exact summary of itself and merged into the stored
tuples, the one-sided case of merging summaries (Agarwal et al., PODS
2012), where rank bounds add; COMPRESS then runs after every merged chunk.
A buffer exists only while it holds values: the merge drops it once the
kept values are copied out, before its own arrays peak, and the next
`extend` makes a new one.
Ranks are 1-based.  Ties are ordered by arrival: an item ranks after every
equal item of an earlier chunk, and within a chunk by its sorted position.

One rule gives the rank interval of a probe x in a summary of N items.
Let i count the stored values <= x (or < x, when x ranks before its equal
stored values).  Then at least r_min of the i-th stored value (0 when
i = 0) and at most r_max of the (i+1)-th less one (N when i counts every
stored value) items rank before x.  `rank_bounds` and both halves of a
merge use it.

Why the rank bounds and the size bound hold.  A sorted chunk c_1 <= ... <=
c_k is thinned to the order statistics at ranks j_1 = 1, 1 + s, 1 + 2s, ...
and always k, so every gap j_t - j_{t-1} (j_0 = 0) is at most the stride
s = floor(eps*k/2) + 1.  The kept values with r_min = r_max = j_t are an
exact summary of the chunk.  Merging it into the stored tuples of n
earlier items:

- A kept w_t goes after the stored values <= w_t, between pred and succ.
  It gets its interval in the stored summary plus its chunk rank:
  [r_min(pred) + j_t, r_max(succ) - 1 + j_t].  With no pred that is
  [j_t, j_t], as the first tuple has r_max = 1; with no succ it is
  [n + j_t, n + j_t].
- A stored v gets the chunk's interval at v added, with the chunk items
  equal to v ranked after it: with t = #{kept < v}, between j_t and
  j_{t+1} - 1 chunk items rank before it, and exactly k past the chunk's
  maximum (t = m).
- The last tuple is the maximum of both and gets r_min = n + k = count
  after the merge (sum g = count in the gap form).
- After the merge the left neighbour of a kept w_t has r_min >= r_min(pred)
  + j_{t-1}, and that of a stored v has r_min >= r_min(u) + j_t, with u
  the stored value before v (r_min 0 when there is no pred or no u).  So
  r_max minus the left neighbour's r_min (g + delta in the gap form) is at
  most the stored r_max(succ) - r_min(pred), or r_max(v) - r_min(u), plus
  s - 1.  With floor(a + b) >= floor(a) + floor(b) and s <=
  floor(2*eps*k) + 1 it stays <= floor(2*eps*n) + 1 + (s - 1) <=
  floor(2*eps*(n + k)) + 1.
- The first tuple is the minimum with r_max = 1: a chunk minimum below the
  stored one enters with [1, 1]; otherwise the stored first tuple ranks
  before every kept value (t = 0) and gains [0, j_1 - 1] = [0, 0].
- COMPRESS deletes tuples and moves no rank bound.  It keeps the greedy
  right-to-left pass's tuples: from a kept tuple j the next kept one is
  the largest i < j whose left neighbour has r_min < r_max(j) -
  floor(2*eps*n), and tuple 0 when there is none.  Every deleted tuple
  lies between two kept ones whose r_max minus the left one's r_min is
  <= floor(2*eps*n), which keeps the bound for the right one, and the
  first and last tuples are kept.  With r_min strictly increasing that
  next index is one searchsorted per tuple, so the kept set is a path
  through those pointers, found by pointer doubling.

s = floor(eps*k/2) + 1 rather than the largest legal floor(2*eps*k) + 1
leaves three quarters of the chunk's slack to COMPRESS.  The largest stride
leaves it none: merged tuples sit at the size bound, so COMPRESS can delete
few of them and the summary grows.
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


def _scatter(stored, at, kept, pos):
    """stored and kept merged into one array at slots `at` and `pos`."""
    out = np.empty(stored.size + kept.size, dtype=stored.dtype)
    out[at] = stored
    out[pos] = kept
    return out


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
        """Merge the buffered values as one chunk and drop the buffer;
        every read calls it."""
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
        kept = chunk[ranks - 1]
        # the buffer goes before the merge peaks; `extend` makes the next
        self._buffer, self._held, chunk = None, 0, None
        values, rmin, rmax = self._values, self._rmin, self._rmax
        # a kept value ranks after the stored values <= it, a stored value
        # after the chunk items < it: each side's interval in the other adds
        pos = np.searchsorted(values, kept, side="right")
        before = np.searchsorted(kept, values, side="left")
        kept_lo, kept_hi = _bounds(rmin, rmax, self._count, pos)
        grow_lo, grow_hi = _bounds(ranks, ranks, k, before)
        kept_lo += ranks
        kept_hi += ranks
        grow_lo += rmin
        grow_hi += rmax
        # each input is dropped once its last output is built
        del ranks, rmin, rmax
        # merged slots: kept w_t goes after the pos[t] stored values <= it
        # and the t kept ones before it, stored v_i after the before[i]
        # kept values < it and the i stored ones before it
        pos += np.arange(kept.size)
        before += np.arange(values.size)
        self._values = _scatter(values, before, kept, pos)
        del values, kept
        self._rmin = _scatter(grow_lo, before, kept_lo, pos)
        del grow_lo, kept_lo
        self._rmax = _scatter(grow_hi, before, kept_hi, pos)
        self._count += k

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
