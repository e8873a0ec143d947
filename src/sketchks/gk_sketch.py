"""Greenwald-Khanna summary for epsilon-approximate quantile queries.

The summary keeps an ordered list of (value, g, delta) tuples where g is the
gap between the minimum ranks of consecutive stored values and delta is the
rank uncertainty of a stored value: r_min = cumsum(g), r_max = r_min +
delta, and the true rank of every stored value lies in [r_min, r_max].  For
a stream of n items it answers any quantile query at probability p with a
value whose true rank r satisfies

    floor((p - eps) * n) <= r <= ceil((p + eps) * n).

Ingestion is by batch, the buffered scheme of Spark's QuantileSummaries on
top of Greenwald-Khanna (SIGMOD 2001): each chunk of a batch is sorted,
thinned to an exact summary of itself and merged into the stored tuples,
the one-sided case of merging summaries (Agarwal et al., PODS 2012).  Ranks
are 1-based.  Ties are ordered by arrival: an item ranks after every equal
item of an earlier chunk, and within a chunk by its sorted position.

Why the rank bounds and the size bound hold.  A sorted chunk c_1 <= ... <=
c_k is thinned to the order statistics at ranks j_1 = 1, 1 + s, 1 + 2s, ...
and always k, each kept with g = j_t - j_{t-1} (j_0 = 0), so sum g = k and
every gap is at most the stride s = floor(eps*k/2) + 1.  That is an exact
summary of the chunk (delta = 0).  Merging it into the stored tuples of n
earlier items:

- A kept w_t goes after the stored values <= w_t, between pred and succ.
  Earlier items ranked before it number at least r_min(pred) and at most
  r_max(succ) - 1, so it gets delta = g_succ + delta_succ - 1; with no pred
  or no succ that count is exact (0 or n) and delta = 0.
- A stored v with t = #{kept < v} has between j_t and j_{t+1} - 1 chunk
  items before it (chunk items equal to v rank after it), so its delta
  grows by g_{t+1} - 1, and by 0 past the chunk's maximum (t = m).
- sum g grows by k, so sum g = n + k = count after the merge.
- With floor(a + b) >= floor(a) + floor(b) and s <= floor(2*eps*k) + 1,
  both cases keep g + delta <= floor(2*eps*n) + (s - 1) + 1 <=
  floor(2*eps*(n + k)) + 1, and a tuple kept past an extreme has g + delta
  = g <= s.  COMPRESS folds tuple i into its right neighbour only when
  g_i + g_next + delta_next <= floor(2*eps*n), which keeps the bound.
- The first tuple is the minimum with r_max = 1: a chunk minimum below the
  stored one enters with g = 1, delta = 0; otherwise the stored first tuple
  sits before every kept value (t = 0) and gains g_1 - 1 = 0.  COMPRESS
  never removes the first or the last tuple.

s = floor(eps*k/2) + 1 rather than the largest legal floor(2*eps*k) + 1
leaves three quarters of the chunk's slack to COMPRESS.  The largest stride
leaves it none: merged tuples sit at the size bound, so COMPRESS can fold
few of them and the summary grows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuantileSketch", "SketchStateError"]

# values sorted and merged per step of `extend`
_CHUNK = 1 << 16


class SketchStateError(RuntimeError):
    """Operation applied to a sketch in the wrong state (sealed/empty/broken)."""


class QuantileSketch:
    """Streaming epsilon-approximate quantile summary.

    Single-writer while inserting; immutable (and freely shareable) once
    sealed.  Every read goes through `summary()`.
    """

    def __init__(self, epsilon: float):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._values = np.empty(0, dtype=np.float64)
        self._g = np.empty(0, dtype=np.int64)
        self._delta = np.empty(0, dtype=np.int64)
        self._count = 0
        self._sealed = False
        # compress whenever count crosses a multiple of floor(1/(2*eps))
        self._period = max(1, math.floor(1.0 / (2.0 * epsilon)))

    @property
    def count(self) -> int:
        return self._count

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def tuple_count(self) -> int:
        return self._values.size

    def insert(self, value: float) -> None:
        """Add one observation."""
        self.extend((value,))

    def extend(self, values) -> None:
        """Add a batch: an array-like or any iterable of finite numbers.

        The whole batch is rejected, and the sketch left unchanged, if any
        value is non-finite.  Each chunk of the batch is sorted, thinned and
        merged (see the module docstring); COMPRESS runs after a chunk that
        carries count across a multiple of the period.
        """
        if self._sealed:
            raise SketchStateError("cannot insert into a sealed sketch")
        if hasattr(values, "__len__"):
            batch = np.asarray(values, dtype=np.float64)
        else:
            batch = np.fromiter(values, dtype=np.float64)
        if batch.ndim != 1:
            raise ValueError("values must be a 1-d sequence")
        # the extremes are NaN or infinite iff some value is
        if batch.size and not (np.isfinite(batch.min()) and np.isfinite(batch.max())):
            bad = batch[~np.isfinite(batch)][0]
            raise ValueError(f"values must be finite, got {bad}")
        for start in range(0, batch.size, _CHUNK):
            chunk = np.sort(batch[start:start + _CHUNK])
            self._merge_sorted(chunk)
            before, self._count = self._count, self._count + chunk.size
            if self._count // self._period != before // self._period:
                self.compress()

    def _merge_sorted(self, chunk: np.ndarray) -> None:
        k = chunk.size
        ranks = np.arange(1, k + 1, math.floor(self.epsilon * k / 2) + 1)
        if ranks[-1] != k:
            ranks = np.append(ranks, k)
        kept = chunk[ranks - 1]
        gaps = np.diff(ranks, prepend=0)
        values, g, delta = self._values, self._g, self._delta
        if values.size == 0:
            self._values, self._g = kept, gaps
            self._delta = np.zeros(kept.size, dtype=np.int64)
            return
        pos = np.searchsorted(values, kept, side="right")
        succ = np.minimum(pos, values.size - 1)
        interior = (pos > 0) & (pos < values.size)
        kept_delta = np.where(interior, g[succ] + delta[succ] - 1, 0)
        grown = np.append(gaps - 1, 0)[np.searchsorted(kept, values, side="left")]
        self._values = np.insert(values, pos, kept)
        self._g = np.insert(g, pos, gaps)
        self._delta = np.insert(delta + grown, pos, kept_delta)

    def compress(self) -> None:
        """Merge adjacent tuples while the GK maintenance condition allows.

        Right-to-left pass; tuple i is folded into its current right
        neighbour when g_i + g_next + delta_next <= floor(2*eps*n).  The
        extreme tuples are never removed, so the exact minimum and maximum
        stay queryable.
        """
        if self._values.size < 3:
            return
        threshold = math.floor(2.0 * self.epsilon * self._count)
        if threshold < 2:
            return
        gs = self._g.tolist()
        deltas = self._delta.tolist()
        last = len(gs) - 1
        keep = [last]
        kept_g = [gs[last]]
        for i in range(last - 1, 0, -1):
            if gs[i] + kept_g[-1] + deltas[keep[-1]] <= threshold:
                kept_g[-1] += gs[i]
            else:
                keep.append(i)
                kept_g.append(gs[i])
        keep.append(0)
        kept_g.append(gs[0])
        idx = np.array(keep[::-1])
        self._values = self._values[idx]
        self._g = np.array(kept_g[::-1], dtype=np.int64)
        self._delta = self._delta[idx]

    def seal(self) -> "QuantileSketch":
        """Freeze the sketch; queries remain available, insertion does not."""
        self._sealed = True
        return self

    def check_invariants(self) -> None:
        """Raise SketchStateError unless the stored tuples form a valid summary.

        Checks non-decreasing values, g >= 1, delta >= 0, sum g = count,
        g + delta <= floor(2*eps*count) + 1 and r_max = 1 on the first tuple.
        """
        values, g, delta = self._values, self._g, self._delta
        if np.any(values[1:] < values[:-1]):
            raise SketchStateError("stored values are not non-decreasing")
        if np.any(g < 1) or np.any(delta < 0):
            raise SketchStateError("a tuple has g < 1 or delta < 0")
        if int(g.sum()) != self._count:
            raise SketchStateError(f"sum of g is {int(g.sum())}, count is {self._count}")
        if np.any(g + delta > math.floor(2.0 * self.epsilon * self._count) + 1):
            raise SketchStateError("a tuple has g + delta > floor(2*eps*n) + 1")
        if values.size and g[0] + delta[0] != 1:
            raise SketchStateError("the first tuple does not have r_max = 1")

    def summary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored values with their rank bounds: (values, r_min, r_max).

        r_min = cumsum(g) and r_max = r_min + delta, as fresh arrays.
        """
        rmin = np.cumsum(self._g)
        return self._values.copy(), rmin, rmin + self._delta

    def query_quantile(self, p: float) -> float:
        """One-probability form of `query_quantiles`."""
        return float(self.query_quantiles([p])[0])

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
        if self._count == 0:
            raise SketchStateError("cannot query an empty sketch")
        bad = probs[~((probs > 0) & (probs <= 1))]
        if bad.size:
            raise ValueError(f"p must be in (0, 1], got {bad[0]}")
        n = self._count
        values, rmin, rmax = self.summary()
        lo = np.floor((probs - self.epsilon) * n)
        hi = np.ceil((probs + self.epsilon) * n)
        idx = np.searchsorted(rmin, lo, side="left")
        idx[probs == 1.0] = values.size - 1
        if np.any(rmax[idx] > hi):
            raise SketchStateError("summary breaks the GK rank contract")
        return values[idx]

    def rank_bounds(self, x):
        """Interval [r_min, r_max] containing the exact rank of x.

        Rank means the number of stream items <= x, so anything below the
        minimum maps to (0, 0) and anything at or above the maximum to
        (n, n).  Interval width is at most 2*eps*n + 1.  x may be a scalar
        or an array; the bounds have its shape.
        """
        if not self._sealed:
            raise SketchStateError("rank_bounds requires a sealed sketch")
        if self._count == 0:
            raise SketchStateError("cannot query an empty sketch")
        values, rmin, rmax = self.summary()
        i = np.searchsorted(values, x, side="right")
        lower = np.concatenate(([0], rmin))
        upper = np.concatenate(([0], rmax[1:] - 1, [self._count]))
        return lower[i], upper[i]
