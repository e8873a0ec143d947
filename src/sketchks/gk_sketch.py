"""Greenwald-Khanna summary for epsilon-approximate quantile queries.

The summary keeps an ordered list of (value, g, delta) tuples where g is the
gap between the minimum ranks of consecutive stored values and delta is the
rank uncertainty of a stored value.  For a stream of n items it answers any
quantile query at probability p with a value whose true rank r satisfies

    floor((p - eps) * n) <= r <= ceil((p + eps) * n)

while storing O((1/eps) * log(eps * n)) tuples.

Follows the SIGMOD 2001 algorithm: new values enter with g = 1 and
delta = floor(2*eps*n) (0 at either extreme), COMPRESS merges a tuple into
its right neighbour when g_i + g_{i+1} + delta_{i+1} <= floor(2*eps*n) and
the band of delta_i does not exceed the band of delta_{i+1}.  Ranks are
1-based; ties take consecutive ranks in insertion order.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = ["QuantileSketch", "SketchStateError"]


class SketchStateError(RuntimeError):
    """Operation applied to a sketch in the wrong state (sealed/empty)."""


def _band(delta: int, threshold: int) -> int:
    """Band index of a delta given the current threshold floor(2*eps*n).

    Bands grow with threshold - delta, so older tuples (small delta) sit in
    higher bands; COMPRESS only folds a tuple into a right neighbour of
    equal or higher band.
    """
    return (threshold - delta + 1).bit_length() - 1


class QuantileSketch:
    """Streaming epsilon-approximate quantile summary.

    Single-writer while inserting; immutable (and freely shareable) once
    sealed.  Every read goes through `summary()`.
    """

    def __init__(self, epsilon: float):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._values: list[float] = []
        self._g: list[int] = []
        self._delta: list[int] = []
        self._count = 0
        self._sealed = False
        # compress every floor(1/(2*eps)) insertions
        self._period = max(1, math.floor(1.0 / (2.0 * epsilon)))

    @property
    def count(self) -> int:
        return self._count

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def tuple_count(self) -> int:
        return len(self._values)

    def insert(self, value: float) -> None:
        """Add one observation; triggers COMPRESS on the periodic schedule."""
        if self._sealed:
            raise SketchStateError("cannot insert into a sealed sketch")
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        value = float(value)
        self._count += 1
        pos = bisect.bisect_right(self._values, value)
        if pos == 0 or pos == len(self._values):
            delta = 0
        else:
            delta = math.floor(2.0 * self.epsilon * self._count)
        self._values.insert(pos, value)
        self._g.insert(pos, 1)
        self._delta.insert(pos, delta)
        if self._count % self._period == 0:
            self.compress()

    def extend(self, values) -> None:
        for v in values:
            self.insert(v)

    def compress(self) -> None:
        """Merge adjacent tuples while the GK maintenance condition allows.

        Right-to-left pass; tuple i is folded into its current right
        neighbour when g_i + g_next + delta_next <= floor(2*eps*n) and the
        band condition holds.  The extreme tuples are never removed, so the
        exact minimum and maximum stay queryable.
        """
        if len(self._values) < 3:
            return
        threshold = math.floor(2.0 * self.epsilon * self._count)
        if threshold < 2:
            return
        values, gs, deltas = self._values, self._g, self._delta
        kept_v = [values[-1]]
        kept_g = [gs[-1]]
        kept_d = [deltas[-1]]
        for i in range(len(values) - 2, 0, -1):
            if (
                gs[i] + kept_g[-1] + kept_d[-1] <= threshold
                and _band(deltas[i], threshold) <= _band(kept_d[-1], threshold)
            ):
                kept_g[-1] += gs[i]
            else:
                kept_v.append(values[i])
                kept_g.append(gs[i])
                kept_d.append(deltas[i])
        kept_v.append(values[0])
        kept_g.append(gs[0])
        kept_d.append(deltas[0])
        kept_v.reverse()
        kept_g.reverse()
        kept_d.reverse()
        self._values, self._g, self._delta = kept_v, kept_g, kept_d

    def seal(self) -> "QuantileSketch":
        """Freeze the sketch; queries remain available, insertion does not."""
        self._sealed = True
        return self

    def summary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored values with their rank bounds: (values, r_min, r_max).

        r_min = cumsum(g) and r_max = r_min + delta, as fresh arrays.
        """
        rmin = np.cumsum(np.asarray(self._g, dtype=np.int64))
        return (np.asarray(self._values, dtype=float), rmin,
                rmin + np.asarray(self._delta, dtype=np.int64))

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
