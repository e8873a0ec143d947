"""Approximate empirical CDFs built from epsilon-approximate quantiles.

A CDF approximation is the pair of vectors (probs, quantiles): `a`
equi-spaced probabilities from 1/N to 1 and the quantile summary's answers
at those probabilities.  Linear interpolation between the knots gives a
function within delta = 1/(a-1) + epsilon of the exact empirical CDF at
every sample value.  Between values, and at a value's left limit, the
property tests find errors up to delta + 1/N, a bound not proven here.
Where the summary holds few distinct values most knots repeat a quantile;
an ApproxCdf stores only the first and last knot of each run of equal
quantiles, which interpolate to the same function.

For a target delta the knot count / query accuracy trade-off follows the
hyperbola a = 1/(delta - epsilon) + 1; `eps45` picks the unit-slope point
of that curve (in coordinates a/N versus epsilon/delta), which fixes both
parameters in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gk_sketch import QuantileSketch, _check_finite

__all__ = [
    "CdfPlan",
    "ApproxCdf",
    "eps45",
    "num_probs",
    "plan_from_phi",
    "build_cdf",
    "eval_cdf",
    "error_bound",
    "empirical_cdf",
]

_QUERY_KNOTS = 1 << 12  # knots `build_cdf` queries of a sketch at a time


def _bound(a: int, epsilon: float) -> float:
    # the one certification rule: a plan holds iff this is <= delta
    return 1.0 / (a - 1) + epsilon


@dataclass(frozen=True)
class CdfPlan:
    """Approximation parameters: sample size, error bound, knot count.

    Invariant: 1/(a-1) + epsilon <= delta (the certified error bound), with
    3 <= a <= n and 0 <= epsilon < delta < 1.
    """

    n: int
    delta: float
    epsilon: float
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 <= self.epsilon < self.delta:
            raise ValueError(
                f"epsilon must satisfy 0 <= epsilon < delta, got {self.epsilon}"
            )
        if not 3 <= self.a <= self.n:
            raise ValueError(f"a must be in [3, n], got a={self.a}, n={self.n}")
        if _bound(self.a, self.epsilon) > self.delta:
            raise ValueError(
                f"plan violates its error bound: 1/(a-1) + epsilon = "
                f"{_bound(self.a, self.epsilon)} > delta = {self.delta}"
            )


class ApproxCdf:
    """Immutable approximate CDF: quantiles at the plan's probability knots.

    It takes the quantiles at all `plan.a` equi-spaced probabilities from
    1/n to 1, and stores `probs` and `quantiles` at the run ends of that
    grid: the first and last knot of each run of equal quantiles.  Along a
    run the interpolant is the step the run's last knot gives, so the
    stored knots interpolate to the function of the full grid, and
    `error_bound(plan)` certifies every ApproxCdf at every sample value.
    `knots()` gives the full grid back.  `build_cdf` never holds a
    sketch's full grid: it keeps the same run ends from the grid queried
    block by block.
    """

    def __init__(self, plan: CdfPlan, quantiles: np.ndarray):
        quantiles = np.asarray(quantiles, dtype=float)
        if quantiles.shape != (plan.a,):
            raise ValueError(
                f"quantiles must be 1-d with the plan's a = {plan.a} entries, "
                f"got shape {quantiles.shape}"
            )
        self._keep_run_ends(plan, _knot_probs(plan.n, plan.a), quantiles)

    def _keep_run_ends(self, plan, probs, quantiles) -> None:
        # knots (probs, quantiles) that hold every run end of the full grid,
        # such as the grid itself: the rule keeps exactly those run ends, and
        # the checks on them are the checks on the grid
        _check_finite(quantiles, "quantiles")
        if np.any(quantiles[1:] < quantiles[:-1]):  # a difference can overflow
            raise ValueError("quantiles must be non-decreasing")
        keep = _run_ends(quantiles)
        self.plan = plan
        self.probs = probs[keep]
        self.quantiles = quantiles[keep]
        self.probs.flags.writeable = self.quantiles.flags.writeable = False

    def knots(self) -> tuple[np.ndarray, np.ndarray]:
        """All `plan.a` knots (probs, quantiles): each dropped knot inside a
        run takes the quantile of the run's last knot."""
        probs = _knot_probs(self.plan.n, self.plan.a)
        return probs, self.quantiles[np.searchsorted(self.probs, probs)]


def eps45(delta: float, n: int) -> float:
    """Quantile-query error at the unit-slope point of the trade-off curve.

    Equals delta - sqrt(delta/n), clamped at 0 (no approximation) when the
    sample is too small for the requested bound.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return max(0.0, delta - math.sqrt(delta / n))


def num_probs(n: int, delta: float, epsilon: float) -> int:
    """Number of probability knots needed for the bound delta at accuracy epsilon.

    ceil(1/(delta - epsilon) + 1), capped at n, plus one knot where float
    rounding of that quotient leaves 1/(a-1) + epsilon above delta.  Below
    the cap the count therefore certifies the bound.  A quotient that
    overflows, at a subnormal delta - epsilon, is over the cap.
    """
    if epsilon >= delta:
        raise ValueError(f"epsilon must be < delta, got {epsilon} >= {delta}")
    q = 1.0 / (delta - epsilon) + 1.0
    a = n if q >= n else math.ceil(q)
    if a < n and _bound(a, epsilon) > delta:
        a += 1
    return a


def plan_from_phi(phi: float, n: int) -> CdfPlan:
    """Plan a CDF whose contribution to a KS-distance error stays under phi/2.

    Never plans epsilon = 0: eps45 is 0 only when delta <= 1/n, and then
    a = n, whose bound 1/(n-1) exceeds delta, so the sample is refused.
    """
    if not 0 < phi < 2:
        raise ValueError(f"phi must be in (0, 2) (delta = phi/2 in (0, 1)), got {phi}")
    delta = phi / 2.0
    epsilon = eps45(delta, n)
    a = num_probs(n, delta, epsilon)
    if a < 3 or _bound(a, epsilon) > delta:
        raise ValueError(
            f"sample of {n} points cannot reach a CDF error bound of {delta}")
    return CdfPlan(n=n, delta=delta, epsilon=epsilon, a=a)


def _knot_probs(n: int, a: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    # p_i = 1/n + i*(1 - 1/n)/(a-1) for start <= i < stop (default a);
    # endpoints pinned exactly
    stop = a if stop is None else stop
    first = 1.0 / n
    probs = first + np.arange(start, stop) * ((1.0 - first) / (a - 1))
    if stop == a:
        probs[-1] = 1.0
    return probs


def _ends(s: np.ndarray) -> np.ndarray:
    """Mask of the last entry of each run of equal values in s: each entry
    that differs from the next one, and the final entry (none if s is
    empty)."""
    ends = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=ends[:-1])
    ends[-1:] = True
    return ends


def _run_ends(quantiles: np.ndarray) -> np.ndarray:
    """Mask of the first and last knot of each run of equal quantiles
    (non-empty): a run's first knot is the grid's first or follows a run's
    last.  The shifted OR reads its operands as they were before it."""
    keep = _ends(quantiles)
    keep[1:] |= keep[:-1]
    keep[0] = True
    return keep


def build_cdf(data, plan: CdfPlan) -> ApproxCdf:
    """Construct the approximate CDF under `plan` of its sample, `data`,
    or of a sketch of it, anything with `query_quantiles`.

    A sketch must hold plan.n values at plan.epsilon or finer, so its
    quantile answers meet the accuracy the plan's bound assumes; a sample
    is read off its sealed sketch at plan.epsilon.  epsilon = 0 bypasses
    the sketch and reads a sample's exact order statistics from a full
    sort, at ranks ceil(p_i*n) = 1 + ceil(i*(n-1)/(a-1)) in integers.
    """
    sketch = data if hasattr(data, "query_quantiles") else None
    if sketch is None:
        data = np.asarray(data, dtype=float).ravel()
    count = data.size if sketch is None else sketch.count
    if count != plan.n:
        raise ValueError(f"plan expects {plan.n} observations, got {count}")
    if sketch is None:
        if plan.epsilon == 0.0:
            _check_finite(data, "data")  # `extend` checks the sketch branch
            n, a = plan.n, plan.a
            quantiles = np.sort(data)[-(-np.arange(a) * (n - 1) // (a - 1))]
            return ApproxCdf(plan, quantiles)
        sketch = _sealed(data, plan.epsilon)
    elif sketch.epsilon > plan.epsilon:
        raise ValueError(
            f"sketch epsilon {sketch.epsilon} is coarser than the plan's {plan.epsilon}"
        )
    # the grid is queried _QUERY_KNOTS knots at a time, each knot once, and
    # each block keeps its run ends, its own first and last knot among them.
    # A knot inside a block has both neighbours there, and a block end is
    # kept, so every run end of the full grid is kept; `_keep_run_ends`
    # then drops the block ends that lie inside a run.
    probs, quantiles = [], []
    for start in range(0, plan.a, _QUERY_KNOTS):
        stop = min(start + _QUERY_KNOTS, plan.a)
        p = _knot_probs(plan.n, plan.a, start, stop)
        q = sketch.query_quantiles(p)
        keep = _run_ends(q)
        probs.append(p[keep])
        quantiles.append(q[keep])
    cdf = ApproxCdf.__new__(ApproxCdf)  # __init__ takes the full grid
    cdf._keep_run_ends(plan, np.concatenate(probs), np.concatenate(quantiles))
    return cdf


def _sealed(values: np.ndarray, epsilon: float) -> QuantileSketch:
    """A sealed sketch of values at epsilon."""
    sketch = QuantileSketch(epsilon)
    sketch.extend(values)
    return sketch.seal()


def eval_cdf(cdf: ApproxCdf, x):
    """Piecewise-linear interpolation of the knots at x (scalar or array).

    Clamps to probs[0] below the first knot and to 1 above the last; at a
    run of duplicate knots returns the largest tied probability (step
    behaviour, keeps the function monotone).
    """
    q, p = cdf.quantiles, cdf.probs
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    _check_finite(xs, "x")
    idx = np.searchsorted(q, xs, side="right")
    out = np.where(idx == 0, p[0], 1.0)
    mid = (idx > 0) & (idx < q.size)
    if np.any(mid):
        hi = idx[mid]
        lo = hi - 1
        # q[lo] <= x < q[hi] and q[hi] > q[lo]; at x == q[lo] this yields
        # p[lo], the largest probability of a duplicate run (side="right").
        with np.errstate(over="ignore", invalid="ignore"):
            frac = q[hi] - q[lo]
            wide = np.flatnonzero(np.isinf(frac))
            np.divide(xs[mid] - q[lo], frac, out=frac)
        if wide.size:
            # the span overflows; halving every operand keeps the fraction
            x, left, right = xs[mid][wide] / 2, q[lo[wide]] / 2, q[hi[wide]] / 2
            frac[wide] = (x - left) / (right - left)
        out[mid] = p[lo] + frac * (p[hi] - p[lo])
    return float(out[0]) if scalar else out


def error_bound(plan: CdfPlan) -> float:
    """Certified bound on |approximate CDF - exact empirical CDF| at
    every sample value."""
    return _bound(plan.a, plan.epsilon)


def empirical_cdf(sample, x):
    """Exact right-continuous empirical CDF: F(x) = #{v <= x} / n.

    `sample` may be pre-sorted or not; x scalar or array.  Both must be
    finite, and the sample non-empty.
    """
    ordered = np.sort(np.asarray(sample, dtype=float).ravel())
    if ordered.size == 0:
        raise ValueError("sample must be non-empty")
    xs = np.asarray(x, dtype=float)
    _check_finite(ordered, "sample")
    _check_finite(xs, "x")
    scalar = xs.ndim == 0
    ranks = np.searchsorted(ordered, np.atleast_1d(xs), side="right")
    out = ranks / ordered.size
    return float(out[0]) if scalar else out
