"""Approximate empirical CDFs built from epsilon-approximate quantiles.

A CDF approximation is the pair of vectors (probs, quantiles): `a`
equi-spaced probabilities from 1/N to 1 and the quantile summary's answers
at those probabilities.  Linear interpolation between the knots gives a
function within delta = 1/(a-1) + epsilon of the exact empirical CDF.

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

    The knots are always `plan.a` equi-spaced probabilities from 1/n to 1,
    so `error_bound(plan)` certifies every ApproxCdf.
    """

    def __init__(self, plan: CdfPlan, quantiles: np.ndarray):
        quantiles = np.asarray(quantiles, dtype=float)
        if quantiles.shape != (plan.a,):
            raise ValueError(
                f"quantiles must be 1-d with the plan's a = {plan.a} entries, "
                f"got shape {quantiles.shape}"
            )
        _check_finite(quantiles, "quantiles")
        if np.any(quantiles[1:] < quantiles[:-1]):  # a difference can overflow
            raise ValueError("quantiles must be non-decreasing")
        self.plan = plan
        self.probs = _knot_probs(plan.n, plan.a)
        self.quantiles = quantiles
        self.probs.flags.writeable = quantiles.flags.writeable = False


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
    """Number of probability knots needed for the bound delta at accuracy epsilon."""
    if epsilon >= delta:
        raise ValueError(f"epsilon must be < delta, got {epsilon} >= {delta}")
    return min(math.ceil(1.0 / (delta - epsilon) + 1.0), n)


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
    if a < n and _bound(a, epsilon) > delta:
        a += 1  # float rounding of 1/(delta - epsilon) fell one knot short
    if a < 3 or _bound(a, epsilon) > delta:
        raise ValueError(
            f"sample of {n} points cannot reach a CDF error bound of {delta}"
        )
    return CdfPlan(n=n, delta=delta, epsilon=epsilon, a=a)


def _knot_probs(n: int, a: int) -> np.ndarray:
    # p_i = 1/n + i*(1 - 1/n)/(a-1); endpoints pinned exactly
    first = 1.0 / n
    probs = first + np.arange(a) * ((1.0 - first) / (a - 1))
    probs[-1] = 1.0
    return probs


def build_cdf(data, plan: CdfPlan) -> ApproxCdf:
    """Construct the approximate CDF of `data` under `plan`.

    epsilon = 0 bypasses the sketch and reads exact order statistics from a
    full sort, at ranks ceil(p_i*n) = 1 + ceil(i*(n-1)/(a-1)) in integers.
    """
    values = np.asarray(data, dtype=float).ravel()
    if values.size != plan.n:
        raise ValueError(f"plan expects {plan.n} observations, got {values.size}")
    if plan.epsilon == 0.0:
        _check_finite(values, "data")  # `extend` checks the sketch branch
        n, a = plan.n, plan.a
        quantiles = np.sort(values)[-(-np.arange(a) * (n - 1) // (a - 1))]
    else:
        sketch = QuantileSketch(plan.epsilon)
        sketch.extend(values)
        sketch.seal()
        # knots are made after ingest and dropped before ApproxCdf rebuilds them
        quantiles = sketch.query_quantiles(_knot_probs(plan.n, plan.a))
    return ApproxCdf(plan, quantiles)


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
    """Certified bound on |approximate CDF - exact empirical CDF|."""
    return _bound(plan.a, plan.epsilon)


def empirical_cdf(sample, x):
    """Exact right-continuous empirical CDF: F(x) = #{v <= x} / n.

    `sample` may be pre-sorted or not; x scalar or array.  Both must be
    finite.
    """
    ordered = np.sort(np.asarray(sample, dtype=float).ravel())
    xs = np.asarray(x, dtype=float)
    _check_finite(ordered, "sample")
    _check_finite(xs, "x")
    scalar = xs.ndim == 0
    ranks = np.searchsorted(ordered, np.atleast_1d(xs), side="right")
    out = ranks / ordered.size
    return float(out[0]) if scalar else out
