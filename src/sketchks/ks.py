"""Two-sample Kolmogorov-Smirnov distances, significance, and test setup.

Three routes to the KS distance: exact (full sort of both samples),
approximate (interpolated CDFs built from quantile summaries, error bounded
by the sum of the CDF bounds), and sketch-direct (midpoint rank estimates
read straight off two GK summaries).  Significance uses the asymptotic
distribution Q(lambda) = 2 * sum_k (-1)^(k-1) exp(-2 k^2 lambda^2) of the
scaled statistic sqrt(n*m/(n+m)) * D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_cdf import ApproxCdf, CdfPlan, build_cdf, eval_cdf, plan_from_phi
from .gk_sketch import QuantileSketch, SketchStateError, _check_finite

__all__ = [
    "KsOutcome",
    "TestPrecision",
    "exact_ks_distance",
    "approx_two_sample_ks",
    "qks",
    "p_value",
    "d_crit",
    "phi_for_test",
    "lall_ks",
    "run_test",
]

# p-values below this are printed as 0.0 in experiment outputs; the raw
# value is kept in KsOutcome.
P_VALUE_FLOOR = 1e-300


def fmt17(x: float) -> str:
    """Round-trip text of a float: 17 significant digits."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class KsOutcome:
    """Result of one two-sample test.

    `plans` holds the CDF plans built for the two samples, in argument
    order; it is not part of `to_json()`.
    """

    d: float
    d_error_bound: float
    p_value: float
    n: int
    m: int
    alpha: float
    reject: bool
    plans: tuple[CdfPlan, CdfPlan] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.d <= 1:
            raise ValueError(f"d must be in [0, 1], got {self.d}")
        if not 0 <= self.p_value <= 1:
            raise ValueError(f"p_value must be in [0, 1], got {self.p_value}")
        if self.reject != (self.p_value <= self.alpha):
            raise ValueError("reject flag inconsistent with p_value and alpha")

    def to_json(self) -> str:
        """JSON with 17 significant digit decimals, fixed key order."""
        fields = [
            ("d_ks", fmt17(self.d)),
            ("d_error_bound", fmt17(self.d_error_bound)),
            ("p_value", fmt17(self.p_value)),
            ("n", str(self.n)),
            ("m", str(self.m)),
            ("alpha", fmt17(self.alpha)),
            ("reject", "true" if self.reject else "false"),
        ]
        return "{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}"


@dataclass(frozen=True)
class TestPrecision:
    """Significance level plus the precision budget for the distance estimate.

    `phi` is the required precision in the KS distance; each of the two CDFs
    gets an error budget of phi/2.  `from_alpha_beta` derives phi from a
    p-value precision beta: the smaller shift of the critical distance
    between alpha and alpha +/- beta.
    """

    alpha: float
    phi: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 < self.phi < 2:
            raise ValueError(f"phi must be in (0, 2), got {self.phi}")

    @classmethod
    def from_alpha_beta(
        cls, alpha: float, beta: float, n: int, m: int
    ) -> "TestPrecision":
        return cls(alpha=alpha, phi=phi_for_test(alpha, beta, n, m))


def exact_ks_distance(x, y) -> float:
    """sup_t |F1(t) - F2(t)| for right-continuous empirical CDFs.

    Merged scan of both sorted samples; tie groups advance jointly because
    the difference is evaluated on the pooled unique values.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    _check_finite(xs, "x")
    _check_finite(ys, "y")
    pooled = np.union1d(xs, ys)
    f1 = np.searchsorted(xs, pooled, side="right") / xs.size
    f2 = np.searchsorted(ys, pooled, side="right") / ys.size
    return float(np.max(np.abs(f1 - f2)))


def approx_two_sample_ks(cdf1: ApproxCdf, cdf2: ApproxCdf) -> float:
    """KS distance estimate from two approximate CDFs.

    Largest absolute difference between the two interpolants over the union
    of their knots; at a distinct knot the interpolant reproduces the stored
    probability, so this is evaluating each CDF at the other's knots.
    (Routing tied knots through the interpolant keeps the step convention
    consistent on both sides, so identical CDFs give exactly 0.)  The result
    is within delta1 + delta2 of the exact two-sample distance.
    """
    d1 = np.max(np.abs(eval_cdf(cdf1, cdf1.quantiles) - eval_cdf(cdf2, cdf1.quantiles)))
    d2 = np.max(np.abs(eval_cdf(cdf1, cdf2.quantiles) - eval_cdf(cdf2, cdf2.quantiles)))
    # np.maximum propagates a NaN, which KsOutcome then rejects
    return float(np.maximum(d1, d2))


def qks(lam: float) -> float:
    """Asymptotic KS survival function Q(lambda), clamped to [0, 1].

    Alternating series truncated when a term drops below 1e-12 of the
    running sum or after 100 terms; lambda below 1e-3 (or a series that
    fails to converge there) returns 1.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if lam < 1e-3:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * 2.0 * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) <= 1e-12 * abs(total):
            if total >= 1.0 - 1e-12:  # snap truncation wiggle near 1
                return 1.0
            return max(0.0, total)
        sign = -sign
    return 1.0


def p_value(d: float, n: int, m: int) -> float:
    """Significance of an observed two-sample distance d."""
    if not 0 <= d <= 1:
        raise ValueError(f"d must be in [0, 1], got {d}")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    return qks(math.sqrt(n * m / (n + m)) * d)


def d_crit(alpha: float, n: int, m: int) -> float:
    """Distance whose p-value equals alpha, by bisection on lambda.

    Bracket [1e-6, 10] covers Q in (~0, 1); stops when |Q - alpha| <= 1e-10,
    so the p_value round trip holds to well under 1e-8.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    lo, hi = 1e-6, 10.0
    lam = 0.5 * (lo + hi)
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        q = qks(lam)
        if abs(q - alpha) <= 1e-10:
            break
        if q > alpha:
            lo = lam
        else:
            hi = lam
    return lam / math.sqrt(n * m / (n + m))


def phi_for_test(alpha: float, beta: float, n: int, m: int) -> float:
    """Distance precision matching a p-value precision beta at level alpha.

    The smaller of the critical-distance shifts |d_crit(alpha +/- beta) -
    d_crit(alpha)|.  For the paper's two reported configurations this
    evaluates to 0.001086 and 0.001240, not the 0.000399 / 0.00077 quoted
    there.  The experiment presets pin the quoted values directly (see
    experiments module); they are stricter than this definition's values,
    and acceptance criterion 6b checks both that and this function against
    an independent inversion.
    """
    for g in (alpha + beta, alpha - beta):
        if not 0 < g < 1:
            raise ValueError(f"alpha +/- beta must be in (0, 1), got {g}")
    base = d_crit(alpha, n, m)
    up = d_crit(alpha + beta, n, m)
    down = d_crit(alpha - beta, n, m)
    return min(abs(up - base), abs(down - base))


def lall_ks(sketch1: QuantileSketch, sketch2: QuantileSketch) -> float:
    """Sketch-direct KS distance from midpoint rank estimates.

    Over the union of values stored in either summary, estimates each
    sample's CDF as (r_min + r_max) / (2n) and returns the largest absolute
    difference.  With each sketch built at epsilon = precision/6 the result
    stays within the target precision of the exact distance.
    """
    for s in (sketch1, sketch2):
        if not s.sealed:
            raise SketchStateError("lall_ks requires sealed sketches")
        if s.count == 0:
            raise SketchStateError("lall_ks requires non-empty sketches")
    values = np.union1d(sketch1.summary()[0], sketch2.summary()[0])
    lo1, hi1 = sketch1.rank_bounds(values)
    lo2, hi2 = sketch2.rank_bounds(values)
    n, m = sketch1.count, sketch2.count
    return float(np.max(np.abs((lo1 + hi1) / (2.0 * n) - (lo2 + hi2) / (2.0 * m))))


def run_test(x, y, precision: TestPrecision) -> KsOutcome:
    """Approximate two-sample KS test at the given precision.

    Plans one CDF per sample with error budget phi/2, estimates the
    distance, and converts it to a significance decision at
    precision.alpha.  The outcome carries the two plans it used.
    """
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    plans = (plan_from_phi(precision.phi, xs.size),
             plan_from_phi(precision.phi, ys.size))
    d = approx_two_sample_ks(build_cdf(xs, plans[0]), build_cdf(ys, plans[1]))
    p = p_value(d, xs.size, ys.size)
    return KsOutcome(
        d=d,
        d_error_bound=precision.phi,
        p_value=p,
        n=xs.size,
        m=ys.size,
        alpha=precision.alpha,
        reject=p <= precision.alpha,
        plans=plans,
    )
