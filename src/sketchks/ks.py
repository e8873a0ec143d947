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
from .gk_sketch import QuantileSketch, _check_finite

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
    gets an error budget of phi/2.  To plan phi from a p-value precision
    beta instead, pass `phi_for_test(alpha, beta, n, m)`.
    """

    alpha: float
    phi: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 < self.phi < 2:
            raise ValueError(f"phi must be in (0, 2), got {self.phi}")


def exact_ks_distance(x, y) -> float:
    """sup_t |F1(t) - F2(t)| of the empirical CDFs, correctly rounded.

    F1 and F2 are right-continuous.  With c_x(t), c_y(t) the counts of
    values <= t in samples of n and m,
    D = max_t |c_x(t)*m - c_y(t)*n| / (n*m).  Between consecutive x values
    F1 is flat and F2 can only grow, so sup (F1 - F2) is reached at an x
    value, and sup (F2 - F1) at a y value by symmetry; the larger of the
    two is D, and it is >= 0 because both differences are 0 at the pooled
    maximum.  Within a tie group c_x is largest at the group's value, so
    each sample is probed only at its tie-group ends: one linear mask on
    the sorted sample and one searchsorted into the other sample, with no
    pooled sort.  Each product is at most n*m < 2**63, so the counts stay
    exact in int64, and the one int/int division rounds once.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    _check_finite(xs, "x")
    _check_finite(ys, "y")
    n, m = xs.size, ys.size
    if n * m >= 2**63:
        raise ValueError(f"n*m must be below 2**63 for int64 counts, got {n}*{m}")
    return max(_lead(xs, ys), _lead(ys, xs)) / (n * m)


def _ends(s: np.ndarray) -> np.ndarray:
    """Mask of the last entry of each run of equal values in sorted s (non-empty)."""
    ends = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=ends[:-1])
    ends[-1] = True
    return ends


def _lead(a: np.ndarray, b: np.ndarray) -> int:
    """max over the tie-group ends t of sorted a of #(a <= t)*|b| - #(b <= t)*|a|."""
    ends = _ends(a)
    # the probe values a[ends] are freed before ca exists: two
    # group-length arrays live at a time, and the arithmetic is in place
    cb = np.searchsorted(b, a[ends], side="right")
    ca = np.flatnonzero(ends)
    ca += 1
    ca *= b.size
    cb *= a.size
    ca -= cb
    return int(ca.max())


def approx_two_sample_ks(cdf1: ApproxCdf, cdf2: ApproxCdf) -> float:
    """KS distance estimate from two approximate CDFs.

    Largest absolute difference between the two interpolants over the union
    of their knots.  Tie-group ends suffice: every knot of a run of tied
    knots is the same x, so both interpolants, and their difference, repeat
    one value along the run.  There a CDF's own interpolant gives the
    largest tied probability, which is the stored probability at the run's
    end (side="right"), exactly.  So each CDF is probed only at its own
    tie-group ends, its own side read off `probs` and the other side from
    one `eval_cdf` call.  On heavily tied quantiles that is a few hundred
    probes instead of every knot.  Identical CDFs give exactly 0.  The
    result is within delta1 + delta2 of the exact two-sample distance.
    """
    # np.maximum propagates a NaN, which KsOutcome then rejects
    return float(np.maximum(_gap(cdf1, cdf2), _gap(cdf2, cdf1)))


def _gap(own: ApproxCdf, other: ApproxCdf) -> float:
    """max |other - own| over the tie-group ends of own's knots."""
    ends = _ends(own.quantiles)
    diff = eval_cdf(other, own.quantiles[ends])
    diff -= own.probs[ends]
    np.abs(diff, out=diff)
    return diff.max()


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

    Bracket [1e-6, 10] covers Q in [Q(10), 1) with Q(10) ~ 2.8e-87, and a
    smaller alpha raises; stops when |Q - alpha| <= min(1e-10, 1e-6*alpha),
    so the p_value round trip holds to 1e-6 of alpha at any level.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alpha < qks(10.0):
        raise ValueError(f"alpha must be at least Q(10) = {qks(10.0):.3g}, got {alpha}")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    tol = min(1e-10, 1e-6 * alpha)
    lo, hi = 1e-6, 10.0
    lam = 0.5 * (lo + hi)
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        q = qks(lam)
        if abs(q - alpha) <= tol:
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
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
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
    stays within the target precision of the exact distance.  It is
    max |(lo1+hi1)*m - (lo2+hi2)*n| / (2*n*m), taken in int64 (each term is
    at most 2*n*m < 2**63) and divided once, so it is correctly rounded.
    Either sketch may still be open for writes; an empty one raises
    SketchStateError from `rank_bounds`.
    """
    values = np.union1d(sketch1.summary()[0], sketch2.summary()[0])
    lo1, hi1 = sketch1.rank_bounds(values)
    lo2, hi2 = sketch2.rank_bounds(values)
    n, m = sketch1.count, sketch2.count
    if 2 * n * m >= 2**63:
        raise ValueError(f"2*n*m must be below 2**63 for int64 counts, got {n}*{m}")
    lo1 += hi1
    lo1 *= m
    lo2 += hi2
    lo2 *= n
    lo1 -= lo2
    np.abs(lo1, out=lo1)
    return int(lo1.max()) / (2 * n * m)


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
