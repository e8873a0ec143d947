"""Two-sample Kolmogorov-Smirnov distances, significance, and test setup.

Three routes to the KS distance: exact (full sort of both samples),
approximate (interpolated CDFs built from quantile summaries, error bounded
by the sum of the CDF bounds), and sketch-direct (a midpoint estimate and
certified bounds, read straight off two GK summaries' rank intervals).
Significance uses the asymptotic distribution Q(lambda) = 2 * sum_k
(-1)^(k-1) exp(-2 k^2 lambda^2) of the scaled statistic
sqrt(n*m/(n+m)) * D.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .approx_cdf import (ApproxCdf, CdfPlan, build_cdf, eval_cdf, plan_from_phi,
                         _ends, _sealed)
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
    "distance_interval",
    "run_test",
]

# the exact oracle's cut spacing per sample: bounds one merge's temporaries
_PROBE_BLOCK = 1 << 11
_COUNT_EPSILON = 0.5  # epsilon of a count-only read: coarsest, fewest tuples


def fmt17(x: float) -> str:
    """Round-trip text of a float: 17 significant digits."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class KsOutcome:
    """Result of one two-sample test: the distance estimate d, the level
    alpha and the CDF plans built for the two samples, in argument order.

    The rest is read off these three, so it cannot disagree with them:
    the sample sizes are the plans' n, the error bound on d is the sum of
    the plans' deltas (each CDF is within its delta of its sample's
    empirical CDF), the p-value is `p_value(d, n, m)`, the null is
    rejected when p_value <= alpha, and the decision is certain when every
    distance within the error bound of d decides the same (not in JSON).
    """

    d: float
    alpha: float
    plans: tuple[CdfPlan, CdfPlan]

    def __post_init__(self) -> None:
        if not 0 <= self.d <= 1:
            raise ValueError(f"d must be in [0, 1], got {self.d}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def n(self) -> int:
        return self.plans[0].n

    @property
    def m(self) -> int:
        return self.plans[1].n

    @property
    def d_error_bound(self) -> float:
        return self.plans[0].delta + self.plans[1].delta

    @property
    def p_value(self) -> float:
        return p_value(self.d, self.n, self.m)

    @property
    def reject(self) -> bool:
        return self.p_value <= self.alpha

    @property
    def decision_certain(self) -> bool:
        """Whether every distance within d_error_bound of d decides as d does.

        True iff p_value(max(0, d - d_error_bound)) <= alpha (all reject) or
        p_value(min(1, d + d_error_bound)) > alpha (all accept).  The exact
        distance D is one of them and p_value does not increase with the
        distance, so a certain decision is the exact test's.
        """
        bound, n, m = self.d_error_bound, self.n, self.m
        return (p_value(max(0.0, self.d - bound), n, m) <= self.alpha
                or p_value(min(1.0, self.d + bound), n, m) > self.alpha)

    def to_json(self) -> str:
        """JSON with 17 significant digit decimals, fixed key order; the
        params block holds the plans (its delta is x's, followed by
        delta_y only where y's plan has another delta)."""
        x, y = self.plans
        params = {"phi": fmt17(self.d_error_bound), "delta": fmt17(x.delta)}
        if y.delta != x.delta:
            params["delta_y"] = fmt17(y.delta)
        params.update(epsilon_x=fmt17(x.epsilon), epsilon_y=fmt17(y.epsilon),
                      a_x=x.a, a_y=y.a)
        return _json_object({
            "d_ks": fmt17(self.d),
            "d_error_bound": fmt17(self.d_error_bound),
            "p_value": fmt17(self.p_value),
            "n": self.n,
            "m": self.m,
            "alpha": fmt17(self.alpha),
            "reject": "true" if self.reject else "false",
            "params": _json_object(params),
        })


def _json_object(fields: dict) -> str:
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


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
    D = max_t |c_x(t)*m - c_y(t)*n| / (n*m).  Both counts change only at
    a pooled value, so the supremum is reached at one; within a run of
    equal pooled values (a pooled tie group) both counts are largest at
    the run's end, where they count the whole group, so only the pooled
    tie-group ends are read.  Each product is at most n*m < 2**63, so the
    counts stay exact in int64, and the one int/int division rounds once.

    This function sorts a copy of each sample and hands both to the
    private kernel `_sorted_ks_distance`, which checks them and reads
    them through one plan of cuts.  So the working memory is the two
    sorted copies, 8 bytes per input value, plus the plan, ~10 words per
    cut (~0.08 MB at 10**6 a side), and one merge of fewer than
    _PROBE_BLOCK values a side, ~25 bytes a merged value (~0.1 MB).  A
    caller that owns its samples and is done with their order can sort
    them in place and call the kernel, which copies nothing.
    """
    return _sorted_ks_distance(np.sort(np.asarray(x, dtype=float).ravel()),
                               np.sort(np.asarray(y, dtype=float).ravel()))


def _sorted_ks_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """`exact_ks_distance` of two float arrays already sorted ascending.

    Raises as `exact_ks_distance` does: on an empty or non-finite sample,
    and when n*m reaches 2**63.  Reads xs and ys in place through one
    plan of cuts: -inf, every _PROBE_BLOCK-th value of each sample and
    the pooled maximum, each once.  Four vectorized binary searches give
    each sample's counts below and through every cut; those through a
    cut hold its whole tie group, so a long group costs one cut, and
    their largest |c_x*m - c_y*n| is the first lead.  Every other pooled
    value lies strictly between two cuts, with fewer than _PROBE_BLOCK
    values a side, and there each count lies between its count through
    the lower cut and its count below the upper one: a cell, whose
    `_one_sided` bounds bound |c_x*m - c_y*n| there (an empty interval's
    bound is its value at the lower cut).  `_merged_lead` merges only the
    intervals whose bound beats the lead so far.  The lead, a Python int,
    is divided once.
    """
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    # a sorted sample's extremes are its ends (a sort puts NaN last)
    _check_finite(xs[[0, -1]], "x")
    _check_finite(ys[[0, -1]], "y")
    n, m = xs.size, ys.size
    if n * m >= 2**63:
        raise ValueError(f"n*m must be below 2**63 for int64 counts, got {n}*{m}")
    every = slice(_PROBE_BLOCK - 1, None, _PROBE_BLOCK)
    cuts = np.concatenate(([-np.inf], xs[every], ys[every], [max(xs[-1], ys[-1])]))
    cuts.sort()
    cuts = cuts[_ends(cuts)]
    below_x, through_x = xs.searchsorted(cuts), xs.searchsorted(cuts, "right")
    below_y, through_y = ys.searchsorted(cuts), ys.searchsorted(cuts, "right")
    lead = int(np.abs(through_x * m - through_y * n).max())
    # interval k lies strictly between cuts k and k + 1
    bound = np.maximum(*_one_sided(n, m, through_x[:-1], below_x[1:],
                                   through_y[:-1], below_y[1:]))
    for k in np.flatnonzero(bound > lead).tolist():
        if bound[k] > lead:
            i, j = int(through_x[k]), int(through_y[k])
            lead = max(lead, _merged_lead(xs[i:below_x[k + 1]], ys[j:below_y[k + 1]],
                                          i * m - j * n, n, m))
    return lead / (n * m)


def _merged_lead(a: np.ndarray, b: np.ndarray, base: int, n: int, m: int) -> int:
    """max |c_x*m - c_y*n| over the pooled tie-group ends of a run a of
    sorted x values and a run b of sorted y values, with base the value of
    c_x*m - c_y*n just below both runs; a and b are not both empty.

    One stable argsort of the concatenation merges the two runs (timsort
    finds them and merges them in linear time).  A running sum in int64 of
    +m for each x value and -n for each y value, from base, is
    c_x*m - c_y*n after each value, and it is read at the pooled tie-group
    ends, where each count holds its whole group.  At most three float or
    index arrays of the pooled length, ~25 bytes a pooled value, are
    alive at a time, all freed on return.
    """
    pooled = np.concatenate((a, b))
    lead = pooled.argsort(kind="stable")
    pooled = pooled[lead]
    # the merged order's x mask, then the steps written over the order
    np.multiply(lead < a.size, m + n, out=lead)
    lead -= n
    lead[0] += base
    np.cumsum(lead, out=lead)
    np.abs(lead, out=lead)
    return int(lead.max(where=_ends(pooled), initial=0))


def approx_two_sample_ks(cdf1: ApproxCdf, cdf2: ApproxCdf) -> float:
    """KS distance estimate from two approximate CDFs.

    Largest absolute difference between the two interpolants over the union
    of their knots.  Tie-group ends suffice: every knot of a run of tied
    knots is the same x, so both interpolants, and their difference, repeat
    one value along the run.  There a CDF's own interpolant gives the
    largest tied probability, which is the stored probability at the run's
    end (side="right"), exactly.  An ApproxCdf stores each run's first and
    last knot, so each CDF is probed only at its stored tie-group ends, its
    own side read off `probs` and the other side from one `eval_cdf` call.
    On heavily tied quantiles that is a few hundred probes instead of every
    knot.  Identical CDFs give exactly 0.  The result is within
    delta1 + delta2 of the exact two-sample distance.
    """
    # np.maximum propagates a NaN, which KsOutcome then rejects
    return float(np.maximum(_gap(cdf1, cdf2), _gap(cdf2, cdf1)))


def _gap(own: ApproxCdf, other: ApproxCdf) -> float:
    """max |other - own| over the tie-group ends of own's stored knots.

    own stores the last knot of each run of its full knot grid, with that
    knot's probability, so these are the grid's tie-group ends.
    """
    ends = _ends(own.quantiles)
    diff = eval_cdf(other, own.quantiles[ends])
    diff -= own.probs[ends]
    np.abs(diff, out=diff)
    return diff.max()


def qks(lam: float) -> float:
    """Asymptotic KS survival function Q(lambda), clamped to [0, 1].

    Alternating series truncated when a term drops below 1e-12 of the
    running sum or after 100 terms; lambda below 1e-3 (or a series that
    fails to converge there) returns 1.  A negative or NaN lambda raises.
    """
    if not lam >= 0:
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
    d_crit(alpha)|; a beta so small that d_crit's tolerance absorbs a
    shift, so that this is 0, is refused.  For the paper's two reported
    configurations this evaluates to 0.001086 and 0.001240, not the
    0.000399 / 0.00077 quoted there.  The experiment presets pin the
    quoted values directly (see experiments module); they are stricter
    than this definition's values, and acceptance criterion 6b checks both
    that and this function against an independent inversion.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    for g in (alpha + beta, alpha - beta):
        if not 0 < g < 1:
            raise ValueError(f"alpha +/- beta must be in (0, 1), got {g}")
        if g < qks(10.0):  # d_crit's floor, refused under the caller's names
            raise ValueError(f"alpha +/- beta must be at least Q(10) = {qks(10.0):.3g}, "
                             f"got {g}")
    base = d_crit(alpha, n, m)
    up = d_crit(alpha + beta, n, m)
    down = d_crit(alpha - beta, n, m)
    phi = min(abs(up - base), abs(down - base))
    if phi == 0:  # d_crit's tolerance absorbed the shift
        raise ValueError(f"beta = {beta} is too small for d_crit to resolve at "
                         f"alpha = {alpha}: phi would be 0")
    return phi


def _one_sided(n: int, m: int, lo1, hi1, lo2, hi2):
    """The one-sided bounds (up, down) of cells, as new int64 arrays.

    On a cell, a range of t where c1(t), the count of values <= t among
    sample 1's n, lies in [lo1, hi1] and c2(t), among sample 2's m, in
    [lo2, hi2], c1*m - c2*n <= hi1*m - lo2*n = up and c2*n - c1*m <=
    hi2*n - lo1*m = down.  So c1*m - c2*n lies in [-down, up], a width of
    up + down = (hi1-lo1)*m + (hi2-lo2)*n: |c1*m - c2*n| is at least
    max(-up, -down) and at most max(up, down), and up - down = (lo1+hi1)*m
    - (lo2+hi2)*n, twice the midpoint, is within up + down of 2*(c1*m -
    c2*n), with |up - down|/2 between those bounds, each within n*m of 0.
    """
    up = hi1 * m
    up -= lo2 * n
    down = hi2 * n
    down -= lo1 * m
    return up, down


def _cells(sketch1: QuantileSketch, sketch2: QuantileSketch):
    """The sketch-direct kernel: n, m and the `_one_sided` bounds (up,
    down) at each value stored in either summary, ascending: the run ends
    of the pooled stored values (np.union1d imports numpy.ma on first use).

    These cells cover every t.  `rank_bounds` holds c(t) in an interval of
    width at most floor(2*eps*n) that depends only on how many stored
    values are <= t, so the intervals at a union value u hold up to the
    next one; below the union's minimum both counts are 0, and at its
    maximum both are exact (up = down = 0).  So, with D*n*m = sup_t
    |c1(t)*m - c2(t)*n|, max(-min up, -min down) <= D*n*m <= max(max up,
    max down); each cell's up + down, at most floor(2*eps1*n)*m +
    floor(2*eps2*m)*n <= (2*eps1 + 2*eps2)*n*m, bounds their difference;
    and max|up - down|/(2*n*m) lies between them over n*m, within eps1 +
    eps2 of D.  up - down is exact in int64 under the guard 2*n*m < 2**63.
    Either sketch may still be open for writes; an empty one raises
    SketchStateError from `rank_bounds`.
    """
    values = np.concatenate((sketch1.summary()[0], sketch2.summary()[0]))
    values.sort()
    values = values[_ends(values)]
    lo1, hi1 = sketch1.rank_bounds(values)
    lo2, hi2 = sketch2.rank_bounds(values)
    n, m = sketch1.count, sketch2.count
    if 2 * n * m >= 2**63:
        raise ValueError(f"2*n*m must be below 2**63 for int64 counts, got {n}*{m}")
    del values  # so building the pair peaks no higher than rank_bounds
    return n, m, *_one_sided(n, m, lo1, hi1, lo2, hi2)


def lall_ks(sketch1: QuantileSketch, sketch2: QuantileSketch) -> float:
    """Sketch-direct KS distance from midpoint rank estimates.

    Over the union of values stored in either summary, estimates each
    sample's CDF as (r_min + r_max) / (2n) and returns the largest absolute
    difference: max|up - down| / (2*n*m) over the cells of `_cells`, taken
    in int64 and divided once, so it is correctly rounded.  It is within
    eps1 + eps2 of the exact distance D, and inside `distance_interval`.
    The experiment presets build the sketches at precision/6, three times
    tighter than the bound needs, as the paper does.
    """
    n, m, up, down = _cells(sketch1, sketch2)
    up -= down
    np.abs(up, out=up)
    return int(up.max()) / (2 * n * m)


def distance_interval(sketch1: QuantileSketch,
                      sketch2: QuantileSketch) -> tuple[float, float]:
    """Certified bounds (d_lo, d_hi) on the exact KS distance D of the two
    summarised samples: d_lo <= D <= d_hi.

    Over the cells of `_cells`, d_lo = max(-min up, -min down) and d_hi =
    max(max up, max down), each an int64 extreme divided once by n*m, so
    each is correctly rounded and d_lo <= D <= d_hi survives the rounding.
    The width d_hi - d_lo is at most (floor(2*eps1*n)*m +
    floor(2*eps2*m)*n) / (n*m) <= 2*eps1 + 2*eps2, and `lall_ks` lies
    inside the interval.  It bounds the distance only; whether the test's
    decision could flip inside it is not checked here.
    """
    n, m, up, down = _cells(sketch1, sketch2)
    d_lo = max(-int(up.min()), -int(down.min()))
    d_hi = max(int(up.max()), int(down.max()))
    return d_lo / (n * m), d_hi / (n * m)


def run_test(x, y, precision: TestPrecision) -> KsOutcome:
    """Approximate two-sample KS test at the given precision.

    Plans one CDF per sample with error budget phi/2, estimates the
    distance, and converts it to a significance decision at
    precision.alpha.  The outcome carries the two plans it used.
    """
    xs, ys = (np.asarray(s, dtype=float).ravel() for s in (x, y))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    return _decide_sources(xs, ys, precision.alpha, precision.phi)


def _decide_sources(x, y, alpha: float, phi=None, beta=None, *, known=np.size,
                    read=_sealed, ahead=contextlib.nullcontext) -> KsOutcome:
    """The outcome at level alpha of sources x and y, planned at phi or,
    given beta, at phi_for_test(alpha, beta, N, M) of their bounds N and
    M, reading each source once.

    x and y are inputs of one kind, arrays by default, which two functions
    describe: known(s), an upper bound on the values of s before it is
    read (an array's size; a file's line count), raising OSError or
    ValueError where it has none, and read(s, epsilon), a sealed sketch of
    s at epsilon (an array's `_sealed`); each CDF is `build_cdf` of one,
    so a read elsewhere sends back only it.

    Each source is planned once from its bound, read once, x then y, and
    its CDF made under that plan at the count read, its sketch dropped
    before the next read.  That certifies: the bound 1/(a-1) + eps of a
    plan does not depend on n, and the knots' spacing (1 - 1/n)/(a-1)
    only shrinks as n does, so a plan made for N values holds for any
    n <= N values with a <= n.  A count above the bound is refused as
    changed while read.  After both reads, a source whose count is below its
    plan's a is planned again, at the same delta, from its count and read
    again, until its count fills its knots (once, unless it shrinks
    between reads).  Where a bound is missing, or the bounds or the
    precision admit no certified plan, both are counted first, x then y,
    each by a read at _COUNT_EPSILON, and planned from those counts.
    `ahead(read_y)` is a context manager around the first planned reads,
    whether planned from the bounds or the counts: it is handed read_y, a
    call that returns y's sealed sketch, and yields one (by default read_y
    itself; `ks2` reads y in a forked worker).  A read again runs outside
    it.  Errors come in the order of reading both sources whole, then
    planning: x's first, y's only after x's read succeeded, the plan's
    last.

    Under beta a decision is the exact test's at a level in [alpha - beta,
    alpha + beta].  With c(g) = d_crit(g, n, m) and p(d) = p_value(d, n,
    m) at the value counts the outcome reports, c decreases, p(c(g)) = g up
    to d_crit's bisection tolerance, and p does not increase, strictly
    where it is below 1.  d_crit(g, n, m) is one bisected lambda(g) times
    sqrt(1/n + 1/m), so phi_for_test, planned from bounds N >= n and M >=
    m, is at most phi' = min(c(alpha) - c(alpha + beta), c(alpha - beta) -
    c(alpha)).  Each delta is phi/2, so the exact distance D is within phi
    <= phi' of d.  A rejection, p(d) <= alpha, has d >= c(alpha), so D >=
    d - phi' >= c(alpha + beta) and p(D) <= alpha + beta; an acceptance
    has d < c(alpha), so D <= d + phi' < c(alpha - beta) and p(D) > alpha
    - beta.  A caller's phi has no band.
    """
    sources, cdfs = (x, y), [None, None]
    for counted in (False, True):
        try:
            counts = [read(s, _COUNT_EPSILON).count if counted else known(s)
                      for s in sources]
            phi = phi if beta is None else phi_for_test(alpha, beta, *counts)
            TestPrecision(alpha=alpha, phi=phi)
            plans = [plan_from_phi(phi, c) for c in counts]
            break
        except (OSError, ValueError):
            if counted:
                raise
    with ahead(lambda: read(y, plans[1].epsilon)) as read_y:
        counts[0], cdfs[0] = _counted_cdf(read(x, plans[0].epsilon), plans[0], x)
        counts[1], cdfs[1] = _counted_cdf(read_y(), plans[1], y)
    for i, s in enumerate(sources):
        while cdfs[i] is None:  # too few values for the knots planned
            plan = plan_from_phi(phi, counts[i])
            counts[i], cdfs[i] = _counted_cdf(read(s, plan.epsilon), plan, s)
    return decide(*cdfs, alpha)


def _counted_cdf(sketch: QuantileSketch, plan: CdfPlan, source):
    """The count of a read's sealed sketch of source, and its CDF under
    plan at that count, or None where the count is below plan.a; a count
    above plan.n is refused.  The caller drops the sketch here."""
    if sketch.count > plan.n:
        raise ValueError(f"{source}: file changed while it was read")
    return sketch.count, (build_cdf(sketch, replace(plan, n=sketch.count))
                          if sketch.count >= plan.a else None)


def decide(cdf1: ApproxCdf, cdf2: ApproxCdf, alpha: float) -> KsOutcome:
    """The test outcome at level alpha from the two samples' approximate
    CDFs: the distance between them, with the CDFs' plans, from which the
    outcome reads the sample sizes and its error bound."""
    return KsOutcome(d=approx_two_sample_ks(cdf1, cdf2), alpha=alpha,
                     plans=(cdf1.plan, cdf2.plan))
