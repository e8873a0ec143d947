"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 6b checks
`phi_for_test` against an independent high-precision oracle, and checks
that the published phi values the presets run at are no looser than the
definition's values (see its docstring for why the published numbers are
not the definition's output).
"""

import math

import numpy as np
import pytest

import sketchks.ks as ks
from sketchks import experiments as ex
from sketchks.approx_cdf import (
    CdfPlan,
    build_cdf,
    empirical_cdf,
    error_bound,
    eval_cdf,
    plan_from_phi,
)
from sketchks.gk_sketch import QuantileSketch

SEED = ex.DEFAULT_SEED


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def table2_results():
    return {i: ex.run_experiment(ex.experiment_spec(i)) for i in range(1, 6)}


@pytest.fixture(scope="module")
def table3_records():
    out = {}
    for i in range(6, 11):
        spec = ex.experiment_spec(i, replications=1)
        out[i] = (spec, ex.run_experiment(spec).records[0])
    return out


def test_criterion_1_convergence_bound():
    """Table I: 9 rows x 20 x 10,000 normal replications, max|error| <= delta."""
    rows = ex.run_convergence(n=10000, replications=20, master_seed=SEED)
    study = [r for r in rows if r["epsilon"] > 0 or r["a"] < 10000]
    assert len(study) == 9
    detail = "; ".join(
        f"a={r['a']},eps={r['epsilon']}: max|err|={r['max_abs_error']:.4g}"
        f" <= delta={r['delta']:.4g}" for r in study
    )
    report("1 (convergence bound)", all(r["within_bound"] for r in study), detail)
    exact = rows[-1]
    assert exact["epsilon"] == 0.0 and exact["max_abs_error"] <= 1 / (10000 - 1)


def test_criterion_2_parameter_reproduction():
    """Table III plan parameters, plus the rounded section-IV-B knot counts.

    The published eps45 column truncates two entries to 1e-5 resolution
    (0.02341 stands for 0.0234189, 0.02445 for 0.0244545), so those two are
    compared at print resolution; the finer-printed entries use the 2e-6
    tolerance.
    """
    expected = {
        6: (10000, 0.05, 0.02341, 1e-5, 634),
        7: (10000, 0.01, 0.004293, 2e-6, 1416),
        8: (100000, 0.001, 0.000429, 2e-6, 14144),
        9: (84000, 0.05, 0.02445, 1e-5, 1835),
        10: (84000, 0.002, 0.000892, 2e-6, 9167),
    }
    problems = []
    for i, (n, precision, want_eps, tol, want_a) in expected.items():
        plan = plan_from_phi(precision, n)
        if abs(plan.epsilon - want_eps) > tol:
            problems.append(f"exp {i}: eps45 {plan.epsilon} != {want_eps}")
        if plan.a != want_a:
            problems.append(f"exp {i}: a {plan.a} != {want_a}")
    a_gauss = plan_from_phi(0.000399, 10000).a
    if abs(a_gauss - 7083) > 3:
        problems.append(f"IV-B gaussian knots {a_gauss} not within 3 of 7083")
    a_ref = plan_from_phi(0.00077, 84000).a
    if abs(a_ref - 14770) > 3:
        problems.append(f"IV-B reference knots {a_ref} not within 3 of 14770")
    report(
        "2 (parameter reproduction)",
        not problems,
        "; ".join(problems) if problems else
        f"all five (eps45, a) pairs reproduced; IV-B counts {a_gauss}, {a_ref} within +/-3",
    )


def test_criterion_3_distance_error_bound(table2_results):
    """Experiments 1-5: max |approx - exact| <= 2*delta in every replication."""
    problems = []
    details = []
    for i, res in table2_results.items():
        bound = res.spec.phi
        worst = res.aggregates()["max_abs_err"]
        details.append(f"exp {i}: {worst:.6f} <= {bound}")
        if worst > bound:
            problems.append(f"exp {i}: {worst} > {bound}")
    # desk scale with re-derived phi
    for i in (1, 2, 3, 4, 5):
        spec = ex.experiment_spec(i, n=2000, m=2000, replications=20)
        worst = ex.run_experiment(spec).aggregates()["max_abs_err"]
        details.append(f"exp {i}@2000: {worst:.6f} <= {spec.phi:.6f}")
        if worst > spec.phi:
            problems.append(f"desk exp {i}: {worst} > {spec.phi}")
    report("3 (distance error bound)", not problems, "; ".join(details))


def test_criterion_4_decision_reproduction(table2_results):
    """Rejection counts: 20/20 for 1, 2, 4; <= 3/20 for 3; agreement for 5."""
    agg = {i: r.aggregates() for i, r in table2_results.items()}
    problems = []
    for i in (1, 2, 4):
        if agg[i]["rejections_exact"] != 20 or agg[i]["rejections_approx"] != 20:
            problems.append(f"exp {i}: rejections {agg[i]['rejections_exact']}"
                            f"/{agg[i]['rejections_approx']} != 20/20")
    if agg[3]["rejections_approx"] > 3 or agg[3]["rejections_exact"] > 3:
        problems.append(f"exp 3: {agg[3]['rejections_approx']} rejections > 3")
    if agg[5]["decision_agreements"] < 19:
        problems.append(f"exp 5: {agg[5]['decision_agreements']} agreements < 19")
    detail = (
        f"rejections 1/2/4 = {agg[1]['rejections_approx']}/"
        f"{agg[2]['rejections_approx']}/{agg[4]['rejections_approx']} of 20, "
        f"exp3 = {agg[3]['rejections_approx']}, "
        f"exp5 agreement = {agg[5]['decision_agreements']}/20"
    )
    report("4 (decision reproduction)", not problems, detail)


def test_criterion_5_lall_comparison(table3_records):
    """Sketch-direct distance within target precision; storage comparison."""
    problems = []
    details = []
    for i, (spec, rec) in table3_records.items():
        err = abs(rec.d_sketch - rec.d_exact)
        details.append(
            f"exp {i}: |sketch-exact|={err:.5f} <= {spec.phi}, "
            f"knots={rec.cdf_knots_x}, tuples={rec.sketch_tuples_x}"
        )
        if err > spec.phi:
            problems.append(f"exp {i}: sketch error {err} > {spec.phi}")
        if abs(rec.d_approx - rec.d_exact) > spec.phi:
            problems.append(f"exp {i}: cdf error exceeds precision")
    for i in (6, 8, 10):  # soft storage claim: CDFs need more points
        _, rec = table3_records[i]
        if not (rec.sketch_tuples_x < rec.cdf_knots_x
                and rec.sketch_tuples_y < rec.cdf_knots_y):
            problems.append(f"exp {i}: sketch not smaller than CDF")
    report("5 (sketch comparison)", not problems, "; ".join(details))


def test_criterion_6_property_suites():
    """Randomized invariants and the frozen numeric anchors."""
    problems = []
    rng = np.random.default_rng(SEED)

    # Eq. 4 rank guarantee over randomized streams
    for eps in (0.1, 0.01, 0.001):
        n = 3000
        stream = rng.normal(size=n)
        s = QuantileSketch(eps)
        s.extend(stream.tolist())
        s.seal()
        ordered = np.sort(stream)
        for p in np.linspace(0.05, 1.0, 20):
            v = s.query_quantiles([float(p)])[0]
            r = int(np.searchsorted(ordered, v, side="right"))
            if not (math.floor((p - eps) * n) <= r <= math.ceil((p + eps) * n)):
                problems.append(f"rank guarantee broken at eps={eps}, p={p}")

    # CDF error bound over randomized plans
    for _ in range(25):
        n = int(rng.integers(30, 400))
        a = int(rng.integers(3, 12))
        eps = float(rng.choice([0.0, 0.02, 0.1]))
        plan = CdfPlan(n=n, delta=1 / (a - 1) + eps, epsilon=eps, a=a)
        data = rng.normal(size=n)
        cdf = build_cdf(data, plan)
        err = np.max(np.abs(eval_cdf(cdf, data) - empirical_cdf(data, data)))
        if err > error_bound(plan):
            problems.append(f"cdf bound broken at n={n}, a={a}, eps={eps}")

    # exact distance == brute-force pooled oracle
    for _ in range(20):
        x = rng.choice([0.0, 1.0, 2.5, 3.0], size=int(rng.integers(1, 200)))
        y = rng.normal(size=int(rng.integers(1, 200)))
        brute = max(
            abs((x <= t).mean() - (y <= t).mean()) for t in np.concatenate([x, y])
        )
        if abs(ks.exact_ks_distance(x, y) - brute) > 1e-12:
            problems.append("exact distance disagrees with brute force")

    # frozen anchors
    if abs(ks.qks(1.0) - 0.26999967) > 1e-6:
        problems.append(f"qks(1.0) = {ks.qks(1.0)}")
    vals = [ks.qks(float(l)) for l in np.linspace(0, 3, 61)]
    if any(a < b for a, b in zip(vals, vals[1:])):
        problems.append("qks not monotone")
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        d = ks.d_crit(alpha, 10000, 10000)
        if abs(ks.p_value(d, 10000, 10000) - alpha) > 1e-8:
            problems.append(f"d_crit round trip broken at alpha={alpha}")
    report(
        "6a (property suites)",
        not problems,
        "; ".join(problems) if problems else
        "rank guarantee, CDF bound, brute-force equality, qks/d_crit anchors all hold",
    )


def test_criterion_6_phi_paper_value():
    """Planning of the paper's two published configurations.

    phi is defined as the smaller critical-distance shift
    min |d_crit(alpha +/- beta) - d_crit(alpha)|, with d_crit inverting
    Q(lambda) = 2 sum (-1)^(k-1) exp(-2 k^2 lambda^2) at lambda =
    sqrt(n*m/(n+m)) * d.  For (alpha=0.05, beta=0.025, N=M=1e4) that is
    0.00108636657740816 and for (alpha=0.20, beta=0.10, N=84000, M=7000)
    0.00124012462105842 (the larger shifts are 0.0017269 and 0.0018797).

    The paper publishes 0.000399 and 0.00077 for these configurations.  No
    reading of the definition reproduces both: a sweep over 1,260
    combinations of lambda-to-d scaling (7), inversion (series, first term,
    one-sided), reading of beta (absolute, relative, beta/2, alpha/2), way
    of combining the two shifts (5) and divisor (3) matched neither pair
    within 5e-6, and the published-to-definition ratios differ (0.367 and
    0.621), so no single convention or scale slip explains them.  Only the
    paper's abstract is in the repo, so whether its full text uses another
    definition is not settled here.

    The check therefore has two parts per configuration:
    1. phi_for_test equals the definition's value within 1e-9;
    2. the published phi the presets pin (experiments 1-5 and criterion 2's
       IV-B knot counts depend on it) is no looser than that value, so the
       published tables are certified at a stricter precision than the
       definition asks for.
    """
    # frozen from a 40-digit mpmath inversion of Q(lambda) (nsum of the
    # series, findroot per level), independent of sketchks;
    # scipy.special.kolmogi agrees to 1e-17
    configs = [
        # (preset id, alpha, beta, n, m, definition's phi)
        (1, 0.05, 0.025, 10**4, 10**4, 0.00108636657740816),
        (4, 0.20, 0.10, 84000, 7000, 0.00124012462105842),
    ]
    problems = []
    details = []
    for exp_id, alpha, beta, n, m, oracle in configs:
        phi = ks.phi_for_test(alpha, beta, n, m)
        published = ex.experiment_spec(exp_id).phi
        details.append(
            f"phi_for_test({alpha}, {beta}, {n}, {m}) = {phi:.12g}"
            f" vs oracle {oracle:.12g}, published {published}"
        )
        if abs(phi - oracle) > 1e-9:
            problems.append(f"phi_for_test {phi!r} != oracle {oracle!r}")
        if not published <= phi:
            problems.append(f"published phi {published} looser than {phi!r}")
    report("6b (phi planning)", not problems, "; ".join(details + problems))


def test_criterion_7_determinism(tmp_path):
    """Byte-identical outputs for identical seeds."""
    pairs = []
    for i, sizes in ((1, 1500), (6, 1500)):
        a, b = tmp_path / f"{i}_a.csv", tmp_path / f"{i}_b.csv"
        spec = ex.experiment_spec(i, n=sizes, m=sizes, replications=3,
                                  master_seed=SEED)
        ex.run_experiment(spec).to_csv(a)
        ex.run_experiment(spec).to_csv(b)
        pairs.append((f"experiment {i}", a.read_bytes() == b.read_bytes()))
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    ex.write_convergence_csv(ex.run_convergence(n=1000, replications=2), c1)
    ex.write_convergence_csv(ex.run_convergence(n=1000, replications=2), c2)
    pairs.append(("convergence", c1.read_bytes() == c2.read_bytes()))
    report(
        "7 (determinism)",
        all(ok for _, ok in pairs),
        ", ".join(f"{name}: {'identical' if ok else 'DIFFERS'}" for name, ok in pairs),
    )
