"""Approximate two-sample KS testing built on epsilon-approximate quantiles."""

from .approx_cdf import (
    ApproxCdf,
    CdfPlan,
    build_cdf,
    empirical_cdf,
    eps45,
    error_bound,
    eval_cdf,
    num_probs,
    plan_from_phi,
)
from .gk_sketch import QuantileSketch, SketchStateError
from .ks import (
    KsOutcome,
    TestPrecision,
    approx_two_sample_ks,
    d_crit,
    exact_ks_distance,
    lall_ks,
    p_value,
    phi_for_test,
    qks,
    run_test,
)
from .synth import DistributionSpec, gamma, normal, sample, uniform

__version__ = "0.1.0"

__all__ = [
    "ApproxCdf",
    "CdfPlan",
    "DistributionSpec",
    "KsOutcome",
    "QuantileSketch",
    "SketchStateError",
    "TestPrecision",
    "approx_two_sample_ks",
    "build_cdf",
    "d_crit",
    "empirical_cdf",
    "eps45",
    "error_bound",
    "eval_cdf",
    "exact_ks_distance",
    "gamma",
    "lall_ks",
    "normal",
    "num_probs",
    "p_value",
    "phi_for_test",
    "plan_from_phi",
    "qks",
    "run_test",
    "sample",
    "uniform",
]
