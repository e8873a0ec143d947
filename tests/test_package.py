"""The package surface: each module's `__all__`, re-exported."""

import pytest

import sketchks
from sketchks import approx_cdf, gk_sketch, ks, synth

MODULES = (approx_cdf, gk_sketch, ks, synth)

# the package's list as it stood when it was written out by hand
PUBLIC = [
    "ApproxCdf", "CdfPlan", "DistributionSpec", "KsOutcome", "QuantileSketch",
    "SketchStateError", "TestPrecision", "approx_two_sample_ks", "build_cdf",
    "d_crit", "distance_interval", "empirical_cdf", "eps45", "error_bound",
    "eval_cdf", "exact_ks_distance", "gamma", "lall_ks", "normal", "num_probs",
    "p_value", "phi_for_test", "plan_from_phi", "qks", "run_test", "sample",
    "uniform",
]


def test_all_is_the_sorted_union_of_the_module_lists():
    names = sketchks.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(n for module in MODULES for n in module.__all__)
    assert names == PUBLIC


def test_each_name_is_its_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(sketchks, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from sketchks import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sketchks.__all__)


@pytest.mark.parametrize("name", ["decide", "fmt17"])
def test_internal_names_are_not_exported(name):
    assert name not in sketchks.__all__
    assert not hasattr(sketchks, name)

