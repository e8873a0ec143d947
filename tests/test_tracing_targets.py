"""The traced benchmark pass wraps package names that must keep existing."""

import importlib.util
import sys
from pathlib import Path

from sketchks.gk_sketch import QuantileSketch

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for owner, attr, name, _ in tracing._FUNCTIONS:
        assert callable(getattr(owner, attr, None)), name
    for attr, name, _ in tracing._METHODS:
        assert attr in QuantileSketch.__dict__, name
