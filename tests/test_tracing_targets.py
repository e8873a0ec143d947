"""The traced benchmark pass wraps package names that must keep existing."""

import importlib.util
import sys
from pathlib import Path

import pytest

from sketchks import cli
from sketchks.gk_sketch import QuantileSketch

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(tracing):
    for owner, attr, name, _ in tracing._FUNCTIONS:
        assert callable(getattr(owner, attr, None)), name
    for attr, name, _ in tracing._METHODS:
        assert attr in QuantileSketch.__dict__, name


@pytest.mark.parametrize("skip_header", [False, True])
def test_an_ingest_span_counts_the_file_lines(tmp_path, tracing, skip_header):
    # the span's lines are the values plus the lines that held none: a
    # header, a blank line and an invalid one, as `_line_count` counts them
    f = tmp_path / "d.txt"
    f.write_text("value\n1\n\n2\nnan\n3\n")
    result = cli.ingest(f, skip_header=skip_header, skip_invalid=True)
    assert tracing._ingest_counts((f,), {}, result) == {
        "lines": cli._line_count(f, skip_header)}
