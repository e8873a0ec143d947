"""Byte-for-byte pins of the reproduced tables and of two CLI outputs.

The files under tests/golden/ hold the desk-scale output of
`scripts/reproduce_tables.py --fast` (seed 1729), the stdout of
`sketchks ks2 --beta 0.025` and the knots CSV of `sketchks cdf --delta 0.2`.
Each test regenerates its output into a temporary directory and compares
bytes, so a refactor that moves any digit of a reproduced number fails here.
Re-pin only in a change that means to move the numbers, and record the old
and new values in CHANGES.md.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from sketchks.cli import main
from sketchks.synth import normal, sample

GOLDEN = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"

TABLES = (
    ["table1_convergence.csv"]
    + [f"table2_experiment{i}.csv" for i in range(1, 6)]
    + [f"table3_experiment{i}.csv" for i in range(6, 11)]
)


def _capture(fn, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fn(*args)
    assert rc == 0
    return buf.getvalue()


def _write_sample(path: Path, mean: float, n: int, seed: int) -> Path:
    data = sample(normal(mean, 1), n, seed)
    path.write_text("\n".join(format(v, ".17g") for v in data) + "\n",
                    encoding="utf-8")
    return path


def reproduce_fast(outdir: Path) -> str:
    """Run the table script with --fast; returns stdout minus the timing line."""
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = _capture(script.main, [str(outdir), "--fast", "--seed", "1729"])
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("done in ")
    return "".join(lines[:-1])


def ks2_stdout(workdir: Path) -> str:
    fx = _write_sample(workdir / "x.txt", 0.0, 5000, 11)
    fy = _write_sample(workdir / "y.txt", 0.05, 5000, 12)
    return _capture(main, ["ks2", "--file-x", str(fx), "--file-y", str(fy),
                           "--beta", "0.025"])


def cdf_knots(workdir: Path) -> bytes:
    f = _write_sample(workdir / "c.txt", 0.0, 5000, 13)
    out = workdir / "knots.csv"
    _capture(main, ["cdf", "--file", str(f), "--delta", "0.2", "--out", str(out)])
    return out.read_bytes()


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fast")
    return outdir, reproduce_fast(outdir)


@pytest.mark.parametrize("name", TABLES)
def test_fast_table_bytes(fast_run, name):
    outdir, _ = fast_run
    assert (outdir / name).read_bytes() == (GOLDEN / "fast" / name).read_bytes()


def test_fast_stdout(fast_run):
    _, stdout = fast_run
    assert stdout == (GOLDEN / "reproduce_fast.stdout").read_text(encoding="utf-8")


def test_ks2_stdout(tmp_path):
    assert ks2_stdout(tmp_path) == (GOLDEN / "ks2_beta.stdout").read_text(
        encoding="utf-8")


def test_cdf_knots_bytes(tmp_path):
    assert cdf_knots(tmp_path) == (GOLDEN / "cdf_delta.csv").read_bytes()
