"""Command-line surface: ingestion, ks2 JSON, experiment/convergence/tables/cdf CSV."""

import argparse
import dataclasses
import errno
import gc
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import (ExitStack, contextmanager, nullcontext, redirect_stderr,
                        redirect_stdout)
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchks import cli, experiments, gk_sketch, ks
from sketchks.approx_cdf import ApproxCdf, build_cdf, plan_from_phi
from sketchks.cli import ingest, main
from sketchks.synth import normal, sample


@pytest.fixture
def normal_files(tmp_path):
    def write(name, spec_mean, n, seed):
        data = sample(normal(spec_mean, 1), n, seed)
        path = tmp_path / name
        path.write_text("\n".join(format(v, ".17g") for v in data) + "\n")
        return path

    return write


class TestIngest:
    def test_plain(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1\n2\n3\n")
        values, no_value = ingest(f)
        assert values.tolist() == [1, 2, 3]
        assert no_value == 0

    def test_skip_header(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("value\n1\n2\n")
        values, no_value = ingest(f, skip_header=True)
        assert values.tolist() == [1, 2]
        assert no_value == 0  # the header is not counted

    def test_skip_invalid_counts(self, tmp_path):
        # a dropped line holds no value: with the values, the line count
        f = tmp_path / "d.txt"
        f.write_text("1\nNaN\n2\n")
        values, no_value = ingest(f, skip_invalid=True)
        assert values.tolist() == [1, 2]
        assert no_value == 1

    def test_invalid_line_reports_number(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1\nbogus\n2\n")
        with pytest.raises(ValueError, match=":2:"):
            ingest(f)

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("\n\n")
        with pytest.raises(ValueError, match="no data"):
            ingest(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.txt")

    def test_clean_file_skips_line_scanner(self, tmp_path, monkeypatch):
        scan = cli._scan

        def header_only(numbered, *args):
            numbered = list(numbered)
            assert all(n == 1 for n, _ in numbered), "line scanner entered past the header"
            return scan(numbered, *args)

        monkeypatch.setattr(cli, "_scan", header_only)
        monkeypatch.setattr(cli, "_BLOCK_LINES", 2)
        f = tmp_path / "d.txt"
        f.write_bytes(b"value\r\n 1.5\r\n-2e-3\t\n\x0c7\n")
        values, no_value = ingest(f, skip_header=True, skip_invalid=True)
        assert values.tolist() == [1.5, -2e-3, 7.0]
        assert no_value == 0
        f.write_bytes(b"\n1\n2")  # a blank line 1 holds no header, and is not counted
        values, no_value = ingest(f, skip_header=True)
        assert values.tolist() == [1.0, 2.0] and no_value == 0

    def test_not_utf8_reports_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_bytes(b"1\n" * 5000 + b"2\xff\n3\n")
        for flags in ({}, {"skip_invalid": True}):
            with pytest.raises(ValueError,
                               match=re.escape(f"{f}:5001: not UTF-8 text: b'2\\xff'")):
                ingest(f, **flags)
        f.write_bytes(b"caf\xe9\n1\n2\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:1: not UTF-8 text")):
            ingest(f, skip_header=True)


def reference_ingest(path, *, skip_header=False, skip_invalid=False):
    """The line-by-line parser `ingest` had before its numpy fast path,
    kept as an oracle for files that are UTF-8 text (a leading byte-order
    mark is not data), with the count of the lines it read that held no
    value, line 1 not counted under skip_header."""
    lines = 0

    def parsed(fh):
        nonlocal lines
        for lineno, line in enumerate(fh, start=1):
            lines = lineno
            text = line.strip()
            if not text:
                continue
            if skip_header and lineno == 1:
                continue
            try:
                v = float(text)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                if skip_invalid:
                    continue
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            yield v

    with open(path, "r", encoding="utf-8-sig") as fh:
        values = np.fromiter(parsed(fh), dtype=float)
    if not values.size:
        raise ValueError(f"{path}: no data values found")
    return values, max(lines - skip_header, 0) - values.size


def _outcome(parse, path, **flags):
    try:
        values, no_value = parse(path, **flags)
    except ValueError as exc:
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes(), no_value


_finite = st.floats(allow_nan=False, allow_infinity=False)
_numbers = st.one_of(
    _finite.map(lambda v: format(v, ".17g")),
    _finite.map(lambda v: format(v, ".3e")),
    st.integers(min_value=-10**20, max_value=10**20).map(str),
)
_odd = st.sampled_from([
    "", "1_0", "\u0661\u0662", "nan", "-inf", "inf", "1e999", "-1e999", "1 2",
    "3\t4", "1,2", "5,", "garbage", "0x10", "+.5", "1.", "\ufeff1", "1\x00",
    "1\x0b", "\x1c", "\u2028", "\x85", '"1"', "#1",
])
_space = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x1c", "\xa0", "\u3000"])
_line = st.tuples(_space, st.one_of(_numbers, _numbers, _odd), _space,
                  st.sampled_from(["\n", "\n", "\r\n", "\r"])).map("".join)


@settings(max_examples=300, deadline=None)
# a byte-order mark is dropped on line 1 and fails with its number after it
@example(lines=["\ufeff1\n", "2\n"], last_newline=True, skip_header=False,
         skip_invalid=False, block=4096)
@example(lines=["1\n", "\ufeff2\n"], last_newline=True, skip_header=False,
         skip_invalid=False, block=4096)
# a header float() can read is skipped, not parsed, at any block size
@example(lines=["2.5\n", "1\n"], last_newline=True, skip_header=True,
         skip_invalid=False, block=1)
@example(lines=["2.5\n", "1\n"], last_newline=True, skip_header=True,
         skip_invalid=False, block=4096)
@given(
    lines=st.lists(_line, max_size=12),
    last_newline=st.booleans(),
    skip_header=st.booleans(),
    skip_invalid=st.booleans(),
    block=st.sampled_from([1, 2, 3, 4096]),
)
def test_ingest_matches_line_scanner(tmp_path_factory, lines, last_newline,
                                     skip_header, skip_invalid, block):
    text = "".join(lines)
    if not last_newline:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("ingest") / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    flags = {"skip_header": skip_header, "skip_invalid": skip_invalid}
    with mock.patch.object(cli, "_BLOCK_LINES", block):
        got = _outcome(ingest, path, **flags)
    assert got == _outcome(reference_ingest, path, **flags)


@pytest.mark.parametrize("lines, values, bad", [
    (["1\n", "2\n"], [1.0, 2.0], []),
    (["1\n", "x\n", "\n", "3\n"], [1.0, 3.0], [1, 2]),
    (["nan\n", "1\n", " \n", "inf\n", "2\n", "1e999"],
     [math.nan, 1.0, math.inf, 2.0, math.inf], [2]),
    # Unicode spaces and digits parse; float() keeps \x1c where str.strip() drops it
    (["\xa01\u3000\n", "\u0661\n", " 1\x1c\n"], [1.0, 1.0], [2]),
    (["x\n", "-inf\n"], [-math.inf], [0]),
    # a clean block of odd lines float() reads, as one call must read them
    (["1_000\n", "\u0661\n", "\xa01\u3000\n", "+.5\n", "1.\r\n", "inf\n",
      "-inf\n", "nan\n", "1e999"],
     [1000.0, 1.0, 1.0, 0.5, 1.0, math.inf, -math.inf, math.nan, math.inf], []),
    # the only line float() cannot read is the first, the last, or an
    # unterminated "1\x00", which a cast that drops trailing NULs would read
    (["x\n", "1\n", "2\n"], [1.0, 2.0], [0]),
    (["1\n", "2\n", "x\n"], [1.0, 2.0], [2]),
    (["1\n", "2\n", "1\x00"], [1.0, 2.0], [2]),
])
def test_floats_splits_values_from_bad_lines(lines, values, bad):
    # one entry per line: NaN where float() raises, float(line) elsewhere,
    # whether the block is tried in one call or not
    for i, line in enumerate(lines):
        if i in bad:
            with pytest.raises(ValueError):
                float(line)
    np.testing.assert_array_equal(
        [float(line) for i, line in enumerate(lines) if i not in bad], values)
    for one_call in (True, False):
        got = cli._floats(lines, one_call)
        assert got.dtype == np.float64 and got.shape == (len(lines),)
        assert np.isnan(got[bad]).all()
        np.testing.assert_array_equal(np.delete(got, bad), values)


def test_one_call_conversion_falls_back_once_per_file(tmp_path, monkeypatch):
    array, calls = np.array, []

    def one_call(*args, **kwargs):
        # each one-call attempt of `_floats`, and whether it succeeded
        try:
            got = array(*args, **kwargs)
        except ValueError:
            calls.append(False)
            raise
        calls.append(True)
        return got

    monkeypatch.setattr(np, "array", one_call)
    monkeypatch.setattr(cli, "_BLOCK_LINES", 4)
    values = [f"{j}.5\n" for j in range(20)]
    dirty, clean, header = (tmp_path / f"{n}.txt" for n in ("dirty", "clean", "header"))
    # an unreadable line in every block: one failed attempt, and the file's
    # later blocks go straight to the resume loop
    dirty.write_text("".join("n/a\n" if j % 4 == 2 else v for j, v in enumerate(values)))
    assert ingest(dirty, skip_invalid=True)[1] == 5
    assert calls == [False]
    # the fallback is per file: a clean file read after it, and one whose
    # header float() cannot read, convert every block in one call
    calls.clear()
    clean.write_text("".join(values))
    assert ingest(clean)[0].size == 20
    assert calls == [True] * 5
    calls.clear()
    header.write_text("value\n" + "".join(values[:19]))
    assert ingest(header, skip_header=True)[0].tolist() == [j + 0.5 for j in range(19)]
    assert calls == [True] * 5


def test_scanner_reads_only_lines_float_cannot(tmp_path, monkeypatch):
    scan, seen = cli._scan, []

    def recording(numbered, *args):
        numbered = list(numbered)
        seen.extend(n for n, _ in numbered)
        return scan(numbered, *args)

    monkeypatch.setattr(cli, "_scan", recording)
    monkeypatch.setattr(cli, "_BLOCK_LINES", 3)
    f = tmp_path / "d.txt"
    f.write_text("1\n\x1c2\x1f\n3\nnan\nx\n", encoding="utf-8")
    values, no_value = ingest(f, skip_invalid=True)
    assert values.tolist() == [1.0, 2.0, 3.0] and no_value == 2
    assert seen == [2, 4, 5]


def test_separator_wrapped_number_keeps_its_place(tmp_path):
    # str.strip() removes \x1c-\x1f and float() does not: `_scan` reads the line
    f = tmp_path / "d.txt"
    f.write_text("1\n\x1c2\x1f\n3\nx\n", encoding="utf-8")
    with mock.patch.object(cli, "_BLOCK_LINES", 3):
        values, no_value = ingest(f, skip_invalid=True)
    assert values.tolist() == [1.0, 2.0, 3.0] and no_value == 1


class TestKs2Command:
    def test_identical_files_do_not_reject(self, normal_files, capsys):
        f = normal_files("x.txt", 0, 2000, 5)
        rc = main(["ks2", "--file-x", str(f), "--file-y", str(f),
                   "--alpha", "0.05", "--phi", "0.01"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_ks"] <= 0.01
        assert doc["reject"] is False
        assert doc["d_error_bound"] == 0.01

    def test_shifted_files_reject_with_exit_code(self, normal_files, capsys):
        fx = normal_files("x.txt", 0, 2000, 6)
        fy = normal_files("y.txt", 1, 2000, 7)
        rc = main(["ks2", "--file-x", str(fx), "--file-y", str(fy),
                   "--alpha", "0.05", "--beta", "0.025", "--exit-on-reject"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["reject"] is True
        assert 0.3 <= doc["d_ks"] <= 0.47

    def test_phi_005_reports_plan_634(self, normal_files, capsys):
        fx = normal_files("x.txt", 0, 10000, 8)
        fy = normal_files("y.txt", 1, 10000, 9)
        rc = main(["ks2", "--file-x", str(fx), "--file-y", str(fy),
                   "--phi", "0.05"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["a_x"] == 634
        assert doc["params"]["a_y"] == 634
        assert doc["params"]["delta"] == 0.025
        assert doc["reject"] is True

    def test_warm_call_leaves_no_parser_garbage(self, normal_files, capsys):
        # main builds its parser once per process; one parser a call would
        # leave ~58 KB of argparse reference cycles to the cyclic collector
        argv = ["ks2", "--file-x", str(normal_files("x.txt", 0, 500, 1)),
                "--file-y", str(normal_files("y.txt", 0, 500, 2)), "--phi", "0.2"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert parsers == []


def _run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


# ks2's stderr when the certificate does not cover the decision
UNCERTAIN = ("sketchks: warning: the decision is not certain: a distance within "
             "d_error_bound of d_ks decides the other way\n")


def _planned(n, m, *, alpha, phi=None, beta=None):
    """(phi, the two plans) for counts n and m, as `ks2` plans them."""
    if beta is not None:
        phi = ks.phi_for_test(alpha, beta, n, m)
    ks.TestPrecision(alpha=alpha, phi=phi)
    return phi, [plan_from_phi(phi, n), plan_from_phi(phi, m)]


def reference_ks2(fx, fy, *, alpha, phi=None, beta=None, **flags):
    """`ks2` on both files `ingest`ed whole, planned, built and decided by
    hand, not by the planning loop that `ks2` and `run_test` share, kept as
    an oracle for every route: (exit code, stdout, stderr).

    Each file is planned from its line count, which bounds its values, or
    both from their value counts where the line counts admit no plan; a
    CDF is made under its plan at its value count, or planned again from
    that count where its values cannot fill the knots."""
    try:
        (x, no_x), (y, no_y) = (ingest(f, **flags) for f in (fx, fy))
        try:
            phi, plans = _planned(x.size + no_x, y.size + no_y,
                                  alpha=alpha, phi=phi, beta=beta)
        except ValueError:
            phi, plans = _planned(x.size, y.size, alpha=alpha, phi=phi, beta=beta)
        cdfs = []
        for sample, plan in zip((x, y), plans):
            if sample.size < plan.a:
                plan = plan_from_phi(phi, sample.size)
            cdfs.append(build_cdf(sample, dataclasses.replace(plan, n=sample.size)))
        outcome = ks.decide(*cdfs, alpha)
    except (ValueError, OSError) as exc:
        return 1, "", f"sketchks: error: {exc}\n"
    return 0, outcome.to_json() + "\n", "" if outcome.decision_certain else UNCERTAIN


def _ks2_argv(fx, fy, *, alpha, phi=None, beta=None, skip_header=False,
              skip_invalid=False):
    precision = ["--phi", repr(phi)] if beta is None else ["--beta", repr(beta)]
    return (["ks2", "--file-x", fx, "--file-y", fy, "--alpha", repr(alpha), *precision]
            + ["--skip-header"] * skip_header + ["--skip-invalid"] * skip_invalid)


@st.composite
def _value_file(draw):
    """Bytes of a value file: values with blank, invalid or undecodable lines
    among them, an optional header, any newline convention and an optional
    leading byte-order mark."""
    tiny = draw(st.sampled_from([True] + [False] * 7))
    n = draw(st.integers(min_value=0, max_value=3) if tiny
             else st.integers(min_value=40, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.normal(size=n).round(draw(st.sampled_from([1, 17])))  # 1: ties
    lines = [format(v, ".17g") for v in values.tolist()]
    extras = (draw(st.lists(st.sampled_from(["", " "]), max_size=4))
              + draw(st.lists(st.sampled_from(["x", "nan", "-inf", "1e999", "\udcff"]),
                              max_size=1)))
    for text in extras:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), text)
    if draw(st.booleans()):
        lines.insert(0, "value")
    style = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = (rng.choice(["\n", "\r\n", "\r"], size=len(lines)).tolist()
            if style == "mixed" else [style] * len(lines))
    if ends and not draw(st.booleans()):
        ends[-1] = ""  # an unterminated last line
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8", "surrogateescape")


_HAS_FD = os.path.isdir("/dev/fd")


def _integers(n):
    """n lines holding 0, 1, ..., n - 1."""
    return "".join(f"{v}\n" for v in range(n)).encode()


_SIXTY = _integers(60)


@settings(max_examples=200, deadline=None)
# the whole-file route must keep every flag: y's bad line is an error
@example(files=(_SIXTY, _SIXTY + b"x\n"), precision={"phi": 0.3}, skip_header=False,
         skip_invalid=False, block=4096, chunk=1 << 16, piped="y" if _HAS_FD else "",
         forked=False)
# an error a forked worker raises reaches stderr as the one-process route writes it
@example(files=(_SIXTY, _SIXTY + b"x\n"), precision={"phi": 0.3}, skip_header=False,
         skip_invalid=False, block=4096, chunk=1 << 16, piped="", forked=True)
@example(files=(_SIXTY, _SIXTY + b"\xff\n"), precision={"beta": 0.3}, skip_header=False,
         skip_invalid=True, block=4096, chunk=1 << 16, piped="", forked=True)
@example(files=(_SIXTY, b"\n" * 60), precision={"phi": 0.3}, skip_header=False,
         skip_invalid=False, block=4096, chunk=1 << 16, piped="", forked=True)
# x's 20 values cannot fill the 27 knots its 100 lines plan, so x is read twice
@example(files=(b"\n" * 80 + _integers(20), _SIXTY), precision={"phi": 0.3},
         skip_header=False, skip_invalid=False, block=4096, chunk=1 << 16, piped="",
         forked=False)
# y's blank lines shrink the phi that beta gives below what x's 25 lines can
# plan, but not the value counts': both are counted, then read again
@example(files=(_integers(25), _integers(25) + b"\n" * 100), precision={"beta": 0.45},
         skip_header=False, skip_invalid=False, block=4096, chunk=1 << 16, piped="",
         forked=True)
@given(
    files=st.tuples(_value_file(), _value_file()),
    precision=st.sampled_from([{"phi": 0.3}, {"phi": 0.1},
                               {"beta": 0.45}, {"beta": 0.3}]),
    skip_header=st.booleans(),
    skip_invalid=st.sampled_from([True, True, False]),
    block=st.sampled_from([1, 3, 4096]),
    chunk=st.sampled_from([5, 64, 1 << 16]),
    piped=st.sampled_from(["", "x", "y", "xy"] if _HAS_FD else [""]),
    forked=st.booleans(),
)
def test_ks2_stdout_matches_run_test_on_ingested_files(
        tmp_path_factory, files, precision, skip_header, skip_invalid, block, chunk,
        piped, forked):
    # a piped side is not a regular file, so ks2 ingests both files whole;
    # streamed files read y through `cli._forked`, or, not `forked`, through
    # `nullcontext`, its fallback, in this process
    workdir = tmp_path_factory.mktemp("ks2")
    fx, fy = workdir / "x.txt", workdir / "y.txt"
    fx.write_bytes(files[0])
    fy.write_bytes(files[1])
    test = {"alpha": 0.5, **precision}
    flags = {"skip_header": skip_header, "skip_invalid": skip_invalid}
    blocks, log = cli._blocks, workdir / "reads.log"

    def logged(path, *rest):
        # every parse, streamed or ingested whole, goes through `_blocks`; a
        # file, not a counter in memory, so a forked worker's parse counts
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{path}\n")
        yield from blocks(path, *rest)

    names, fds = {"x": str(fx), "y": str(fy)}, []
    try:
        for side, data in zip("xy", files):
            if side in piped:
                r, w = os.pipe()
                fds.append(r)
                try:
                    os.write(w, data)  # a few KB: fits the pipe buffer
                finally:
                    os.close(w)
                names[side] = f"/dev/fd/{r}"
        with mock.patch.object(cli, "_BLOCK_LINES", block), \
                mock.patch.object(gk_sketch, "_CHUNK", chunk), \
                mock.patch.object(cli, "_forked", cli._forked if forked else nullcontext):
            with mock.patch.object(cli, "_blocks", logged):
                got = _run(_ks2_argv(names["x"], names["y"], **test, **flags))
            rc, out, err = reference_ks2(fx, fy, **test, **flags)
    finally:
        for fd in fds:
            os.close(fd)
    err = err.replace(str(fx), names["x"]).replace(str(fy), names["y"])
    assert got == (rc, out, err)
    reads = Counter(log.read_text(encoding="utf-8").splitlines() if log.exists() else [])
    reads = [reads[names["x"]], reads[names["y"]]]
    if rc:  # an error stops the reads, and a forked worker's may or may not start
        assert max(reads) <= 2
        return
    # each file once: a pipe ingested whole, or a regular file planned from
    # its line count, read again only where its values cannot fill the
    # knots planned; where the line counts admit no plan, counted first
    want = [1, 1]
    if not piped:
        doc = json.loads(out)
        try:
            _, plans = _planned(*(cli._line_count(f, skip_header) for f in (fx, fy)), **test)
            want = [1 + (n < plan.a) for n, plan in zip((doc["n"], doc["m"]), plans)]
        except ValueError:
            want = [2, 2]
    assert reads == want


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.tuples(*[st.integers(min_value=40, max_value=400)] * 2),
    decimals=st.sampled_from([0, 1, 17]),  # 0 and 1: ties within and across
    precision=st.sampled_from([{"phi": 0.3}, {"phi": 0.1}, {"beta": 0.45}, {"beta": 0.3}]),
    forked=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ks2_with_its_files_swapped_prints_the_same_decision(
        tmp_path_factory, sizes, decimals, precision, forked, seed):
    # an identity, not an oracle: the distance, its bound, the p-value and
    # the decision are symmetric in the samples, bit for bit; the params
    # block names each side's plan, so it swaps
    workdir = tmp_path_factory.mktemp("swap")
    rng = np.random.default_rng(seed)
    files = [workdir / "a.txt", workdir / "b.txt"]
    for path, n in zip(files, sizes):
        path.write_text("".join(f"{v!r}\n" for v in rng.normal(size=n).round(decimals).tolist()))
    with mock.patch.object(cli, "_forked", cli._forked if forked else nullcontext):
        (rc, out, err), swapped = (_run(_ks2_argv(fx, fy, alpha=0.5, **precision))
                                   for fx, fy in (files, files[::-1]))
    assert swapped[0] == rc
    if rc == 0:
        keys = ("d_ks", "d_error_bound", "p_value", "reject")
        assert [json.loads(swapped[1])[k] for k in keys] == [json.loads(out)[k] for k in keys]
        assert swapped[2] == err


_VALUES = "".join(f"{v!r}\n" for v in np.linspace(-2, 2, 200).tolist()).encode()


@pytest.mark.parametrize("x, y, precision, message, ingested", [
    # a bad line of x is met before y is found missing
    (b"1\nbogus\n" + _VALUES, None, ["--phi", "0.1"],
     "{x}:2: not a finite number: 'bogus'", 1),
    (b"", _VALUES, ["--phi", "0.1"], "{x}: no data values found", 0),
    # blank lines plan a sample of 100 that then holds no value
    (b"\n" * 100, _VALUES, ["--phi", "0.1"], "{x}: no data values found", 0),
    # the plan refuses y's three lines before its line 3 is read
    (_VALUES, b"1.5\n2.5\n\xff\xfe\n", ["--phi", "0.05"],
     "{y}:3: not UTF-8 text: b'\\xff\\xfe'", 0),
    (_VALUES, _VALUES + b"\xff\n", ["--phi", "0.1"],
     "{y}:201: not UTF-8 text: b'\\xff'", 0),
    # --beta 0 leaves no plan, so the bad line of x is met first
    (b"1\nx\n" + _VALUES, _VALUES, ["--beta", "0"],
     "{x}:2: not a finite number: 'x'", 0),
    (_VALUES, _VALUES, ["--beta", "0"], "beta must be positive, got 0.0", 0),
    # a beta d_crit cannot resolve is refused by name, not as phi = 0
    (_VALUES, _VALUES, ["--beta", "1e-12"], "beta = 1e-12 is too small for d_crit "
     "to resolve at alpha = 0.05: phi would be 0", 0),
    # on the forked route y's worker is running when x's bad line is met
    (b"1\nbogus\n" + _VALUES, _VALUES, ["--phi", "0.1"],
     "{x}:2: not a finite number: 'bogus'", 0),
    # 100 lines plan x's knots, which its 2 values cannot fill, and 2
    # values admit no plan: that is raised with both files parsed, and
    # neither is ingested whole
    (b"\n" * 98 + b"1\n2\n", _VALUES, ["--phi", "0.1"],
     "sample of 2 points cannot reach a CDF error bound of 0.05", 0),
    # one line a file admits no plan, so both are counted before it fails
    (b"1.5\n", b"1.5\n", ["--phi", "0.05"],
     "sample of 1 points cannot reach a CDF error bound of 0.025", 0),
], ids=["x-bad-before-y-missing", "x-empty", "x-blank-lines", "y-bad-unplanned",
        "y-bad-streamed", "beta-0-x-bad", "beta-0", "beta-unresolved",
        "x-bad-y-streaming", "x-too-few-values", "one-line-files"])
def test_ks2_errors_keep_their_order(tmp_path, x, y, precision, message, ingested):
    # `ingested`: the files ks2 parses whole, where an input is not a
    # regular file (a missing y); regular files it cannot plan from their
    # line counts are counted a block at a time
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes(x)
    if y is not None:
        fy.write_bytes(y)
    expected = (1, "", f"sketchks: error: {message.format(x=fx, y=fy)}\n")
    for forked in (nullcontext, cli._forked):  # in one process, then forked
        with mock.patch.object(cli, "_forked", forked), \
                mock.patch.object(cli, "ingest", wraps=cli.ingest) as whole:
            assert _run(["ks2", "--file-x", fx, "--file-y", fy, *precision]) == expected
        assert whole.call_count == ingested
    beta = {"beta": float(precision[1])} if precision[0] == "--beta" else {
        "phi": float(precision[1])}
    assert reference_ks2(fx, fy, alpha=0.05, **beta) == expected


@contextmanager
def _forking():
    """Records each read ks2 hands `cli._forked`: yields the list of the
    files those reads parse, in a worker where one starts."""
    started, forked = [], cli._forked

    def starting(read):
        # run the read once with the parse stubbed to hand back its path
        with mock.patch.object(cli, "_file_sketch", lambda path, *_: path):
            started.append(str(read()))
        return forked(read)

    with mock.patch.object(cli, "_forked", starting):
        yield started


def _worker_starts() -> bool:
    """Whether `cli._forked` starts a worker in this process."""
    with cli._forked(os.getpid) as pid:
        return pid() != os.getpid()


@pytest.fixture
def worker():
    """Skips the test where `cli._forked` starts no worker, and so would
    run in this process what the test runs in a worker."""
    if not _worker_starts():
        pytest.skip("not Linux, one usable CPU or a second OS thread")


@pytest.fixture
def fork_route(worker):
    """`_forking` for a whole test, which skips where ks2 cannot fork."""
    with _forking() as started:
        yield started


_BIG = "".join(f"{v!r}\n" for v in np.linspace(-2, 2, 50_000).tolist()).encode()


@pytest.mark.parametrize("x, y, error", [
    (_VALUES, _BIG, None),
    # x fails while y's worker still parses 50,000 lines: it is killed
    (b"1\nbogus\n" + _VALUES, _BIG, "{x}:2: not a finite number: 'bogus'"),
    (_VALUES, _BIG + b"x\n", "{y}:50001: not a finite number: 'x'"),
], ids=["success", "x-fails", "y-fails"])
def test_ks2_leaves_no_worker(tmp_path, fork_route, x, y, error):
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes(x)
    fy.write_bytes(y)
    got = _run(_ks2_argv(fx, fy, alpha=0.05, phi=0.1))
    assert got == reference_ks2(fx, fy, alpha=0.05, phi=0.1)
    if error is not None:
        assert got[2] == f"sketchks: error: {error.format(x=fx, y=fy)}\n"
    assert fork_route == [str(fy)]
    with pytest.raises(ChildProcessError):  # no child left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _raise_value_error():
    raise ValueError("bad line")


@pytest.mark.parametrize("fn, want", [
    (lambda: [1.5, "two"], [1.5, "two"]),
    (_raise_value_error, ValueError("bad line")),
    # the child ends before writing to the pipe: its result is truncated
    (lambda: os._exit(3), ChildProcessError("a worker process ended without a result")),
], ids=["returns", "raises", "dies"])
def test_forked_sends_back_a_result_or_an_exception(worker, fn, want):
    with cli._forked(fn) as result:
        if isinstance(want, Exception):
            with pytest.raises(type(want), match=f"^{want}$"):
                result()
        else:
            assert result() == want
    with pytest.raises(ChildProcessError):  # reaped on leaving the block
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("y_tail", [b"", b"x\n"], ids=["success", "y-fails"])
def test_forked_worker_writes_no_output(tmp_path, fork_route, y_tail):
    # stdout is a pipe, so the text written before ks2 is still buffered
    # when it forks; a worker that flushed it on exit would write it twice
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes(_VALUES)
    fy.write_bytes(_VALUES + y_tail)
    script = ("import os, sys\n"
              "from sketchks import cli\n"
              "with cli._forked(os.getpid) as pid:\n"
              "    assert pid() != os.getpid()\n"
              "sys.stdout.write('pending\\n')\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, _ks2_argv(fx, fy, alpha=0.05, phi=0.1))],
        env=env, capture_output=True, check=False)
    rc, out, err = reference_ks2(fx, fy, alpha=0.05, phi=0.1)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        rc, b"pending\n" + out.encode(), err.encode())


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_forked_route_runs_here(tmp_path):
    # the forked route's tests skip where no worker starts; on Linux with
    # two CPUs one must, as conftest.py keeps numpy to one thread, and ks2
    # then reads y in it at any size: here two 200-line files
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU")
    assert _worker_starts()
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes(_VALUES)
    fy.write_bytes("".join(f"{v + 0.5!r}\n" for v in np.linspace(-2, 2, 200)).encode())
    file_sketch, log = cli._file_sketch, tmp_path / "reads.log"

    def logged(path, *rest):
        # a file, not a list in memory, so the worker's read is logged
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {path}\n")
        return file_sketch(path, *rest)

    with mock.patch.object(cli, "_file_sketch", logged):
        assert _run(_ks2_argv(fx, fy, alpha=0.05, phi=0.1)) == reference_ks2(
            fx, fy, alpha=0.05, phi=0.1)
    (x_pid, x), (y_pid, y) = (
        line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines())
    assert (x, y, int(x_pid)) == (str(fx), str(fy), os.getpid())
    assert int(y_pid) != os.getpid()


@pytest.mark.parametrize("fails", ["pipe", "fork", "thread", "one-cpu", "no-proc"])
def test_ks2_reads_in_one_process_when_no_worker_starts(tmp_path, fork_route, fails):
    # EMFILE, EAGAIN, a second OS thread (a fork would not copy it), one
    # usable CPU or no /proc/self/stat: ks2 still succeeds, forks only to
    # fail at it, and keeps no descriptor
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes(_VALUES)
    fy.write_bytes(b"0.5\n" + _VALUES)
    want = reference_ks2(fx, fy, alpha=0.05, phi=0.1)
    opened, forks, pipe = [], [], os.pipe

    def recording_pipe():
        if fails == "pipe":
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        fds = pipe()
        opened.extend(fds)
        return fds

    def failing_fork():
        forks.append(fails)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def no_proc(path, *args, **kwargs):
        if path == "/proc/self/stat":
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return open(path, *args, **kwargs)

    fds, stop = os.listdir("/proc/self/fd"), threading.Event()
    waiter = threading.Thread(target=stop.wait)
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(os, "pipe", recording_pipe))
        stack.enter_context(mock.patch.object(os, "fork", failing_fork))
        if fails == "thread":
            waiter.start()
            stack.callback(waiter.join, 10)
            stack.callback(stop.set)
        elif fails == "one-cpu":
            stack.enter_context(mock.patch.object(os, "sched_getaffinity", lambda pid: {0}))
        elif fails == "no-proc":
            stack.enter_context(mock.patch.object(cli, "open", no_proc, create=True))
        assert _run(_ks2_argv(fx, fy, alpha=0.05, phi=0.1)) == want
    assert not waiter.is_alive()
    assert fork_route == [str(fy)]
    assert (len(forks), len(opened)) == ((1, 2) if fails == "fork" else (0, 0))
    assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)


def test_leave_keeps_the_affinity(worker):
    # a worker moves off its parent's CPU, then may run anywhere again
    with cli._forked(lambda: os.sched_getaffinity(0)) as got:
        assert got() == os.sched_getaffinity(0)


def _warm_up_ks2(normal_files):
    # a process's first ks2 call builds the argument parser and fills
    # first-call caches; one small call before a trace keeps them out of it,
    # so a peak reads the same run alone or after other tests
    wx = normal_files("warm_x.txt", 0, 500, 1)
    wy = normal_files("warm_y.txt", 0.01, 500, 2)
    rc, _, err = _run(["ks2", "--file-x", wx, "--file-y", wy, "--beta", "0.025"])
    assert (rc, err) == (0, "")


def test_ks2_blank_line_peak_memory(normal_files, monkeypatch, traced_peak):
    # the planned-file shape (phi from --beta gives summaries of ~1e4
    # tuples and 40,580 knots) with a blank first line in x: both files
    # are planned from their line counts and read once, x's CDF made at
    # its 200,000 values and held while y is read.  That peaks as a clean
    # run does (1.56 MB): the chunk buffer and each block's lines are gone
    # before a merge peaks, and the knots are queried in blocks, so no
    # read holds a parsed file (1.6 MB).  y's read starts holding no more
    # than x's CDF (~0.27 MB of run ends) over what x's did; a sketch kept
    # after its CDF is made would still be held.  In one process, as
    # tracemalloc traces only the process it runs in
    n = m = 200_000
    monkeypatch.setattr(cli, "_forked", nullcontext)
    _warm_up_ks2(normal_files)
    fx = normal_files("x.txt", 0, n, 31)
    fy = normal_files("y.txt", 0.01, m, 32)
    fx.write_bytes(b"\n" + fx.read_bytes())
    file_sketch, reads, held, made = cli._file_sketch, [], [], []

    def counted(path, *rest):
        reads.append(str(path))
        held.append(tracemalloc.get_traced_memory()[0])
        return file_sketch(path, *rest)

    def built(data, plan):
        made.append(build_cdf(data, plan))
        return made[-1]

    monkeypatch.setattr(cli, "_file_sketch", counted)
    monkeypatch.setattr(ks, "build_cdf", built)
    argv = ["ks2", "--file-x", fx, "--file-y", fy, "--alpha", "0.05", "--beta", "0.025"]
    (rc, out, _), peak = traced_peak(_run, argv)
    assert rc == 0 and json.loads(out)["params"]["a_x"] == 40580
    assert reads == [str(fx), str(fy)]
    x_cdf = made[0].probs.nbytes + made[0].quantiles.nbytes
    # a sealed sketch is ~2.5e5 bytes
    assert held[1] - held[0] - x_cdf < 1e5, f"held {held} bytes, x's CDF {x_cdf}"
    assert peak <= 2.2e6, f"peak {peak} bytes"


def test_ks2_unplanned_regular_files_peak_memory(normal_files, monkeypatch, traced_peak):
    # --beta 0 admits no plan, so ks2 counts each regular file's values
    # by a coarse streamed read, then raises the plan's error: the peak is that read's chunk buffer, at both sizes
    # below a planned run's (--beta 0.025), and does not grow with the
    # files.  In one process, as tracemalloc traces only the process it
    # runs in
    monkeypatch.setattr(cli, "_forked", nullcontext)
    _warm_up_ks2(normal_files)
    peaks = {}
    for n in (20_000, 80_000):
        fx = normal_files(f"x{n}.txt", 0, n, 31)
        fy = normal_files(f"y{n}.txt", 0.01, n, 32)
        for beta in ("0", "0.025"):
            (rc, _, err), peaks[n, beta] = traced_peak(
                _run, ["ks2", "--file-x", fx, "--file-y", fy, "--beta", beta])
            assert (rc, err) == ((1, "sketchks: error: beta must be positive, got 0.0\n")
                                 if beta == "0" else (0, ""))
        assert peaks[n, "0"] < peaks[n, "0.025"], peaks
    assert abs(peaks[80_000, "0"] - peaks[20_000, "0"]) < 5e4, peaks


def test_worker_peak_memory(normal_files, traced_peak):
    # what a forked worker does with y on the planned-file shape, in this
    # process, where tracemalloc sees it: parse, sketch, seal and send
    n = 200_000
    fy = normal_files("y.txt", 0.01, n, 32)
    plan = plan_from_phi(ks.phi_for_test(0.05, 0.025, n, n), n)

    def send(sink):
        sketch = cli._file_sketch(fy, plan.epsilon, False, False)
        pickle.dump((True, sketch), sink, pickle.HIGHEST_PROTOCOL)
        return sketch

    with open(os.devnull, "wb") as sink:
        sketch, peak = traced_peak(send, sink)
    assert sketch.count == n and plan.a == 40580
    assert peak <= 2.2e6, f"peak {peak} bytes"


def test_ks2_parses_a_clean_file_once(tmp_path, normal_files, monkeypatch):
    fx = normal_files("x.txt", 0, 3000, 33)
    fy = normal_files("y.txt", 0.1, 3000, 34)
    dirty, dirty_x = tmp_path / "dirty.txt", tmp_path / "dirty_x.txt"
    dirty.write_text(fy.read_text() + "\n")  # 3,001 lines, 3,000 values
    dirty_x.write_text("\n" + fx.read_text())
    cr_x = tmp_path / "cr_x.txt"  # bare-CR newlines, one value a line
    cr_x.write_bytes(fx.read_bytes().replace(b"\n", b"\r"))
    bom_x = tmp_path / "bom_x.txt"  # a byte-order mark and CRLF newlines
    bom_x.write_bytes(b"\xef\xbb\xbf" + fx.read_bytes().replace(b"\n", b"\r\n"))
    blank_x = tmp_path / "blank_x.txt"  # 200 values among 20,000 blank lines
    blank_x.write_text("\n" * 20_000 + "".join(fx.read_text().splitlines(True)[:200]))
    floats, log = cli._floats, tmp_path / "parsed.log"

    def counting(lines, one_call):
        # a file, not a counter in memory, so a forked worker's parses count
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{len(lines)}\n")
        return floats(lines, one_call)

    monkeypatch.setattr(cli, "_floats", counting)
    # one table for both layouts: both files are planned from their line
    # counts and each read once, a blank line or not, but for a file whose
    # values cannot fill the knots its lines plan: 20,200 lines plan 900
    # knots at phi 0.05, which blank_x's 200 values cannot fill, so it is
    # planned again from 200 and read again
    table = [(fx, fy, {"phi": 0.05}, 6000), (fx, fy, {"beta": 0.025}, 6000),
             (cr_x, fy, {"beta": 0.025}, 6000),
             (bom_x, fy, {"beta": 0.025}, 6000),
             (fx, dirty, {"phi": 0.05}, 3000 + 3001),
             (fx, dirty, {"beta": 0.025}, 3000 + 3001),
             (dirty_x, dirty, {"beta": 0.025}, 2 * 3001),
             (dirty_x, fy, {"beta": 0.025}, 3001 + 3000),
             (blank_x, fy, {"phi": 0.05}, 2 * 20_200 + 3000)]
    # in one process, then forked
    for forked in (False, True) if _worker_starts() else (False,):
        layout = _forking() if forked else mock.patch.object(cli, "_forked", nullcontext)
        with layout as started:
            for x, y, precision, lines in table:
                log.unlink(missing_ok=True)
                got = _run(_ks2_argv(x, y, alpha=0.05, **precision))
                assert sum(map(int, log.read_text(encoding="utf-8").split())) == lines
                assert got == reference_ks2(x, y, alpha=0.05, **precision)
            if forked:  # y's read forks; blank_x's second read runs here
                assert started == [str(y) for _, y, _, _ in table]


def test_ks2_refuses_a_file_that_changes_while_read(normal_files, monkeypatch):
    # each read of a file finds one value more, or one fewer, than its
    # lines: more than the bound its plan was made for is refused; fewer
    # is read at the count found, once
    fx, fy = normal_files("x.txt", 0, 500, 35), normal_files("y.txt", 0, 500, 36)
    reads, change = Counter(), 1

    def changed(path, epsilon, *flags):
        reads[path] += 1
        values = ingest(path)[0]
        sketch = gk_sketch.QuantileSketch(epsilon)
        sketch.extend(np.append(values, 0.5) if change > 0 else values[1:])
        return sketch.seal()

    monkeypatch.setattr(cli, "_file_sketch", changed)
    monkeypatch.setattr(cli, "_forked", nullcontext)  # `reads` counts in this process
    argv = ["ks2", "--file-x", fx, "--file-y", fy, "--phi", "0.1"]
    assert _run(argv) == (1, "", f"sketchks: error: {fx}: file changed while it was read\n")
    assert reads == {str(fx): 1}
    reads.clear()
    change = -1
    rc, out, _ = _run(argv)
    doc = json.loads(out)
    assert (rc, doc["n"], doc["m"]) == (0, 499, 499)
    assert reads == {str(fx): 1, str(fy): 1}


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_ks2_reads_piped_stdin(tmp_path):
    # a header, a blank line and CRLF: 501 counted lines hold 500 values,
    # and plan both regular files, each read once; stdin is a pipe,
    # ingested whole in a process of its own and planned from its lines too
    fx, fy = tmp_path / "h0.txt", tmp_path / "h1.txt"
    for i, f in enumerate((fx, fy)):
        v = [f"{(7 * j) % 100 + i}" for j in range(500)]
        f.write_bytes(("\r\n".join(["value", *v[:250], "", *v[250:]]) + "\r\n").encode())
    flags = ["--beta", "0.025", "--skip-header"]
    rc, want, _ = _run(["ks2", "--file-x", fx, "--file-y", fy, *flags])
    doc = json.loads(want)
    assert rc == 0 and doc["n"] == doc["m"] == 500
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "sketchks.cli", "ks2", "--file-x", str(fx),
         "--file-y", "/dev/stdin", *flags],
        input=fy.read_bytes(), env=env, capture_output=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.encode(), b"")


@pytest.mark.parametrize("kind, ingested", [
    ("symlink", 0), ("dangling-symlink", 1), ("directory", 1), ("devnull", 1),
])
def test_ks2_streams_only_regular_files(tmp_path, kind, ingested):
    # a symlink is followed to the regular file it names, which is
    # streamed; x anything else, or nothing, takes the whole-file route,
    # whose ingest of x raises the error
    fy = tmp_path / "y.txt"
    fy.write_bytes(_VALUES)
    fx = tmp_path / "x"
    if kind == "symlink":
        fx.symlink_to(fy)
    elif kind == "dangling-symlink":
        fx.symlink_to(tmp_path / "nowhere")
    elif kind == "directory":
        fx.mkdir()
    else:
        fx = Path(os.devnull)
    expected = reference_ks2(fx, fy, alpha=0.05, phi=0.1)
    assert expected[0] == (kind != "symlink")
    for forked in (nullcontext, cli._forked):  # in one process, then forked
        with mock.patch.object(cli, "_forked", forked), \
                mock.patch.object(cli, "ingest", wraps=cli.ingest) as whole:
            assert _run(["ks2", "--file-x", fx, "--file-y", fy, "--phi", "0.1"]) == expected
        assert whole.call_count == ingested


@pytest.mark.parametrize("route, calls", [
    ("run_test", 2), ("ks2", 2), ("ks2-forked", 2),
    # x's read finds 200 values under its 201 lines, whose plan makes its
    # CDF at that count: two CDFs, under --beta too
    ("ks2-blank-line", 2),
    ("ks2-pipe", 2),  # both ingested whole, then read as arrays
    ("convergence", 2 * 10),  # nine table rows and the exact one, twice
])
def test_every_cdf_is_made_by_build_cdf(tmp_path, request, route, calls):
    # `run_test`, each `ks2` route and the convergence study make every
    # CDF they use with one `build_cdf` call, of a sketch or of a sample,
    # and make no CDF any other way: each ApproxCdf keeps its run ends once
    fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
    fx.write_bytes((b"\n" if route == "ks2-blank-line" else b"") + _VALUES)
    fy.write_bytes(b"0.5\n" + _VALUES)
    made = []

    def counted(data, plan):
        made.append(plan)
        return build_cdf(data, plan)

    with ExitStack() as stack:
        if route == "ks2":  # in one process
            stack.enter_context(mock.patch.object(cli, "_forked", nullcontext))
        elif route == "ks2-forked":
            request.getfixturevalue("worker")  # skips where no worker starts
            started = stack.enter_context(_forking())
        elif route == "ks2-pipe":
            fy.unlink()
            os.mkfifo(fy)
            writer = threading.Thread(target=fy.write_bytes, args=(b"0.5\n" + _VALUES,),
                                      daemon=True)
            writer.start()
            stack.callback(writer.join, 10)
        for module in (ks, experiments):
            stack.enter_context(mock.patch.object(module, "build_cdf", counted))
        kept = stack.enter_context(mock.patch.object(
            ApproxCdf, "_keep_run_ends", autospec=True, side_effect=ApproxCdf._keep_run_ends))
        if route == "run_test":
            x = np.linspace(-2, 2, 200)
            ks.run_test(x, x + 0.5, ks.TestPrecision(alpha=0.05, phi=0.1))
        elif route == "convergence":
            rows = experiments.run_convergence(n=600, replications=2)
            assert len(rows) == 10
        else:
            precision = ["--beta", "0.04"] if route == "ks2-blank-line" else ["--phi", "0.1"]
            rc, out, _ = _run(["ks2", "--file-x", fx, "--file-y", fy, *precision])
            assert rc == 0 and json.loads(out)["n"] == 200
    assert len(made) == kept.call_count == calls
    if route == "ks2-forked":
        assert started == [str(fy)]
    elif route == "ks2-pipe":
        assert not writer.is_alive()


@pytest.mark.parametrize("data, lines", [
    (b"", 0), (b"1", 1), (b"1\n", 1), (b"1\n\n2", 3), (b"h\r\n1\r\n2\r\n", 3),
    (b"1\r2\r3", 3), (b"1\r", 1), (b"\r\r\n\n", 3), (b"1\r\r\n2", 3),
    (b"\xef\xbb\xbf", 0), (b"\xef\xbb\xbf1\r\n2", 2),
])
def test_line_count(tmp_path, data, lines):
    f = tmp_path / "d.txt"
    f.write_bytes(data)
    for size in (1, 2, 1 << 16):
        with mock.patch.object(cli, "_COUNT_BYTES", size):
            assert cli._line_count(f, False) == lines
            assert cli._line_count(f, True) == max(lines - 1, 0)


@settings(max_examples=200, deadline=None)
@given(
    bom=st.sampled_from([b"", b"\xef\xbb\xbf"]),
    # with the breaks str.splitlines() knows and io does not, and a
    # multibyte character that 1-byte reads split
    data=st.lists(st.sampled_from([b"1", b" ", b"\r", b"\n", b"\r\n", b"\xff",
                                   *(c.encode() for c in "\u2028\x85\x0b\x0c\x1c\u0661")]),
                  max_size=30).map(b"".join),
    size=st.sampled_from([1, 2, 3, 1 << 16]),
)
def test_line_count_is_text_mode_line_count(tmp_path_factory, bom, data, size):
    f = tmp_path_factory.mktemp("count") / "d.txt"
    f.write_bytes(bom + data)
    # the oracle iterates lines, as the reader does, not read().count
    with open(f, encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = sum(1 for _ in fh)
    with mock.patch.object(cli, "_COUNT_BYTES", size):
        assert cli._line_count(f, False) == lines


@pytest.mark.parametrize("command,flags", [
    ("ks2", ["--phi", "0.05", "--beta", "0.025"]),
    ("ks2", []),
])
def test_exactly_one_precision_flag(normal_files, capsys, command, flags):
    f = str(normal_files("x.txt", 0, 500, 4))
    rc = main([command, "--file-x", f, "--file-y", f, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert "provide exactly one of --phi or --beta" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,flags", [
    ("ks2", ["--phi", "0.05"]),
    ("cdf", ["--delta", "0.2"]),
])
def test_seed_only_on_sampling_commands(tmp_path, normal_files, capsys, command, flags):
    f = str(normal_files("x.txt", 0, 500, 4))
    out = tmp_path / "knots.csv"
    files = (["--file-x", f, "--file-y", f] if command == "ks2"
             else ["--file", f, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main([command, *files, *flags, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


class TestExperimentCommand:
    def test_runs_and_is_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        args = ["experiment", "--id", "3", "--replications", "2",
                "--n", "1000", "--m", "1000", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_sample_size_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["experiment", "--id", "1", "--n", "0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchks: error:")
        assert "sample sizes must be positive" in err
        assert not out.exists()

    def test_lall_compare_runs(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        rc = main(["experiment", "--id", "6", "--replications", "1",
                   "--n", "1500", "--m", "1500", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        header = out.read_text().split("\n")[0]
        assert "d_sketch" in header
        first = out.read_text().split("\n")[1].split(",")
        assert first[4] != ""  # d_sketch recorded


class TestConvergenceCommand:
    def test_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--replications", "1", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11
        assert all(line.endswith(",1") for line in lines[1:])

    def test_zero_replications_fails(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--replications", "0", "--out", str(out)])
        assert rc == 1
        assert "replications" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["convergence", "--replications", "1"],
    ["experiment", "--id", "3", "--replications", "1"],
])
def test_bad_out_fails_before_sampling(tmp_path, monkeypatch, capsys, command):
    out = tmp_path / "missing" / "x.csv"
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample", counting_sample)
    rc = main([*command, "--out", str(out)])
    assert rc == 1
    assert f"cannot write --out {out}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("bad", ["outdir-is-a-file", "last-table-refused"])
def test_tables_bad_out_fails_before_sampling(tmp_path, monkeypatch, capsys, bad):
    calls = []

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample", counting_sample)
    outdir = tmp_path / "t"
    if bad == "outdir-is-a-file":
        outdir.write_text("")
    else:
        # an existing file checked last; os.access, not chmod, as root
        # passes every permission check
        refused = outdir / "table3_experiment10.csv"
        outdir.mkdir()
        refused.write_text("")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != refused)
    rc = main(["tables", str(outdir), "--fast"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("sketchks: error: ")
    if bad == "last-table-refused":
        assert f"cannot write table {refused}" in err
    assert calls == []


def test_tables_fails_when_table1_exceeds_its_bound(tmp_path, monkeypatch, capsys):
    # every table is still written and printed, with the convergence rows
    # flagged as `convergence` flags them; only the exit code changes
    monkeypatch.setattr(experiments, "error_bound", lambda plan: -1)
    outdir = tmp_path / "t"
    rc = main(["tables", str(outdir), "--fast", "--seed", "1729"])
    out = capsys.readouterr().out.splitlines(keepends=True)
    assert rc == 1
    assert sorted(p.name for p in outdir.iterdir()) == sorted(cli._TABLE_FILES)
    golden = (Path(__file__).parent / "golden" / "reproduce_fast.stdout").read_text()
    flagged = re.sub(r"^(  a=.*) ok$", r"\1 EXCEEDS BOUND", golden, flags=re.M)
    assert flagged.count("EXCEEDS BOUND") == 10
    assert "".join(out[:-1]) == flagged and out[-1].startswith("done in ")


@pytest.mark.parametrize("writable, refused", [
    ({"target"}, False), ({"parent"}, True),
], ids=["writable-file-read-only-dir", "read-only-file-writable-dir"])
def test_check_out_tests_an_existing_file_itself(tmp_path, monkeypatch,
                                                 writable, refused):
    target = tmp_path / "out.csv"
    target.write_text("")
    access = {target: "target", tmp_path: "parent"}
    # os.access, not chmod: root passes every permission check
    monkeypatch.setattr(cli.os, "access",
                        lambda path, mode: access[Path(path)] in writable)
    if refused:
        with pytest.raises(OSError, match="cannot write --out"):
            cli._check_out(target)
    else:
        cli._check_out(target)


class TestCdfCommand:
    @pytest.mark.parametrize("with_exact", [False, True],
                             ids=["missing-dir", "exact-path-is-a-dir"])
    def test_bad_out_fails_before_reading(self, tmp_path, normal_files,
                                          monkeypatch, capsys, with_exact):
        f = normal_files("n.txt", 0, 1000, 22)
        if with_exact:
            out, bad = tmp_path / "k.csv", tmp_path / "k.exact.csv"
            bad.mkdir()
        else:
            out = bad = tmp_path / "nodir" / "k.csv"
        blocks, reads = cli._blocks, []

        def recording(*args):
            reads.append(args)
            return blocks(*args)

        monkeypatch.setattr(cli, "_blocks", recording)
        argv = ["cdf", "--file", str(f), "--delta", "0.1", "--out", str(out)]
        rc = main(argv + ["--with-exact"] * with_exact)
        assert rc == 1
        assert f"cannot write --out {bad}" in capsys.readouterr().err
        assert reads == [] and not out.exists()

    def test_constant_file(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("\n".join(["7.5"] * 50) + "\n")
        out = tmp_path / "knots.csv"
        rc = main(["cdf", "--file", str(f), "--delta", "0.3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "prob,quantile"
        quants = {line.split(",")[1] for line in lines[1:]}
        assert quants == {"7.5"}

    def test_knot_count_matches_plan(self, tmp_path, normal_files, capsys):
        from sketchks.approx_cdf import eps45, num_probs

        f = normal_files("n.txt", 0, 10000, 21)
        out = tmp_path / "knots.csv"
        rc = main(["cdf", "--file", str(f), "--delta", "0.2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        expected = num_probs(10000, 0.2, eps45(0.2, 10000))
        assert len(lines) == 1 + expected

    def test_with_exact_row_count(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        data = sample(normal(0, 1), 200, 3)
        f.write_text("\n".join(format(v, ".17g") for v in data) + "\n")
        out = tmp_path / "knots.csv"
        rc = main(["cdf", "--file", str(f), "--delta", "0.3", "--out", str(out),
                   "--with-exact"])
        assert rc == 0
        exact = tmp_path / "knots.exact.csv"
        assert len(exact.read_text().strip().split("\n")) == 1 + 200

    def test_requires_delta_or_phi(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("1\n2\n3\n4\n")
        out = tmp_path / "o.csv"
        for flags in ([], ["--phi", "0.05"], ["--phi", "0.05", "--delta", "0.2"]):
            with pytest.raises(SystemExit) as exc:
                main(["cdf", "--file", str(f), "--out", str(out), *flags])
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["0", "-0.1", "1.5"])
    def test_delta_out_of_range_names_delta(self, tmp_path, capsys, delta):
        f = tmp_path / "d.txt"
        f.write_text("1\n2\n3\n4\n")
        out = tmp_path / "o.csv"
        assert main(["cdf", "--file", str(f), "--delta", delta, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"--delta must be in (0, 1), got {float(delta)}" in err
        assert "phi" not in err
        assert not out.exists()
