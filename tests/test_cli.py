"""Command-line surface: ingestion, ks2 JSON, experiment/convergence/cdf CSV."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchks import cli, experiments
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
        values, skipped = ingest(f)
        assert values.tolist() == [1, 2, 3]
        assert skipped == 0

    def test_skip_header(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("value\n1\n2\n")
        values, skipped = ingest(f, skip_header=True)
        assert values.tolist() == [1, 2]
        assert skipped == 1

    def test_skip_invalid_counts(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1\nNaN\n2\n")
        values, skipped = ingest(f, skip_invalid=True)
        assert values.tolist() == [1, 2]
        assert skipped == 1

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
        values, skipped = ingest(f, skip_header=True, skip_invalid=True)
        assert values.tolist() == [1.5, -2e-3, 7.0]
        assert skipped == 1
        f.write_bytes(b"\n1\n2")  # a blank line 1 is no header
        values, skipped = ingest(f, skip_header=True)
        assert values.tolist() == [1.0, 2.0] and skipped == 0

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
    kept as an oracle for files that are UTF-8 text."""
    skipped = 0

    def parsed(fh):
        nonlocal skipped
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if skip_header and lineno == 1:
                skipped += 1
                continue
            try:
                v = float(text)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                if skip_invalid:
                    skipped += 1
                    continue
                raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
            yield v

    with open(path, "r", encoding="utf-8") as fh:
        values = np.fromiter(parsed(fh), dtype=float)
    if not values.size:
        raise ValueError(f"{path}: no data values found")
    return values, skipped


def _outcome(parse, path, **flags):
    try:
        values, skipped = parse(path, **flags)
    except ValueError as exc:
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes(), skipped


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
])
def test_floats_splits_values_from_bad_lines(lines, values, bad):
    # one entry per line: NaN where float() raises, float(line) elsewhere
    got = cli._floats(lines)
    assert got.dtype == np.float64 and got.shape == (len(lines),)
    assert np.isnan(got[bad]).all()
    np.testing.assert_array_equal(np.delete(got, bad), values)


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
    values, skipped = ingest(f, skip_invalid=True)
    assert values.tolist() == [1.0, 2.0, 3.0] and skipped == 2
    assert seen == [2, 4, 5]


def test_separator_wrapped_number_keeps_its_place(tmp_path):
    # str.strip() removes \x1c-\x1f and float() does not: `_scan` reads the line
    f = tmp_path / "d.txt"
    f.write_text("1\n\x1c2\x1f\n3\nx\n", encoding="utf-8")
    with mock.patch.object(cli, "_BLOCK_LINES", 3):
        values, skipped = ingest(f, skip_invalid=True)
    assert values.tolist() == [1.0, 2.0, 3.0] and skipped == 1


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

    def test_requires_beta_or_phi(self, normal_files, capsys):
        f = normal_files("x.txt", 0, 100, 10)
        rc = main(["ks2", "--file-x", str(f), "--file-y", str(f)])
        assert rc == 1
        assert "phi" in capsys.readouterr().err

    def test_not_utf8_file_fails_with_location(self, tmp_path, normal_files, capsys):
        fx = normal_files("x.txt", 0, 100, 11)
        fy = tmp_path / "y.txt"
        fy.write_bytes(b"1.5\n2.5\n\xff\xfe\n")
        rc = main(["ks2", "--file-x", str(fx), "--file-y", str(fy), "--phi", "0.05"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"sketchks: error: {fy}:3: not UTF-8 text: b'\\xff\\xfe'\n")

    def test_one_line_file_fails(self, tmp_path, capsys):
        f = tmp_path / "one.txt"
        f.write_text("1.5\n")
        rc = main(["ks2", "--file-x", str(f), "--file-y", str(f), "--phi", "0.05"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchks: error:")
        assert "cannot reach" in err

    def test_zero_beta_names_beta(self, normal_files, capsys):
        f = normal_files("x.txt", 0, 100, 10)
        rc = main(["ks2", "--file-x", str(f), "--file-y", str(f), "--beta", "0"])
        assert rc == 1
        assert "beta must be positive, got 0.0" in capsys.readouterr().err


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


class TestCdfCommand:
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
