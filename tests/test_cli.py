import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import roughpaths
from roughpaths import (DistKind, EuclideanPath, NormKind, NormSpec, TimeGrid, compute_norm,
                        holder_norm, nikolskii_norm)
from roughpaths.cli import main, read_path_csv, write_path_csv
from conftest import dyadic_pair, random_walk_path


@pytest.fixture
def linear_csv(tmp_path):
    f = tmp_path / "lin.csv"
    rows = ["t,x1"] + [f"{t},{t}" for t in np.linspace(0.0, 1.0, 9)]
    f.write_text("\n".join(rows) + "\n")
    return str(f)


@pytest.fixture
def field_json(tmp_path):
    f = tmp_path / "field.json"
    f.write_text(json.dumps({
        "family": "linear", "m": 1, "n": 1,
        "coefficients": {"matrices": [[[1.0]]]},
        "box_radius": 10.0, "lip_gamma": 2.5,
    }))
    return str(f)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_roundtrip_lossless(tmp_path, rng):
    path = random_walk_path(rng, 17, 3, uniform=False)
    f = tmp_path / "p.csv"
    write_path_csv(path, f)
    back = read_path_csv(f)
    np.testing.assert_array_equal(back.grid.times, path.grid.times)
    np.testing.assert_array_equal(back.values, path.values)


def test_csv_parse_errors(tmp_path):
    from roughpaths import CsvFormatError

    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0.0,0.0\noops,1.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_path_csv(bad)
    assert err.value.line == 3

    bad.write_text("time,x1\n0.0,0.0\n")
    with pytest.raises(CsvFormatError):
        read_path_csv(bad)

    bad.write_text("t,x1\n0.0,0.0,9\n")
    with pytest.raises(CsvFormatError):
        read_path_csv(bad)


def test_csv_with_utf8_bom(tmp_path, capsys):
    # "CSV UTF-8" as spreadsheet programs save it starts with a byte order mark
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf" + b"t,x1,x2\n0,0,0\n1,1,1\n")
    assert main(["norm", str(f), "--kind", "hoelder"]) == 0
    assert capsys.readouterr().out == "1.41421356237\n"


def per_line_read(path) -> EuclideanPath:
    """Reference reader: the path CSV decoded and converted line by line with
    float(), numbers that are not ASCII or hold an underscore refused, each
    error named by its line number in the file."""
    from roughpaths import CsvFormatError, ParameterError

    # universal newlines, as the reader's text mode reads them
    raw = re.split(rb"\r\n|\r|\n", path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
    text = []
    for n, line in enumerate(raw, start=1):
        # the newline after a line ends a truncated sequence as it does in the file
        end = b"\n" if n < len(raw) else b""
        try:
            text.append((line + end).decode("utf-8").removesuffix("\n"))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(n, f"not UTF-8: {exc.reason}") from exc
    lines = [(n, ln) for n, ln in enumerate(text, start=1) if ln.strip() != ""]
    if not lines:
        raise CsvFormatError(0, "empty file")
    ncols = len(lines[0][1].split(","))
    times, rows = [], []
    for lineno, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != ncols:
            raise CsvFormatError(lineno, f"expected {ncols} fields, got {len(fields)}")
        nums = []
        for f in fields:
            if not f.isascii() or "_" in f:
                raise CsvFormatError(lineno, f"not an ASCII number without underscores: {f!r}")
            try:
                nums.append(float(f))
            except ValueError as exc:
                raise CsvFormatError(lineno, str(exc)) from exc
        if not all(math.isfinite(v) for v in nums):
            raise CsvFormatError(lineno, "times and values must be finite")
        if not times and nums[0] != 0.0:
            raise CsvFormatError(lineno, f"times start at 0, got {nums[0]!r}")
        if times and not nums[0] > times[-1]:
            raise CsvFormatError(lineno, f"times must increase strictly, got {nums[0]!r} "
                                         f"after {times[-1]!r}")
        times.append(nums[0])
        rows.append(nums[1:])
    try:
        return EuclideanPath(TimeGrid(np.array(times)), np.array(rows))
    except ParameterError as exc:
        raise CsvFormatError(0, str(exc)) from exc


CSV_BODIES = {
    "crlf": "t,x1,x2\r\n0,0.5,1\r\n0.25,1e-3,-2\r\n1,3,4\r\n",
    "blank-lines": "t,x1\n\n0,1\n  \n0.5,2\n\n\n1,3\n\n",
    "spaces": "t,x1\n 0 , 1000.5\n0.5\t,20\n10, -0.0 \n",
    "spaces-underscores": "t,x1\n 0 , 1_000.5\n0.5\t,2_0\n1_0, -0.0 \n",
    "other-digits": "t,x1\n0,0\n0.5,\u0661\n1,\uff12\n",
    "other-digit-after-bad-number": "t,x1\n0,0\n0.5,x,\uff12\n",
    "bad-number-after-other-digit": "t,x1\n0,0\n0.5,\uff12\n1,x\n",
    "other-space": "t,x1\n0,0\n0.5,\u00a01\n1,2\n",
    "other-space-line": "t,x1\n0,0\n\u00a0\n0.5,1\n1,2\n",
    "bom": "\ufefft,x1\n0,1\n1,2\n",
    "field-count": "t,x1\n0,1\n0.5,2\n0.75,1,2\n1,3,4\n",
    "field-count-after-bad-number": "t,x1\n0,1\n0.5,x\n0.75,1,2\n",
    "bad-number-after-field-count": "t,x1\n0,1\n0.5,1,2\n0.75,x\n",
    "non-numeric": "t,x1,x2\n0,1,2\n0.5,2,1__0\n1,3,4\n",
    "empty-field": "t,x1\n0,1\n0.5,\n",
    "nan-value": "t,x1\n0,1\n0.5,nan\n1,2\n",
    "inf-value": "t,x1\n0,1\n0.5,-Infinity\n1,2\n",
    "nan-time": "t,x1\n0,1\nNaN,2\n1,2\n",
    "inf-time": "t,x1\n0,1\n0.5,2\ninf,2\n",
    "header-only": "t,x1\n",
    "bad-number-after-blank": "t,x1\n\n0,1\nbad,2\n",
    "field-count-after-blank": "t,x1\n\n\n0,1\n0.5,1,2\n",
    "blank-before-header": "\n\nt,x1\n0,1\n0.5,x\n",
    "non-increasing": "t,x1\n0,1\n0.5,2\n0.5,3\n",
    "non-zero-start": "t,x1\n\n0.5,1\n1,2\n",
}


@pytest.mark.parametrize("body, line", [
    ("t,x1\n\n0,1\nbad,2\n", 4),
    ("t,x1\n\n0,1\n  \n0.5,1,2\n", 5),
    ("\n\nt,y1\n0,1\n", 3),
    ("t,x1\n0,1\n\n0.5,nan\n", 4),
    ("t,x1\n0,1\n0.5,2\n\n0.25,3\n", 5),
    ("t,x1\n\n0.5,1\n1,2\n", 3),
    ("t,x1\n0,0\n0.5,1_0\n1,2\n", 3),
    ("t,x1\n0,0\n0.5,\u0661\n1,\uff12\n", 3),
    ("t,x1\n0,0\n0.5,1\n\n1,\uff12\n", 5),
    (b"t,x1\n0,0\n0.5,\xff1\n1,2\n", 3),
    (b"\xef\xbb\xbft,x1\n\n0,0\n0.5,\xe2\x82\n1,2\n", 4),
])
def test_csv_errors_name_the_line_of_the_file(tmp_path, capsys, body, line):
    # blank lines count: the number is the bad line's own line in the file
    f = tmp_path / "p.csv"
    f.write_bytes(body if isinstance(body, bytes) else body.encode())
    assert main(["norm", str(f), "--kind", "qvar", "--p", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def assert_reads_as_per_line(f):
    from roughpaths import CsvFormatError

    try:
        want = per_line_read(f)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as err:
            read_path_csv(f)
        assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        return
    got = read_path_csv(f)
    assert np.array_equal(got.grid.times, want.grid.times)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("name", sorted(CSV_BODIES))
def test_csv_parse_equals_per_line_reading(tmp_path, name):
    f = tmp_path / f"{name}.csv"
    f.write_bytes(CSV_BODIES[name].encode("utf-8"))
    assert_reads_as_per_line(f)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                                   st.sampled_from(["1_0", " 2 ", "3\r", "x", "", "1e999",
                                                    "\u0661", "\uff12"])),
                         min_size=2, max_size=3),
                min_size=1, max_size=6))
def test_csv_parse_equals_per_line_reading_fuzz(tmp_path_factory, rows):
    f = tmp_path_factory.mktemp("csv") / "p.csv"
    f.write_text("t,x1\n" + "".join(",".join(r) + "\n" for r in rows))
    assert_reads_as_per_line(f)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.binary(max_size=8),
                          st.sampled_from([b"0,0", b"0.5,1", b"1,2", b"0.5,1_0",
                                           b"\xef\xbb\xbf", b"\xc3\xa9"])),
                min_size=1, max_size=5))
@example([b"0,0", b"0.5,\xff1", b"1,2"])
@example([b"0,0", b"0.5,\xc3", b"1,2"])
def test_csv_bytes_parse_equals_per_line_reading_fuzz(tmp_path_factory, lines):
    # raw bytes, UTF-8 or not: a bad byte names its line as any other error
    f = tmp_path_factory.mktemp("csv") / "p.csv"
    f.write_bytes(b"t,x1\n" + b"\n".join(lines))
    assert_reads_as_per_line(f)


# ---------------------------------------------------------------------------
# norm command
# ---------------------------------------------------------------------------

def test_norm_qvar_linear(linear_csv, capsys):
    assert main(["norm", linear_csv, "--kind", "qvar", "--p", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_norm_riesz_closed_form(linear_csv, capsys, tmp_path):
    out = tmp_path / "r.json"
    code = main(["norm", linear_csv, "--kind", "rieszv", "--delta", "0.5",
                 "--p", "4", "--json", str(out)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["value"] == pytest.approx(1.0)
    assert payload["grid_points"] == 9


def test_norm_constant_zero(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text("t,x1\n" + "\n".join(f"{t},2.0" for t in np.linspace(0, 1, 5)) + "\n")
    for kind in ("hoelder", "qvar", "rieszv", "mixedv", "nikolskii",
                 "refinednikolskii", "fracsobolev"):
        args = ["norm", str(f), "--kind", kind, "--delta", "0.5", "--p", "3"]
        assert main(args) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0


def test_norm_hoelder_inf_p(linear_csv, capsys):
    assert main(["norm", linear_csv, "--kind", "rieszv", "--delta", "0.5",
                 "--p", "inf"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_norm_of_a_walk_beyond_the_square_range(tmp_path, capsys):
    # every squared difference of the walk overflows
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    csv = tmp_path / "big.csv"
    write_path_csv(EuclideanPath(f.grid, 1e200 * f.values), csv)
    big = read_path_csv(csv)
    for kind, want in (("hoelder", holder_norm(f, 0.4)),
                       ("nikolskii", nikolskii_norm(f, 0.4, 4.0))):
        assert main(["norm", str(csv), "--kind", kind, "--delta", "0.4", "--p", "4"]) == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(1e200 * want, rel=1e-11)
    assert main(["norm", str(csv), "--kind", "hoelder", "--delta", "0.4"]) == 0
    assert capsys.readouterr().out == f"{holder_norm(big, 0.4):.12g}\n"


def test_norm_of_a_far_walk_in_range(tmp_path, capsys):
    # steps of 2.5e-201 and values near 1e150: the Nikolskii sums as written
    # leave the float range, the value, about 1e230, does not
    f = tmp_path / "far.csv"
    f.write_text("t,x1,x2\n0,0,0\n2.5e-201,1e150,5e149\n5e-201,5e149,1.5e150\n"
                 "7.5e-201,1.5e150,1e150\n1e-200,1e150,2e150\n")
    unit = EuclideanPath(TimeGrid.uniform(4), read_path_csv(f).values / 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("nikolskii", "refinednikolskii", "fracsobolev", "rieszv"):
            assert main(["norm", str(f), "--kind", kind, "--delta", "0.9", "--p", "2"]) == 0
            got = float(capsys.readouterr().out)
            want = compute_norm(unit, NormSpec(NormKind(kind), 0.9, 2.0)) * 1e150 * 1e-200**-0.4
            assert got == pytest.approx(want, rel=1e-11)


def test_norm_interval(linear_csv, capsys):
    assert main(["norm", linear_csv, "--kind", "qvar", "--p", "1",
                 "--interval", "0.25:0.75"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)


def test_norm_bad_kind(linear_csv, capsys):
    assert main(["norm", linear_csv, "--kind", "wat", "--p", "2"]) == 3


def test_norm_parameter_violation(linear_csv):
    assert main(["norm", linear_csv, "--kind", "rieszv", "--delta", "0.5",
                 "--p", "1.5"]) == 3


def test_norm_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0.5,0.0\n1.0,1.0\n")  # does not start at 0
    assert main(["norm", str(bad), "--kind", "qvar", "--p", "2"]) == 2


def test_unexpected_exception_exit6(linear_csv, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("an internal defect\nspanning two lines")

    monkeypatch.setattr("roughpaths.cli.compute_norm", crash)
    assert main(["norm", linear_csv, "--kind", "qvar", "--p", "2"]) == 6
    err = capsys.readouterr().err
    assert err == "error: internal error: ZeroDivisionError: an internal defect spanning two lines\n"


@pytest.mark.parametrize("argv", [
    ["norm", "{csv}"],  # --kind missing
    ["sig", "{csv}", "--depth", "x"],
    ["norm", "{csv}", "--kind", "refinednikolskii", "--p", "4", "--max-nested", "600"],
    ["dist", "{csv}", "{csv}", "--kind", "nikolskiihat", "--p", "4", "--max-nested", "600"],
    [],
    ["nope"],
    ["norm", "{csv}", "--kind", "hoelder", "--delta", "0.5", "--interval", "0.0:0.5_0"],
    ["norm", "{csv}", "--kind", "hoelder", "--delta", "0.5_0"],
    ["norm", "{csv}", "--kind", "qvar", "--p", "\uff14"],
    ["dist", "{csv}", "{csv}", "--kind", "qvar", "--p", "2", "--depth", "\uff12"],
    ["verify", "--suite", "algebra", "--seed", "\u0661"],
], ids=["missing-kind", "depth-not-int", "norm-max-nested", "dist-max-nested", "no-command",
        "unknown-command", "interval-underscore", "delta-underscore", "p-fullwidth",
        "depth-fullwidth", "seed-arabic-indic"])
def test_usage_errors_exit3(linear_csv, capsys, argv):
    assert main([a.format(csv=linear_csv) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    for argv in (["--help"], ["norm", "--help"], ["dist", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: roughpaths")


# ---------------------------------------------------------------------------
# sig command
# ---------------------------------------------------------------------------

def test_sig_single_segment(tmp_path, capsys):
    f = tmp_path / "seg.csv"
    f.write_text("t,x1,x2\n0.0,0.0,0.0\n1.0,1.0,0.0\n")
    assert main(["sig", str(f), "--depth", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"][0] == 1.0
    assert payload["levels"][1] == [1.0, 0.0]
    assert payload["levels"][2] == [[0.5, 0.0], [0.0, 0.0]]


def test_sig_two_segment_level2(tmp_path, capsys):
    f = tmp_path / "l.csv"
    f.write_text("t,x1,x2\n0.0,0.0,0.0\n0.5,1.0,0.0\n1.0,1.0,1.0\n")
    assert main(["sig", str(f), "--depth", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"][2] == [[0.5, 1.0], [0.0, 0.5]]


def test_sig_constant_identity(tmp_path, capsys):
    f = tmp_path / "c.csv"
    f.write_text("t,x1\n0.0,3.0\n0.5,3.0\n1.0,3.0\n")
    assert main(["sig", str(f), "--depth", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"][1] == [0.0]
    assert payload["levels"][3] == [[[0.0]]]


def test_sig_depth_cap(tmp_path, linear_csv):
    assert main(["sig", linear_csv, "--depth", "9"]) == 3


# ---------------------------------------------------------------------------
# dist command
# ---------------------------------------------------------------------------

def test_dist_identical_zero(linear_csv, capsys):
    assert main(["dist", linear_csv, linear_csv, "--kind", "riesz",
                 "--delta", "0.45", "--p", "4", "--depth", "2"]) == 0
    assert float(capsys.readouterr().out.splitlines()[0]) == 0.0


def test_dist_depth1_matches_difference_norm(tmp_path, capsys, rng):
    from roughpaths import riesz_norm

    p1 = random_walk_path(rng, 8, 1)
    p2 = EuclideanPath(p1.grid, 1.5 * p1.values)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(p1, f1)
    write_path_csv(p2, f2)
    assert main(["dist", str(f1), str(f2), "--kind", "riesz", "--delta", "0.45",
                 "--p", "4", "--depth", "1"]) == 0
    got = float(capsys.readouterr().out.splitlines()[0])
    diff = EuclideanPath(p1.grid, p1.values - p2.values)
    assert got == pytest.approx(riesz_norm(diff, 0.45, 4.0), rel=1e-10)


@pytest.mark.parametrize("p_args", [["--p", "inf"], []])
def test_dist_infinite_or_missing_p_exit3(tmp_path, capsys, rng, p_args):
    p1 = random_walk_path(rng, 8, 2)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(p1, f1)
    write_path_csv(EuclideanPath(p1.grid, 1.1 * p1.values), f2)
    for kind in ("riesz", "mixed", "nikolskiihat", "qvar"):
        code = main(["dist", str(f1), str(f2), "--kind", kind, *p_args])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        if p_args:
            assert err == f"error: the {kind} distance needs a finite p\n"


def test_dist_beyond_the_float_range_exit3(tmp_path, capsys):
    # differences near 1e150 over gaps near 1e-300: no value, no warning
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    values = 1e150 / np.ptp(f.values) * f.values
    f1, f2 = tmp_path / "far-a.csv", tmp_path / "far-b.csv"
    write_path_csv(EuclideanPath(TimeGrid.uniform(32, 1e-300), values), f1)
    write_path_csv(EuclideanPath(TimeGrid.uniform(32, 1e-300), 1.1 * values), f2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dist", str(f1), str(f2), "--depth", "1", "--kind", "riesz",
                     "--delta", "1", "--p", "4"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "error: rho_riesz_level leaves the float range on this input\n"


def test_dist_nikolskii_hat_of_zero_one_step_differences(tmp_path, capsys):
    # every one-step level-2 difference of the pair is 0 and every power
    # underflows at p = 300; the level-2 distance is not 0
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f, path in zip((f1, f2), dyadic_pair(8)):
        write_path_csv(path, f)
    assert main(["dist", str(f1), str(f2), "--depth", "2", "--kind", "nikolskiihat",
                 "--delta", "0.5", "--p", "300"]) == 0
    levels = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[1:])
    assert float(levels["level 2"]) > 0.0


def test_norm_nan_p_exit3(linear_csv):
    assert main(["norm", linear_csv, "--kind", "rieszv", "--delta", "0.5",
                 "--p", "nan"]) == 3


def test_norm_non_numeric_p_exit3(linear_csv, capsys):
    assert main(["norm", linear_csv, "--kind", "rieszv", "--delta", "0.5",
                 "--p", "abc"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dist_grid_mismatch_exit4(tmp_path, rng):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(random_walk_path(rng, 8, 1), f1)
    write_path_csv(random_walk_path(rng, 9, 1), f2)
    assert main(["dist", str(f1), str(f2), "--kind", "qvar", "--p", "2"]) == 4


def test_dist_golden_fixture(tmp_path, capsys, rng):
    # frozen from the enumeration oracle on this seeded pair
    from roughpaths import lift
    from roughpaths.oracle import oracle_rho_riesz

    p1 = random_walk_path(rng, 6, 2)
    p2 = EuclideanPath(p1.grid, p1.values + 0.1 * random_walk_path(rng, 6, 2).values)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(p1, f1)
    write_path_csv(p2, f2)
    x1, x2 = lift(p1, 2), lift(p2, 2)
    golden = max(oracle_rho_riesz(x1, x2, 0.45, 4.0, k) for k in (1, 2))
    assert main(["dist", str(f1), str(f2), "--kind", "riesz", "--delta", "0.45",
                 "--p", "4", "--depth", "2"]) == 0
    got = float(capsys.readouterr().out.splitlines()[0])
    assert got == pytest.approx(golden, rel=1e-9)


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def test_solve_exponential(tmp_path, field_json, capsys):
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(100), lambda t: t), f)
    out = tmp_path / "sol.csv"
    assert main(["solve", str(f), "--field", field_json, "--y0", "1.0",
                 "--depth", "1", "--substeps", "100", "--out", str(out)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(np.e, abs=2e-4)
    sol = read_path_csv(out)
    assert sol.grid.intervals == 100 * 100


def test_solve_rough_depth2(tmp_path, field_json, capsys):
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(64), lambda t: t), f)
    assert main(["solve", str(f), "--field", field_json, "--y0", "1.0",
                 "--depth", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(np.e, abs=1e-3)


def test_solve_constant_field_affine_output(tmp_path, capsys):
    spec = {"family": "affine", "m": 1, "n": 1,
            "coefficients": {"matrices": [[[0.0]]], "offsets": [[2.0]]},
            "box_radius": 50.0, "lip_gamma": 2.0}
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", "1.0"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(3.0)


def test_solve_non_numeric_y0_exit3(tmp_path, field_json, capsys):
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    for y0 in ("abc", "1_0", "\u0661"):  # an underscore or another script's digit too
        assert main(["solve", str(f), "--field", field_json, "--y0", y0]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec", [
    {"family": "linear", "m": 1, "n": 1},
    {"family": "linear", "m": 1, "n": 1, "coefficients": {}},
    {"family": "affine", "m": 1, "n": 1, "coefficients": {"matrices": [[[1.0]]]}},
    {"family": "spline", "m": 1, "n": 1, "coefficients": {"matrices": [[[1.0]]]}},
    {"m": 1, "n": 1, "coefficients": {"matrices": [[[1.0]]]}},
    {"family": "linear", "m": 1, "n": 1, "coefficients": []},
    {"family": "linear", "m": 1, "n": 1, "coefficients": {"matrices": "abc"}},
    {"family": "polynomial", "m": 1, "n": "x", "coefficients": {"matrices": [[[1.0]]]}},
    {"family": "linear", "m": 1, "n": 1, "coefficients": {"matrices": [[[1.0]]]},
     "box_radius": -1.0},
    # symmetrising overflows: refused with no NumPy warning before the error line
    {"family": "polynomial", "m": 1, "n": 1,
     "coefficients": {"matrices": [[[0.1]]], "quadratics": [[[[1e308]]]]}},
], ids=["no-coefficients", "no-matrices", "no-offsets", "unknown-family", "no-family",
        "coefficients-list", "matrices-string", "n-not-integer", "negative-box-radius",
        "huge-quadratic"])
def test_solve_bad_field_spec_exit3(tmp_path, capsys, spec):
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_field_spec_not_utf8_exit3(tmp_path, capsys):
    fj = tmp_path / "f.json"
    fj.write_bytes(b"\xff\xfe" + json.dumps({"family": "linear"}).encode("utf-16-le"))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read field spec {fj}: ") and err.count("\n") == 1


def test_solve_oversized_substeps_exit3(tmp_path, field_json, capsys):
    # 2^50 substeps a step would need petabytes: the grid's size check
    # rejects them before anything is allocated
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", field_json, "--y0", "0.5",
                 "--substeps", str(2**50)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "entries" in err


def test_solve_rough_rejects_substeps_exit3(tmp_path, field_json, capsys):
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", field_json, "--y0", "1.0",
                 "--depth", "2", "--substeps", "7"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_blow_up_exit5(tmp_path, capsys):
    spec = {"family": "polynomial", "m": 1, "n": 1,
            "coefficients": {"matrices": [[[0.0]]], "quadratics": [[[[4.0]]]]},
            "box_radius": 2.0, "lip_gamma": 2.5}
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(400), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", "2.0"]) == 5


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_solve_non_finite_state_blows_up_exit5(tmp_path, capsys, depth):
    # entries of 1e200 overflow at the first step; at depth 3 the state turns
    # NaN there, which no norm comparison flags
    spec = {"family": "linear", "m": 2, "n": 1,
            "coefficients": {"matrices": [[[1e200, -1e200], [1e200, 1e200]]]},
            "box_radius": 10.0}
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10),
                                               lambda t: np.sin(5 * t)), f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", str(f), "--field", str(fj), "--y0", "1,1",
                     "--depth", str(depth)])
    assert code == 5
    assert capsys.readouterr().err == "error: solution left the validity box at t=0.1\n"


@pytest.mark.parametrize("y0", ["nan,0", "0,inf"])
@pytest.mark.parametrize("depth", ["1", "2"])
def test_solve_non_finite_y0_exit3(tmp_path, capsys, y0, depth):
    spec = {"family": "linear", "m": 2, "n": 1,
            "coefficients": {"matrices": [[[0.0, 1.0], [-1.0, 0.0]]]}}
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", y0, "--depth", depth]) == 3
    assert capsys.readouterr().err == "error: y0 contains non-finite entries\n"


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_algebra_pass_and_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "--suite", "algebra", "--seed", "7",
                 "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "algebra", "--seed", "7",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "algebra_report.json").read_bytes()
    b2 = (out2 / "algebra_report.json").read_bytes()
    assert b1 == b2


def test_oracle_and_verify_run_without_scipy(tmp_path):
    # SciPy is a test dependency: only oracle.cc_norm_bruteforce imports it,
    # when called.  Blocked in a fresh interpreter, the package still loads
    # and a verify suite runs
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import roughpaths.oracle\n"
            "from roughpaths.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(roughpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, "verify", "--suite", "distances",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.rstrip().endswith("suite ok")


def test_cli_import_leaves_the_suites_unloaded():
    # only `verify` loads the suites: a fresh interpreter's import of the CLI
    # leaves verify, the oracle and SciPy out of sys.modules
    code = ("import sys, roughpaths.cli\n"
            "print(sorted(m for m in sys.modules if m in "
            "('roughpaths.verify', 'roughpaths.oracle') or m.split('.')[0] == 'scipy'))")
    src = str(Path(roughpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_verify_unknown_suite_exit3(capsys):
    assert main(["verify", "--suite", "nope"]) == 3


@pytest.mark.parametrize("suite", ["algebra", "lipschitz"])
def test_verify_negative_seed_exit3(tmp_path, capsys, suite):
    out = tmp_path / "reports"
    assert main(["verify", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["norm", "sig", "dist", "solve", "verify"])
def test_unwritable_output_exit3(tmp_path, field_json, capsys, command):
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    missing = str(tmp_path / "missing-dir" / "out")
    argv = {
        "norm": ["norm", str(f), "--kind", "hoelder", "--delta", "0.5", "--json", missing],
        "sig": ["sig", str(f), "--json", missing],
        "dist": ["dist", str(f), str(f), "--kind", "riesz", "--p", "4", "--json", missing],
        "solve": ["solve", str(f), "--field", field_json, "--y0", "1.0", "--out", missing],
        # the report directory names an existing file
        "verify": ["verify", "--suite", "distances", "--out", str(f)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzz: norm and dist never crash, trace back or warn
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_csvs(tmp_path_factory):
    # 2-D paths on one uniform grid of 12 points (walks at three scales and a
    # constant), a non-uniform grid, and a 1-D path for dimension mismatches
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 12)
    walk = np.vstack([np.zeros((1, 2)), np.cumsum(rng.standard_normal((11, 2)), axis=0)])
    bump = np.vstack([np.zeros((1, 2)), np.cumsum(rng.standard_normal((11, 2)), axis=0)])
    files = {
        "walk": (walk, times), "near": (walk + 0.3 * bump, times),
        "tiny": (1e-3 * walk, times), "huge": (1e3 * walk, times),
        "flat": (np.ones_like(walk), times),
        "skew": (walk, np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 10)), [1.0]])),
        "line": (walk[:, :1], times),
    }
    for name, (values, t) in files.items():
        write_path_csv(EuclideanPath(TimeGrid(t), values), root / f"{name}.csv")
    return {name: str(root / f"{name}.csv") for name in files}


_NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "1.5", "2", "4", "1e-300", "1e300", "5e-324", "-1",
                     "inf", "-inf", "nan", "Infinity", "abc", ""]),
    st.floats(1e-9, 1e9).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# mostly admissible values, so that most calls reach the numerics
_DELTAS = st.one_of(st.sampled_from(["0.3", "0.45", "0.5", "1", "1e-3"]),
                    st.floats(1e-6, 1.0).map(repr), _NUMBERS)
_PS = st.one_of(st.sampled_from(["2", "4", "8", "inf", "600", "1e4", "1e300"]),
                st.floats(1.0, 1e6).map(repr), _NUMBERS)
_TIMES = np.linspace(0.0, 1.0, 12).tolist()
_GRID_SPANS = st.tuples(st.integers(0, 11), st.integers(0, 11)).map(
    lambda ij: f"{_TIMES[ij[0]]!r}:{_TIMES[ij[1]]!r}")
_INTERVALS = st.one_of(
    _GRID_SPANS, _GRID_SPANS,
    st.tuples(_NUMBERS, _NUMBERS).map(":".join),
    st.sampled_from(["0.5", "a:b", "0:1:2"]),
)


@st.composite
def cli_calls(draw):
    names = ["walk", "near", "tiny", "huge", "flat", "skew", "line"]
    if draw(st.booleans()):
        argv = ["norm", draw(st.sampled_from(names)), "--kind",
                draw(st.sampled_from([k.value for k in NormKind] * 3 + ["bogus"]))]
    else:
        same_grid = ["walk", "near", "tiny", "huge", "flat"]
        argv = ["dist", draw(st.sampled_from(same_grid)),
                draw(st.sampled_from(same_grid * 3 + ["skew", "line"])), "--kind",
                draw(st.sampled_from([k.value for k in DistKind] * 3 + ["bogus"])),
                "--depth", draw(st.sampled_from(["1", "2", "3", "4", "1", "2", "0"]))]
    for option, values, odds in (("--delta", _DELTAS, 9), ("--p", _PS, 9),
                                 ("--interval", _INTERVALS, 2)):
        if draw(st.integers(0, 9)) < odds:
            argv.append(f"{option}={draw(values)}")  # "=": a value may start with "-"
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_calls())
@example(["dist", "walk", "near", "--kind", "riesz", "--delta", "0.5", "--p", "1e300"])
@example(["dist", "walk", "near", "--kind", "qvar", "--p", "600", "--depth", "1"])
@example(["norm", "tiny", "--kind", "qvar", "--p", "1000"])
@example(["norm", "tiny", "--kind", "fracsobolev", "--delta", "0.5", "--p", "1e4"])
@example(["norm", "flat", "--kind", "rieszv", "--delta", "0.5", "--p", "1e4"])
def test_norm_and_dist_fuzz_exit_cleanly(fuzz_csvs, argv):
    argv = [fuzz_csvs.get(a, a) if i in (1, 2) else a for i, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        assert math.isfinite(float(out.getvalue().split("\n")[0]))
    else:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@st.composite
def csv_contents(draw):
    """A path CSV and the number of its first bad line in the file: None when
    it parses, 0 when it has no bad line but fewer than two data rows.

    Lines are drawn as kinds: a good row, a blank line, a field float()
    rejects, a wrong field count, a non-finite field, or a time that does
    not increase (does not start at 0 on the first row).
    """
    n = draw(st.integers(1, 2))
    lines = [""] * draw(st.integers(0, 1))
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1))
    bad = None
    if draw(st.integers(0, 9)) == 0:
        header, bad = draw(st.sampled_from(["t,y1", "x1,t", "t"])), len(lines) + 1
    lines.append(header)
    t, rows = None, 0
    kinds = ["row"] * 6 + ["blank", "float", "count", "nonfinite", "order"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        good = draw(st.sampled_from([0.25, 1e-3, 7.0])) if t is not None else 0.0
        time = good + (t or 0.0)
        fields = [repr(time)] + [repr(draw(st.floats(-1e3, 1e3))) for _ in range(n)]
        if kind == "float":
            fields[draw(st.integers(0, n))] = draw(st.sampled_from(["x", "1__0", "", "0x1"]))
        elif kind == "count":
            fields.append("1")
        elif kind == "nonfinite":
            fields[draw(st.integers(0, n))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
        elif kind == "order":
            fields[0] = repr(t if t is not None else draw(st.sampled_from([0.5, -1.0])))
        else:
            t, rows = time, rows + 1
        lines.append(",".join(fields))
        if kind != "row" and bad is None:
            bad = len(lines)
    if bad is None and rows < 2:
        bad = 0
    bom = "\ufeff" if draw(st.booleans()) else ""  # a byte order mark starts the file
    return bom + "\n".join(lines) + "\n", bad


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(csv_contents(), st.sampled_from([
    ["norm", "{f}", "--kind", "qvar", "--p", "2"],
    ["norm", "{f}", "--kind", "rieszv", "--delta", "0.5", "--p", "4"],
    ["norm", "{f}", "--kind", "nikolskii", "--delta", "0.5", "--p", "4"],
    ["dist", "{f}", "{f}", "--kind", "qvar", "--p", "2", "--depth", "2"],
    ["dist", "{f}", "{good}", "--kind", "riesz", "--delta", "0.5", "--p", "4"],
]))
def test_csv_contents_fuzz_exit_cleanly(tmp_path_factory, contents, argv):
    # exit 2 exactly when the file is bad, naming its first bad line
    text, bad = contents
    folder = tmp_path_factory.mktemp("csv")
    (folder / "f.csv").write_text(text, encoding="utf-8")
    (folder / "good.csv").write_text("t,x1\n0,0\n0.25,1\n0.5,0\n")
    argv = [a.format(f=folder / "f.csv", good=folder / "good.csv") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    assert (code == 2) == (bad is not None), err.getvalue()
    if bad is not None:
        assert err.getvalue().startswith(f"error: line {bad}: "), err.getvalue()


# ---------------------------------------------------------------------------
# fuzz: solve never crashes, traces back or warns
# ---------------------------------------------------------------------------

_SCALES = st.sampled_from([1.0, 1.0, 1e-3, 1e3, 1e150, 0.0])
_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e400", "-1e300", "5e-324"])


@st.composite
def driver_csvs(draw):
    # mostly well-formed drivers, with an occasional malformed header, grid or cell
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = draw(st.sampled_from([1.0, 1.0, 1e-9, 1e9]))
    times = (np.linspace(0.0, horizon, rows) if draw(st.booleans())
             else np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, max(rows - 1, 0)))]))
    values = draw(_SCALES) * np.cumsum(rng.standard_normal((rows, n)), axis=0)
    cells = [[repr(float(v)) for v in (t, *row)] for t, row in zip(times, values)]
    if cells and draw(st.integers(0, 9)) == 0:
        cells[draw(st.integers(0, rows - 1))][draw(st.integers(0, n))] = draw(_BAD_CELLS)
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1))
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from(["", "t", "x1,t", "t,x2", "t,x1,x1"]))
    return "\n".join([header] + [",".join(c) for c in cells]) + "\n", n


@st.composite
def field_specs(draw, n):
    # n driver dimensions, m state dimensions; shapes and entries mostly admissible
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from([n, n, n, n + 1]))

    def coefficient(shape):
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(["abc", [], [[1.0]], None, float("nan")]))
        return (draw(_SCALES) * rng.standard_normal(shape)).tolist()

    coefficients = {"matrices": coefficient((dims, m, m)), "offsets": coefficient((dims, m))}
    if draw(st.booleans()):
        coefficients["quadratics"] = coefficient((dims, m, m, m))
    spec = {"family": draw(st.sampled_from(["linear", "affine", "polynomial", "Polynomial",
                                            "bogus"])),
            "m": draw(st.sampled_from([m, m, m, "x", 0])), "n": dims,
            "coefficients": coefficients}
    for key, values in (("box_radius", [10.0, 1e-6, 1e300, -1.0, float("nan"), "r"]),
                        ("lip_gamma", [2.5, 1.0, 0.0, float("inf"), "g"])):
        if draw(st.booleans()):
            spec[key] = draw(st.sampled_from(values))
    text = json.dumps(spec)  # NaN and Infinity as JSON extensions
    if draw(st.integers(0, 19)) == 0:
        text = draw(st.sampled_from(["", "[]", "{", "null", '"linear"', text[:-1]]))
    y0 = ",".join(repr(float(v)) for v in draw(_SCALES) * rng.standard_normal(m))
    if draw(st.integers(0, 9)) == 0:
        y0 = draw(st.sampled_from(["", "1,", "nan", "1e400", "a", "1," * m + "1"]))
    return text, y0


@st.composite
def solve_calls(draw):
    csv, n = draw(driver_csvs())
    text, y0 = draw(field_specs(n))
    depth = draw(st.sampled_from(["1", "1", "2", "2", "3", "3", "0", "4"]))
    substeps = draw(st.sampled_from(["1", "1", "1", "2", "5", "0", "-1"]))
    return csv, text, ["--y0", y0, "--depth", depth, "--substeps", substeps]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(solve_calls())
@example(("t,x1\n0.0,0.0\n1.0,1e149\n",
          '{"family": "linear", "m": 1, "n": 1, "coefficients": {"matrices": [[[1.0]]]}}',
          ["--y0", "1", "--depth", "3", "--substeps", "1"]))  # the lift overflows
def test_solve_fuzz_exits_cleanly(tmp_path_factory, call):
    csv, text, options = call
    root = tmp_path_factory.mktemp("solve")
    (root / "driver.csv").write_text(csv, encoding="utf-8")
    (root / "field.json").write_text(text, encoding="utf-8")
    argv = ["solve", str(root / "driver.csv"), "--field", str(root / "field.json"), *options]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        assert all(math.isfinite(float(v)) for v in out.getvalue().strip().split(","))
    else:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
