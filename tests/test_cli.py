import json
import warnings

import numpy as np
import pytest

from roughpaths import EuclideanPath, TimeGrid
from roughpaths.cli import main, read_path_csv, write_path_csv
from conftest import random_walk_path


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
], ids=["missing-kind", "depth-not-int", "norm-max-nested", "dist-max-nested", "no-command",
        "unknown-command"])
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
    assert main(["solve", str(f), "--field", field_json, "--y0", "abc"]) == 3
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
], ids=["no-coefficients", "no-matrices", "no-offsets", "unknown-family", "no-family",
        "coefficients-list", "matrices-string", "n-not-integer", "negative-box-radius"])
def test_solve_bad_field_spec_exit3(tmp_path, capsys, spec):
    fj = tmp_path / "f.json"
    fj.write_text(json.dumps(spec))
    f = tmp_path / "t.csv"
    write_path_csv(EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: t), f)
    assert main(["solve", str(f), "--field", str(fj), "--y0", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
