import json

import numpy as np
import pytest

from roughpaths import EuclideanPath, TimeGrid, lift, resample_uniform
from roughpaths import verify
from roughpaths.distances import level_diff_matrix
from roughpaths.norms import dense_columns, dp_partition_sup, dp_power_table
from roughpaths.verify import (
    CheckRecord,
    PathFamily,
    RoughPairFamily,
    build_control_function,
    check_superadditivity,
    empirical_holder_exponent,
    ineq_record,
    negative_controls,
    run_suite,
    suite_ok,
    write_report_csv,
    write_report_json,
)


# ---------------------------------------------------------------------------
# records and exit logic
# ---------------------------------------------------------------------------

def test_ineq_record_pass_rule():
    assert ineq_record("x", 1.0, 1.0).passed
    assert not ineq_record("x", 1.0 + 1e-6, 1.0).passed
    assert ineq_record("x", 2.0, 1.0, constant=2.0).passed


def test_suite_ok_logic():
    good_hard = ineq_record("a", 0.5, 1.0)
    bad_hard = ineq_record("b", 2.0, 1.0)
    failing_control = CheckRecord("c", {}, 2.0, 1.0, 1.0, False, "negative_control")
    passing_control = CheckRecord("d", {}, 0.5, 1.0, 1.0, True, "negative_control")
    reported = CheckRecord("e", {}, 123.0, 0.0, "empirical", True, "reported")
    assert suite_ok([good_hard, failing_control, reported])
    assert not suite_ok([bad_hard, failing_control])
    assert not suite_ok([good_hard, passing_control])


# ---------------------------------------------------------------------------
# superadditivity checks
# ---------------------------------------------------------------------------

def test_superadditivity_additive_passes():
    recs = check_superadditivity(lambda s, t: t - s, TimeGrid.uniform(10).times)
    assert all(r.passed for r in recs)


def test_superadditivity_square_passes():
    recs = check_superadditivity(lambda s, t: (t - s) ** 2, TimeGrid.uniform(10).times,
                                 product_rule=False)
    assert recs[0].passed


def test_superadditivity_sqrt_fails():
    recs = check_superadditivity(lambda s, t: np.sqrt(t - s), TimeGrid.uniform(10).times,
                                 product_rule=False)
    assert not recs[0].passed


def test_superadditivity_product_rule_records():
    recs = check_superadditivity(lambda s, t: (t - s) ** 1.5, TimeGrid.uniform(8).times)
    ids = [r.check_id for r in recs]
    assert "superadditivity_product_0.5_0.5" in ids
    assert "superadditivity_product_1.0_0.2" in ids
    assert all(r.passed for r in recs)


# ---------------------------------------------------------------------------
# path families
# ---------------------------------------------------------------------------

def test_families_reproducible():
    f1 = PathFamily("random_walk", 3, 32, dim=2, seed=5).paths()
    f2 = PathFamily("random_walk", 3, 32, dim=2, seed=5).paths()
    for a, b in zip(f1, f2):
        np.testing.assert_array_equal(a.values, b.values)


def test_walk_refinement_is_genuine():
    fam = PathFamily("random_walk", 1, 16, seed=9)
    coarse = fam.paths(refine=1)[0]
    fine = fam.paths(refine=2)[0]
    np.testing.assert_allclose(fine.values[::2], coarse.values, atol=1e-15)


def test_fourier_derivative_consistent():
    (f, df), = PathFamily("smooth_fourier", 1, 1024, dim=2, seed=3).paths_with_derivatives()
    t = f.grid.times
    fd = np.gradient(f.values, t, axis=0)
    interior = slice(5, -5)
    scale = np.abs(df(t)).max()
    assert np.abs(fd[interior] - df(t)[interior]).max() < 1e-3 * scale


def test_fractional_exponent_diagnostic():
    for h in (0.3, 0.75):
        fam = PathFamily("fractional", 4, 512, seed=11, hurst=h)
        est = np.mean([empirical_holder_exponent(p) for p in fam.paths()])
        assert abs(est - h) < 0.2


def test_zigzag_paths_alternate():
    (z,) = PathFamily("zigzag", 1, 64, seed=2).paths()
    d = np.diff(z.values[::8, 0])
    assert np.all(d[1:] * d[:-1] < 0)  # alternating slopes piece by piece


def test_unknown_generator():
    from roughpaths import ParameterError

    with pytest.raises(ParameterError):
        PathFamily("bogus", 1, 8).paths()


def test_pair_family_common_grid():
    fam = RoughPairFamily(2, 16, seed=4)
    for x1, x2 in fam.pairs():
        np.testing.assert_array_equal(x1.grid.times, x2.grid.times)
        assert x1.depth == x2.depth == 2


# ---------------------------------------------------------------------------
# control function
# ---------------------------------------------------------------------------

def test_control_function_zero_for_identical_constant():
    grid = TimeGrid.uniform(4)
    p = EuclideanPath(grid, np.zeros((5, 2)))
    x = lift(p, 2)
    omega = build_control_function(x, x, 0.45, 4.0)
    assert omega(0.0, 1.0) == 0.0


def test_control_function_single_segment_by_hand():
    # one-segment paths on [0, 1]: the q-variation terms are the homogeneous
    # norms of the endpoint signatures to the power q, and each nonzero
    # level contributes ratio 1 (rho_qvar = rho_mixed on a single block)
    from roughpaths import homogeneous_norm, signature

    delta, p = 0.5, 4.0
    q = 1.0 / delta
    grid = TimeGrid([0.0, 1.0])
    p1 = EuclideanPath(grid, [[0.0, 0.0], [1.0, 0.0]])
    p2 = EuclideanPath(grid, [[0.0, 0.0], [0.0, 1.0]])
    x1, x2 = lift(p1, 2), lift(p2, 2)
    omega = build_control_function(x1, x2, delta, p)
    h1 = homogeneous_norm(signature(x1))
    h2 = homogeneous_norm(signature(x2))
    expected = h1**q + h2**q + 2.0  # both tensor levels differ
    assert omega(0.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_control_function_superadditive_on_random_pair():
    fam = RoughPairFamily(1, 16, seed=8)
    x1, x2 = fam.pairs()[0]
    omega = build_control_function(x1, x2, 0.45, 4.0)
    recs = check_superadditivity(omega, x1.grid.times, product_rule=False)
    assert recs[0].passed


# ---------------------------------------------------------------------------
# negative controls, reports, determinism
# ---------------------------------------------------------------------------

def test_negative_controls_fail_as_designed():
    recs = negative_controls(seed=0)
    assert len(recs) >= 2
    assert all(r.category == "negative_control" for r in recs)
    assert all(not r.passed for r in recs)


def test_report_roundtrip(tmp_path):
    recs = [ineq_record("a", 0.5, 1.0, params={"p": 2.0}),
            CheckRecord("b", {"x": 1}, 1.0, 0.0, "empirical", True, "reported", "n")]
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report_json(recs, jpath)
    write_report_csv(recs, cpath)
    data = json.loads(jpath.read_text())
    assert data["schema_version"] == 1
    assert [c["check_id"] for c in data["checks"]] == ["a", "b"]
    assert "check_id" in cpath.read_text().splitlines()[0]


def test_algebra_suite_deterministic(tmp_path):
    recs1 = verify.suite_algebra(seed=3, trials=40)
    recs2 = verify.suite_algebra(seed=3, trials=40)
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(recs1, j1)
    write_report_json(recs2, j2)
    assert j1.read_bytes() == j2.read_bytes()


def test_run_suite_unknown_name():
    from roughpaths import ParameterError

    with pytest.raises(ParameterError):
        run_suite("nope")


def test_run_suite_bad_out_dir_fails_before_any_suite(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {"distances": lambda seed: ran.append(seed) or []})
    monkeypatch.setattr(verify, "negative_controls", lambda seed: ran.append(seed) or [])
    f = tmp_path / "afile"
    f.write_text("x")
    with pytest.raises(verify.ParameterError, match="cannot write"):
        run_suite("distances", seed=0, out_dir=f)
    with pytest.raises(verify.ParameterError, match="cannot write"):
        run_suite("all", seed=0, out_dir=f / "below")
    assert ran == []


def test_run_suite_algebra_writes_reports(tmp_path):
    records, ok = run_suite("algebra", seed=0, out_dir=tmp_path)
    assert ok
    assert (tmp_path / "algebra_report.json").exists()
    assert (tmp_path / "algebra_report.csv").exists()
    cats = {r.category for r in records}
    assert "negative_control" in cats


def _one_path_nested_mixed(f, delta, p, x2=None, k=1):
    # the nested definition for one path or pair with the batch-free kernels
    m = len(f.grid) - 1
    q = 1.0 / delta
    if x2 is None:
        d, expo, root = f.distance_block(0, 0, m + 1) ** q, delta * p, 1 / p
    else:
        d, expo, root = level_diff_matrix(f, x2, k) ** (q / k), p / q, k / p
    inner = dp_power_table(d, 0, m)
    iu = np.triu_indices(m + 1, k=1)
    w = np.zeros_like(inner)
    w[iu] = inner[iu] ** expo * (f.grid.times[iu[1]] - f.grid.times[iu[0]]) ** (1.0 - delta * p)
    return dp_partition_sup([dense_columns(w, 0, m)], 0, m) ** root


def test_nested_mixed_family_equals_one_path_calls(monkeypatch):
    # chunks of at most three items; the family also changes grid twice
    monkeypatch.setattr(verify, "_FAMILY_CELLS", 3 * 33**2)
    paths = verify._mixed_family(5, 8, 32)
    paths.insert(5, resample_uniform(paths[0], 40))
    assert [len(c) for _, c in verify._family_chunks(paths, None)] == [3, 2, 1, 3]
    ps = (3.0, 5.0, 8.0)
    values = verify._nested_mixed(paths, 0.4, ps)
    assert all("distance_matrix" not in f.__dict__ for f in paths)
    for p, row in zip(ps, values):
        assert row == [_one_path_nested_mixed(f, 0.4, p) for f in paths]
        assert row == [verify._nested_mixed([f], 0.4, [p])[0][0] for f in paths]
    pairs = RoughPairFamily(7, 32, dim=2, depth=2, seed=9).pairs()
    for k in (1, 2):
        row = verify._nested_mixed(pairs, 0.45, [4.0], k)[0]
        assert row == [_one_path_nested_mixed(x1, 0.45, 4.0, x2, k) for x1, x2 in pairs]


def test_embedding_chain_degenerate_on_constant_path():
    grid = TimeGrid.uniform(16)
    const = EuclideanPath(grid, np.full((17, 2), 3.0))
    recs = verify.check_embedding_chain([const], 0.4, 3.0, seed=0)
    assert all(r.passed for r in recs)
    assert all(r.lhs == 0.0 for r in recs if r.category == "hard")


# ---------------------------------------------------------------------------
# Lipschitz ratios
# ---------------------------------------------------------------------------

def test_lipschitz_ratio_convention():
    from roughpaths.verify import lipschitz_ratio

    assert lipschitz_ratio(0.0, 0.0) == 0.0
    assert lipschitz_ratio(0.0, 2.0) == 0.0
    assert lipschitz_ratio(1.0, 2.0) == 0.5


def test_lipschitz_ratio_scalar_linear_first_order():
    # V(y) = y, drivers x(t) = t and (1+eps) t: Y = e^{x_t}, so the ratio
    # ||Y1 - Y2|| / ||X1 - X2|| is nearly eps-independent at first order
    from roughpaths import RdeConfig, VectorField, mixed_norm, solve_bv

    v = VectorField.linear([[[1.0]]])
    grid = TimeGrid.uniform(128)
    base = EuclideanPath.from_function(grid, lambda t: t)
    ratios = []
    for eps in (1e-3, 1e-4):
        pert = EuclideanPath(grid, (1 + eps) * base.values)
        y1 = solve_bv([1.0], v, base, RdeConfig(substeps=4))
        y2 = solve_bv([1.0], v, pert, RdeConfig(substeps=4))
        num = mixed_norm(EuclideanPath(y1.grid, y1.values - y2.values), 1.0, 4.0)
        den = mixed_norm(EuclideanPath(grid, base.values - pert.values), 1.0, 4.0)
        ratios.append(num / den)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.01)
    assert 1.0 <= ratios[0] <= np.e * 2


# ---------------------------------------------------------------------------
# field distance
# ---------------------------------------------------------------------------

def test_field_distance_zero_for_same_field(rng):
    from roughpaths import VectorField
    from roughpaths.verify import field_distance

    v = VectorField.affine(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
    assert field_distance(v, v, 1.5, np.zeros(2), 1.0) == 0.0


def test_field_distance_and_lip_norm_equal_point_loops(rng):
    from roughpaths import VectorField
    from roughpaths.verify import field_distance

    v1 = VectorField.polynomial(rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 3)),
                                rng.standard_normal((2, 3, 3, 3)))
    v2 = VectorField.polynomial(rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 3)),
                                rng.standard_normal((2, 3, 3, 3)))
    center, radius = rng.standard_normal(3), 1.5
    pts = center + radius * np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 3))
    for order in (0.0, 1.5, 2.5):
        want = 0.0
        for y in pts:
            want = max(want, np.linalg.norm(v1.value(y) - v2.value(y)))
            if order >= 1.0:
                want = max(want, np.linalg.norm(v1.jac(y) - v2.jac(y)))
            if order > 2.0:
                want = max(want, np.linalg.norm(v1.hess(y) - v2.hess(y)))
        got = field_distance(v1, v2, order, center, radius, samples=40, seed=4)
        assert got == pytest.approx(want, rel=1e-14)
    want = max(max(np.linalg.norm(v1.value(y)), np.linalg.norm(v1.jac(y)),
                   np.linalg.norm(v1.hess(y))) for y in pts)
    assert v1.lip_norm(center, radius, samples=40, seed=4) == pytest.approx(want, rel=1e-14)
    assert field_distance(v1, v2, 2.5, center, radius, samples=0) == 0.0
    assert v1.lip_norm(center, radius, samples=0) == 0.0


def test_field_distance_detects_offset(rng):
    from roughpaths import VectorField
    from roughpaths.verify import field_distance

    a = rng.standard_normal((1, 2, 2))
    v1 = VectorField.affine(a, np.zeros((1, 2)))
    v2 = VectorField.affine(a, np.ones((1, 2)))
    assert field_distance(v1, v2, 1.5, np.zeros(2), 1.0) == pytest.approx(np.sqrt(2.0))
