import json
import warnings

import numpy as np
import pytest

from roughpaths import (EuclideanPath, ParameterError, TimeGrid, lift, refined_nikolskii_norm,
                        resample_uniform)
from roughpaths import verify
from roughpaths.distances import DenseSource, level_diff_matrix
from roughpaths.norms import dp_partition_sup
from roughpaths.verify import (
    CheckRecord,
    PathFamily,
    RoughPairFamily,
    build_control_function,
    check_superadditivity,
    dense_columns,
    dp_power_table,
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

def _gaps(m):
    t = TimeGrid.uniform(m).times
    return verify._gaps(t), t


def test_superadditivity_additive_passes():
    gap, t = _gaps(10)
    recs = check_superadditivity(gap, t)
    assert all(r.passed for r in recs)


def test_superadditivity_square_passes():
    gap, t = _gaps(10)
    recs = check_superadditivity(gap**2, t, product_rule=False)
    assert recs[0].passed


def test_superadditivity_sqrt_fails():
    gap, t = _gaps(10)
    recs = check_superadditivity(np.sqrt(gap), t, product_rule=False)
    assert not recs[0].passed


def test_superadditivity_product_rule_records():
    gap, t = _gaps(8)
    recs = check_superadditivity(gap**1.5, t)
    ids = [r.check_id for r in recs]
    assert "superadditivity_product_0.5_0.5" in ids
    assert "superadditivity_product_1.0_0.2" in ids
    assert all(r.passed for r in recs)


def test_superadditivity_reads_only_cells_above_the_diagonal():
    gap, t = _gaps(8)
    junk = gap + np.tril(np.full_like(gap, -np.inf))  # -inf on and below the diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = check_superadditivity(junk, t)
    assert [r.lhs for r in recs] == [r.lhs for r in check_superadditivity(gap, t)]


def _per_pair_records(fn, t, check_id, product_rule):
    # the per-pair form: w(s, t) called once for every grid pair s < t
    m = t.size
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w[i, j] = fn(t[i], t[j])
    records = [verify._superadditivity_record(w, check_id, verify.HARD_TOL, "hard")]
    if product_rule:
        gap = t[None, :] - t[:, None]
        for alpha, beta in ((0.5, 0.5), (1.0, 0.2)):
            prod = np.where(gap > 0, w**alpha * np.maximum(gap, 0.0) ** beta, 0.0)
            records.append(verify._superadditivity_record(
                prod, f"{check_id}_product_{alpha}_{beta}", verify.HARD_TOL, "hard"))
    return records


@pytest.mark.parametrize("m", [16, 48])
@pytest.mark.parametrize("fn, weights, product_rule", [
    (lambda s, t: t - s, lambda gap: gap, True),
    (lambda s, t: (t - s) ** 2, lambda gap: gap**2, False),
    (lambda s, t: np.sqrt(t - s), np.sqrt, False),
], ids=["length", "square", "sqrt"])
def test_superadditivity_matrix_form_equals_per_pair_form(m, fn, weights, product_rule):
    # the weight arrays of the distances suite and the negative control
    gap, t = _gaps(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = check_superadditivity(weights(gap), t, product_rule=product_rule)
        want = _per_pair_records(fn, t, "superadditivity", product_rule)
    assert [(r.check_id, r.lhs, r.passed) for r in got] == \
        [(r.check_id, r.lhs, r.passed) for r in want]


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


@pytest.mark.parametrize("intervals", [1, 3, 4, 7])
def test_exponent_diagnostic_needs_two_lags(intervals):
    # below 8 intervals there is at most one dyadic lag up to a quarter of the
    # grid: no slope, where np.polyfit raised a TypeError or warned
    f = EuclideanPath(TimeGrid.uniform(intervals), np.arange(intervals + 1.0)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="at least 8 grid intervals"):
            empirical_holder_exponent(f)
    assert empirical_holder_exponent(resample_uniform(f, 8)) == pytest.approx(1.0)


def test_zigzag_paths_alternate():
    (z,) = PathFamily("zigzag", 1, 64, seed=2).paths()
    d = np.diff(z.values[::8, 0])
    assert np.all(d[1:] * d[:-1] < 0)  # alternating slopes piece by piece


def test_unknown_generator():
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
    assert omega.shape == (5, 5)
    assert omega[0, -1] == 0.0


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
    assert omega[0, 1] == pytest.approx(expected, rel=1e-12)


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


def test_reversed_inequality_control_takes_a_walk_on_which_it_fails(monkeypatch):
    # at seeds 2460 and 32505 the first walk's whole interval is its best Riesz
    # partition at both deltas, so the reversed inequality ties there; the
    # control takes the next walk, and the suites pass
    assert run_suite("distances", seed=2460)[1]
    assert run_suite("characterization", seed=32505)[1]
    # a delta-blind Riesz norm makes every walk tie: the control then passes
    riesz = verify.riesz_norm
    monkeypatch.setattr(verify, "riesz_norm",
                        lambda f, delta, p, interval=None: riesz(f, 0.5, p, interval))
    for seed in (0, 2460):
        (control,) = [r for r in negative_controls(seed) if r.check_id == "neg_reversed_inequality"]
        assert control.passed and control.lhs == control.rhs
    assert not run_suite("distances", seed=2460)[1]


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
    with pytest.raises(ParameterError):
        run_suite("nope")


def test_run_suite_bad_out_dir_fails_before_any_suite(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "SUITES", {"distances": lambda seed: ran.append(seed) or []})
    monkeypatch.setattr(verify, "negative_controls", lambda seed: ran.append(seed) or [])
    f = tmp_path / "afile"
    f.write_text("x")
    with pytest.raises(ParameterError, match="cannot write"):
        run_suite("distances", seed=0, out_dir=f)
    with pytest.raises(ParameterError, match="cannot write"):
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
    assert [len(c) for c in verify._family_chunks(paths)] == [3, 2, 1, 3]
    ps = (3.0, 5.0, 8.0)
    values = verify._nested_mixed(paths, 0.4, ps)
    assert all("distance_matrix" not in f.__dict__ for f in paths)
    for p, row in zip(ps, values):
        assert row == [_one_path_nested_mixed(f, 0.4, p) for f in paths]
        assert row == [verify._nested_mixed([f], 0.4, [p])[0][0] for f in paths]
    pairs = RoughPairFamily(7, 32, dim=2, depth=2, seed=9).pairs()
    for k in (1, 2):
        srcs = [DenseSource(level_diff_matrix(x1, x2, k), x1.grid) for x1, x2 in pairs]
        row = verify._nested_mixed(srcs, 0.45, [4.0], k)[0]
        assert row == [_one_path_nested_mixed(x1, 0.45, 4.0, x2, k) for x1, x2 in pairs]


def test_distance_ball_bounds_are_the_refined_norms_of_the_checked_pairs():
    # the distances suite reads each path's distances once for all its ball
    # bounds; every bound is still the largest refined Nikolskii norm of the
    # paths of the pairs its check covers, bit for bit
    seed = 3
    pairs = RoughPairFamily(20, 48, dim=2, depth=2, seed=seed + 71).pairs()
    bounds = [r.params for r in verify.suite_distances(seed)
              if r.check_id == "dist_nhat_over_mixed"]
    assert [(b["pairs"], b["delta"], b["p"]) for b in bounds] == [
        (6, 0.4, 3.0), (6, 0.45, 4.0), (6, 0.6, 8.0), (4, 0.45, 4.0)]
    for b in bounds:
        assert b["ball_bound"] == max(refined_nikolskii_norm(x, b["delta"], b["p"])
                                      for pair in pairs[: b["pairs"]] for x in pair)


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


#: Twelve small pairs whose fields (scaled to Lip bound l) blow up in some
#: trials at l = 10 and in every trial of a refinement at l = 20.
BLOW_UP_FAMILY = RoughPairFamily(12, 16, dim=2, depth=2, seed=81, perturbation=0.05)


def _records(recs):
    return [(r.check_id, r.lhs, r.rhs, r.passed) for r in recs]


def test_lipschitz_records_with_blow_ups_are_pinned():
    # no verify report reaches the runners' skip branch, so these values pin
    # it; the half ball reads only the trials that did not blow up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rough = verify.run_lipschitz_suite(BLOW_UP_FAMILY, b=3.0, l=10.0, seed=0)
        bv = verify.run_lipschitz_bv_suite(BLOW_UP_FAMILY, b=3.0, l=10.0, seed=0)
    assert _records(rough) == [
        ("lipschitz_ratios_finite", 0.0, 0.0, True),
        ("lipschitz_max_ratio", 1.2492714826371365, 0.0, True),
        ("lipschitz_blowups", 9.0, 0.0, True),
        ("lipschitz_ball_monotone", 0.6273639040579818, 1.2492714826371365, True),
        ("lipschitz_refine_stable", 1.6896450572015165, 2.0, True),
    ]
    assert _records(bv) == [
        ("lipschitz_bv_ratios_finite", 0.0, 0.0, True),
        ("lipschitz_bv_max_ratio", 1.5447734529129116, 0.0, True),
        ("lipschitz_bv_blowups", 3.0, 0.0, True),
        ("lipschitz_bv_refine_stable", 1.3679393535316875, 2.0, True),
    ]
    assert [r.notes for r in rough] == [
        "count of non-finite ratios", "", "", "max ratio over the half ball <= max over the "
        "full ball", "max ratio stable within factor 2 under one refinement"]
    assert [r.notes for r in bv] == [""] * 4


def test_lipschitz_run_without_surviving_trials_fails_refine_stable():
    # every trial of the first refinement blows up: the records come back,
    # and stability, which no ratio shows, fails
    recs = verify.run_lipschitz_suite(BLOW_UP_FAMILY, b=3.0, l=20.0, seed=0)
    by_id = {r.check_id: r for r in recs}
    assert list(by_id) == ["lipschitz_ratios_finite", "lipschitz_max_ratio",
                           "lipschitz_blowups", "lipschitz_refine_stable"]
    assert by_id["lipschitz_blowups"].lhs == 12.0
    assert by_id["lipschitz_max_ratio"].lhs == 0.0 and by_id["lipschitz_max_ratio"].passed
    assert by_id["lipschitz_refine_stable"].lhs == np.inf
    assert not by_id["lipschitz_refine_stable"].passed
    assert not suite_ok(recs)


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
