import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    BlowUpError,
    DimensionMismatchError,
    EuclideanPath,
    FieldFamily,
    GroupElement,
    ParameterError,
    RdeConfig,
    Scheme,
    TimeGrid,
    TruncatedTensor,
    VectorField,
    group_inverse,
    group_mul,
    identity_element,
    ito_lyons,
    lift,
    mixed_norm,
    solve_bv,
    solve_rough,
)
from roughpaths.oracle import euler_step_increment
from roughpaths import rde
from roughpaths.paths import GroupPath
from roughpaths.rde import (
    _euler_steps,
    _group_increments,
    _monomial_rank,
    _monomials,
    _word_polynomials,
)
from conftest import random_walk_path


def scalar_linear_field(box=10.0):
    return VectorField.linear([[[1.0]]], gamma=2.5, box_radius=box)


def time_path(intervals, horizon=1.0):
    return EuclideanPath.from_function(TimeGrid.uniform(intervals, horizon), lambda t: t)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_field_families_validate():
    with pytest.raises(ParameterError):
        VectorField(FieldFamily.LINEAR, 1, 1, np.ones((1, 1)), np.ones((1, 1, 1)),
                    np.zeros((1, 1, 1, 1)))
    v = VectorField.affine([[[0.0]]], [[2.0]])
    np.testing.assert_allclose(v.value([5.0]), [[2.0]])


@pytest.mark.parametrize("build", [
    lambda: VectorField.linear([1.0, 2.0]),
    lambda: VectorField.linear("abc"),
    lambda: VectorField.affine([1.0, 2.0], [[0.0]]),
    lambda: VectorField.affine([[[1.0]]], [1.0]),
    lambda: VectorField.polynomial([[0.0]], [1.0, 2.0], np.zeros((1, 1, 1, 1))),
    lambda: VectorField.polynomial([[0.0]], [[[1.0]]], [[0.0]]),
    lambda: VectorField.linear([[[1.0]]], box_radius=float("nan")),
    lambda: VectorField.affine([[[1.0]]], [[0.0]], box_radius=0.0),
    lambda: VectorField.linear([[[1.0]]], box_radius="a"),
    lambda: VectorField.linear([[[1.0]]], gamma=[2.5]),
    lambda: VectorField.linear([[[1.0]]]).lip_norm([0.0], samples=-1),
    lambda: VectorField.linear([[[1.0]]]).lip_norm([0.0], samples=2.5),
    lambda: VectorField.linear([[[1.0]]]).lip_norm([0.0], radius="a"),
], ids=["linear-1d", "linear-text", "affine-1d", "affine-offsets-1d",
        "polynomial-1d", "polynomial-quadratics-2d", "box-radius-nan", "box-radius-zero",
        "box-radius-text", "gamma-list", "lip-samples-negative", "lip-samples-float",
        "lip-radius-text"])
def test_field_constructors_reject_malformed_arrays(build):
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize("name, value", [
    ("gamma", "2.5"), ("box_radius", "2.5"), ("gamma", True), ("box_radius", False),
    ("gamma", float("nan")), ("gamma", np.float64("nan")), ("gamma", None),
    ("box_radius", 10**400),
])
def test_field_scalars_must_be_real_numbers(name, value):
    # float() takes strings and booleans, NaN fails no range check of gamma,
    # and float() of a huge int raises OverflowError
    with pytest.raises(ParameterError):
        VectorField.linear([[[1.0]]], **{name: value})


def test_field_scalars_accept_real_numbers_and_an_infinite_box():
    v = VectorField.linear([[[1.0]]], gamma=np.float64(3.0), box_radius=np.inf)
    assert (v.gamma, v.box_radius) == (3.0, np.inf)
    assert type(v.gamma) is float and type(VectorField.linear([[[1.0]]], gamma=3).gamma) is float


@pytest.mark.parametrize("substeps", [1.5, float("nan"), float("inf"), "2", None, True, 0, -3])
def test_rde_config_needs_integer_substeps(substeps):
    # 1.5 used to pass and fail later in solve_bv ("got 9 values for 17 grid points")
    with pytest.raises(ParameterError):
        RdeConfig(substeps=substeps)
    for whole in (np.int64(3), 3.0):
        assert type(RdeConfig(substeps=whole).substeps) is int


def test_field_evaluation_linear():
    a = np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
    v = VectorField.linear(a)
    y = np.array([1.0, -1.0])
    out = v.value(y)  # columns V_i(y) = A_i y
    np.testing.assert_allclose(out[:, 0], a[0] @ y)
    np.testing.assert_allclose(out[:, 1], a[1] @ y)


def test_derivative_consistency(rng):
    q = rng.standard_normal((2, 2, 2, 2)) * 0.2
    v = VectorField.polynomial(rng.standard_normal((2, 2)),
                               rng.standard_normal((2, 2, 2)), q)
    pts = rng.standard_normal((6, 2))
    assert v.derivative_defect(pts) < 1e-6


@pytest.mark.parametrize("points, h, error", [
    ([[0.1, 0.2]], 0.0, ParameterError),
    ([[0.1, 0.2]], -1e-5, ParameterError),
    ([[0.1, 0.2]], "x", ParameterError),
    ("ab", 1e-5, ParameterError),
    ([0.1, 0.2], 1e-5, ParameterError),
    ([[0.1, 0.2, 0.3]], 1e-5, DimensionMismatchError),
    ([[np.nan, 0.2]], 1e-5, ParameterError),
    ([[1e300, 0.2]], 1e-5, ParameterError),
], ids=["h-zero", "h-negative", "h-string", "points-string", "points-1d", "points-wide",
        "points-nan", "points-huge"])
def test_derivative_defect_rejects_malformed_input_without_warnings(points, h, error):
    v = VectorField.polynomial(np.ones((2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            v.derivative_defect(points, h)


def test_field_spec_roundtrip(rng):
    v = VectorField.polynomial(rng.standard_normal((2, 3)),
                               rng.standard_normal((2, 3, 3)),
                               rng.standard_normal((2, 3, 3, 3)) * 0.1,
                               gamma=3.0, box_radius=5.0)
    w = VectorField.from_spec(v.to_spec())
    y = rng.standard_normal(3)
    np.testing.assert_allclose(v.value(y), w.value(y), rtol=1e-14)
    assert w.gamma == v.gamma and w.box_radius == v.box_radius


def test_lip_norm_scales_linearly(rng):
    v = VectorField.affine(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
    b = v.lip_norm(np.zeros(2), radius=1.0)
    assert v.scaled(0.5).lip_norm(np.zeros(2), radius=1.0) == pytest.approx(0.5 * b)


# ---------------------------------------------------------------------------
# BV Euler
# ---------------------------------------------------------------------------

def test_bv_exponential_closed_form():
    y = solve_bv([1.0], scalar_linear_field(), time_path(100),
                 RdeConfig(substeps=100))
    assert abs(float(y.values[-1, 0]) - np.e) < 2e-4


def test_bv_zero_field_constant_solution(rng):
    v = VectorField.linear(np.zeros((2, 3, 3)))
    x = random_walk_path(rng, 20, 2)
    y = solve_bv([1.0, 2.0, 3.0], v, x)
    np.testing.assert_allclose(y.values, np.tile([1.0, 2.0, 3.0], (21, 1)))


def test_bv_constant_field_exact(rng):
    # dY = C dX integrates exactly for state-independent fields
    c = rng.standard_normal((2, 1))  # V(y) = c (m=2, n=1... use affine with zero matrix)
    v = VectorField.affine(np.zeros((1, 2, 2)), c.T)
    x = random_walk_path(rng, 15, 1)
    y = solve_bv([0.0, 0.0], v, x)
    expected = np.outer(x.values[:, 0] - x.values[0, 0], c.ravel())
    np.testing.assert_allclose(y.values, expected, atol=1e-12)


def test_bv_convergence_order(rng):
    errs = []
    for substeps in (10, 20, 40, 80):
        y = solve_bv([1.0], scalar_linear_field(), time_path(10),
                     RdeConfig(substeps=substeps))
        errs.append(abs(float(y.values[-1, 0]) - np.e))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert np.mean(orders) >= 0.9


def test_bv_substep_grid_output():
    y = solve_bv([1.0], scalar_linear_field(), time_path(4), RdeConfig(substeps=3))
    assert y.grid.intervals == 12


def test_bv_blow_up_reports_exit_time():
    v = VectorField.polynomial([[0.0]], [[[0.0]]], [[[[3.0]]]], box_radius=3.0)
    with pytest.raises(BlowUpError) as err:
        solve_bv([2.0], v, time_path(200))
    assert 0.0 < err.value.exit_time <= 1.0


# ---------------------------------------------------------------------------
# rough Euler
# ---------------------------------------------------------------------------

def test_rough_scalar_linear_step_terms():
    x = lift(time_path(1), 2)
    cfg = RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER)
    y = solve_rough([1.0], scalar_linear_field(), x, cfg)
    # one step: y (1 + d + d^2/2) with d = 1
    assert float(y.values[-1, 0]) == pytest.approx(2.5)


def test_rough_convergence_order_two():
    errs = []
    for m in (8, 16, 32, 64):
        x = lift(time_path(m), 2)
        y = solve_rough([1.0], scalar_linear_field(),
                        x, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))
        errs.append(abs(float(y.values[-1, 0]) - np.e))
    slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert -slope >= 1.8


def test_rough_zero_field(rng):
    x = lift(random_walk_path(rng, 10, 2), 2)
    v = VectorField.linear(np.zeros((2, 2, 2)))
    y = solve_rough([0.5, -0.5], v, x, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))
    np.testing.assert_allclose(y.values, np.tile([0.5, -0.5], (11, 1)))


def test_pure_area_with_commuting_fields_stays_put():
    # commuting constant-coefficient fields kill the antisymmetric level-2 term
    a = 0.5
    l2 = np.array([[0.0, a], [-a, 0.0]])
    g = GroupElement(TruncatedTensor(2, 2, (np.array(1.0), np.zeros(2), l2)))
    x = GroupPath.from_elements(TimeGrid([0.0, 1.0]), (identity_element(2, 2), g))
    fields = np.stack([np.eye(2), 2.0 * np.eye(2)])
    v = VectorField.linear(fields)
    y = solve_rough([1.0, 2.0], v, x, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))
    np.testing.assert_allclose(y.values[-1], [1.0, 2.0], atol=1e-14)


def test_rough_depth1_coincides_with_bv(rng):
    x = random_walk_path(rng, 20, 2)
    v = VectorField.affine(0.4 * rng.standard_normal((2, 2, 2)),
                           0.4 * rng.standard_normal((2, 2)))
    y_bv = solve_bv([0.1, 0.2], v, x)
    y_rough = solve_rough([0.1, 0.2], v, lift(x, 1),
                          RdeConfig(depth=1, scheme=Scheme.ROUGH_EULER))
    np.testing.assert_allclose(y_rough.values, y_bv.values, atol=1e-13)


def test_rough_depth_mismatch(rng):
    x = lift(random_walk_path(rng, 5, 2), 2)
    v = VectorField.linear(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        solve_rough([0.0, 0.0], v, x, RdeConfig(depth=3, scheme=Scheme.ROUGH_EULER))


def test_rough_rejects_substeps():
    with pytest.raises(ParameterError):
        RdeConfig(depth=2, substeps=4, scheme=Scheme.ROUGH_EULER)


@pytest.mark.parametrize("depth", [2, 3])
def test_rough_constant_field_exact_any_depth(rng, depth):
    # state-independent fields make the scheme exact: only level 1 acts
    c = rng.standard_normal((1, 2))
    v = VectorField.affine(np.zeros((1, 2, 2)), c)
    x = random_walk_path(rng, 12, 1)
    y = solve_rough([0.0, 0.0], v, lift(x, depth),
                    RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
    expected = np.outer(x.values[:, 0] - x.values[0, 0], c.ravel())
    np.testing.assert_allclose(y.values, expected, atol=1e-12)


def test_rough_depth3_matches_cubic_step_model():
    x = lift(time_path(16), 3)
    y = solve_rough([1.0], scalar_linear_field(), x,
                    RdeConfig(depth=3, scheme=Scheme.ROUGH_EULER))
    h = 1.0 / 16
    expected = (1 + h + h**2 / 2 + h**3 / 6) ** 16
    assert float(y.values[-1, 0]) == pytest.approx(expected, rel=1e-13)


def test_rough_blow_up(rng):
    v = VectorField.polynomial(np.zeros((2, 1)), np.zeros((2, 1, 1)),
                               5.0 * np.ones((2, 1, 1, 1)), box_radius=2.0)
    x = lift(time_path(100), 2)
    # driver dim must match: build a 2-d driver
    xe = EuclideanPath.from_function(TimeGrid.uniform(200), lambda t: np.array([t, t]))
    x = lift(xe, 2)
    with pytest.raises(BlowUpError):
        solve_rough([1.5], v, x, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))


# ---------------------------------------------------------------------------
# solution map wrapper and regularity transfer
# ---------------------------------------------------------------------------

def test_ito_lyons_dispatch(rng):
    x = time_path(50)
    v = scalar_linear_field()
    y_bv = ito_lyons([1.0], v, x)
    assert y_bv.grid.intervals == 50
    xg = lift(x, 2)
    y_rough = ito_lyons([1.0], v, xg)
    assert y_rough.grid.intervals == 50
    assert abs(float(y_rough.values[-1, 0]) - np.e) < 1e-3


def test_solvers_reject_a_config_of_the_other_scheme(rng):
    x = random_walk_path(rng, 8, 2)
    v = VectorField.linear(0.1 * rng.standard_normal((2, 2, 2)))
    with pytest.raises(ParameterError, match="eulerbv"):
        solve_bv([0.1, 0.2], v, x, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))
    with pytest.raises(ParameterError, match="eulerbv"):
        ito_lyons([0.1, 0.2], v, x, RdeConfig(depth=1, scheme=Scheme.ROUGH_EULER))
    with pytest.raises(ParameterError, match="rougheulerstepn"):
        solve_rough([0.1, 0.2], v, lift(x, 2), RdeConfig())
    with pytest.raises(ParameterError, match="rougheulerstepn"):
        ito_lyons([0.1, 0.2], v, lift(x, 1), RdeConfig())


def test_ito_lyons_defaults_equal_the_solvers(rng):
    x = random_walk_path(rng, 16, 2)
    v = VectorField.affine(0.3 * rng.standard_normal((2, 2, 2)),
                           0.3 * rng.standard_normal((2, 2)))
    assert np.array_equal(ito_lyons([0.1, 0.2], v, x).values,
                          solve_bv([0.1, 0.2], v, x).values)
    for depth in (1, 2, 3):
        xg = lift(x, depth)
        want = solve_rough([0.1, 0.2], v, xg, RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
        assert np.array_equal(ito_lyons([0.1, 0.2], v, xg).values, want.values)


def test_ito_lyons_constant_driver(rng):
    x = EuclideanPath(TimeGrid.uniform(10), np.ones((11, 2)))
    v = VectorField.linear(rng.standard_normal((2, 2, 2)))
    y = ito_lyons([0.3, 0.7], v, x)
    np.testing.assert_allclose(y.values, np.tile([0.3, 0.7], (11, 1)))


def test_output_regularity_transfer(rng):
    # solution mixed norm finite and stable across substep refinement
    x = random_walk_path(rng, 32, 2, scale=0.5)
    v = VectorField.affine(0.3 * rng.standard_normal((2, 2, 2)),
                           0.3 * rng.standard_normal((2, 2)), box_radius=20.0)
    norms = []
    for s in (1, 2, 4):
        y = solve_bv([0.1, -0.2], v, x, RdeConfig(substeps=s))
        norms.append(mixed_norm(y, 0.45, 4.0))
    assert all(np.isfinite(norms))
    for a, b in zip(norms, norms[1:]):
        assert 0.8 <= a / b <= 1.25


def test_driver_dim_mismatch(rng):
    v = VectorField.linear(np.zeros((3, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        solve_bv([0.0, 0.0], v, random_walk_path(rng, 5, 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 40),
       st.sampled_from(list(FieldFamily)), st.integers(0, 2**32 - 1))
def test_solve_rough_equals_per_step_loop(dim, depth, m, intervals, family, seed):
    # every step depends on its own word row and state only: the increments
    # and the states of one solve equal those of one step at a time
    rng = np.random.default_rng(seed)
    x = _area_driver(random_walk_path(rng, 3 * intervals, dim), depth)
    v = _random_field(rng, family, dim, m, 0.4)
    y0 = rng.uniform(-1.0, 1.0, m)
    got = solve_rough(y0, v, x, RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
    words = _group_increments(x)
    assert words.shape == (intervals, sum(dim**k for k in range(depth + 1)))
    y, ys = y0, [y0]
    for j in range(intervals):
        g = group_mul(group_inverse(x.values[j]), x.values[j + 1])
        row = np.concatenate([g.level(k).ravel() for k in range(depth + 1)])
        assert np.array_equal(words[j], row)
        y = _euler_steps(v, y, row[None], depth, x.grid.times[j:j + 2])[-1]
        ys.append(y)
    assert np.array_equal(got.values, np.stack(ys))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_solves_do_not_depend_on_the_blocks_of_steps(monkeypatch, rng, depth):
    # the group increments are formed in blocks of steps of about
    # _BLOCK_TERMS entries, and the word polynomials in blocks of terms;
    # blocks of three or four steps, the last one shorter, give the same bits
    x = _random_driver(rng, 303, 2, uniform=False)
    xg = _area_driver(x, depth)
    v = _random_field(rng, FieldFamily.AFFINE, 2, 3, 0.5)
    y0 = rng.uniform(-1.0, 1.0, 3)
    config = RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER)

    def solves():
        return (solve_bv(y0, v, x, RdeConfig(substeps=3)).values,
                solve_rough(y0, v, xg, config).values, _group_increments(xg))

    want = solves()
    monkeypatch.setattr(rde, "_BLOCK_TERMS", 50)
    got = solves()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family, m, megabytes", [
    (FieldFamily.POLYNOMIAL, 20, 2.0),     # per-step maps of (1, y, y (x) y): 526 MB
    (FieldFamily.AFFINE, 80, 8.0),         # the maps of all steps at once: 405 MB
])
def test_bv_solve_memory_stays_near_its_output(rng, family, m, megabytes):
    # 4096 steps, n = 2: the solution takes 0.6 MB at m = 20 and 2.5 MB at
    # m = 80; a quadratic field steps through C = [Id; V] on its monomials,
    # an affine one through C on (1, y)
    x = _random_driver(rng, 4096, 2, uniform=True)
    v = _random_field(rng, family, 2, m, 0.5 / m)
    assert _peak(solve_bv, rng.uniform(-1.0, 1.0, m), v, x) < megabytes * 2**20


def test_group_increments_memory_stays_near_their_output(rng):
    # n = 12, depth 3, M = 1024: the word rows take 15.4 MB; formed for all
    # steps at once they peaked at 116.6 MB
    x = lift(random_walk_path(rng, 1024, 12), 3)
    assert _peak(_group_increments, x) < 20 * 2**20


@pytest.mark.parametrize("family", [FieldFamily.AFFINE, FieldFamily.POLYNOMIAL])
def test_rough_solve_memory_stays_near_its_word_rows(rng, family):
    # n = 12, depth 3, M = 1024, m = 2: the word rows of the increments take
    # 15.4 MB, and both fields step through their composed word polynomials,
    # which read those rows in place (a concatenated copy of them peaked at
    # 29.9 MB)
    x = lift(random_walk_path(rng, 1024, 12), 3)
    v = _random_field(rng, family, 12, 2, 0.1)
    config = RdeConfig(depth=3, scheme=Scheme.ROUGH_EULER)
    assert _peak(solve_rough, rng.uniform(-1.0, 1.0, 2), v, x, config) < 20 * 2**20


def _random_field(rng, family, n, m, scale, box_radius=1e6):
    lin = scale * rng.standard_normal((n, m, m))
    const = scale * rng.standard_normal((n, m))
    if family is FieldFamily.LINEAR:
        return VectorField.linear(lin, box_radius=box_radius)
    if family is FieldFamily.AFFINE:
        return VectorField.affine(lin, const, box_radius=box_radius)
    quad = 0.25 * scale * rng.standard_normal((n, m, m, m))
    return VectorField.polynomial(const, lin, quad, box_radius=box_radius)


def _random_driver(rng, intervals, dim, uniform):
    if uniform:
        grid = TimeGrid.uniform(intervals)
    else:
        t = np.cumsum(rng.uniform(0.1, 2.0, intervals))
        grid = TimeGrid(np.concatenate([[0.0], t / t[-1]]))
    steps = rng.standard_normal((intervals, dim)) * np.sqrt(np.diff(grid.times))[:, None]
    return EuclideanPath(grid, np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)]))


def _area_driver(fine: EuclideanPath, depth):
    """Lift of ``fine`` seen at every third point: unlike a lifted polygon,
    whose one-step increments exp(dx) have symmetric higher levels, these
    steps carry area."""
    return GroupPath(TimeGrid(fine.grid.times[::3]),
                     [lv[::3] for lv in lift(fine, depth).levels])


def _assert_close_to(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("family", list(FieldFamily))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 20),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_solvers_match_oracle_step_loop(family, depth, n, m, substeps, intervals,
                                        uniform, seed):
    rng = np.random.default_rng(seed)
    x = _random_driver(rng, 3 * intervals, n, uniform)
    v = _random_field(rng, family, n, m, 0.5)
    y0 = rng.uniform(-1.0, 1.0, m)

    got = solve_bv(y0, v, x, RdeConfig(substeps=substeps))
    y, ys, times = y0, [y0], [0.0]
    t = x.grid.times
    for j, dx in enumerate(x.increments()):
        for r in range(substeps):
            y = y + euler_step_increment(v, y, [None, dx / substeps])
            ys.append(y)
            times.append(t[j] + (t[j + 1] - t[j]) * (r + 1) / substeps)
    assert np.array_equal(got.grid.times, times)
    _assert_close_to(got.values, np.stack(ys))

    xg = _area_driver(x, depth)
    got = solve_rough(y0, v, xg, RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
    y, ys = y0, [y0]
    for j in range(intervals):
        g = group_mul(group_inverse(xg.values[j]), xg.values[j + 1])
        y = y + euler_step_increment(v, y, [g.level(k) for k in range(depth + 1)])
        ys.append(y)
    _assert_close_to(got.values, np.stack(ys))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_word_polynomials_equal_oracle_terms(rng, n, m, depth):
    # the rows of the empty word are Id, then every word w of levels 1..N in
    # C order: P_w at a point is the oracle's step increment under the one-hot
    # increment on w.  A quadratic field is composed on the monomials of
    # degree <= N+1, an affine one on (1, y), where level 1 is [c_i | A_i]
    quadratic = _random_field(rng, FieldFamily.POLYNOMIAL, n, m, 1.0)
    assert _monomials(m, depth + 1).shape[0] == math.comb(m + depth + 1, depth + 1)
    affine = _random_field(rng, FieldFamily.AFFINE, n, m, 1.0)
    words = [w for k in range(1, depth + 1) for w in np.ndindex(*(n,) * k)]
    for v, exps in ((quadratic, _monomials(m, depth + 1)), (affine, _monomials(m, 1))):
        coef = _word_polynomials(v, exps, depth)
        assert coef.shape == ((1 + len(words)) * m, exps.shape[0])
        for y in rng.uniform(-1.5, 1.5, (4, m)):
            u = (coef * np.prod(y**exps, axis=1)).sum(axis=1).reshape(-1, m)
            np.testing.assert_allclose(u[0], y, rtol=0, atol=1e-15)
            for w, got in zip(words, u[1:]):
                g = [None] + [np.zeros((n,) * k) for k in range(1, depth + 1)]
                g[len(w)][w] = 1.0
                want = euler_step_increment(v, y, g)
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    level1 = coef[m:m + n * m].reshape(n, m, m + 1)
    assert np.array_equal(level1[:, :, 0], affine.const)
    assert np.array_equal(level1[:, :, 1:], affine.lin)


@pytest.mark.parametrize("m, degree", [(27, 4), (31, 3)])
def test_monomial_ranks_hold_for_wide_bases(rng, m, degree):
    # the bases of depth 3 at m = 27 and of depth 2 at m = 31: a sort key
    # with one digit base degree + 1 per variable passes 2^63 here
    exps = _monomials(m, degree)
    assert exps.shape[0] == math.comb(m + degree, degree)
    assert not exps[0].any() and np.array_equal(exps[1:1 + m], np.eye(m))
    # graded, then by the exponents from the last variable to the first
    assert np.array_equal(np.lexsort((*exps.T, exps.sum(axis=1))), np.arange(exps.shape[0]))
    assert np.array_equal(_monomial_rank(exps), np.arange(exps.shape[0]))
    low = exps[exps.sum(axis=1) <= degree // 2]
    a, b = (low[rng.integers(0, low.shape[0], 500)] for _ in range(2))
    np.testing.assert_array_equal(exps[_monomial_rank(a + b)], a + b)


@pytest.mark.parametrize("n, m, depth, stepper", [
    (2, 3, 1, "_word_steps"),          # depth 1: C = [Id; V] at every size
    (13, 2, 1, "_word_steps"),         # C of 28 x 6
    (1, 30, 1, "_word_steps"),         # 496 monomials, past the W bound
    (3, 6, 3, "_word_steps"),          # 210 monomials, C of 240 x 210
    (2, 9, 2, "_word_steps"),          # 220 monomials
    (1, 7, 3, "_polynomial_steps"),    # 330 monomials
    (13, 2, 3, "_polynomial_steps"),   # C of 4760 x 15
    (1, 27, 3, "_polynomial_steps"),   # 31 465 monomials
    (1, 30, 3, "_polynomial_steps"),   # 46 376 monomials
])
def test_quadratic_solve_steps_by_basis_size(monkeypatch, rng, n, m, depth, stepper):
    # the stepper choice for a linear, an affine and a quadratic field of one
    # size: a field without a quadratic part runs its composed word
    # polynomials on (1, y) at every size and depth, as does a quadratic
    # field with a small basis, or at depth 1; a larger quadratic field at
    # depth 2 or 3 runs the per-step evaluation (``stepper`` names the
    # quadratic field's).  All stay on the oracle step loop
    ran = []
    for name in ("_word_steps", "_polynomial_steps"):
        monkeypatch.setattr(rde, name, lambda *args, name=name, step=getattr(rde, name):
                            ran.append(name) or step(*args))
    x = _area_driver(_random_driver(rng, 60, n, uniform=False), depth)
    y0 = rng.uniform(-1.0, 1.0, m)
    for family in (FieldFamily.LINEAR, FieldFamily.AFFINE, FieldFamily.POLYNOMIAL):
        v = _random_field(rng, family, n, m, 1.0 / (n + m))
        got = solve_rough(y0, v, x, RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
        y, ys = y0, [y0]
        for j in range(20):
            g = group_mul(group_inverse(x.values[j]), x.values[j + 1])
            y = y + euler_step_increment(v, y, [g.level(k) for k in range(depth + 1)])
            ys.append(y)
        _assert_close_to(got.values, np.stack(ys))
    assert ran == ["_word_steps", "_word_steps", stepper]


def _oracle_exit_time(v, y0, xg, depth):
    # the oracle step loop with the solvers' box test; None if it stays inside
    y = y0
    with np.errstate(all="ignore"):
        for j in range(len(xg.grid) - 1):
            g = group_mul(group_inverse(xg.values[j]), xg.values[j + 1])
            y = y + euler_step_increment(v, y, [g.level(k) for k in range(depth + 1)])
            if not (np.linalg.norm(y - y0) <= v.box_radius and np.isfinite(y).all()):
                return float(xg.grid.times[j + 1])
    return None


@pytest.mark.parametrize("depth", [2, 3])
def test_quadratic_blow_up_times_equal_oracle_step_loop(depth):
    blow_ups = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 4, size=2)
        x = _area_driver(_random_driver(rng, 90, n, uniform=bool(seed % 2)), depth)
        v = _random_field(rng, FieldFamily.POLYNOMIAL, n, m, 2.0, box_radius=3.0)
        y0 = rng.uniform(-1.0, 1.0, m)
        want = _oracle_exit_time(v, y0, x, depth)
        cfg = RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER)
        if want is None:
            solve_rough(y0, v, x, cfg)
            continue
        blow_ups += 1
        with pytest.raises(BlowUpError) as err:
            solve_rough(y0, v, x, cfg)
        assert err.value.exit_time == want
    assert blow_ups >= 10


@pytest.mark.parametrize("depth, exit_time", [(1, 0.2), (2, 0.1), (3, 0.1)])
def test_non_finite_state_leaves_the_box(depth, exit_time):
    # an infinite box holds every finite state: depth 1 overflows at the
    # second step, depth 2 at the first, and depth 3 turns NaN at the first,
    # whose norm compares False with anything
    v = VectorField.linear([[[1e200, -1e200], [1e200, 1e200]]], box_radius=np.inf)
    x = EuclideanPath.from_function(TimeGrid.uniform(10), lambda t: np.sin(5 * t))
    with pytest.raises(BlowUpError) as err:
        if depth == 1:
            solve_bv([1.0, 1.0], v, x)
        else:
            solve_rough([1.0, 1.0], v, lift(x, depth),
                        RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
    assert err.value.exit_time == exit_time


def test_blow_up_time_is_the_first_state_outside():
    x = time_path(10)
    cfg = RdeConfig(substeps=2)
    y = solve_bv([1.0], VectorField.linear([[[1.0]]], box_radius=100.0), x, cfg)
    first = int(np.argmax(np.abs(y.values[:, 0] - 1.0) > 0.5))
    with pytest.raises(BlowUpError) as err:
        solve_bv([1.0], VectorField.linear([[[1.0]]], box_radius=0.5), x, cfg)
    assert 0 < first and err.value.exit_time == y.grid.times[first]


@pytest.mark.parametrize("y0", [[np.nan, 0.0], [0.0, np.inf], ["a", "b"]])
def test_solvers_reject_bad_initial_condition(y0):
    v = VectorField.linear(np.zeros((1, 2, 2)))
    x = time_path(4)
    with pytest.raises(ParameterError, match="y0"):
        solve_bv(y0, v, x)
    with pytest.raises(ParameterError, match="y0"):
        solve_rough(y0, v, lift(x, 2), RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))


def test_stacked_field_evaluation_equals_point_calls(rng):
    v = _random_field(rng, FieldFamily.POLYNOMIAL, 2, 3, 1.0)
    pts = rng.standard_normal((4, 5, 3))
    vals, jacs = v.value(pts), v.jac(pts)
    assert vals.shape == (4, 5, 3, 2) and jacs.shape == (4, 5, 2, 3, 3)
    for idx in np.ndindex(4, 5):
        np.testing.assert_allclose(vals[idx], v.value(pts[idx]), rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(jacs[idx], v.jac(pts[idx]), rtol=1e-14, atol=1e-14)
