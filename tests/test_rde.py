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
from roughpaths.paths import GroupPath
from roughpaths.rde import _euler_steps, _group_increments, _step_maps
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
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40),
       st.sampled_from(list(FieldFamily)), st.integers(0, 2**32 - 1))
def test_solve_rough_equals_per_step_loop(dim, depth, intervals, family, seed):
    rng = np.random.default_rng(seed)
    x = _area_driver(random_walk_path(rng, 3 * intervals, dim), depth)
    v = _random_field(rng, family, dim, 2, 0.4)
    y0 = rng.uniform(-1.0, 1.0, 2)
    got = solve_rough(y0, v, x, RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER))
    inc = _group_increments(x)
    y, ys = y0, [y0]
    for j in range(intervals):
        g = group_mul(group_inverse(x.values[j]), x.values[j + 1])
        levels = [g.level(k).reshape(1, -1) for k in range(1, depth + 1)]
        assert all(np.array_equal(lv[j], one[0]) for lv, one in zip(inc, levels))
        y = _euler_steps(v, y, levels, x.grid.times[j:j + 2])[-1]
        ys.append(y)
    assert np.array_equal(got.values, np.stack(ys))


@pytest.mark.parametrize("n, m, depth, quadratic", [
    (1, 1, 1, True), (3, 5, 1, True), (2, 3, 1, False), (3, 4, 2, False),
    (1, 5, 3, False), (3, 5, 3, False),
])
def test_batched_step_maps_equal_one_step_maps(rng, n, m, depth, quadratic):
    family = FieldFamily.POLYNOMIAL if quadratic else FieldFamily.AFFINE
    v = _random_field(rng, family, n, m, 1.0)
    levels = [rng.standard_normal((1024, n**k)) for k in range(1, depth + 1)]
    maps = _step_maps(v, levels)
    for j in range(0, 1024, 37):
        assert np.array_equal(maps[j], _step_maps(v, [lv[j:j + 1] for lv in levels])[0])


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
