import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    EuclideanPath,
    GroupPath,
    ParameterError,
    TimeGrid,
    group_inverse,
    group_mul,
    grouplike_defect,
    identity_element,
    increment,
    level1_path,
    lift,
    qvar_norm,
    resample_uniform,
    segment_exp,
    signature,
    time_reversed,
)
from roughpaths import paths
from conftest import random_walk_path


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _unit_walk():
    return EuclideanPath(TimeGrid.uniform(2), [0.0, 1.0, 0.5])


@pytest.mark.parametrize("build", [
    lambda: EuclideanPath(TimeGrid.uniform(4), np.zeros((5, 2, 2))),
    lambda: EuclideanPath(TimeGrid.uniform(4), np.zeros((5, 0))),
    lambda: EuclideanPath(TimeGrid.uniform(2), "abc"),
    lambda: EuclideanPath(TimeGrid.uniform(2), [[0.0, 1.0], [1.0], [2.0, 3.0]]),
    lambda: TimeGrid("abc"),
    lambda: TimeGrid([[0.0, 1.0], [2.0]]),
    lambda: TimeGrid.uniform(2.5),
    lambda: TimeGrid.uniform(float("nan")),
    lambda: TimeGrid.uniform("3"),
    lambda: resample_uniform(_unit_walk(), 2.5),
], ids=["values-3d", "values-no-columns", "values-string", "values-ragged", "times-string",
        "times-ragged", "uniform-fraction", "uniform-nan", "uniform-string",
        "resample-fraction"])
def test_malformed_grid_and_path_inputs_raise_parameter_error(build):
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize("build", [
    lambda: qvar_norm(EuclideanPath("xyz", [0.0, 1.0, 0.5]), 2.0),
    lambda: GroupPath([0.0, 0.5, 1.0], lift(_unit_walk(), 2).levels),
    lambda: TimeGrid.uniform(3, "1"),
    lambda: TimeGrid([[0, 1], [2, 3]]),
    lambda: TimeGrid.uniform(3, float("inf")),
    lambda: TimeGrid.uniform(2).resolve_interval((0.0,)),
    lambda: TimeGrid.uniform(2).resolve_interval((0.0, "x")),
], ids=["grid-string", "group-grid-list", "horizon-string", "times-2d", "horizon-inf",
        "interval-single", "interval-string"])
def test_grids_and_intervals_raise_parameter_error_without_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            build()


def test_grid_must_start_at_zero():
    with pytest.raises(ParameterError):
        TimeGrid([0.5, 1.0])


def test_grid_strictly_increasing():
    with pytest.raises(ParameterError):
        TimeGrid([0.0, 0.5, 0.5])


def test_uniform_flag():
    assert TimeGrid.uniform(10).is_uniform
    assert not TimeGrid([0.0, 0.1, 1.0]).is_uniform


def test_index_of_requires_grid_point():
    grid = TimeGrid.uniform(4)
    assert grid.index_of(0.75) == 3
    with pytest.raises(ParameterError):
        grid.index_of(0.3)


def test_resolve_interval():
    grid = TimeGrid.uniform(4)
    assert grid.resolve_interval(None) == (0, 4)
    assert grid.resolve_interval((0.25, 0.75)) == (1, 3)
    with pytest.raises(ParameterError):
        grid.resolve_interval((0.75, 0.25))


# ---------------------------------------------------------------------------
# lifting and increments
# ---------------------------------------------------------------------------

def test_lift_single_segment():
    grid = TimeGrid([0.0, 1.0])
    path = EuclideanPath(grid, [[0.0, 0.0], [1.0, 0.0]])
    x = lift(path, 2)
    expected = segment_exp([1.0, 0.0], 2)
    for k in range(3):
        np.testing.assert_allclose(x.values[1].level(k), expected.level(k))


def test_lift_two_segments_chen_product():
    grid = TimeGrid([0.0, 0.5, 1.0])
    path = EuclideanPath(grid, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    end = signature(lift(path, 2))
    np.testing.assert_allclose(end.level(1), [1.0, 1.0])
    np.testing.assert_allclose(end.level(2), [[0.5, 1.0], [0.0, 0.5]])


def test_lift_constant_path_all_identity():
    grid = TimeGrid.uniform(5)
    path = EuclideanPath(grid, np.ones((6, 2)))
    x = lift(path, 3)
    for g in x.values:
        for k in range(1, 4):
            assert np.abs(g.level(k)).max() == 0.0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40), st.booleans(),
       st.sampled_from([1e-3, 1.0, 10.0]), st.integers(0, 2**32 - 1))
def test_lift_equals_per_step_chen_chain(dim, depth, intervals, uniform, scale, seed):
    path = random_walk_path(np.random.default_rng(seed), intervals, dim, scale, uniform)
    x = lift(path, depth)
    g = identity_element(dim, depth)
    chain = [g]
    for delta in path.increments():
        g = group_mul(g, segment_exp(delta, depth))
        chain.append(g)
    for k in range(depth + 1):
        assert np.array_equal(x.levels[k], np.stack([h.level(k).reshape(-1) for h in chain]))
        assert np.array_equal(x._stacked_inverses[k],
                              np.stack([group_inverse(h).level(k).reshape(-1) for h in chain]))
    assert all(grouplike_defect(h) <= 1e-12 for h in x.values)
    again = GroupPath.from_elements(path.grid, x.values)
    assert all(np.array_equal(a, b) for a, b in zip(again.levels, x.levels))


def test_group_path_levels_validated():
    grid = TimeGrid.uniform(2)
    good = lift(EuclideanPath(grid, [[0.0], [1.0], [0.5]]), 2).levels
    for levels in (good[:1], (good[0], good[1][:2], good[2]),
                   (good[0], good[1], np.full((3, 1), np.nan)),
                   (np.zeros((3, 1)), good[1], good[2]), (good[0], good[1] + 1.0, good[2]),
                   (good[0], good[1], "abc")):
        with pytest.raises(ParameterError):
            GroupPath(grid, levels)
    assert not GroupPath(grid, good).levels[1].flags.writeable


def test_lift_depth_cap():
    path = EuclideanPath(TimeGrid.uniform(2), np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        lift(path, 5)


def test_lift_that_overflows_raises_without_warning():
    # level 3 of a step of 1e150 is about 1e450: a ParameterError, not a RuntimeWarning
    path = EuclideanPath(TimeGrid.uniform(2), [[0.0], [1e150], [0.0]])
    assert lift(path, 2).depth == 2
    with pytest.raises(ParameterError, match="level 3 contains non-finite entries"):
        lift(path, 3)


@pytest.mark.parametrize("depth", [2.0, "2", None])
def test_lift_rejects_non_integer_depth(depth):
    path = EuclideanPath(TimeGrid.uniform(2), np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        lift(path, depth)
    assert lift(path, np.int64(2)).depth == 2


def test_increment_identity_and_telescoping(rng):
    path = random_walk_path(rng, 8, 2)
    x = lift(path, 2)
    e = increment(x, 3, 3)
    for k in range(1, 3):
        assert np.abs(e.level(k)).max() == 0.0
    full = increment(x, 0, 8)
    for k in range(3):
        np.testing.assert_allclose(full.level(k), signature(x).level(k), atol=1e-14)


def test_increment_order_error(rng):
    x = lift(random_walk_path(rng, 4, 1), 2)
    with pytest.raises(ParameterError):
        increment(x, 3, 1)


def test_chen_identity_random_triples(rng):
    path = random_walk_path(rng, 10, 2)
    x = lift(path, 3)
    for _ in range(10):
        i, j, k = sorted(rng.choice(11, size=3, replace=False))
        whole = increment(x, int(i), int(k))
        split = group_mul(increment(x, int(i), int(j)), increment(x, int(j), int(k)))
        for lev in range(1, 4):
            np.testing.assert_allclose(
                whole.level(lev), split.level(lev), rtol=1e-12, atol=1e-12
            )


def test_level1_of_increments_matches_raw_increments(rng):
    path = random_walk_path(rng, 6, 3)
    x = lift(path, 2)
    for i in range(6):
        np.testing.assert_allclose(
            increment(x, i, i + 1).level(1),
            path.values[i + 1] - path.values[i],
            rtol=1e-13, atol=1e-15,
        )
    np.testing.assert_allclose(level1_path(x).values, path.values - path.values[0],
                               atol=1e-14)


def test_reversal_gives_inverse_signature(rng):
    path = random_walk_path(rng, 7, 2)
    fwd = signature(lift(path, 3))
    bwd = signature(lift(time_reversed(path), 3))
    inv = group_inverse(fwd)
    for k in range(1, 4):
        np.testing.assert_allclose(bwd.level(k), inv.level(k), rtol=1e-11, atol=1e-13)


def test_group_path_starts_at_identity(rng):
    grid = TimeGrid.uniform(2)
    bad = (segment_exp([1.0], 2), identity_element(1, 2), identity_element(1, 2))
    with pytest.raises(ParameterError):
        GroupPath.from_elements(grid, bad)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_same_grid_identical(rng):
    path = random_walk_path(rng, 16, 2)
    again = resample_uniform(path, 16)
    np.testing.assert_allclose(again.values, path.values, atol=1e-15)


def test_resample_linear_path_exact():
    path = EuclideanPath.from_function(TimeGrid.uniform(7), lambda t: 2.0 * t)
    fine = resample_uniform(path, 23)
    np.testing.assert_allclose(fine.values[:, 0], fine.grid.times * 2.0, atol=1e-14)


def test_resample_preserves_endpoints(rng):
    path = random_walk_path(rng, 9, 2, uniform=False)
    out = resample_uniform(path, 13)
    np.testing.assert_array_equal(out.values[0], path.values[0])
    np.testing.assert_array_equal(out.values[-1], path.values[-1])


def test_refinement_keeps_monotone_qvar():
    path = EuclideanPath.from_function(TimeGrid.uniform(8), lambda t: t**2)
    fine = resample_uniform(path, 64)
    for q in (1.0, 2.0, 3.5):
        assert qvar_norm(fine, q) == pytest.approx(qvar_norm(path, q), rel=1e-12)


def test_distance_matrix_euclidean(rng):
    path = random_walk_path(rng, 5, 2)
    d = path.distance_matrix
    i, j = 2, 4
    assert d[i, j] == pytest.approx(np.linalg.norm(path.values[j] - path.values[i]))
    assert np.allclose(d, d.T)


def test_group_distance_matrix_memory(rng):
    # the (M+1)^2 result (2.1 MB here) plus the increments of one piece of
    # ``distance_block``, about 3.3 MB in all; a (depth, M+1, M+1) stack of
    # level norms took 12.2 MB
    x = lift(random_walk_path(rng, 512, 2), 3)
    tracemalloc.start()
    try:
        x.distance_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_group_distance_matrix_matches_pointwise(rng):
    from roughpaths import group_distance

    path = random_walk_path(rng, 6, 2)
    x = lift(path, 2)
    d = x.distance_matrix
    for i in range(7):
        for j in range(7):
            assert d[i, j] == pytest.approx(
                group_distance(x.values[i], x.values[j]), rel=1e-11, abs=1e-13
            )


def _dense_group_distances(x):
    """d(X_i, X_j) for every ordered pair, element by element: X_{i,j} as
    ``increment`` forms it, group_mul(group_inverse(X_i), X_j), the level norms
    over the last axis of the flattened levels (without an axis, NumPy takes a
    1-D norm by a dot product, which may round differently), the max of the
    forward and reverse norms, its root per level (``np.sqrt`` at k = 2, the
    power 1/k above), and the max over levels."""
    m, depth = len(x.grid), x.depth
    inv = [group_inverse(g) for g in x.values]
    norms = np.empty((depth, m, m))
    for i in range(m):
        for j in range(m):
            g = group_mul(inv[i], x.values[j])
            norms[:, i, j] = [np.linalg.norm(g.level(k).ravel(), axis=-1)
                              for k in range(1, depth + 1)]
    sym = np.maximum(norms, norms.transpose(0, 2, 1))
    roots = [sym[0]] + [np.sqrt(sym[1]) if k == 2 else sym[k - 1] ** (1.0 / k)
                        for k in range(2, depth + 1)]
    return np.max(roots, axis=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 2**12),
       st.data())
def test_group_distance_blocks_equal_the_pointwise_formula(dim, depth, intervals, seed, uniform,
                                                           cells, data):
    # any budget of increment entries: a budget of 1 makes every piece one column
    x = lift(random_walk_path(np.random.default_rng(seed), intervals, dim, uniform=uniform),
             depth)
    dist, m = _dense_group_distances(x), len(x.grid)
    lo = data.draw(st.integers(0, m - 1), "lo")
    j0 = data.draw(st.integers(lo, m - 1), "j0")
    j1 = data.draw(st.integers(j0 + 1, m), "j1")
    with mock.patch.object(paths, "_ROW_BLOCK_CELLS", cells):
        assert np.array_equal(x.distance_block(lo, j0, j1), dist[lo:j1, j0:j1].T)
        for shift in range(j1 - lo + 1):  # the last shift asks for an empty diagonal
            got = x.shift_distances(shift, lo, j1 - 1)
            assert np.array_equal(got, np.diagonal(dist, shift)[lo : j1 - shift])
        assert got.shape == (0,)
        assert np.array_equal(x.distance_matrix, dist)
    assert not x.distance_matrix.flags.writeable
