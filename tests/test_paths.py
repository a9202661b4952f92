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
from roughpaths.tensor_core import group_distance, level_norms, stacked_mul
from conftest import pointwise_group_distances, random_walk_path


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


@pytest.mark.parametrize("intervals", [4, 32, 1024])
def test_uniform_grids_pass_their_own_check(intervals):
    # subnormal steps round apart: such a horizon raises rather than giving a
    # grid that every uniform-grid norm rejects
    built = 0
    for horizon in [float(f"{m}e{e}") for e in range(-324, -289) for m in (1, 2, 4, 7)]:
        try:
            grid = TimeGrid.uniform(intervals, horizon)
        except ParameterError:
            continue
        assert grid.is_uniform, horizon
        built += 1
    assert built > 60


def test_index_of_requires_grid_point():
    grid = TimeGrid.uniform(4)
    assert grid.index_of(0.75) == 3
    with pytest.raises(ParameterError):
        grid.index_of(0.3)
    # on grids finer than the tolerance, the nearest point, not the first in it
    fine = TimeGrid.uniform(4000, 1e-6)
    assert fine.index_of(fine.times[1000]) == 1000
    assert TimeGrid.uniform(4, 1e-300).index_of(2.5e-301) == 1
    u = np.sort(np.random.default_rng(23).uniform(0.0, 1.0, 499))
    for horizon in (1e-300, 1e-12, 1.0, 1e12):
        for grid in (TimeGrid.uniform(500, horizon),
                     TimeGrid(np.concatenate([[0.0], u, [1.0]]) * horizon)):
            assert [grid.index_of(t) for t in grid.times] == list(range(len(grid)))


def test_resolve_interval():
    grid = TimeGrid.uniform(4)
    assert grid.resolve_interval(None) == (0, 4)
    assert grid.resolve_interval((0.25, 0.75)) == (1, 3)
    with pytest.raises(ParameterError):
        grid.resolve_interval((0.75, 0.25))
    assert TimeGrid.uniform(4, 1e-12).resolve_interval((2.5e-13, 7.5e-13)) == (1, 3)
    assert TimeGrid.uniform(4, 1e-300).resolve_interval((2.5e-301, 7.5e-301)) == (1, 3)


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
        assert np.array_equal(x._transposed[0][k].T,
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
    assert not d.flags.writeable


def test_group_distance_matrix_memory(rng):
    # the (M+1)^2 result (2.1 MB here) plus the entries and level norms of
    # one piece of ``distance_block``; a (depth, M+1, M+1) stack of level
    # norms took 12.2 MB
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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 2**12),
       st.data())
def test_group_distance_blocks_equal_the_pointwise_formula(dim, depth, intervals, seed, uniform,
                                                           cells, data):
    # any budget of grid pairs: a budget of 1 makes every piece one column
    x = lift(random_walk_path(np.random.default_rng(seed), intervals, dim, uniform=uniform),
             depth)
    dist, m = pointwise_group_distances(x), len(x.grid)
    lo = data.draw(st.integers(0, m - 1), "lo")
    j0 = data.draw(st.integers(lo, m - 1), "j0")
    j1 = data.draw(st.integers(j0 + 1, m), "j1")
    with mock.patch.object(paths, "_BLOCK_PAIRS", cells):
        assert np.array_equal(x.distance_block(lo, j0, j1), dist[lo:j1, j0:j1].T)
        for shift in range(1, j1 - lo + 1):  # the last shift asks for an empty diagonal
            got = x.shift_distances(shift, lo, j1 - 1)
            assert np.array_equal(got, np.diagonal(dist, shift)[lo : j1 - shift])
        assert got.shape == (0,)
        assert np.array_equal(x.distance_matrix, dist)
    assert not x.distance_matrix.flags.writeable


def _near_return_walk(rng, intervals, dim):
    # out and back: the second half retraces the first up to steps of 1e-6, so
    # late increments are small against the excursion of the running signatures
    half = intervals // 2
    steps = rng.standard_normal((half, dim)) / np.sqrt(intervals)
    back = -steps[::-1] + 1e-6 * rng.standard_normal((half, dim))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(np.vstack([steps, back]), axis=0)])
    return EuclideanPath(TimeGrid.uniform(2 * half), values)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("near_return", [False, True])
def test_increments_of_a_lift_and_their_inverses_have_equal_level_norms(dim, depth,
                                                                        near_return):
    # the inverse of a group-like g is its antipode, which permutes and negates
    # the entries of each level, so |pi_k(g^-1)| = |pi_k(g)| exactly; computed,
    # they differ by rounding, at most c eps sum_h A_h B_(k-h) with c = 2 (j+k+1)
    # and A_h, B_h the largest |pi_h| of X_t^-1 and of X_t over t <= j: the lift
    # adds j rounded steps to each level (so the scale is the excursion up to j,
    # not the values at i and j), and an increment and its inverse k + 1
    # rounded products per entry.  Seeded sweeps needed at most c = 0.7 (j+1).
    # Both the path's forward distance and the symmetric ``group_distance``
    # lie within the same bound of the forward level norms, through the roots
    # (their pow margin 2^-40 relative, as ``norms`` takes it)
    rng = np.random.default_rng([36, dim, depth, near_return])
    walk = (_near_return_walk if near_return else random_walk_path)(rng, 24, dim)
    x = lift(walk, depth)
    eps, margin = np.finfo(float).eps, 2.0**-40
    a, b = (np.maximum.accumulate([[1.0, *level_norms(g)] for g in elements], axis=0)
            for elements in ([group_inverse(g) for g in x.values], x.values))
    ks = np.arange(1, depth + 1)
    dist = x.distance_matrix
    for j in range(len(x.grid)):
        scale = np.array([sum(a[j, h] * b[j, k - h] for h in range(k + 1)) for k in ks])
        bound = 2 * (j + ks + 1) * eps * scale
        for i in range(j + 1):
            g = increment(x, i, j)
            forward, reverse = level_norms(g), level_norms(group_inverse(g))
            assert (np.abs(reverse - forward) <= bound).all(), (i, j)
            low = np.max(np.maximum(forward - bound, 0.0) ** (1.0 / ks)) * (1.0 - margin)
            high = np.max((forward + bound) ** (1.0 / ks)) * (1.0 + margin)
            for d in (dist[i, j], group_distance(x.element(i), x.element(j))):
                assert low <= d <= high, (i, j)
            assert dist[j, i] == dist[i, j]


def test_a_path_that_is_not_group_like_gets_the_forward_norm():
    # X_1 = (1, 1, -3) in dim 1, depth 2 is not group-like (its level 2 is not
    # 1/2): |pi_2(X_1)| = 3, while its inverse (1, -1, 4) has |pi_2| = 4, so
    # the path's distance is the forward sqrt(3) at both (0, 1) and (1, 0),
    # where the symmetric norm of ``group_distance`` reads 2
    grid = TimeGrid.uniform(1)
    built = GroupPath(grid, (np.ones((2, 1)), np.array([[0.0], [1.0]]), np.array([[0.0], [-3.0]])))
    elements = GroupPath.from_elements(grid, [identity_element(1, 2), built.element(1)])
    root3 = np.sqrt(3.0)
    for x in (built, elements):
        assert np.array_equal(x.distance_matrix, [[0.0, root3], [root3, 0.0]])
        assert np.array_equal(x.shift_distances(1, 0, 1), [root3])
        assert qvar_norm(x, 1.0) == qvar_norm(x, 2.0) == root3
    assert group_distance(built.element(0), built.element(1)) == 2.0
    assert group_distance(built.element(1), built.element(0)) == 2.0


def test_block_and_shift_indices_are_checked():
    f = EuclideanPath(TimeGrid.uniform(4), np.arange(10.0).reshape(5, 2) ** 1.5)
    for path in (f, lift(f, 2)):
        for args in ((0, 5, 3), (-1, 0, 2), (0, 1, 6), (2, 1, 3), (0, 1.0, 3), (True, 1, 2)):
            with pytest.raises(ParameterError):
                path.distance_block(*args)
        for args in ((-1, 0, 4), (0, 0, 4), (6, 0, 4), (1, 3, 2), (1, 0, 5), (1, -1, 3),
                     (np.float64(1.0), 0, 4), (True, 0, 4), (1, False, 4)):
            with pytest.raises(ParameterError):
                path.shift_distances(*args)
        # empty blocks and the empty diagonal of the longest shift are valid
        assert path.distance_block(1, 5, 5).shape == (0, 4)
        assert path.distance_block(5, 5, 5).shape == (0, 0)
        assert path.shift_distances(5, 0, 4).shape == (0,)
        assert path.shift_distances(np.int64(1), 0, 4).shape == (4,)

def test_pairwise_sum_is_numpy_add_reduce():
    # NumPy reduces a contiguous axis by its pairwise sum: left to right below
    # 8 terms, 8 accumulators up to 128, a split above; every branch and tail
    rng = np.random.default_rng(7)
    for count in range(1, 301):
        x = rng.standard_normal((5, count)) ** 2 * rng.lognormal(0.0, 4.0, count)
        got = paths._pairwise_sum((np.array(c) for c in x.T), count)
        assert np.array_equal(got, np.add.reduce(x, axis=-1)), count
        roots = np.sqrt(x)
        norm = paths._norm((np.array(c) for c in roots.T), count)
        assert np.array_equal(norm, np.linalg.norm(roots, axis=-1)), count


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("uniform", [True, False])
def test_level_norms_equal_numpy_norms_of_the_increments(dim, depth, uniform):
    # each level of the kernel against ``np.linalg.norm`` over the last axis of
    # the ``stacked_mul`` increments, n^k up to 256: rows from lo > 0, a
    # diagonal, and a constant path, whose levels and inverses are all zero
    rng = np.random.default_rng([dim, depth, uniform])
    walk = random_walk_path(rng, 11, dim, scale=float(rng.choice([1e-3, 1.0, 30.0])),
                            uniform=uniform)
    still = EuclideanPath(walk.grid, np.full(walk.values.shape, 0.7))
    for x in (lift(walk, depth), lift(still, depth)):
        inv = [lv.T for lv in x._transposed[0]]
        for lo, c0, c1 in ((0, 0, 12), (3, 5, 9), (4, 11, 12)):
            rows, cols = np.s_[lo:c1], np.s_[c0:c1]
            want = stacked_mul([lv[None, rows] for lv in inv], [lv[cols, None] for lv in x.levels])
            head, tail = np.s_[lo : c1 - 1], np.s_[lo + 1 : c1]
            diag = stacked_mul([lv[head] for lv in inv], [lv[tail] for lv in x.levels])
            for k in range(1, depth + 1):
                got = paths._norm(x._entries(k, *x._levels(np.s_[:, None, rows],
                                                           np.s_[:, cols, None])), dim**k)
                assert np.array_equal(got, np.linalg.norm(want[k], axis=-1))
                got = paths._norm(x._entries(k, *x._levels(np.s_[:, head], np.s_[:, tail])),
                                  dim**k)
                assert np.array_equal(got, np.linalg.norm(diag[k], axis=-1))
