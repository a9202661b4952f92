import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    DimensionMismatchError,
    DistKind,
    EuclideanPath,
    GridMismatchError,
    LevelDistanceSpec,
    NormKind,
    P_INF,
    ParameterError,
    TimeGrid,
    group_inverse,
    group_mul,
    increment,
    interval_norm_table,
    lift,
    mixed_norm,
    qvar_norm,
    refined_nikolskii_norm,
    rho_aggregate,
    rho_mixed_level,
    rho_nikolskii_hat_level,
    rho_qvar_level,
    rho_riesz_level,
    riesz_norm,
)
from roughpaths import paths
from roughpaths.distances import level_diff_matrix, rho_level
from roughpaths.norms import dense_columns, dp_partition_sup, shift_sup_table
from roughpaths.oracle import (
    oracle_rho_mixed,
    oracle_rho_nikolskii_hat,
    oracle_rho_qvar,
    oracle_rho_riesz,
)
from roughpaths.verify import _nested_mixed
from conftest import random_walk_path


def make_pair(rng, intervals=8, dim=2, depth=2, eps=0.15):
    p1 = random_walk_path(rng, intervals, dim)
    bump = random_walk_path(rng, intervals, dim)
    p2 = EuclideanPath(p1.grid, p1.values + eps * bump.values)
    return lift(p1, depth), lift(p2, depth), p1, p2


# ---------------------------------------------------------------------------
# trivial zeros and errors
# ---------------------------------------------------------------------------

def test_zero_for_equal_paths(rng):
    x1, _, _, _ = make_pair(rng)
    assert rho_qvar_level(x1, x1, 2.2, 1) == 0.0
    assert rho_riesz_level(x1, x1, 0.45, 4.0, 2) == 0.0
    assert rho_mixed_level(x1, x1, 0.45, 4.0, 2) == 0.0
    assert rho_nikolskii_hat_level(x1, x1, 0.45, 4.0, 1) == 0.0
    assert rho_aggregate(x1, x1, DistKind.RIESZ, delta=0.45, p=4.0) == 0.0


def test_grid_mismatch_rejected(rng):
    x1, _, p1, _ = make_pair(rng, intervals=8)
    other = lift(random_walk_path(rng, 10, 2), 2)
    with pytest.raises(GridMismatchError):
        rho_qvar_level(x1, other, 2.0, 1)


def test_depth_mismatch_rejected(rng):
    p1 = random_walk_path(rng, 6, 2)
    with pytest.raises(DimensionMismatchError):
        rho_qvar_level(lift(p1, 1), lift(p1, 2), 2.0, 1)


def test_level_out_of_range(rng):
    x1, x2, _, _ = make_pair(rng, depth=2)
    with pytest.raises(ParameterError):
        rho_qvar_level(x1, x2, 2.0, 3)


def test_spec_validation():
    LevelDistanceSpec(DistKind.RIESZ, delta=0.45, p=4.0, level=2)
    with pytest.raises(ParameterError):
        LevelDistanceSpec(DistKind.RIESZ, delta=0.45, p=1.5, level=1)
    with pytest.raises(ParameterError):
        LevelDistanceSpec(DistKind.QVAR, p=0.5, level=1)
    with pytest.raises(ParameterError):
        LevelDistanceSpec(DistKind.RIESZ, delta=0.45, p=math.inf, level=1)


@pytest.mark.parametrize("p", [P_INF, math.inf, None, math.nan])
def test_infinite_or_missing_p_rejected(rng, p):
    x1, x2, _, _ = make_pair(rng)
    for fn in (rho_riesz_level, rho_mixed_level, rho_nikolskii_hat_level):
        with pytest.raises(ParameterError):
            fn(x1, x2, 0.45, p, 1)
    with pytest.raises(ParameterError):
        rho_qvar_level(x1, x2, p, 1)


# ---------------------------------------------------------------------------
# level-1 reduction to path norms
# ---------------------------------------------------------------------------

def test_level1_reductions(rng):
    p1 = random_walk_path(rng, 8, 2)
    p2 = EuclideanPath(p1.grid, p1.values + 0.2 * random_walk_path(rng, 8, 2).values)
    x1, x2 = lift(p1, 1), lift(p2, 1)
    diff = EuclideanPath(p1.grid, p1.values - p2.values)
    assert rho_qvar_level(x1, x2, 2.0, 1) == pytest.approx(
        qvar_norm(diff, 2.0), rel=1e-12)
    assert rho_riesz_level(x1, x2, 0.45, 4.0, 1) == pytest.approx(
        riesz_norm(diff, 0.45, 4.0), rel=1e-12)
    assert rho_mixed_level(x1, x2, 0.45, 4.0, 1) == pytest.approx(
        mixed_norm(diff, 0.45, 4.0), rel=1e-12)
    assert rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, 1) == pytest.approx(
        refined_nikolskii_norm(diff, 0.45, 4.0), rel=1e-12)
    assert rho_aggregate(x1, x2, DistKind.QVAR, p=2.0) == pytest.approx(
        qvar_norm(diff, 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# oracle equality and the grid identity
# ---------------------------------------------------------------------------

def test_dp_matches_enumeration(rng):
    for _ in range(8):
        x1, x2, _, _ = make_pair(rng, intervals=int(rng.integers(3, 8)))
        for k in (1, 2):
            q = 1 / 0.45
            assert rho_qvar_level(x1, x2, q, k) == pytest.approx(
                oracle_rho_qvar(x1, x2, q, k), rel=1e-9)
            assert rho_riesz_level(x1, x2, 0.45, 4.0, k) == pytest.approx(
                oracle_rho_riesz(x1, x2, 0.45, 4.0, k), rel=1e-9)
            assert rho_mixed_level(x1, x2, 0.45, 4.0, k) == pytest.approx(
                oracle_rho_mixed(x1, x2, 0.45, 4.0, k), rel=1e-9)
            assert rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, k) == pytest.approx(
                oracle_rho_nikolskii_hat(x1, x2, 0.45, 4.0, k), rel=1e-9)


def test_riesz_equals_mixed_distance(rng):
    for _ in range(6):
        x1, x2, _, _ = make_pair(rng, intervals=12)
        for delta, p in ((0.4, 3.0), (0.45, 4.0), (0.6, 8.0)):
            for k in (1, 2):
                # against the nested definition: the grid identity of ``norms``
                a = rho_riesz_level(x1, x2, delta, p, k)
                b = _nested_mixed([(x1, x2)], delta, [p], k)[0][0]
                assert a == pytest.approx(b, rel=1e-9)
                assert a <= b * (1 + 1e-9)  # the constant-1 direction on its own
                assert rho_mixed_level(x1, x2, delta, p, k) == a


def test_symmetry_exact(rng):
    x1, x2, _, _ = make_pair(rng)
    for k in (1, 2):
        assert rho_riesz_level(x1, x2, 0.45, 4.0, k) == rho_riesz_level(
            x2, x1, 0.45, 4.0, k)


def test_identity_of_indiscernibles(rng):
    x1, x2, _, _ = make_pair(rng, eps=0.3)
    assert rho_aggregate(x1, x2, DistKind.QVAR, p=2.5) > 1e-3


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_is_max_over_levels(rng):
    x1, x2, _, _ = make_pair(rng, depth=2)
    levels = [rho_riesz_level(x1, x2, 0.45, 4.0, k) for k in (1, 2)]
    agg = rho_aggregate(x1, x2, DistKind.RIESZ, delta=0.45, p=4.0)
    assert agg == pytest.approx(max(levels), rel=1e-14)
    assert all(agg >= v * (1 - 1e-14) for v in levels)


def test_aggregate_depth1_is_level1(rng):
    p1 = random_walk_path(rng, 6, 2)
    p2 = EuclideanPath(p1.grid, 1.1 * p1.values)
    x1, x2 = lift(p1, 1), lift(p2, 1)
    assert rho_aggregate(x1, x2, DistKind.QVAR, p=2.0) == rho_qvar_level(
        x1, x2, 2.0, 1)


def test_nikolskii_hat_needs_uniform_grid(rng):
    from roughpaths import NonUniformGridError

    p1 = random_walk_path(rng, 8, 2, uniform=False)
    p2 = EuclideanPath(p1.grid, 1.1 * p1.values)
    x1, x2 = lift(p1, 2), lift(p2, 2)
    with pytest.raises(NonUniformGridError):
        rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, 1)


def test_no_nested_cap_on_nikolskii_hat(rng):
    x1, x2, p1, _ = make_pair(rng, intervals=24)
    with pytest.raises(TypeError):
        rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, 1, max_nested=8)
    # the cap stays on the O(M^3) interval tables
    with pytest.raises(ParameterError):
        interval_norm_table(x1, NormKind.NIKOLSKII, 0.45, 4.0, max_nested=8)
    # the Nikolskii-hat and mixed distances are O(M^2) sweeps without a cap
    big1, big2, _, _ = make_pair(rng, intervals=2048)
    for k in (1, 2):
        riesz = rho_riesz_level(big1, big2, 0.45, 4.0, k)
        assert rho_mixed_level(big1, big2, 0.45, 4.0, k) == riesz
        assert rho_level(big1, big2, DistKind.MIXED, delta=0.45, p=4.0, k=k) == riesz
        nhat = rho_nikolskii_hat_level(big1, big2, 0.45, 4.0, k)
        assert 0.0 < nhat < math.inf
        assert rho_level(big1, big2, DistKind.NIKOLSKII_HAT, delta=0.45, p=4.0, k=k) == nhat


def test_level_diff_cache_dies_with_paths(rng):
    x1, x2, _, _ = make_pair(rng)
    mat = level_diff_matrix(x1, x2, 2)
    assert level_diff_matrix(x1, x2, 2) is mat  # shared across the per-level calls
    ref = weakref.ref(mat)
    del mat, x1, x2
    gc.collect()
    assert ref() is None


def _level_norms(g, depth):
    return np.array([np.linalg.norm(g.level(k).ravel(), axis=-1) for k in range(1, depth + 1)])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(2, 2**12))
def test_row_pass_equals_per_pair_increments(dim, depth, intervals, seed, cells):
    rng = np.random.default_rng(seed)
    p1 = random_walk_path(rng, intervals, dim, uniform=False)
    p2 = EuclideanPath(p1.grid, p1.values + 0.2 * rng.standard_normal(p1.values.shape))
    m = len(p1.grid)

    # X_{i,j} as ``increment`` forms it, group_mul(group_inverse(X_i), X_j),
    # for every ordered pair; the inverses are computed once per point
    def increments(x, upper):
        inv = [group_inverse(g) for g in x.values]
        return {(i, j): group_mul(inv[i], x.values[j])
                for i in range(m) for j in range(i if upper else 0, m)}

    x1, x2 = lift(p1, depth), lift(p2, depth)
    g1, g2 = increments(x1, False), increments(x2, True)
    i, j = sorted(rng.integers(0, m, 2))
    assert all(np.array_equal(a, b) for a, b in zip(increment(x1, i, j).tensor.levels,
                                                    g1[i, j].tensor.levels))
    diffs = np.zeros((depth, m, m))
    for (i, j), g in g2.items():
        diffs[:, i, j] = [np.linalg.norm((g1[i, j].level(k) - g.level(k)).ravel(), axis=-1)
                          for k in range(1, depth + 1)]
    norms = np.zeros((depth, m, m))
    for (i, j), g in g1.items():
        norms[:, i, j] = _level_norms(g, depth)
    sym = np.maximum(norms, norms.transpose(0, 2, 1))
    # one root per contiguous level: sqrt at k = 2, the power 1/k above
    dist = np.max([sym[0], np.sqrt(sym[1]) if depth > 1 else sym[0],
                   *(sym[k - 1] ** (1.0 / k) for k in range(3, depth + 1))], axis=0)
    # a budget of 1 cell makes every block one row, so block edges fall on every row
    for budget in (1, cells):
        x1, x2 = lift(p1, depth), lift(p2, depth)
        with mock.patch.object(paths, "_ROW_BLOCK_CELLS", budget):
            assert np.array_equal(x1.distance_matrix, dist)
            for k in range(1, depth + 1):
                assert np.array_equal(level_diff_matrix(x1, x2, k), diffs[k - 1])


# ---------------------------------------------------------------------------
# the fused Nikolskii-hat sweep against the table DP and the oracle
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 11), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 3),
       st.sampled_from([(0.3, 4.0), (0.45, 4.0), (0.5, 2.5), (1.0, 7.0)]), st.data())
def test_nikolskii_hat_sweep_equals_table_dp_and_oracle(m, seed, dim, depth, dp, data):
    delta, p = dp
    x1, x2, _, _ = make_pair(np.random.default_rng(seed), intervals=m, dim=dim, depth=depth,
                             eps=0.5)
    k = data.draw(st.integers(1, depth))
    lo = data.draw(st.integers(0, m - 1))
    hi = data.draw(st.integers(lo + 1, m))
    times = x1.grid.times
    span = (times[lo], times[hi])
    got = rho_nikolskii_hat_level(x1, x2, delta, p, k, span)
    table = shift_sup_table(level_diff_matrix(x1, x2, k), times, lo, hi, p / k, -delta * p)
    want = dp_partition_sup([dense_columns(table, lo, hi)], lo, hi) ** (k / p)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(oracle_rho_nikolskii_hat(x1, x2, delta, p, k, span), rel=1e-9)


def test_nikolskii_hat_out_of_float_range_raises(rng):
    x1, x2, p1, p2 = make_pair(rng, intervals=64)
    assert rho_nikolskii_hat_level(x1, x1, 0.5, 300.0, 1) == 0.0  # zero, not out of range
    for c in (1e-3, 1e3):
        y1, y2 = (lift(EuclideanPath(p.grid, c * p.values), 2) for p in (p1, p2))
        with pytest.raises(ParameterError):
            rho_nikolskii_hat_level(y1, y2, 0.5, 300.0, 1)


def test_group_distances_do_not_depend_on_grid_size(rng):
    # a prefix of the grid gives the top-left block of the distance matrix
    f = random_walk_path(rng, 200, 2)
    for depth in (2, 3, 4):
        whole = lift(f, depth).distance_matrix
        for points in (20, 49, 65, 81, 130):
            prefix = EuclideanPath(TimeGrid(f.grid.times[:points]), f.values[:points])
            assert np.array_equal(lift(prefix, depth).distance_matrix,
                                  whole[:points, :points])
