import gc
import math
import pickle
import warnings
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
    P_INF,
    ParameterError,
    TimeGrid,
    group_inverse,
    group_mul,
    increment,
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
from roughpaths.distances import DenseSource, level_diff_matrix, rho_level
from roughpaths.norms import dp_partition_sup
from roughpaths.oracle import (
    oracle_rho_mixed,
    oracle_rho_nikolskii_hat,
    oracle_rho_qvar,
    oracle_rho_riesz,
    shift_sup_table,
)
from roughpaths.tensor_core import stacked_inverse, stacked_mul
from roughpaths.verify import _nested_mixed, dense_columns
from conftest import dyadic_pair, random_walk_path


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


def test_out_of_range_parameters_rejected(rng):
    x1, x2, _, _ = make_pair(rng, depth=2)
    assert math.isfinite(rho_riesz_level(x1, x2, 0.45, 4.0, 2))
    with pytest.raises(ParameterError, match="p >= 1/delta"):
        rho_riesz_level(x1, x2, 0.45, 1.5, 1)
    with pytest.raises(ParameterError, match="needs q >= 1"):
        rho_qvar_level(x1, x2, 0.5, 1)


@pytest.mark.parametrize("p", [pytest.param(np.float64(math.inf), id="float64-inf"),
                               math.inf, None, math.nan])
def test_infinite_or_missing_p_rejected(rng, p):
    x1, x2, _, _ = make_pair(rng)
    for fn in (rho_riesz_level, rho_mixed_level, rho_nikolskii_hat_level):
        with pytest.raises(ParameterError):
            fn(x1, x2, 0.45, p, 1)
    with pytest.raises(ParameterError):
        rho_qvar_level(x1, x2, p, 1)


def test_infinite_p_error_names_the_requested_kind(rng):
    x1, x2, _, _ = make_pair(rng)
    for kind in DistKind:
        with pytest.raises(ParameterError, match=f"^the {kind.value} distance needs a finite p$"):
            rho_level(x1, x2, kind, delta=0.45, p=math.inf)
    with pytest.raises(ParameterError, match="^the mixed distance needs a finite p$"):
        rho_mixed_level(x1, x2, 0.45, P_INF, 1)


def _far_pair():
    # differences near 1e150 over gaps near 1e-300, lifted to depth 1
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    values = 1e150 / np.ptp(f.values) * f.values
    grid = TimeGrid.uniform(32, 1e-300)
    return (lift(EuclideanPath(grid, values), 1), lift(EuclideanPath(grid, 1.1 * values), 1),
            f, values)


def test_distances_beyond_the_float_range_raise():
    # the one exit check of the norms: NaN or inf raises, no warning escapes;
    # q-variation reads no gap and keeps its value
    x1, x2, f, values = _far_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, dist in (
                ("rho_riesz_level", lambda: rho_riesz_level(x1, x2, 1.0, 4.0, 1)),
                ("rho_mixed_level", lambda: rho_mixed_level(x1, x2, 1.0, 4.0, 1)),
                ("rho_nikolskii_hat_level",
                 lambda: rho_nikolskii_hat_level(x1, x2, 1.0, 4.0, 1)),
                ("rho_riesz_level",
                 lambda: rho_aggregate(x1, x2, DistKind.RIESZ, delta=1.0, p=4.0))):
            with pytest.raises(ParameterError, match=f"^{name} leaves the float range"):
                dist()
        got = rho_qvar_level(x1, x2, 2.0, 1)
    assert got == pytest.approx(0.1 * 1e150 / np.ptp(f.values) * qvar_norm(f, 2.0), rel=1e-12)


def test_nikolskii_hat_of_a_far_pair_keeps_the_scaling_identity():
    # the pair of _far_pair over horizon 1e-200: the level-1 distance is
    # 0.1 c H^(1/p - delta) that of the unit walk, about 1e229, though its
    # sums as written leave the float range
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    c, horizon = 1e150 / np.ptp(f.values), 1e-200
    grid = TimeGrid.uniform(32, horizon)
    x1, x2 = (lift(EuclideanPath(grid, k * c * f.values), 1) for k in (1.0, 1.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rho_nikolskii_hat_level(x1, x2, 0.9, 2.0, 1)
    want = 0.1 * c * horizon ** (0.5 - 0.9) * refined_nikolskii_norm(f, 0.9, 2.0)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("e", [260, -300])
def test_lifts_beyond_the_square_range_raise(e):
    # level 2 of the lift is about 2^520 or 2^-600: its squares leave the float range
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    x = lift(EuclideanPath(f.grid, 2.0**e * f.values), 2)
    y = lift(EuclideanPath(f.grid, 1.1 * 2.0**e * f.values), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="normal float range"):
            qvar_norm(x, 2.5)
        with pytest.raises(ParameterError, match="normal float range"):
            rho_qvar_level(x, y, 2.5, 1)


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
                b = _nested_mixed([DenseSource(level_diff_matrix(x1, x2, k), x1.grid)], delta,
                                  [p], k)[0][0]
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
    # the Nikolskii-hat and mixed distances are O(M^2) sweeps without a cap
    big1, big2, _, _ = make_pair(rng, intervals=2048)
    for k in (1, 2):
        riesz = rho_riesz_level(big1, big2, 0.45, 4.0, k)
        assert rho_mixed_level(big1, big2, 0.45, 4.0, k) == riesz
        assert rho_level(big1, big2, DistKind.MIXED, delta=0.45, p=4.0, k=k) == riesz
        nhat = rho_nikolskii_hat_level(big1, big2, 0.45, 4.0, k)
        assert 0.0 < nhat < math.inf
        assert rho_level(big1, big2, DistKind.NIKOLSKII_HAT, delta=0.45, p=4.0, k=k) == nhat


@pytest.mark.parametrize("dropped", [("x1",), ("x2",), ("x1", "x2")],
                         ids=["x1", "x2", "both"])
def test_level_diff_cache_dies_with_paths(rng, dropped):
    pair = dict(zip(("x1", "x2"), make_pair(rng)))
    mat = level_diff_matrix(pair["x1"], pair["x2"], 2)
    assert level_diff_matrix(pair["x1"], pair["x2"], 2) is mat  # shared across the calls
    ref = weakref.ref(mat)
    del mat
    for name in dropped:  # either path alone frees the matrix
        del pair[name]
    gc.collect()
    assert ref() is None


def test_a_path_that_holds_level_diffs_pickles(rng):
    # paths cross process boundaries by pickle; the weak map of level
    # differences stays behind, and the copy builds its own
    x1, x2, _, _ = make_pair(rng)
    want = level_diff_matrix(x1, x2, 2)
    y1, y2 = pickle.loads(pickle.dumps((x1, x2)))
    assert all(np.array_equal(a, b) for a, b in zip(y1.levels, x1.levels))
    assert np.array_equal(level_diff_matrix(y1, y2, 2), want)


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
    # for every pair i <= j; the inverses are computed once per point
    def increments(x):
        inv = [group_inverse(g) for g in x.values]
        return {(i, j): group_mul(inv[i], x.values[j]) for i in range(m) for j in range(i, m)}

    x1, x2 = lift(p1, depth), lift(p2, depth)
    g1, g2 = increments(x1), increments(x2)
    i, j = sorted(rng.integers(0, m, 2))
    assert all(np.array_equal(a, b) for a, b in zip(increment(x1, i, j).tensor.levels,
                                                    g1[i, j].tensor.levels))
    diffs = np.zeros((depth, m, m))
    for (i, j), g in g2.items():
        diffs[:, i, j] = [np.linalg.norm((g1[i, j].level(k) - g.level(k)).ravel(), axis=-1)
                          for k in range(1, depth + 1)]
    # the forward norms, mirrored to i > j as the public matrix holds them
    norms = np.zeros((depth, m, m))
    for (i, j), g in g1.items():
        norms[:, i, j] = norms[:, j, i] = _level_norms(g, depth)
    # one root per contiguous level: sqrt at k = 2, the power 1/k above
    dist = np.max([norms[0], np.sqrt(norms[1]) if depth > 1 else norms[0],
                   *(norms[k - 1] ** (1.0 / k) for k in range(3, depth + 1))], axis=0)
    # a budget of 1 pair makes every block one row, so block edges fall on every row
    for budget in (1, cells):
        x1, x2 = lift(p1, depth), lift(p2, depth)
        with mock.patch.object(paths, "_BLOCK_PAIRS", budget):
            assert np.array_equal(x1.distance_matrix, dist)
            for k in range(1, depth + 1):
                assert np.array_equal(level_diff_matrix(x1, x2, k), diffs[k - 1])


def _row_pass_level_diffs(x1, x2):
    """The level differences from dense ``stacked_mul`` increments, a row pass of
    about 2^15 increment entries per block, each level norm ``np.linalg.norm`` of
    the difference of the increments over their last axis."""
    m, i0, depth = len(x1.grid), 0, x1.depth
    inverses = [stacked_inverse(x.levels) for x in (x1, x2)]
    mats = np.zeros((depth, m, m))
    while i0 < m:
        i1 = min(m, i0 + max(1, 2**15 // ((m - i0) * x1.dim**depth)))
        r1, r2 = (stacked_mul([lv[None, i0:i1] for lv in inv], [lv[i0:, None] for lv in x.levels])
                  for x, inv in zip((x1, x2), inverses))
        for k in range(1, depth + 1):
            mats[k - 1, i0:i1, i0:] = np.triu(np.linalg.norm(r1[k] - r2[k], axis=-1).T)
        i0 = i1
    return mats


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_level_diffs_equal_the_row_pass_over_increments(dim, depth):
    rng = np.random.default_rng([dim, depth])
    p1 = random_walk_path(rng, 14, dim, uniform=bool(depth % 2))
    p2 = EuclideanPath(p1.grid, p1.values + 0.3 * rng.standard_normal(p1.values.shape))
    still = EuclideanPath(p1.grid, np.zeros(p1.values.shape))
    pairs = [(p1, p2), (still, p1)]  # a constant path has zero levels and inverses
    want = [_row_pass_level_diffs(lift(f1, depth), lift(f2, depth)) for f1, f2 in pairs]
    # any block size gives the same bits, down to one row per block
    for budget in (2**14, 40, 1):
        with mock.patch.object(paths, "_BLOCK_PAIRS", budget):
            for (f1, f2), mats in zip(pairs, want):
                x1, x2 = lift(f1, depth), lift(f2, depth)
                for k in range(1, depth + 1):
                    assert np.array_equal(level_diff_matrix(x1, x2, k), mats[k - 1])


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


def test_nikolskii_hat_out_of_float_range_folds_the_time_factor(rng):
    # scaling the paths by c scales D_k by c^k: the sums as written under- or
    # overflow at p = 300, and the folded sweep gives c^k times the value
    x1, x2, p1, p2 = make_pair(rng, intervals=64)
    assert rho_nikolskii_hat_level(x1, x1, 0.5, 300.0, 1) == 0.0  # zero, not out of range
    for c in (1e-3, 1e3):
        y1, y2 = (lift(EuclideanPath(p.grid, c * p.values), 2) for p in (p1, p2))
        for k in (1, 2):
            assert rho_nikolskii_hat_level(y1, y2, 0.5, 300.0, k) == pytest.approx(
                c**k * rho_nikolskii_hat_level(x1, x2, 0.5, 300.0, k), rel=1e-12)


def test_nikolskii_hat_of_zero_one_step_differences():
    # level differences are not a metric: with every one-step level-2
    # difference 0, the longer ones still count.  At p = 300 their powers
    # underflow, so the sums as written read 0, and the folded sweep gives
    # the value, which scales exactly with the dyadic steps
    x1, x2 = (lift(f, 2) for f in dyadic_pair(4))
    assert not np.diagonal(level_diff_matrix(x1, x2, 2), 1).any()
    want = rho_nikolskii_hat_level(x1, x2, 0.5, 300.0, 2)
    assert want > 0.0
    for n in (8, 12):
        y1, y2 = (lift(f, 2) for f in dyadic_pair(n))
        assert rho_nikolskii_hat_level(y1, y2, 0.5, 300.0, 2) == want * 2.0 ** (-2 * (n - 4))


def test_level_distances_at_huge_exponents(rng):
    # D^(p/k) underflows and g^(1 - delta p) overflows: the partition sums as
    # written read 0 or NaN, so the bases are divided by the largest one
    x1, x2, _, _ = make_pair(rng, intervals=64)
    dt = 1.0 / 64
    g = np.subtract.outer(x1.grid.times, x1.grid.times).T
    for k in (1, 2):
        d = level_diff_matrix(x1, x2, k)  # upper triangle
        for q in (600.0, 1e300):
            a = q / k  # one block carries the largest D; at most 64 blocks
            got = rho_qvar_level(x1, x2, q, k)
            assert d.max() <= got <= d.max() * 64 ** (1.0 / a) * (1.0 + 1e-12)
        # with R = max D / g^(delta k), a block alone gives R g^(k/p), a sum at most R^a T
        iu = np.triu_indices_from(d, 1)
        r = float(np.max(d[iu] / g[iu] ** (0.5 * k)))
        for p in (600.0, 1e300):
            got = rho_riesz_level(x1, x2, 0.5, p, k)
            assert r * dt ** (k / p) <= got <= r * (1.0 + 1e-12)
            assert rho_riesz_level(x1, x1, 0.5, p, k) == 0.0
        assert rho_qvar_level(x1, x1, 600.0, k) == 0.0


def test_group_distances_do_not_depend_on_grid_size(rng):
    # a prefix of the grid gives the top-left block of the distance matrix
    f = random_walk_path(rng, 200, 2)
    for depth in (2, 3, 4):
        whole = lift(f, depth).distance_matrix
        for points in (20, 49, 65, 81, 130):
            prefix = EuclideanPath(TimeGrid(f.grid.times[:points]), f.values[:points])
            assert np.array_equal(lift(prefix, depth).distance_matrix,
                                  whole[:points, :points])
