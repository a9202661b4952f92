"""The family kernels give the per-call values bit for bit.

``norms._power_sup_family`` and the batched ``norms.shift_partition_sup``
serve a stack of same-grid paths or pairs in one DP loop; q-variation,
Riesz, the level distances and the refined Nikolskii family are their
batch-of-one case.  These tests stack families (dims 1-3, uniform and
non-uniform grids, constant members, group paths, level pairs at depths
1-3, sub-intervals with lo > 0, members out of the float range) and require
``np.array_equal`` with the calls on one item at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    EuclideanPath,
    GroupPath,
    TimeGrid,
    lift,
    qvar_norm,
    refined_nikolskii_norm,
    rho_nikolskii_hat_level,
    rho_qvar_level,
    rho_riesz_level,
    riesz_norm,
)
from roughpaths import norms, verify
from roughpaths.distances import level_diff_matrix
from roughpaths.norms import (
    _dense,
    _power_sup_family,
    _sum_kept,
    dense_columns,
    dp_partition_sup,
    shift_partition_sup,
)

KERNEL_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _values(rng, m, dim, scale, constant):
    if constant:
        return np.full((m + 1, dim), 0.5)
    steps = rng.standard_normal((m, dim)) * scale / np.sqrt(m)
    return np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])


@st.composite
def families(draw, uniform=None, max_depth=3):
    """Paths on one grid (lifts at a drawn depth, or none), and an interval [lo, hi]."""
    m = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform:
        grid = TimeGrid.uniform(m, draw(st.sampled_from([1.0, 2.5])))
    else:
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, m))]))
    dim = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3]))
    count = draw(st.integers(1, 5))
    paths = [EuclideanPath(grid, _values(rng, m, dim, scale, draw(st.integers(0, 4)) == 0))
             for _ in range(count)]
    depth = draw(st.integers(0, max_depth))
    if depth:
        paths = [lift(f, depth) for f in paths]
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo + 1, m))
    return paths, lo, hi


def _span(path, lo, hi):
    return (path.grid.times[lo], path.grid.times[hi])


@KERNEL_SETTINGS
@given(families(uniform=True), st.sampled_from([(0.3, 2.5), (0.45, 4.0), (0.5, 300.0),
                                                (1.0, 7.0)]))
def test_batched_sweep_equals_each_slice_alone(case, dp):
    paths, lo, hi = case
    delta, p = dp
    times = paths[0].grid.times
    got = shift_partition_sup(paths, times, lo, hi, p, -delta * p, 1.0 / p)
    for b, f in enumerate(paths):
        # a path's dense matrix, a source like any other, gives its streamed value
        alone = shift_partition_sup([_dense(f)], times, lo, hi, p, -delta * p, 1.0 / p)
        assert [got[b]] == alone == [refined_nikolskii_norm(f, delta, p, _span(f, lo, hi))]
    # the level-k differences of pairs of lifts: the Nikolskii-hat distances,
    # defined for p >= 1/delta
    pairs = _pairs(paths) if isinstance(paths[0], GroupPath) and delta * p >= 1.0 else []
    for k in range(1, paths[0].depth + 1 if pairs else 1):
        hat = shift_partition_sup([level_diff_matrix(x1, x2, k) for x1, x2 in pairs], times,
                                  lo, hi, p / k, -delta * p, k / p)
        assert hat == [rho_nikolskii_hat_level(x1, x2, delta, p, k, _span(x1, lo, hi))
                       for x1, x2 in pairs]


def _pairs(paths):
    return list(zip(paths[::2], paths[1::2])) or [(paths[0], paths[0])]


def _dilated(f, lam):
    # the path with its distances scaled by lam: values, or level j by lam^j
    if isinstance(f, EuclideanPath):
        return EuclideanPath(f.grid, f.values * lam)
    return GroupPath(f.grid, tuple(lv * lam**j for j, lv in enumerate(f.levels)))


def _items(paths, k, lo, hi):
    """Distance sources, dense distance stack and per-call value of a kernel family.

    Level k = 0 takes the paths themselves, streamed as ``qvar_norm`` and
    ``riesz_norm`` stream them; k >= 1 takes the level-k difference matrices
    of pairs of the paths, as the level distances pass them.  The per-call
    value of member (b, delta, p) is the public function (delta None:
    q-variation of exponent p).
    """
    times = paths[0].grid.times
    iv = (times[lo], times[hi])
    if k == 0:
        def per_call(b, delta, p):
            return (qvar_norm(paths[b], p, iv) if delta is None
                    else riesz_norm(paths[b], delta, p, iv))

        return paths, np.stack([_dense(f) for f in paths]), per_call
    pairs = _pairs(paths)
    srcs = [level_diff_matrix(x1, x2, k) for x1, x2 in pairs]

    def per_call(b, delta, p):
        return (rho_qvar_level(*pairs[b], p, k, iv) if delta is None
                else rho_riesz_level(*pairs[b], delta, p, k, iv))

    return srcs, np.stack(srcs), per_call


# (delta, p), delta None for q-variation of exponent p; the exponents 300,
# 600 and 2000 leave the float range on most grids (the fused weights)
MEMBER_PARAMS = [(None, 2.5), (None, 600.0), (0.3, 4.0), (0.45, 4.0), (0.5, 2.0), (0.5, 7.0),
                 (0.5, 600.0), (1.0, 300.0), (1.0, 2000.0)]


def _check_power_sup_family(paths, lo, hi, k, data):
    """The one property of ``_power_sup_family`` on the level-k members of ``paths``.

    Batched values equal the per-call values bit for bit, a kept sum equals
    the dense as-written formula bit for bit, and dilating the paths by
    2^+-n scales every value by 2^(+-n k), k the level (1 for the paths
    themselves).
    """
    times = paths[0].grid.times
    srcs, dense, per_call = _items(paths, k, lo, hi)
    drawn = data.draw(st.lists(st.tuples(st.integers(0, len(dense) - 1),
                                         st.sampled_from(MEMBER_PARAMS)),
                               min_size=1, max_size=6))
    drawn = [(b, delta, p) for b, (delta, p) in drawn] + [(0, 1.0, 2000.0)]
    root = max(k, 1)
    members = [(b, p / root, 0.0 if delta is None else 1.0 - delta * p, root / p)
               for b, delta, p in drawn]
    got = _power_sup_family(srcs, times, lo, hi, members)
    assert np.array_equal(got, [per_call(*m) for m in drawn])

    gap = times[None, :] - times[:, None]
    gap[gap <= 0.0] = 1.0
    shortest = float(np.diff(times[lo : hi + 1]).min())
    for value, (b, a, e, r) in zip(got, members):
        assert math.isfinite(value)
        with np.errstate(over="ignore", invalid="ignore"):
            w = dense[b] ** a * gap**e
            total = dp_partition_sup([dense_columns(w, lo, hi)], lo, hi)
        factors = [e * math.log2(shortest), e * math.log2(times[hi] - times[lo])]
        if _sum_kept(total, hi - lo, factors, lambda: not dense[b][lo : hi + 1, lo : hi + 1].any()):
            assert value == total**r

    n = data.draw(st.sampled_from([-40, -3, 3, 40]))
    scaled, *_ = _items([_dilated(f, 2.0**n) for f in paths], k, lo, hi)
    again = _power_sup_family(scaled, times, lo, hi, members)
    assert np.allclose(again, np.array(got) * 2.0 ** (n * root), rtol=1e-12, atol=0.0)


@KERNEL_SETTINGS
@given(families(), st.data())
def test_riesz_family_equals_per_call_riesz(case, data):
    # members on the paths themselves, Euclidean and group: Riesz, and
    # q-variation as its exponent-0 case
    paths, lo, hi = case
    _check_power_sup_family(paths, lo, hi, 0, data)


@KERNEL_SETTINGS
@given(families(), st.data())
def test_level_family_equals_per_call_level_distances(case, data):
    # members on the level-k differences of pairs of lifts: the level
    # q-variation and Riesz distances
    paths, lo, hi = case
    if isinstance(paths[0], EuclideanPath):
        paths = [lift(f, 1) for f in paths]
    _check_power_sup_family(paths, lo, hi, data.draw(st.integers(1, paths[0].depth)), data)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.integers(1, 7), st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.integers(0, 3))
def test_verify_family_helpers_across_chunk_boundaries(m, count, seed, dim, depth):
    # chunks of at most two items, column blocks of a few columns, and a
    # second grid in the middle of the family
    rng = np.random.default_rng(seed)
    grids = [TimeGrid.uniform(m), TimeGrid.uniform(m + 1)]
    paths = [EuclideanPath(grids[i == count // 2], _values(rng, m + (i == count // 2), dim,
                                                          1.0, i % 4 == 3))
             for i in range(count)]
    if depth:
        paths = [lift(f, depth) for f in paths]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_FAMILY_CELLS", 2 * (m + 1) ** 2)
        mp.setattr(norms, "_BLOCK_CELLS", 6 * (m + 2))
        assert max(len(c) for _, c in verify._family_chunks(paths, None)) <= 2
        riesz = verify._family_riesz(paths, 0.45, (2.5, 4.0))
        refined = verify._family_refined_nikolskii(paths, 0.45, 4.0)
        assert riesz == [[riesz_norm(f, 0.45, p) for f in paths] for p in (2.5, 4.0)]
        assert refined == [refined_nikolskii_norm(f, 0.45, 4.0) for f in paths]
        if depth:
            pairs = _pairs(paths)
            pairs = [(x1, x2) for x1, x2 in pairs if x1.grid is x2.grid]
            for k in range(1, depth + 1):
                assert verify._family_riesz(pairs, 0.45, (2.5, 4.0), k) == [
                    [rho_riesz_level(x1, x2, 0.45, p, k) for x1, x2 in pairs] for p in (2.5, 4.0)]
                assert verify._family_refined_nikolskii(pairs, 0.45, 4.0, k) == [
                    rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, k) for x1, x2 in pairs]


@KERNEL_SETTINGS
@given(families(uniform=True), st.sampled_from([(None, 2.5), (0.45, 4.0), (0.5, 300.0)]))
def test_kernels_never_write_a_dense_source(case, dp):
    # a caller's writable matrix, passed as a single member (the in-place
    # path of a fresh Euclidean block) and to the sweep, is left unchanged,
    # and gives the values of a read-only copy
    paths, lo, hi = case
    delta, p = dp
    times = paths[0].grid.times
    matrix = np.array(_dense(paths[0]))
    frozen = matrix.copy()
    frozen.flags.writeable = False
    member = [(0, p, 0.0 if delta is None else 1.0 - delta * p, 1.0 / p)]
    assert (_power_sup_family([matrix], times, lo, hi, member)
            == _power_sup_family([frozen], times, lo, hi, member))
    delta = delta or 1.0
    assert (shift_partition_sup([matrix], times, lo, hi, p, -delta * p, 1.0 / p)
            == shift_partition_sup([frozen], times, lo, hi, p, -delta * p, 1.0 / p))
    assert np.array_equal(matrix, frozen)
