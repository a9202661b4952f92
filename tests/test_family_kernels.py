"""The family kernels give the per-call values bit for bit.

``norms._riesz_family``, ``distances._level_partition_sup`` and the batched
``norms.shift_partition_sup`` serve a stack of same-grid paths or pairs in
one DP loop; ``riesz_norm``, the level distances and the refined Nikolskii
family are their batch-of-one case.  These tests stack families (dims 1-3,
uniform and non-uniform grids, constant members, group paths, level pairs at
depths 1-3, sub-intervals with lo > 0, members out of the float range) and
require ``np.array_equal`` with the calls on one item at a time.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    EuclideanPath,
    TimeGrid,
    lift,
    refined_nikolskii_norm,
    rho_nikolskii_hat_level,
    rho_qvar_level,
    rho_riesz_level,
    riesz_norm,
)
from roughpaths import norms, verify
from roughpaths.distances import _level_partition_sup, level_diff_matrix
from roughpaths.norms import _family_columns, _riesz_family, dense_columns, shift_partition_sup

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
@given(families(), st.data())
def test_riesz_family_equals_per_call_riesz(case, data):
    paths, lo, hi = case
    # delta = 1, p = 2000 leaves the float range on every grid: the fused weights
    params = st.sampled_from([(0.3, 4.0), (0.5, 2.0), (0.5, 7.0), (1.0, 300.0), (1.0, 2000.0)])
    members = data.draw(st.lists(st.tuples(st.integers(0, len(paths) - 1), params),
                                 min_size=1, max_size=6))
    members = [(b, delta, p) for b, (delta, p) in members] + [(0, 1.0, 2000.0)]
    got = _riesz_family(partial(_family_columns, paths, lo, hi), paths, lo, hi, members)
    want = [riesz_norm(paths[b], delta, p, _span(paths[b], lo, hi)) for b, delta, p in members]
    assert np.array_equal(got, want)


@KERNEL_SETTINGS
@given(families(uniform=True), st.sampled_from([(0.3, 2.5), (0.45, 4.0), (0.5, 300.0),
                                                (1.0, 7.0)]))
def test_batched_sweep_equals_each_slice_alone(case, dp):
    paths, lo, hi = case
    delta, p = dp
    times = paths[0].grid.times
    blocks = list(_family_columns(paths, lo, hi))
    got = shift_partition_sup(lambda: blocks, times, lo, hi, p, -delta * p, 1.0 / p,
                              batch=(len(paths),))
    for b, f in enumerate(paths):
        alone = shift_partition_sup(lambda: [(j0, block[b]) for j0, block in blocks], times,
                                    lo, hi, p, -delta * p, 1.0 / p)
        assert got[b] == alone == refined_nikolskii_norm(f, delta, p, _span(f, lo, hi))


def _pairs(paths):
    return list(zip(paths[::2], paths[1::2])) or [(paths[0], paths[0])]


@KERNEL_SETTINGS
@given(families(), st.data())
def test_level_family_equals_per_call_level_distances(case, data):
    paths, lo, hi = case
    if isinstance(paths[0], EuclideanPath):
        paths = [lift(f, 1) for f in paths]
    pairs = _pairs(paths)
    k = data.draw(st.integers(1, paths[0].depth))
    times = paths[0].grid.times
    cols = dense_columns(np.stack([level_diff_matrix(x1, x2, k) for x1, x2 in pairs]), lo, hi)
    # q or p = 600 leaves the float range: the fused weights
    members = data.draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1),
                                           st.sampled_from([(None, 2.5), (None, 600.0),
                                                            (0.45, 4.0), (0.5, 600.0)])),
                                 min_size=1, max_size=6))
    got = _level_partition_sup(cols, times, lo, hi, k, [
        (b, p, 0.0 if delta is None else 1.0 - delta * p) for b, (delta, p) in members])
    want = [rho_qvar_level(*pairs[b], p, k, (times[lo], times[hi])) if delta is None
            else rho_riesz_level(*pairs[b], delta, p, k, (times[lo], times[hi]))
            for b, (delta, p) in members]
    assert np.array_equal(got, want)
    if paths[0].grid.is_uniform:
        for delta, p in ((0.45, 4.0), (0.5, 300.0)):
            hat = shift_partition_sup(lambda: [(lo + 1, cols)], times, lo, hi, p / k, -delta * p,
                                      k / p, batch=(len(pairs),))
            assert np.array_equal(hat, [rho_nikolskii_hat_level(x1, x2, delta, p, k,
                                                                (times[lo], times[hi]))
                                        for x1, x2 in pairs])


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
                assert verify._family_riesz_level(pairs, 0.45, 4.0, k) == [
                    rho_riesz_level(x1, x2, 0.45, 4.0, k) for x1, x2 in pairs]
                assert verify._family_refined_nikolskii(pairs, 0.45, 4.0, k) == [
                    rho_nikolskii_hat_level(x1, x2, 0.45, 4.0, k) for x1, x2 in pairs]
