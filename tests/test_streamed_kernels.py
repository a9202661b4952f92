"""Bit-level equality of the streamed distance kernels with plain references.

``paths._euclidean_norm`` is the one distance formula of Euclidean paths:
at dim 1 the absolute difference; otherwise squares taken coordinate by
coordinate, the even and the odd coordinates each summed left to right, then
the two sums added and the root taken.  The references here form every cell
with Python floats in that order, so the kernels must equal them exactly,
whatever the block shape; at dim 2 there is only one rounding order and the
formula equals NumPy's einsum, and at dim 1 it is the exact |a - b|.  A
path whose largest coordinate span lies outside [2^-256, 2^256] is measured
on its values divided by the power of two nearest that span, and the
distances multiplied back (``path_scale``).
``norms._gaps`` writes its fill only in the trailing square of a block and
must equal the full-block ``np.where`` over strictly increasing times.  The
pruned kernels also take blocks whose rows end before the columns start
(the path's ``_block``, on either kind of path) and Nikolskii takes its
diagonals in blocks of shifts (the path's ``_shift_blocks``); their cells
with i < j must be those of the other calls, on Euclidean paths and on
lifts, whose reference is the pointwise group formula
(``conftest.pointwise_group_distances``).  A group path computes one level
norm per level for each piece of columns and each block of shifts.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import paths
from roughpaths.norms import _gaps, _width
from roughpaths.paths import EuclideanPath, TimeGrid, _euclidean_norm, lift
from conftest import pointwise_group_distances, random_walk_path

SCALES = (1e-160, 1.0, 1e150)


def scalar_distance(a, b) -> float:
    """|a - b| of two points with Python floats, in the declared order: at
    dim 1 the exact absolute difference."""
    if len(a) == 1:
        return abs(float(a[0]) - float(b[0]))
    sq = [(float(x) - float(y)) * (float(x) - float(y)) for x, y in zip(a, b)]
    even = sq[0]
    for s in sq[2::2]:
        even += s
    odd = sq[1]
    for s in sq[3::2]:
        odd += s
    return math.sqrt(even + odd)


def path_scale(v) -> float:
    """1 if the largest coordinate span of the values ``v`` lies in [2^-256, 2^256],
    else the power of two nearest that span."""
    span = float(np.ptp(v, axis=0).max())
    return 1.0 if span == 0.0 or 2.0**-256 <= span <= 2.0**256 else 2.0 ** round(math.log2(span))


@st.composite
def point_sets(draw, dims=(1, 7)):
    dim = draw(st.integers(*dims))
    count = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(seed)
    # mixed magnitudes, so the two sums round differently from a plain sum
    spread = np.exp(rng.uniform(-8.0, 8.0, (2, count, dim)))
    a, b = rng.standard_normal((2, count, dim)) * spread * scale
    return a, b


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_euclidean_norm_equals_scalar_reference(pts):
    a, b = pts
    got = _euclidean_norm(a.T, b.T)
    want = np.array([scalar_distance(x, y) for x, y in zip(a, b)])
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(point_sets(dims=(1, 2)))
def test_euclidean_norm_equals_einsum_at_dims_1_and_2(pts):
    # at dim 1 the reference is the exact |a - b|: einsum's sqrt(d*d) loses
    # a d whose square underflows
    a, b = pts
    diff = a - b
    if a.shape[1] == 1:
        want = np.abs(diff[:, 0])
    else:
        want = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    assert np.array_equal(_euclidean_norm(a.T, b.T), want)


def test_a_tiny_step_of_a_one_dimensional_path_is_read_exactly():
    # the step's square, 1e-340, underflows, so a squared distance read 0.0;
    # the unit span leaves the path unscaled
    f = EuclideanPath(TimeGrid.uniform(3), [0.0, 1e-170, 1.0, 0.5])
    assert f.distance_block(0, 1, 2)[0, 0] == 1e-170
    assert f.shift_distances(1, 0, 3)[0] == 1e-170
    assert f.distance_block(0, 0, 4)[0, 1] == 1e-170


@st.composite
def walks(draw):
    dim = draw(st.integers(1, 7))
    intervals = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((intervals + 1, dim)), axis=0) * scale
    return EuclideanPath(TimeGrid.uniform(intervals), values)


@st.composite
def column_blocks(draw):
    f = draw(walks())
    m = f.grid.intervals
    lo = draw(st.integers(0, m))
    j0 = draw(st.integers(lo, m))
    j1 = draw(st.one_of(st.just(j0 + 1), st.integers(j0 + 1, m + 1)))
    return f, lo, j0, j1, draw(st.integers(lo, j1))


@st.composite
def shifts(draw):
    f = draw(walks())
    m = f.grid.intervals
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo + 1, m))
    return f, draw(st.integers(1, hi - lo)), lo, hi


@st.composite
def lifted_shifts(draw):
    # lifts of depth 2 and 3 of 1-D to 3-D walks, rows from lo > 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 16))
    x = lift(random_walk_path(rng, m, draw(st.integers(1, 3))), draw(st.integers(2, 3)))
    lo = draw(st.integers(1, m - 1))
    hi = draw(st.integers(lo + 1, m))
    return x, draw(st.integers(1, hi - lo)), lo, hi


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(column_blocks())
def test_distance_block_equals_scalar_reference(case):
    # lo > 0 and one-column blocks (j1 = j0 + 1) included
    # and the rows lo..i1-1 alone, as a pruned kernel takes them
    f, lo, j0, j1, i1 = case
    s = path_scale(f.values)
    v = f.values / s
    got = f.distance_block(lo, j0, j1)
    assert got.shape == (j1 - j0, j1 - lo)
    want = np.array([[scalar_distance(v[j], v[i]) * s for i in range(lo, j1)]
                     for j in range(j0, j1)])
    assert np.array_equal(got, want)
    assert np.array_equal(f._block(lo, i1, j0, j1), want[:, : i1 - lo])


@st.composite
def lifted_blocks(draw):
    # lifts of depth 1 to 4 of 1-D to 3-D walks; rows lo..i1-1 that end before,
    # inside or at the end of the columns j0..j1-1; a budget of 1 pair makes
    # every piece one column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 16))
    x = lift(random_walk_path(rng, m, draw(st.integers(1, 3))), draw(st.integers(1, 4)))
    lo = draw(st.integers(0, m))
    j0 = draw(st.integers(lo, m))
    j1 = draw(st.integers(j0 + 1, m + 1))
    return x, lo, draw(st.integers(lo, j1)), j0, j1, draw(st.sampled_from([1, 5, 1 << 14]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(lifted_blocks())
def test_group_blocks_honour_their_four_arguments(case):
    # the rows lo..i1-1 alone, as a pruned kernel takes them, with the dense
    # distances in every cell i < j
    x, lo, i1, j0, j1, cells = case
    want = pointwise_group_distances(x)[lo:i1, j0:j1].T
    with mock.patch.object(paths, "_BLOCK_PAIRS", cells):
        got = x._block(lo, i1, j0, j1)
    assert got.shape == (j1 - j0, i1 - lo)
    assert got.flags.c_contiguous and got.flags.writeable
    read = np.tri(*got.shape, j0 - lo - 1, dtype=bool)  # the cells i < j: r < j0 - lo + c
    assert np.array_equal(got[read], want[read])


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_group_pieces_and_shift_blocks_take_one_level_norm_per_level(monkeypatch, depth):
    # one ``_norm`` call per level for each piece of columns and each block of
    # shifts: the forward norms alone, not 2 depth - 1 calls with the reverse
    # norms of the levels k >= 2
    x = lift(random_walk_path(np.random.default_rng(36), 40, 2), depth)
    calls = []
    norm = paths._norm
    monkeypatch.setattr(paths, "_norm", lambda *args: calls.append(1) or norm(*args))
    x._block(3, 30, 20, 30)  # one piece of 10 columns
    assert len(calls) == depth
    calls.clear()
    monkeypatch.setattr(paths, "_BLOCK_PAIRS", 3 * 27)  # pieces of 3 columns: 4 of them
    x._block(3, 30, 20, 30)
    assert len(calls) == 4 * depth
    calls.clear()
    assert next(x._shift_blocks(0, 40, 1, 8, 7)).shape == (7, 40)  # one block of 7 shifts
    assert len(calls) == depth
    calls.clear()
    assert len(list(x._shift_blocks(2, 30, 1, 30, 7))) == 5
    assert len(calls) == 5 * depth


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(shifts(), lifted_shifts()))
def test_shift_distances_equal_scalar_reference(case):
    f, m, lo, hi = case
    if isinstance(f, EuclideanPath):
        s = path_scale(f.values)
        v = f.values / s
        want = np.array([scalar_distance(v[r], v[r + m]) * s for r in range(lo, hi - m + 1)])
    else:
        want = np.diagonal(pointwise_group_distances(f), m)[lo : hi - m + 1]
    got = f.shift_distances(m, lo, hi)
    assert np.array_equal(got, want)
    # the row of shift m that Nikolskii reads, from blocks of the shifts 1 or m
    # up to the empty one, hi-lo+1, as it is and raised in place (past the float
    # range at the largest scale)
    for cells in (1, 97, 1 << 15):
        width = _width([f], lo, hi, cells)
        for m0 in (1, m):
            blocks = list(f._shift_blocks(lo, hi, m0, hi - lo + 2, width))
            assert [b.shape for b in blocks] == [
                (min(b0 + width, hi - lo + 2) - b0, hi - lo + 1 - b0)
                for b0 in range(m0, hi - lo + 2, width)]
            assert all(b.flags.c_contiguous and b.flags.writeable for b in blocks)
            block, row = blocks[(m - m0) // width], (m - m0) % width
            assert np.array_equal(block[row, : hi - lo + 1 - m], want)
            with np.errstate(over="ignore"):
                block **= 2.5
                assert np.array_equal(block[row, : hi - lo + 1 - m], want**2.5)


@st.composite
def gap_blocks(draw):
    intervals = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        grid = TimeGrid.uniform(intervals, draw(st.sampled_from([1.0, 1e-3, 7.5])))
    else:
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 2.0, intervals))]))
    lo = draw(st.integers(0, intervals - 1))
    j0 = draw(st.integers(lo + 1, intervals))
    j1 = draw(st.integers(j0 + 1, intervals + 1))
    batch = draw(st.sampled_from([(), (3,)]))
    fill = draw(st.sampled_from([np.inf, 1.0, 0.0]))
    # and the end of rows that stop before the first column, as a pruned kernel takes them
    i1 = draw(st.integers(lo + 1, j0))
    return grid.times, lo, j0, np.zeros((*batch, j1 - j0, j1 - lo)), fill, i1


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(gap_blocks())
def test_gaps_equal_full_block_where(case):
    times, lo, j0, block, fill, _ = case
    rows, cols = block.shape[-2:]
    gap = times[j0 : j0 + rows, None] - times[None, lo : lo + cols]
    want = np.where(gap > 0, gap, fill)
    assert np.array_equal(_gaps(times, lo, j0, block, fill), want)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(gap_blocks())
def test_gaps_of_rows_before_the_columns_are_all_positive(case):
    # rows lo..i1-1 end before column j0: no cell has i >= j, none is filled
    times, lo, j0, block, fill, i1 = case
    rows = block.shape[-2]
    gap = times[j0 : j0 + rows, None] - times[None, lo:i1]
    got = _gaps(times, lo, j0, block[..., : i1 - lo], fill)
    assert np.array_equal(got, gap) and (got > 0).all()


def test_gaps_of_dense_columns():
    # the dense column block of [lo, hi]: first row column lo+1, rows lo..hi
    times = TimeGrid(np.array([0.0, 0.5, 0.75, 2.0, 2.25])).times
    lo, hi = 1, 4
    got = _gaps(times, lo, lo + 1, np.zeros((hi - lo, hi - lo + 1)), -1.0)
    want = np.array([[0.25, -1.0, -1.0, -1.0],
                     [1.5, 1.25, -1.0, -1.0],
                     [1.75, 1.5, 0.25, -1.0]])
    assert np.array_equal(got, want)
