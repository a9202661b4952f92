"""Exact block pruning of the Hoelder sup and the partition DP.

A row block of a column block is skipped only when its bound cannot reach
the running max (Hoelder) or best[j0 - 1] (q-variation, Riesz).  A
``distances.DenseSource`` has no bounds and never prunes, so it is the
unpruned reference: every value must be ``==`` to it, on every kind of path
the bounds treat differently.  The kernels read bounds only through the
source contract of ``paths``, so a dense source with exact block maxima as
bounds prunes too, with the same values; and the Euclidean bound must
dominate every distance of its block as computed, cell by cell.
"""

import numpy as np
import pytest

from roughpaths import EuclideanPath, ParameterError, TimeGrid, holder_norm, norms, paths
from roughpaths.distances import DenseSource
from roughpaths.norms import _power_sup_family, _spans, _width, qvar_norm, riesz_norm
from conftest import dense_distances


def _path(rng, kind, intervals, dim, uniform, scale):
    if uniform:
        grid = TimeGrid.uniform(intervals)
    else:
        grid = TimeGrid(np.unique(np.concatenate(
            [[0.0], np.sort(rng.uniform(0.001, 1.0, intervals - 1)), [1.0]])))
    n = len(grid)
    if kind == "walk":
        values = np.cumsum(rng.standard_normal((n, dim)), axis=0) / np.sqrt(n)
    elif kind == "zigzag":
        values = np.outer(np.arange(n) % 2, rng.uniform(0.5, 2.0, dim))
    elif kind == "monotone":
        values = np.cumsum(np.abs(rng.standard_normal((n, dim))), axis=0) / n
    else:  # piecewise constant, pieces of 8 points
        values = np.repeat(rng.standard_normal(((n + 7) // 8, dim)), 8, axis=0)[:n]
    return EuclideanPath(grid, values * scale)


def _dense_holder(f, delta, lo, hi):
    # max over i < j of d / (t_j - t_i)^delta on the dense matrix, gaps raised
    # as one contiguous array
    t = f.grid.times[lo : hi + 1]
    gap = t[None, :] - t[:, None]
    gap = np.where(gap > 0, gap, np.inf)
    gap **= delta
    return float(np.max(dense_distances(f)[lo : hi + 1, lo : hi + 1] / gap))


# (delta, p) of the Riesz sweep: p up to 300 (the folded rerun) and delta p
# just above 1 - 1e-12, where the gap exponent 1 - delta p is a tiny positive
RIESZ = [(0.5, 4.0), (0.25, 4.0 * (1.0 - 0.9e-12)), (0.5, 2.0 * (1.0 - 0.5e-12)),
         (0.5, 300.0), (1.0, 1.0)]
QVAR = [1.5, 2.5, 300.0]
CASES = [(kind, dim, uniform, scale)
         for kind in ("walk", "zigzag", "monotone", "piecewise")
         for dim, uniform, scale in ((1, True, 1.0), (2, False, 1.0), (3, True, 1e200),
                                     (1, False, 1e-200))]


@pytest.mark.parametrize("kind, dim, uniform, scale", CASES)
def test_pruned_values_equal_the_unpruned_dense_source(monkeypatch, kind, dim, uniform, scale):
    # about 2^10 cells a block: a dozen column blocks and more at M = 240, so
    # that row blocks can be skipped; 1e200 and 1e-200 take the scaled path
    monkeypatch.setattr(norms, "_BLOCK_CELLS", 1 << 10)
    rng = np.random.default_rng([dim, len(kind), int(uniform)])
    f = _path(rng, kind, 240, dim, uniform, scale)
    t = f.grid.times
    dense = DenseSource(dense_distances(f), f.grid)
    for lo, hi in ((0, len(t) - 1), (17, len(t) - 30)):
        iv = (t[lo], t[hi])
        assert holder_norm(f, 0.4, iv) == _dense_holder(f, 0.4, lo, hi)
        for q in QVAR:
            want = _power_sup_family([dense], lo, hi, [(0, None, q, 1)])
            assert [qvar_norm(f, q, iv)] == want, q
        for delta, p in RIESZ:
            want = _power_sup_family([dense], lo, hi, [(0, delta, p, 1)])
            assert [riesz_norm(f, delta, p, iv)] == want, (delta, p)


def test_qvar_computes_few_of_the_cells(monkeypatch):
    # on a seeded 1-D walk at M = 1536 the bounds skip most row blocks
    rng = np.random.default_rng(1536)
    m = 1536
    f = EuclideanPath(TimeGrid.uniform(m),
                      np.cumsum(rng.standard_normal(m + 1)) / np.sqrt(m))
    cells = []

    def counted(a, b, scale=1.0):
        d = euclidean_norm(a, b, scale)
        cells.append(d.size)
        return d

    euclidean_norm = paths._euclidean_norm
    monkeypatch.setattr(paths, "_euclidean_norm", counted)
    value = qvar_norm(f, 2.5)
    assert sum(cells) < 0.15 * m * (m + 1) / 2
    monkeypatch.undo()
    assert [value] == _power_sup_family([DenseSource(dense_distances(f), f.grid)], 0, m,
                                        [(0, None, 2.5, 1)])


class _Stop(Exception):
    pass


def _computed_cells(monkeypatch, f, run):
    """The cells (i, j) whose distances ``run`` computes before a partition
    sum is rerun on its folded source (which computes every cell)."""
    computed = np.zeros((len(f.grid), len(f.grid)), dtype=bool)
    block = EuclideanPath._block

    def recorded(src, i0, i1, j0, j1):
        computed[i0:i1, j0:j1] = True
        return block(src, i0, i1, j0, j1)

    def stop(*args):
        raise _Stop

    with monkeypatch.context() as mp:
        mp.setattr(norms, "_BLOCK_CELLS", 1 << 10)  # 5 columns a block at M = 200
        mp.setattr(EuclideanPath, "_block", recorded)
        mp.setattr(norms, "_refolded", stop)
        with pytest.raises((_Stop, ParameterError)):
            run()
    return computed


def test_a_block_with_an_inf_or_nan_weight_is_never_skipped(monkeypatch):
    rng = np.random.default_rng(7)
    upper = np.triu(np.ones((201, 201), dtype=bool), 1)
    # the last 20 points alternate between +-5e76 (the distances stay unscaled):
    # d^5 overflows in every cell that reaches them, and the sum is not kept
    values = np.cumsum(rng.standard_normal(201)) / 14.0
    values[-20:] = 5e76 * (-1.0) ** np.arange(20)
    f = EuclideanPath(TimeGrid.uniform(200), values)
    computed = _computed_cells(monkeypatch, f, lambda: qvar_norm(f, 5.0))
    with np.errstate(all="ignore"):
        bad = np.isinf(dense_distances(f) ** 5.0) & upper
    assert bad.any() and computed[bad].all()
    assert not computed[upper].all()  # before them, row blocks were skipped
    # 40 points 1e-320 apart start the grid: their gaps to one another are
    # subnormal, so g^-1 is inf, and d^2 g^-1 is inf where the path moves and
    # NaN (0 * inf) where it stands still
    times = np.concatenate([1e-320 * np.arange(40), np.linspace(0.5, 1.0, 161)])
    values = np.cumsum(rng.standard_normal(201)) / 14.0
    values[20:40] = values[19]
    f = EuclideanPath(TimeGrid(times), values)
    gap = times[None, :] - times[:, None]
    computed = _computed_cells(monkeypatch, f, lambda: riesz_norm(f, 1.0, 2.0))
    with np.errstate(all="ignore"):
        weight = dense_distances(f) ** 2.0 * gap**-1.0
    for bad in (np.isinf(weight) & upper, np.isnan(weight) & upper):
        assert bad.any() and computed[bad].all()
    # d / g^delta is inf in the cluster; once the running max is inf, the
    # Hoelder sup skips every row block whose bound is finite
    computed = _computed_cells(monkeypatch, f, lambda: holder_norm(f, 1.0))
    with np.errstate(all="ignore"):
        bad = np.isinf(dense_distances(f) / gap) & upper
    assert bad.any() and computed[bad].all()
    assert not computed[upper].all()


class _BoundedDense(DenseSource):
    """A dense source whose bounds are the exact maxima of its matrix over each
    row block x column block, and which counts the cells of its blocks."""

    def __init__(self, matrix, grid):
        super().__init__(matrix, grid)
        object.__setattr__(self, "cells", [])

    def _block(self, i0, i1, j0, j1):
        self.cells.append((i1 - i0) * (j1 - j0))
        return super()._block(i0, i1, j0, j1)

    def _span_bounds(self, lo, hi, width):
        starts = np.arange(0, hi - lo, width)
        cells = self.matrix[lo:hi, lo + 1 : hi + 1]  # row block I, column block J
        maxima = np.maximum.reduceat(np.maximum.reduceat(cells, starts, axis=0), starts, axis=1)
        return lambda c0, c1: maxima[:c1, c0:c1].T


# (b, delta, p, k) members: q-variation 2.5 and 300 (the folded rerun), Riesz
# (0.5, 4), and a batch of the first and the last
MEMBERS = [[(0, None, 2.5, 1)], [(0, None, 300.0, 1)], [(0, 0.5, 4.0, 1)],
           [(0, None, 2.5, 1), (0, 0.5, 4.0, 1)]]


@pytest.mark.parametrize("seed", range(6))
def test_a_bounded_dense_source_prunes_with_the_same_values(monkeypatch, seed):
    # the contract is all the kernels need: bounds on a source that is not a
    # path prune its DP, and every value stays that of the unbounded source
    # and of the path itself
    monkeypatch.setattr(norms, "_BLOCK_CELLS", 1 << 10)  # 4 columns a block at M = 240
    m = 240
    f = _path(np.random.default_rng(seed), "walk", m, 1, True, 1.0)
    bounded, dense = (cls(dense_distances(f), f.grid) for cls in (_BoundedDense, DenseSource))
    for lo, hi in ((0, m), (17, m - 30)):
        for members in MEMBERS:
            got = _power_sup_family([bounded], lo, hi, members)
            assert got == _power_sup_family([dense], lo, hi, members)
            assert got == _power_sup_family([f], lo, hi, members), members
    bounded.cells.clear()
    _power_sup_family([bounded], 0, m, MEMBERS[0])
    # the whole blocks hold rows 0..j1-1 of each column block (j0, j1)
    whole = sum((j1 - j0) * j1 for j0, j1 in _spans(1, m, _width([bounded], 0, m, 1 << 10)))
    assert sum(bounded.cells) < whole / 2


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_euclidean_bound_dominates_every_cell_of_its_block(dim, scale, uniform):
    # no margin: each distance of row block I < J in column block J, as
    # _block computes it, is at most the bound of (I, J); 2^+-600 take the
    # scaled path, and both intervals end in a ragged column block
    f = _path(np.random.default_rng([dim, int(uniform)]), "walk", 97, dim, uniform, scale)
    for lo, hi, width in ((0, 97, 5), (13, 90, 6)):
        n = len(range(0, hi - lo, width))
        chunk = f._span_bounds(lo, hi, width)
        bounds = chunk(0, n)
        assert np.array_equal(chunk(n // 3, n // 2), bounds[n // 3 : n // 2, : n // 2])
        for k in range(n):
            j0, j1 = lo + 1 + k * width, min(lo + 1 + (k + 1) * width, hi + 1)
            for i in range(k):
                cells = f._block(lo + i * width, lo + (i + 1) * width, j0, j1)
                assert (cells <= bounds[k, i]).all(), (lo, k, i)
