"""The one skip rule of the pruned kernels, ``norms._kept_runs``.

It yields the column blocks of ``_spans`` with the row runs a kernel
computes: the band always, and each earlier row block unless the kernel's
``skip`` rejects it.  A call is bounded only on a grid with more column
blocks than columns in a block, and only when every source has bounds
(``_span_bounds``), which of the library's sources only Euclidean paths
have.  Every other call computes whole blocks and never enters ``_bounds``:
a batch that mixes a path with a dense source calls no source's bounds,
and each of its values is that of its source alone.
"""

import numpy as np
import pytest

from roughpaths import EuclideanPath, TimeGrid, holder_norm, lift, norms, qvar_norm, riesz_norm
from roughpaths.distances import DenseSource, level_diff_matrix, rho_riesz_level
from roughpaths.norms import _kept_runs, _power_sup_family, _spans, _width, shift_partition_sup
from conftest import dense_distances


def _walk(seed, m, dim):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal((m + 1, dim)), axis=0) / np.sqrt(m)
    return EuclideanPath(TimeGrid.uniform(m), values)


def _distances(dist, short, long):
    return dist[0]


# (lo, hi, width): narrow last column blocks (38 = 4 * 9 + 2, 43 = 5 * 8 + 3),
# lo > 0, and grids with more and fewer column blocks than columns in a block
GRIDS = [(7, 45, 4), (0, 43, 5), (3, 23, 5)]


@pytest.mark.parametrize("lo, hi, width", GRIDS)
def test_the_runs_hold_the_band_and_the_row_blocks_skip_keeps(lo, hi, width):
    f = _walk(lo + hi, 60, 2)
    rng = np.random.default_rng([lo, hi, width])
    decided = {}

    def skip(bound, k):
        assert bound.shape == (k,)
        decided[k] = rng.random(k) < 0.5
        return decided[k]

    spans = _spans(lo + 1, hi, width)
    bounded = len(spans) > width
    blocks = list(_kept_runs([f], lo, hi, width, _distances, skip))
    assert [(j0, j1) for j0, j1, _ in blocks] == spans
    assert spans[-1][1] - spans[-1][0] < width or not bounded
    for k, (j0, j1, runs) in enumerate(blocks):
        if not bounded:
            assert runs == [(lo, j1)]
            continue
        starts, ends = zip(*runs)
        assert lo <= starts[0] and all(a < b for a, b in runs)
        assert all(b < a for b, a in zip(ends, starts[1:]))  # ordered, disjoint, merged
        band = lo + k * width
        assert ends[-1] == j1 and starts[-1] <= band  # the last run holds the band
        rows = np.zeros(j1 - lo, dtype=bool)
        for a, b in runs:
            rows[a - lo : b - lo] = True
        assert rows[band - lo :].all()
        for i in range(k):
            block = rows[i * width : (i + 1) * width]
            assert block.all() != decided[k][i] and block.all() == block.any()
    assert sorted(decided) == (list(range(len(spans))) if bounded else [])


def test_a_group_path_yields_whole_blocks_and_never_asks_skip():
    x = lift(_walk(5, 60, 2), 2)

    def skip(bound, k):
        raise AssertionError("a group path has no bounds")

    blocks = list(_kept_runs([x], 7, 45, 4, _distances, skip))
    assert blocks == [(j0, j1, [(7, j1)]) for j0, j1 in _spans(8, 45, 4)]


def _dense_holder(f, delta):
    t = f.grid.times
    gap = t[None, :] - t[:, None]
    gap = np.where(gap > 0, gap, np.inf)
    gap **= delta
    return float(np.max(dense_distances(f) / gap))


def test_only_euclidean_paths_enter_the_bounds(monkeypatch):
    # at 2-D M = 2048 a Euclidean path is bounded; its lift and a lifted
    # pair's level differences are not, and take every cell as the dense
    # references do
    m = 2048
    f, g = _walk(2048, m, 2), _walk(2049, m, 2)
    x1, x2 = lift(f, 2), lift(g, 2)
    entered = []
    bounds = norms._bounds

    def counted(*args):
        entered.append(args[0])
        return bounds(*args)

    monkeypatch.setattr(norms, "_bounds", counted)
    qvar_norm(f, 2.5)
    assert entered
    entered.clear()
    got = [qvar_norm(x1, 2.5), riesz_norm(x1, 0.5, 4.0), holder_norm(x1, 0.4),
           rho_riesz_level(x1, x2, 0.5, 4.0, 2)]
    assert entered == []
    dense = DenseSource(dense_distances(x1), x1.grid)
    d2 = DenseSource(level_diff_matrix(x1, x2, 2), x1.grid)
    monkeypatch.setattr(norms, "_BLOCK_CELLS", (m + 1) * (m + 1))  # one block: unbounded
    want = [*_power_sup_family([dense], 0, m, [(0, None, 2.5, 1), (0, 0.5, 4.0, 1)]),
            _dense_holder(x1, 0.4),
            *_power_sup_family([d2], 0, m, [(0, 0.5, 4.0, 2)])]
    assert got == want


def test_a_batch_that_mixes_a_path_and_a_dense_source_is_unbounded(monkeypatch):
    # at 1-D M = 2048 the path alone is bounded; with a dense source beside it
    # no source's bounds are read, every block is whole, and each value is
    # that of its source alone
    m = 2048
    f, g = _walk(2048, m, 1), _walk(2050, m, 1)
    srcs = [f, DenseSource(dense_distances(g), g.grid)]
    lo = 100
    members = [(0, None, 2.5, 1), (1, None, 2.5, 1), (1, 0.5, 4.0, 1), (0, 0.5, 4.0, 1)]
    calls = []
    span_bounds = EuclideanPath._span_bounds
    monkeypatch.setattr(EuclideanPath, "_span_bounds",
                        lambda *args: calls.append(args) or span_bounds(*args))
    alone = {start: [_power_sup_family([srcs[b]], start, m, [(0, *rest)])[0]
                     for b, *rest in members]
             for start in (0, lo)}
    assert calls  # the path alone is bounded
    swept = {start: [shift_partition_sup([src], start, m, 0.5, 4.0)[0] for src in srcs]
             for start in (0, lo)}
    width = _width(srcs, 0, m, norms._BLOCK_CELLS)

    def no_bounds(*args):
        raise AssertionError("a mixed batch reads no bounds")

    def skip(bound, k):
        raise AssertionError("a mixed batch skips no row block")

    monkeypatch.setattr(EuclideanPath, "_span_bounds", no_bounds)
    assert (list(_kept_runs(srcs, 0, m, width, _distances, skip))
            == [(j0, j1, [(0, j1)]) for j0, j1 in _spans(1, m, width)])
    for start in (0, lo):
        assert _power_sup_family(srcs, start, m, members) == alone[start]
        assert shift_partition_sup(srcs, start, m, 0.5, 4.0) == swept[start]
