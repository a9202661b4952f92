import numpy as np
import pytest

from roughpaths import (
    EuclideanPath,
    TimeGrid,
    TruncatedTensor,
    group_inverse,
    group_mul,
    identity_element,
    segment_exp,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_tensor(rng, dim, depth):
    levels = [np.array(rng.standard_normal())] + [
        rng.standard_normal((dim,) * k) for k in range(1, depth + 1)
    ]
    return TruncatedTensor(dim, depth, tuple(levels))


def random_group_element(rng, dim, depth, segments=3):
    g = identity_element(dim, depth)
    for _ in range(segments):
        g = group_mul(g, segment_exp(rng.standard_normal(dim), depth))
    return g


def random_walk_path(rng, intervals, dim, scale=1.0, uniform=True):
    if uniform:
        grid = TimeGrid.uniform(intervals)
    else:
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, intervals - 1)), [1.0]])
        grid = TimeGrid(np.unique(t))
    steps = rng.standard_normal((len(grid) - 1, dim)) * scale / np.sqrt(len(grid) - 1)
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return EuclideanPath(grid, vals)


def dyadic_pair(n):
    """Two exact 2-D paths of 8 steps of size 2^-n on the uniform grid of [0, 1].

    The second flips the sign of steps 2, 5, 6 and 8.  The level 2 of one
    step v is v (x) v / 2, so every one-step level-2 difference of the pair
    is exactly 0, while the longer ones are not.
    """
    steps = np.array([(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)],
                     dtype=float) * 2.0**-n
    flips = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=float)[:, None]
    grid = TimeGrid.uniform(8)
    return tuple(EuclideanPath(grid, np.vstack([np.zeros((1, 2)), np.cumsum(s, axis=0)]))
                 for s in (steps, flips * steps))


def dense_distances(path):
    """The dense (M+1, M+1) distance matrix of a path of either kind, computed
    afresh: the reference the kernels' streamed values are compared with."""
    return path.distance_block(0, 0, len(path.grid))


def pointwise_group_distances(x):
    """d(X_i, X_j) for every pair i <= j, element by element, mirrored to i > j:
    X_{i,j} as ``increment`` forms it, group_mul(group_inverse(X_i), X_j), the
    level norms over the last axis of the flattened levels (without an axis,
    NumPy takes a 1-D norm by a dot product, which may round differently), its
    root per level (``np.sqrt`` at k = 2, the power 1/k above), and the max
    over levels: the forward norm, in the symmetric layout of the public
    ``distance_block`` and ``distance_matrix``."""
    m, depth = len(x.grid), x.depth
    inv = [group_inverse(g) for g in x.values]
    norms = np.empty((depth, m, m))
    for i in range(m):
        for j in range(i, m):
            g = group_mul(inv[i], x.values[j])
            norms[:, i, j] = norms[:, j, i] = [np.linalg.norm(g.level(k).ravel(), axis=-1)
                                               for k in range(1, depth + 1)]
    roots = [norms[0]] + [np.sqrt(norms[1]) if k == 2 else norms[k - 1] ** (1.0 / k)
                          for k in range(2, depth + 1)]
    return np.max(roots, axis=0)
