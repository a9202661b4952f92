"""Sampled paths over a time grid and signature lifting.

Paths are known only at grid points.  Euclidean paths are identified with
their piecewise-linear interpolant; lifting computes the exact truncated
signature of that interpolant.  A group path stores the running signatures
X_{0,t_j} as stacked levels, one read-only (M+1, n^k) array per level k
(row j is level k of X_{0,t_j}, flattened in C order).  ``lift`` builds
level k by one cumulative sum over the grid (Chen's identity).  The
increments X_{i,j} = X_i^{-1} x X_j come from one batched inverse of the
path: ``GroupPath._increments`` multiplies the inverses of some points by
the levels of others in one broadcasting ``tensor_core.stacked_mul`` call,
for the group distances and the level differences of ``distances``, about
``_ROW_BLOCK_CELLS`` increment entries at a time.

Euclidean distances have one formula, ``_euclidean_norm``: with s_c the
squared difference of coordinate c, the distance is
sqrt((s_0 + s_2 + s_4 + ...) + (s_1 + s_3 + ...)), each of the two sums added
left to right, every step one elementwise ufunc call in place on one buffer.
``EuclideanPath.distance_block`` (rows against a range of columns) and
``shift_distances`` (one diagonal) both use it, so a distance depends neither
on the block it is computed in nor, being correctly rounded elementwise
arithmetic, on the CPU.  At dims 1 to 7 this is the order of NumPy 2.4's
``sqrt(einsum("...k,...k->...", d, d))``, whose values it reproduces bit for
bit.  A group path serves both calls from its increments (``_homogeneous``);
no norm reads the cached dense ``distance_matrix`` of either kind of path.

All partition/pair suprema elsewhere in the library are taken over grid
points only; that is the discrete definition of every norm in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ParameterError
from .tensor_core import (
    MAX_DEPTH,
    GroupElement,
    TruncatedTensor,
    _count,
    _float_array,
    _instance,
    _real,
    group_inverse,
    group_mul,
    stacked_inverse,
    stacked_mul,
)

#: Increment entries (rows x columns x dim^depth) per ``GroupPath._increments`` call.
_ROW_BLOCK_CELLS = 2**15


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_M."""

    times: np.ndarray

    def __post_init__(self):
        t = _float_array(self.times, "grid times", 1)
        if t.size < 2:
            raise ParameterError("a grid needs at least two points (M >= 1)")
        if not np.all(np.isfinite(t)):
            raise ParameterError("grid times contain non-finite entries")
        if t[0] != 0.0:
            raise ParameterError(f"grids start at t=0, got t0={t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("grid times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, intervals: int, horizon: float = 1.0) -> "TimeGrid":
        return cls(np.linspace(0.0, _real(horizon, "the horizon"),
                               _count(intervals, "intervals", 1) + 1))

    def __len__(self):
        return self.times.size

    @property
    def intervals(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def is_uniform(self) -> bool:
        d = np.diff(self.times)
        return bool(d.max() / d.min() < 1.0 + 1e-9)

    @property
    def mesh(self) -> float:
        return float(np.diff(self.times).max())

    def index_of(self, t: float) -> int:
        """Grid index of time ``t`` (must coincide with a grid point)."""
        t = _real(t, "a grid time")
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self) and abs(self.times[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return j
        raise ParameterError(f"t={t} is not a grid point")

    def resolve_interval(self, interval=None) -> tuple[int, int]:
        """Map an (s, t) time pair onto grid indices; None means [0, T]."""
        if interval is None:
            return 0, len(self) - 1
        try:
            s, t = interval
        except (TypeError, ValueError):
            raise ParameterError(f"an interval is a pair (s, t), got {interval!r}") from None
        i, j = self.index_of(s), self.index_of(t)
        if i > j:
            raise ParameterError(f"empty interval [{s}, {t}]")
        return i, j


def _euclidean_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| over the leading (coordinate) axis, in the order of the module
    docstring: even and odd coordinates summed apart, then added.

    ``a[c]`` and ``b[c]`` broadcast to the shape of the result.
    """
    even = np.subtract(a[0], b[0])
    even *= even
    if len(a) > 1:
        odd = np.subtract(a[1], b[1])
        odd *= odd
        sq = np.empty_like(even)
        for c in range(2, len(a)):
            np.subtract(a[c], b[c], out=sq)
            sq *= sq
            acc = odd if c % 2 else even
            acc += sq
        even += odd
    return np.sqrt(even, out=even)


@dataclass(frozen=True, eq=False)
class EuclideanPath:
    """R^n-valued samples on a grid, identified with their linear interpolant."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        _instance(self.grid, TimeGrid, "grid")
        v = _float_array(self.values, "path values")
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[1] < 1:
            raise ParameterError(f"path values need shape (points, dim) with dim >= 1, "
                                 f"got {v.shape}")
        if v.shape[0] != len(self.grid):
            raise ParameterError(
                f"got {v.shape[0]} values for {len(self.grid)} grid points"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("path values contain non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: TimeGrid, fn) -> "EuclideanPath":
        return cls(grid, np.stack([np.atleast_1d(fn(t)) for t in grid.times]))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean distances |f_j - f_i|, shape (M+1, M+1)."""
        return self.distance_block(0, 0, len(self.grid))

    def distance_block(self, lo: int, j0: int, j1: int) -> np.ndarray:
        """Distances |f_i - f_j| for rows i in [lo, j1) and columns j in [j0, j1).

        Column j is stored as the contiguous row j - j0 of the result, so
        ``distance_block(lo, j0, j1)[c, r]`` is |f_(lo+r) - f_(j0+c)|.
        """
        x = self.values.T
        return _euclidean_norm(x[:, j0:j1, None], x[:, None, lo:j1])

    def shift_distances(self, m: int, lo: int, hi: int) -> np.ndarray:
        """Distances |f_r - f_(r+m)| for r in [lo, hi - m]."""
        x = self.values.T
        return _euclidean_norm(x[:, lo:hi - m + 1], x[:, lo + m:hi + 1])


@dataclass(frozen=True, eq=False)
class GroupPath:
    """Group-valued path of running signatures X_{0,t_j}, stored as stacked levels.

    ``levels[k]`` is a read-only array of shape ``(M+1, dim^k)`` whose row j
    is level k of X_{0,t_j} flattened in C order; level 0 is all ones and
    row 0 is the identity.  ``from_elements`` builds a path from one
    ``GroupElement`` per grid point, and ``values`` gives the elements back.
    """

    grid: TimeGrid
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        _instance(self.grid, TimeGrid, "grid")
        levels = tuple(_float_array(lv, "group path levels")
                       for lv in _instance(self.levels, (tuple, list), "levels"))
        if not 1 <= len(levels) - 1 <= MAX_DEPTH:
            raise ParameterError(f"depth must be in 1..{MAX_DEPTH}, got {len(levels) - 1}")
        rows = len(self.grid)
        dim = levels[1].shape[-1] if levels[1].ndim == 2 else 0
        for k, lv in enumerate(levels):
            if dim < 1 or lv.shape != (rows, dim**k):
                raise ParameterError(f"level {k} must have shape ({rows}, dim**{k}) "
                                     f"with dim >= 1, got {lv.shape}")
            if not np.all(np.isfinite(lv)):
                raise ParameterError(f"level {k} contains non-finite entries")
            lv.flags.writeable = False
        if np.any(levels[0] != 1.0):
            raise ParameterError("group elements need level-0 entry exactly 1")
        if any(lv[0].any() for lv in levels[1:]):
            raise ParameterError("a group path starts at the identity")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def from_elements(cls, grid: TimeGrid, elements) -> "GroupPath":
        """Path with ``elements[j]`` = X_{0,t_j}, one element per grid point."""
        elements = tuple(_instance(g, GroupElement, "group element")
                         for g in _instance(elements, (tuple, list), "elements"))
        if len(elements) != len(_instance(grid, TimeGrid, "grid")):
            raise ParameterError("one group element per grid point required")
        g0 = elements[0]
        if any(g.dim != g0.dim or g.depth != g0.depth for g in elements):
            raise ParameterError("all group elements must share dim/depth")
        return cls(grid, tuple(np.stack([g.level(k).reshape(-1) for g in elements])
                               for k in range(g0.depth + 1)))

    @property
    def dim(self) -> int:
        return self.levels[1].shape[1]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def element(self, j: int) -> GroupElement:
        """X_{0,t_j} as a ``GroupElement``."""
        return GroupElement(TruncatedTensor(self.dim, self.depth,
                                            tuple(lv[j] for lv in self.levels)))

    @cached_property
    def values(self) -> tuple[GroupElement, ...]:
        """Every X_{0,t_j} as a ``GroupElement``, built on first use."""
        return tuple(self.element(j) for j in range(len(self.grid)))

    @cached_property
    def _stacked_inverses(self) -> list[np.ndarray]:
        """Levels of X_{0,t_j}^{-1}, stacked like ``levels``."""
        inv = stacked_inverse(self.levels)
        if not all(np.isfinite(lv).all() for lv in inv):
            raise ParameterError("the inverse of the path overflows")
        return inv

    def _increments(self, i, j) -> list[np.ndarray]:
        """Levels of X_i^{-1} x X_j, ``i`` and ``j`` grid indices whose rows broadcast."""
        return stacked_mul([lv[i] for lv in self._stacked_inverses],
                           [lv[j] for lv in self.levels])

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise homogeneous distances d(X_i, X_j), shape (M+1, M+1), read-only;
        a dense reference that no norm reads."""
        dist = self.distance_block(0, 0, len(self.grid))
        dist.flags.writeable = False
        return dist

    def distance_block(self, lo: int, j0: int, j1: int) -> np.ndarray:
        """Distances d(X_i, X_j) for rows i in [lo, j1) and columns j in [j0, j1), lo <= j0.

        Laid out as ``EuclideanPath.distance_block``.  A piece of columns [c0, c1),
        of about ``_ROW_BLOCK_CELLS`` increment entries, takes the rows i < c1,
        reversed only below c0 (see ``_homogeneous``); its rows in [j0, c0) fill,
        transposed, the cells below earlier pieces.
        """
        block = np.empty((j1 - j0, j1 - lo))
        width = max(1, _ROW_BLOCK_CELLS // ((j1 - lo) * self.dim**self.depth))
        for c0 in range(j0, j1, width):
            c1 = min(c0 + width, j1)
            # rows first: ``stacked_mul`` loops fastest over the first, longest axis
            cols = np.s_[None, c0:c1]
            d = block[c0 - j0 : c1 - j0, : c1 - lo] = _homogeneous(
                self._increments(np.s_[lo:c1, None], cols),
                self._increments(cols, np.s_[lo:c0, None])).T
            block[: c0 - j0, c0 - lo : c1 - lo] = d[:, j0 - lo : c0 - lo].T
        return block

    def shift_distances(self, m: int, lo: int, hi: int) -> np.ndarray:
        """Distances d(X_r, X_(r+m)) for r in [lo, hi - m]."""
        head, tail = slice(lo, hi - m + 1), slice(lo + m, hi + 1)
        return _homogeneous(self._increments(head, tail), self._increments(tail, head))


def _homogeneous(fwd, rev) -> np.ndarray:
    """max_k max(|pi_k(fwd)|, |pi_k(rev)|)^(1/k), norms over the contiguous levels and
    one root per level (``np.sqrt`` at k = 2).  ``rev`` may omit the trailing rows of
    ``fwd`` if they form a square, whose transpose then holds their reverses."""
    for k in range(1, len(fwd)):
        level = np.linalg.norm(fwd[k], axis=-1)
        head, square = level[: len(rev[k])], level[len(rev[k]) :]
        np.maximum(head, np.linalg.norm(rev[k], axis=-1), out=head)
        np.maximum(square, square.T, out=square)
        if k == 2:
            np.sqrt(level, out=level)
        elif k > 2:
            np.power(level, 1.0 / k, out=level)
        dist = level if k == 1 else np.maximum(dist, level, out=dist)
    return dist


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def lift(path: EuclideanPath, depth: int) -> GroupPath:
    """Exact signature lift of the piecewise-linear interpolant.

    Row j is exp(d_1) x ... x exp(d_j) with d_i the i-th raw increment; by
    Chen's identity this is the signature of the interpolant on [0, t_j].
    Level k is one cumulative sum over the grid of the step increments

        S^k_{j+1} - S^k_j = e_k + S^1_j x e_{k-1} + ... + S^{k-1}_j x e_1,

    e_i = d^(x)i / i! as ``segment_exp`` computes it and S_j the running
    signature, built level by level from the lower levels.  Terms are added
    in this order, the order of ``group_mul(S_j, segment_exp(d, depth))``,
    so the levels equal that per-step chain bit for bit.
    """
    if not isinstance(depth, (int, np.integer)) or not 1 <= depth <= MAX_DEPTH:
        raise ParameterError(f"depth must be an integer in 1..{MAX_DEPTH}, got {depth!r}")
    d = _instance(path, EuclideanPath, "path").increments()
    steps = d.shape[0]
    e = [np.ones((steps, 1))]
    s = [np.ones((steps + 1, 1))]
    # a level that overflows is rejected by ``GroupPath`` (ParameterError)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, depth + 1):
            e.append((e[-1][:, :, None] * d[:, None, :]).reshape(steps, -1) / k)
        for k in range(1, depth + 1):
            inc = 0.0
            for i in range(k):
                term = s[i][:-1, :, None] * e[k - i][:, None, :]
                inc = inc + term.reshape(steps, -1)
            s.append(np.cumsum(np.vstack([np.zeros((1, inc.shape[1])), inc]), axis=0))
    return GroupPath(path.grid, tuple(s))


def increment(x: GroupPath, i: int, j: int) -> GroupElement:
    """Group increment X_{i,j} = X_i^{-1} x X_j for grid indices i <= j."""
    i, j = _count(i, "grid index", 0), _count(j, "grid index", 0)
    if not i <= j < len(_instance(x, GroupPath, "path").grid):
        raise ParameterError(f"increment needs 0 <= i <= j <= {len(x.grid) - 1}, got ({i}, {j})")
    return group_mul(group_inverse(x.element(i)), x.element(j))


def signature(x: GroupPath) -> GroupElement:
    """Full-path signature X_{0,M}."""
    return _instance(x, GroupPath, "path").element(-1)


def level1_path(x: GroupPath) -> EuclideanPath:
    """Euclidean projection t_j -> pi_1(X_{0,t_j})."""
    return EuclideanPath(_instance(x, GroupPath, "path").grid, x.levels[1])


def resample_uniform(path: EuclideanPath, intervals: int) -> EuclideanPath:
    """Linear interpolation onto the uniform grid with ``intervals`` steps on [0, T]."""
    grid = TimeGrid.uniform(intervals, _instance(path, EuclideanPath, "path").grid.horizon)
    new = np.stack(
        [
            np.interp(grid.times, path.grid.times, path.values[:, c])
            for c in range(path.dim)
        ],
        axis=1,
    )
    # endpoint values preserved exactly
    new[0] = path.values[0]
    new[-1] = path.values[-1]
    return EuclideanPath(grid, new)


def time_reversed(path: EuclideanPath) -> EuclideanPath:
    """Time reversal t -> T - t (grid re-anchored at 0)."""
    t = _instance(path, EuclideanPath, "path").grid.times
    return EuclideanPath(TimeGrid(t[-1] - t[::-1]), path.values[::-1])
