"""Sampled paths over a time grid and signature lifting.

Paths are known only at grid points.  Euclidean paths are identified with
their piecewise-linear interpolant; lifting computes the exact truncated
signature of that interpolant.  A group path stores the running signatures
X_{0,t_j} as stacked levels, one read-only (M+1, n^k) array per level k
(row j is level k of X_{0,t_j}, flattened in C order).  ``lift`` builds
level k by one cumulative sum over the grid (Chen's identity).  The
increments X_{i,j} = X_i^{-1} x X_j come from one batched inverse of the
path and a row pass (``GroupPath.increment_blocks``): one broadcasting
``tensor_core.stacked_mul`` call per block of rows against the columns,
which feeds the distance matrix and the level-difference matrices of
``distances``.

Euclidean distances have one formula, ``_euclidean_norm``: with s_c the
squared difference of coordinate c, the distance is
sqrt((s_0 + s_2 + s_4 + ...) + (s_1 + s_3 + ...)), each of the two sums added
left to right, every step one elementwise ufunc call in place on one buffer.
``EuclideanPath.distance_block`` (rows against a range of columns) and
``shift_distances`` (one diagonal) both use it, so a distance depends neither
on the block it is computed in nor, being correctly rounded elementwise
arithmetic, on the CPU.  At dims 1 to 7 this is the order of NumPy 2.4's
``sqrt(einsum("...k,...k->...", d, d))``, whose values it reproduces bit for
bit.  The cached distance matrix of a group path is read-only, as the norms
slice it without a copy.

All partition/pair suprema elsewhere in the library are taken over grid
points only; that is the discrete definition of every norm in this package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ParameterError
from .tensor_core import (
    MAX_DEPTH,
    GroupElement,
    TruncatedTensor,
    group_inverse,
    group_mul,
    stacked_inverse,
    stacked_mul,
)

#: Increment entries (rows x columns x dim^depth) per block of the row pass.
_ROW_BLOCK_CELLS = 2**15


def _count(value, name: str, low: int) -> int:
    """``value`` as an int of at least ``low``; a whole float counts, other
    floats, strings and booleans raise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value == int(value) >= low)):
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a fresh float array; strings and ragged input raise."""
    try:
        return np.array(value, dtype=float, copy=True)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be a numeric array: {exc}") from None


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_M."""

    times: np.ndarray

    def __post_init__(self):
        t = _float_array(self.times, "grid times").reshape(-1)
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
        return cls(np.linspace(0.0, horizon, _count(intervals, "intervals", 1) + 1))

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
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self) and abs(self.times[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return j
        raise ParameterError(f"t={t} is not a grid point")

    def resolve_interval(self, interval=None) -> tuple[int, int]:
        """Map an (s, t) time pair onto grid indices; None means [0, T]."""
        if interval is None:
            return 0, len(self) - 1
        s, t = interval
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
        try:
            levels = tuple(np.array(lv, dtype=float) for lv in self.levels)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"levels must be numeric arrays (GroupPath.from_elements "
                                 f"builds a path from group elements): {exc}") from None
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
        elements = tuple(elements)
        if len(elements) != len(grid):
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

    def increment_blocks(self, upper: bool = False):
        """Row pass over the increments X_{i,j} = X_i^{-1} x X_j, in blocks of rows.

        Yields ``(i0, i1, c0, levels)`` for consecutive row ranges [i0, i1)
        covering the grid, with c0 = 0, or c0 = i0 with ``upper`` (columns
        j >= i0 only).  ``levels[k]`` has shape ``(M+1 - c0, i1 - i0, dim^k)``,
        columns first, and entry ``[c, r]`` is pi_k(X_{i0+r, c0+c}) flattened
        in C order.  One ``stacked_mul`` call per block of about
        ``_ROW_BLOCK_CELLS`` entries.
        """
        m = len(self.grid)
        inv, i0 = self._stacked_inverses, 0
        while i0 < m:
            c0 = i0 if upper else 0
            i1 = min(m, i0 + max(1, _ROW_BLOCK_CELLS // ((m - c0) * self.dim**self.depth)))
            yield i0, i1, c0, stacked_mul([lv[None, i0:i1] for lv in inv],
                                          [lv[c0:, None] for lv in self.levels])
            i0 = i1

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise homogeneous distances d(X_i, X_j) under the max-levels surrogate, read-only.

        Uses d(X_i, X_j) = max_k max(|pi_k(X_{i,j})|, |pi_k(X_{j,i})|)^(1/k);
        the reversed increment is exactly the inverse of the forward one, so
        the matrix of ordered level norms suffices (it is filled transposed,
        as the row pass yields columns first).  Each level takes its root in
        its own call on a contiguous (M+1, M+1) array, ``np.sqrt`` for k = 2
        and the power 1/k for k >= 3, so a distance does not depend on the
        grid size or the array layout.
        """
        m = len(self.grid)
        level = np.empty((self.depth, m, m))
        for i0, i1, _, rows in self.increment_blocks():
            for k in range(1, self.depth + 1):
                level[k - 1, :, i0:i1] = np.linalg.norm(rows[k], axis=-1)
        dist = np.maximum(level[0], level[0].T)
        for k in range(2, self.depth + 1):
            sym = np.maximum(level[k - 1], level[k - 1].T)
            root = np.sqrt(sym, out=sym) if k == 2 else np.power(sym, 1.0 / k, out=sym)
            np.maximum(dist, root, out=dist)
        dist.flags.writeable = False
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
    d = path.increments()
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
    if i > j:
        raise ParameterError(f"increment needs i <= j, got ({i}, {j})")
    return group_mul(group_inverse(x.element(i)), x.element(j))


def signature(x: GroupPath) -> GroupElement:
    """Full-path signature X_{0,M}."""
    return x.element(-1)


def level1_path(x: GroupPath) -> EuclideanPath:
    """Euclidean projection t_j -> pi_1(X_{0,t_j})."""
    return EuclideanPath(x.grid, x.levels[1])


def resample_uniform(path: EuclideanPath, intervals: int) -> EuclideanPath:
    """Linear interpolation onto the uniform grid with ``intervals`` steps on [0, T]."""
    grid = TimeGrid.uniform(intervals, path.grid.horizon)
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
    t = path.grid.times
    return EuclideanPath(TimeGrid(t[-1] - t[::-1]), path.values[::-1])
