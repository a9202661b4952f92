"""Sampled paths over a time grid and signature lifting.

Paths are known only at grid points.  Euclidean paths are identified with
their piecewise-linear interpolant; lifting computes the exact truncated
signature of that interpolant segment by segment (Chen's identity), and a
group path stores the running signatures X_{0,t_j}, so that the increment
X_{i,j} = X_i^{-1} x X_j costs one inverse and one multiply.

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
    group_inverse,
    group_mul,
    identity_element,
    segment_exp,
)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times t_0 = 0 < t_1 < ... < t_M."""

    times: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True).reshape(-1)
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
        if intervals < 1:
            raise ParameterError("need at least one interval")
        return cls(np.linspace(0.0, horizon, intervals + 1))

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


@dataclass(frozen=True, eq=False)
class EuclideanPath:
    """R^n-valued samples on a grid, identified with their linear interpolant."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim == 1:
            v = v[:, None]
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
        diff = self.values[:, None, :] - self.values[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    @property
    def has_true_metric(self) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class GroupPath:
    """Group-valued path of running signatures: values[j] = X_{0,t_j}, values[0] = id."""

    grid: TimeGrid
    values: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise ParameterError("one group element per grid point required")
        g0 = self.values[0]
        from .tensor_core import level_norms

        if np.max(level_norms(g0)) > 0.0:
            raise ParameterError("a group path starts at the identity")
        for g in self.values[1:]:
            if g.dim != g0.dim or g.depth != g0.depth:
                raise ParameterError("all group elements must share dim/depth")

    @property
    def dim(self) -> int:
        return self.values[0].dim

    @property
    def depth(self) -> int:
        return self.values[0].depth

    @cached_property
    def _stacked_levels(self) -> list[np.ndarray]:
        """Level k flattened across the grid: shape (M+1, dim^k)."""
        n = self.dim
        return [
            np.stack([g.level(k).reshape(n**k) for g in self.values])
            for k in range(self.depth + 1)
        ]

    @cached_property
    def _stacked_inverses(self) -> list[np.ndarray]:
        n = self.dim
        invs = [group_inverse(g) for g in self.values]
        return [
            np.stack([g.level(k).reshape(n**k) for g in invs])
            for k in range(self.depth + 1)
        ]

    def increment_level_row(self, i: int) -> list[np.ndarray]:
        """Flattened levels of X_{i,j} for every j, one (M+1, dim^k) array per k.

        Row j holds pi_k(X_i^{-1} x X_j); only entries with j >= i are
        meaningful increments, but the formula is evaluated for all j.
        """
        inv = self._stacked_inverses
        val = self._stacked_levels
        out = []
        for k in range(self.depth + 1):
            acc = np.zeros_like(val[k])
            for a in range(k + 1):
                left = inv[a][i]
                right = val[k - a]
                acc += (left[None, :, None] * right[:, None, :]).reshape(acc.shape[0], -1)
            out.append(acc)
        return out

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise homogeneous distances d(X_i, X_j) under the max-levels surrogate.

        Uses d(X_i, X_j) = max_k max(|pi_k(X_{i,j})|, |pi_k(X_{j,i})|)^(1/k);
        the reversed increment is exactly the inverse of the forward one, so
        the matrix of ordered level norms suffices.
        """
        m = len(self.grid)
        ks = np.arange(1, self.depth + 1)
        level_norm = np.zeros((self.depth + 1, m, m))
        for i in range(m):
            rows = self.increment_level_row(i)
            for k in range(1, self.depth + 1):
                level_norm[k, i, :] = np.linalg.norm(rows[k], axis=1)
        sym = np.maximum(level_norm, np.transpose(level_norm, (0, 2, 1)))
        homog = sym[1:] ** (1.0 / ks[:, None, None])
        return homog.max(axis=0)

    @property
    def has_true_metric(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def lift(path: EuclideanPath, depth: int) -> GroupPath:
    """Exact signature lift of the piecewise-linear interpolant.

    values[j] = exp(d_1) x ... x exp(d_j) with d_i the i-th raw increment;
    by Chen's identity this is the signature of the interpolant on [0, t_j].
    """
    if depth > MAX_DEPTH:
        raise ParameterError(f"depth {depth} exceeds the cap {MAX_DEPTH}")
    g = identity_element(path.dim, depth)
    values = [g]
    for delta in path.increments():
        g = group_mul(g, segment_exp(delta, depth))
        values.append(g)
    return GroupPath(path.grid, tuple(values))


def increment(x: GroupPath, i: int, j: int) -> GroupElement:
    """Group increment X_{i,j} = X_i^{-1} x X_j for grid indices i <= j."""
    if i > j:
        raise ParameterError(f"increment needs i <= j, got ({i}, {j})")
    return group_mul(group_inverse(x.values[i]), x.values[j])


def signature(x: GroupPath) -> GroupElement:
    """Full-path signature X_{0,M}."""
    return x.values[-1]


def level1_path(x: GroupPath) -> EuclideanPath:
    """Euclidean projection t_j -> pi_1(X_{0,t_j})."""
    return EuclideanPath(x.grid, np.stack([g.level(1) for g in x.values]))


def resample_uniform(path: EuclideanPath, intervals: int) -> EuclideanPath:
    """Linear interpolation onto the uniform grid with ``intervals`` steps on [0, T]."""
    if intervals < 1:
        raise ParameterError("need at least one interval")
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
