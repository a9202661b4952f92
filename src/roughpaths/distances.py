"""Inhomogeneous distances between group-valued paths.

Each family compares two paths level by level: with
D_k(i, j) = | pi_k( X1_{i,j} - X2_{i,j} ) |  (Euclidean norm on level k,
increments X_{i,j} = X_i^{-1} x X_j), the level-k distances are

* q-variation      ( sup_P sum D_k(u, v)^(q/k) )^(k/q)
* Riesz            ( sup_P sum D_k(u, v)^(p/k) / (v-u)^(delta*p-1) )^(k/p)
* mixed            as Riesz, with the level-k (1/delta)-variation distance
                   of the block in place of D_k(u, v); equal to Riesz on
                   every grid and computed as Riesz (the proof in ``norms``
                   applied to D_k^(1/k))
* Nikolskii-hat    outer partition sup of the level-k Nikolskii distance
                   powers of the blocks (uniform grids only)

and the aggregate distance is the maximum over levels k = 1..N.  Both paths
must live on one common grid; differencing increments across grids is not
defined here, resample before lifting instead.  Every level distance and
the aggregate return through the float-range exit rule of the package,
``tensor_core._in_range``.

A level distance reads D_k as ``level_diff_matrix(x1, x2, k)``, a dense
matrix that the first path builds for its level k alone and keeps while
both paths live (``GroupPath._level_diff``): a single-level call builds one
level, and the calls of every level of one pair build each level once.
Each level distance hands D_k, its (delta, p) and the level k to a kernel
of ``norms``: ``_power_sup_family`` or ``shift_partition_sup``.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, GridMismatchError, ParameterError
from .norms import (
    P_INF,
    NormKind,
    _check_params,
    _power_sup_family,
    _require_uniform,
    shift_partition_sup,
)
from .paths import GroupPath, TimeGrid, _count, _in_range, _instance


class DistKind(enum.Enum):
    QVAR = "qvar"
    RIESZ = "riesz"
    MIXED = "mixed"
    NIKOLSKII_HAT = "nikolskiihat"


def _check_dist(kind, delta, p):
    """p of distance family ``kind``: every kind needs a finite p, and the range
    is that of ``norms._check_params`` for q-variation (``QVAR``) or Riesz."""
    if not isinstance(kind, DistKind):
        raise ParameterError(f"unknown distance kind {kind!r}")
    if isinstance(p, numbers.Real) and p == P_INF:
        raise ParameterError(f"the {kind.value} distance needs a finite p")
    return _check_params(NormKind.QVAR if kind is DistKind.QVAR else NormKind.RIESZ, delta, p)


def _check_pair(x1: GroupPath, x2: GroupPath, k: int) -> int:
    """Level k as an int in 1..depth, for group paths x1, x2 of one grid, dim and depth."""
    _instance(x1, GroupPath, "path")
    _instance(x2, GroupPath, "path")
    k = _count(k, "tensor level", 1)
    if not np.array_equal(x1.grid.times, x2.grid.times):
        raise GridMismatchError("distance inputs must share one common grid")
    if x1.dim != x2.dim or x1.depth != x2.depth:
        raise DimensionMismatchError(
            f"incompatible paths: (dim, depth) ({x1.dim},{x1.depth}) vs ({x2.dim},{x2.depth})"
        )
    if k > x1.depth:
        raise ParameterError(f"tensor level must be in 1..{x1.depth}, got {k}")
    return k


def level_diff_matrix(x1: GroupPath, x2: GroupPath, k: int) -> np.ndarray:
    """Matrix of |pi_k(X1_{i,j} - X2_{i,j})| over all grid pairs (upper triangle)."""
    k = _check_pair(x1, x2, k)
    return x1._level_diff(x2, k)


@dataclass(frozen=True, eq=False)
class DenseSource:
    """A dense distance matrix on ``grid`` as a kernel source (the contract of
    ``paths``): d(i, j) is ``matrix[i, j]``, read at i < j.  Its blocks are
    copies, so no kernel writes the matrix, and it has no bounds."""

    matrix: np.ndarray
    grid: TimeGrid
    _cells = 1
    _span_bounds = None

    def _block(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        return np.array(self.matrix[i0:i1, j0:j1].T, order="C")


def _pair_source(x1, x2, k, interval):
    # the level-k differences of one pair, a kernel source, and the interval's indices
    return DenseSource(level_diff_matrix(x1, x2, k), x1.grid), *x1.grid.resolve_interval(interval)


@_in_range
def rho_qvar_level(x1, x2, q: float, k: int, interval=None) -> float:
    """Level-k q-variation distance ( sup_P sum D_k^(q/k) )^(k/q)."""
    q = _check_dist(DistKind.QVAR, None, q)
    d, lo, hi = _pair_source(x1, x2, k, interval)
    return _power_sup_family([d], lo, hi, [(0, None, q, k)])[0]


@_in_range
def rho_riesz_level(x1, x2, delta: float, p: float, k: int, interval=None) -> float:
    """Level-k Riesz distance ( sup_P sum D_k^(p/k) / (v-u)^(delta*p-1) )^(k/p)."""
    p = _check_dist(DistKind.RIESZ, delta, p)
    d, lo, hi = _pair_source(x1, x2, k, interval)
    return _power_sup_family([d], lo, hi, [(0, delta, p, k)])[0]


@_in_range
def rho_mixed_level(x1, x2, delta: float, p: float, k: int, interval=None) -> float:
    """Level-k mixed distance ( sup_P sum rho_qvar_level(...;[u,v])^(p/k) /
    (v-u)^(delta*p-1) )^(k/p), q = 1/delta; equal to ``rho_riesz_level``."""
    _check_dist(DistKind.MIXED, delta, p)  # so that errors name the mixed distance
    return rho_riesz_level.__wrapped__(x1, x2, delta, p, k, interval)


@_in_range
def rho_nikolskii_hat_level(x1, x2, delta: float, p: float, k: int, interval=None) -> float:
    """Level-k refined Nikolskii distance on a uniform common grid.

    Inner value per block [u, v]: sup over shifts h of
    h^(-delta*k) ( left Riemann sum of D_k(r, r+h)^(p/k) )^(k/p);
    outer: partition sup of the inner values to the power p/k, one
    ``shift_partition_sup`` sweep over the columns of D_k, O(M^2).
    """
    p = _check_dist(DistKind.NIKOLSKII_HAT, delta, p)
    _check_pair(x1, x2, k)
    _require_uniform(x1)
    d, lo, hi = _pair_source(x1, x2, k, interval)
    return shift_partition_sup([d], lo, hi, delta, p, k)[0]


@_in_range
def rho_aggregate(x1, x2, kind: DistKind, delta: float | None = None,
                  p: float | None = None, interval=None) -> float:
    """Aggregate distance: max over tensor levels k = 1..N of the level-k value."""
    _check_pair(x1, x2, 1)
    vals = [
        rho_level(x1, x2, kind, delta=delta, p=p, k=k, interval=interval)
        for k in range(1, x1.depth + 1)
    ]
    return max(vals)


def rho_level(x1, x2, kind: DistKind, *, delta=None, p=None, k=1, interval=None) -> float:
    """Single-level dispatcher used by rho_aggregate and the CLI."""
    if kind is DistKind.QVAR:
        return rho_qvar_level(x1, x2, p, k, interval)
    if kind is DistKind.RIESZ:
        return rho_riesz_level(x1, x2, delta, p, k, interval)
    if kind is DistKind.MIXED:
        return rho_mixed_level(x1, x2, delta, p, k, interval)
    if kind is DistKind.NIKOLSKII_HAT:
        return rho_nikolskii_hat_level(x1, x2, delta, p, k, interval)
    raise ParameterError(f"unknown distance kind {kind}")
