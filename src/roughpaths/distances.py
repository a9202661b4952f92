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
defined here, resample before lifting instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from weakref import WeakKeyDictionary

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
from . import paths
from .paths import GroupPath, _count, _instance


class DistKind(enum.Enum):
    QVAR = "qvar"
    RIESZ = "riesz"
    MIXED = "mixed"
    NIKOLSKII_HAT = "nikolskiihat"


@dataclass(frozen=True)
class LevelDistanceSpec:
    """Selects one level-k distance family with its (delta, p) or q parameters."""

    kind: DistKind
    delta: float = 1.0
    p: float = 1.0
    level: int = 1

    def __post_init__(self):
        _count(self.level, "tensor level", 1)
        _check_dist(self.kind, self.delta, self.p)


def _check_dist(kind, delta, p):
    """p after ``norms._check_params`` of q-variation (``QVAR``) or Riesz, p finite."""
    if not isinstance(kind, DistKind):
        raise ParameterError(f"unknown distance kind {kind!r}")
    p = _check_params(NormKind.QVAR if kind is DistKind.QVAR else NormKind.RIESZ, delta, p)
    if p is P_INF:
        raise ParameterError(f"the {kind.value} distance needs a finite p")
    return p


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


# x1 -> x2 -> level-difference matrices.  Paths hash by identity and are
# held weakly, so an entry lives exactly as long as both of its paths: the
# per-level calls on one pair share the matrices, and dropping either path
# frees them.
_LEVEL_DIFFS: WeakKeyDictionary = WeakKeyDictionary()


def _all_level_diffs(x1: GroupPath, x2: GroupPath) -> tuple[np.ndarray, ...]:
    per_x1 = _LEVEL_DIFFS.setdefault(x1, WeakKeyDictionary())
    mats = per_x1.get(x2)
    if mats is None:
        mats = per_x1[x2] = _level_diffs(x1, x2)
    return mats


def _level_diffs(x1: GroupPath, x2: GroupPath) -> tuple[np.ndarray, ...]:
    # levels k = 1..N; a row pass over the upper triangle j >= i0, blocks of
    # about paths._ROW_BLOCK_CELLS increment entries
    m, i0 = len(x1.grid), 0
    mats = [np.zeros((m, m)) for _ in range(x1.depth)]
    while i0 < m:
        i1 = min(m, i0 + max(1, paths._ROW_BLOCK_CELLS // ((m - i0) * x1.dim**x1.depth)))
        r1, r2 = (x._increments(np.s_[None, i0:i1], np.s_[i0:, None]) for x in (x1, x2))
        for k in range(1, x1.depth + 1):
            mats[k - 1][i0:i1, i0:] = np.triu(np.linalg.norm(r1[k] - r2[k], axis=-1).T)
        i0 = i1
    for mt in mats:
        mt.flags.writeable = False
    return tuple(mats)


def level_diff_matrix(x1: GroupPath, x2: GroupPath, k: int) -> np.ndarray:
    """Matrix of |pi_k(X1_{i,j} - X2_{i,j})| over all grid pairs (upper triangle)."""
    k = _check_pair(x1, x2, k)
    return _all_level_diffs(x1, x2)[k - 1]


def _pair_source(x1, x2, k, interval):
    # the level-k difference matrix of one pair, a kernel source, and the interval's indices
    return level_diff_matrix(x1, x2, k), *x1.grid.resolve_interval(interval)


def rho_qvar_level(x1, x2, q: float, k: int, interval=None) -> float:
    """Level-k q-variation distance ( sup_P sum D_k^(q/k) )^(k/q)."""
    q = _check_dist(DistKind.QVAR, None, q)
    d, lo, hi = _pair_source(x1, x2, k, interval)
    return _power_sup_family([d], x1.grid.times, lo, hi, [(0, q / k, 0.0, k / q)])[0]


def rho_riesz_level(x1, x2, delta: float, p: float, k: int, interval=None) -> float:
    """Level-k Riesz distance ( sup_P sum D_k^(p/k) / (v-u)^(delta*p-1) )^(k/p)."""
    p = _check_dist(DistKind.RIESZ, delta, p)
    d, lo, hi = _pair_source(x1, x2, k, interval)
    return _power_sup_family([d], x1.grid.times, lo, hi, [(0, p / k, 1.0 - delta * p, k / p)])[0]


def rho_mixed_level(x1, x2, delta: float, p: float, k: int, interval=None) -> float:
    """Level-k mixed distance ( sup_P sum rho_qvar_level(...;[u,v])^(p/k) /
    (v-u)^(delta*p-1) )^(k/p), q = 1/delta; equal to ``rho_riesz_level``."""
    return rho_riesz_level(x1, x2, delta, p, k, interval)


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
    return shift_partition_sup([d], x1.grid.times, lo, hi, p / k, -delta * p, k / p)[0]


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
    if kind is DistKind.RIESZ or kind is DistKind.MIXED:
        return rho_riesz_level(x1, x2, delta, p, k, interval)
    if kind is DistKind.NIKOLSKII_HAT:
        return rho_nikolskii_hat_level(x1, x2, delta, p, k, interval)
    raise ParameterError(f"unknown distance kind {kind}")
