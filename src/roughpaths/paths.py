"""Sampled paths over a time grid and signature lifting.

Paths are known only at grid points.  Euclidean paths are identified with
their piecewise-linear interpolant; lifting computes the exact truncated
signature of that interpolant.  A group path stores the running signatures
X_{0,t_j} as stacked levels, one read-only (M+1, n^k) array per level k
(row j is level k of X_{0,t_j}, flattened in C order).  ``lift`` builds
level k by one cumulative sum over the grid (Chen's identity).

Group distances and the level differences of a pair need one level norm
|pi_k(X_{i,j})| per grid pair i < j, X_{i,j} = X_i^{-1} x X_j: the group
distance d(X_i, X_j) is the forward norm max_k |pi_k(X_{i,j})|^(1/k), one
level norm per level (``GroupPath``).  The level-k
differences |pi_k(X_{i,j} - Y_{i,j})| of a pair (X, Y), which
``distances.level_diff_matrix`` serves, are ``X._level_diff(Y, k)``: one
level at a time, built on its first request and kept in a weak map of X
keyed by Y, so each level of each partner is held while both paths live and
freed when either dies.  The level norms come from one primitive,
``GroupPath._entries``, which yields the n^k entries of level k of X_{i,j}
one at a time, each an array over a block of grid pairs read from C-ordered
(n^k, M+1) copies of the levels and of the inverses (so entry e of a level
over all grid points is one contiguous row), or, for a block of shifts, from
one window view of each (``_shifted``).  Entry e is

    b_k[e] + a_1[e_1] b_{k-1}[e'] + ... + a_{k-1}[e''] b_1[e_k] + a_k[e],

a = X_i^{-1}, b = X_j, the index of a_i the leading i digits of e in base n
and that of b_{k-i} the rest, added left to right: the order of
``tensor_core.stacked_mul``, 0 + a_0 b_k + ... + a_k b_0, whose unit level-0
factors are left out (x * 1 = x exactly; 0 + x may differ only in the sign of
a zero, which no square sees).  ``_norm`` squares the entries as they arrive
and adds them in the order of NumPy's ``pairwise_sum``: fewer than 8 terms
left to right; 8 to 128 terms in 8 accumulators r_0..r_7 (term e into
r_(e mod 8), over the largest multiple of 8 terms), then
((r_0 + r_1) + (r_2 + r_3)) + ((r_4 + r_5) + (r_6 + r_7)), then the rest
left to right; more than 128 terms split at half the count rounded down to
a multiple of 8, each part summed so and the two added.  ``np.add.reduce``
over a contiguous axis, after its identity 0 (exact on these non-negative
sums), is that function, and ``np.linalg.norm(x, axis=-1)`` is
sqrt(add.reduce(x * x)), so every level norm equals that call on the dense
increments bit for bit (pinned by test), with no (pairs x n^k) array, no
transpose and no reduction over an axis of 2 to 8 entries.  Each block of
pairs, about ``_BLOCK_PAIRS`` of them (for a block of shifts, the ``width``
shifts its caller asks for), amortises the n^k k NumPy calls of a level.

Euclidean distances have one formula, ``_euclidean_norm``.  At dim 1 the
distance is |a - b|, the absolute difference, exact.  At dims 2 and more,
with s_c the squared difference of coordinate c, the distance is
sqrt((s_0 + s_2 + s_4 + ...) + (s_1 + s_3 + ...)), each of the two sums added
left to right, every step one elementwise ufunc call in place on one buffer.
Every Euclidean distance and bound is formed by it on ``_scaled``: the
blocks, diagonals and bounds of the source contract below as much as
``distance_block`` and ``shift_distances``, so a distance depends neither
on the block it is computed in nor, being correctly rounded elementwise
arithmetic, on the CPU.  At dims 2 to 7 this is the order of NumPy 2.4's
``sqrt(einsum("...k,...k->...", d, d))``, whose values it reproduces bit for
bit; at dim 1 that call's sqrt(d*d) is |d| whenever d*d is normal, and
where the square underflows |d| is the exact value that it loses.  A
squared difference leaves the normal float range beyond about 2^511 or
below about 2^-511, so a path whose largest coordinate span lies outside
[2^-256, 2^256] is measured on its values divided by the power of two s
nearest that span (``_scaled``, once per path, at every dim), each distance
then multiplied by s.  Both steps are exact (for values above 2^-1022 s),
and a path inside that window is not touched.  A group path serves both calls
from its level norms (``_distances``); ``_transposed`` rejects a path whose
squared level norms could leave the normal range (``ParameterError``).
No code of the package reads the cached dense ``distance_matrix`` of either
kind of path, which stays a public reference for callers and tests.
Both calls are written once for both kinds (``_PathSource``), on the source
contract below, and raise ``ParameterError`` on indices outside the grid.

Both kinds of path are *distance sources*, as is ``distances.DenseSource``,
a dense matrix on a grid such as the level-k differences of a pair.  The
kernels of ``norms`` read a source only through one private, duck-typed
contract, and trust its arguments:

* ``grid``: the ``TimeGrid`` of the distances, d(i, j) that of the times
  t_i and t_j.  The kernels take no times beside their sources: the sources
  of one call share one grid, and the kernels read the first one's.
* ``_block(i0, i1, j0, j1)``: the distances of rows i0..i1-1 and columns
  j0..j1-1, a fresh, writable, C-ordered (j1-j0, i1-i0) array with
  ``[c, r]`` = d(i0+r, j0+c), which the kernels overwrite.  The kernels
  read only its cells with i < j; what a source leaves in the others is its
  own.  ``distance_block(lo, j0, j1)`` is its checked public form,
  ``_block(lo, j1, j0, j1)`` with the cells i > j mirrored from i < j.
* ``_cells``: what one distance counts for in the kernels' cell budget
  (``norms._BLOCK_CELLS``): the dim of a Euclidean path, 1 otherwise.
* ``_span_bounds``: None on a source without bounds.  Otherwise
  ``_span_bounds(lo, hi, width)`` returns a function of a chunk (c0, c1) of
  the column blocks of ``width`` columns of [lo, hi] (block J the columns
  lo+1+J*width onwards, row block I the rows lo+I*width onwards), whose
  (c1-c0, c1) result bounds at [r, I] every distance that ``_block``
  computes in row block I of column block c0+r, with no margin.  Only a
  Euclidean path has bounds.
* ``_shift_blocks(lo, hi, m0, m1, width)``: the diagonals d(r, r+m), r in
  [lo, hi - m], of the shifts m = m0..m1-1 (1 <= m0 < m1 <= hi - lo + 2),
  for Nikolskii, which takes paths only.  A generator of fresh, writable,
  C-ordered blocks of ``width`` shifts each, the last one the rest: the
  block of the shifts b0..b1-1 has shape (b1 - b0, hi - lo + 1 - b0) and
  ``[m - b0, r - lo]`` = d(r, r+m); a row's cells past its diagonal hold
  values that the caller slices off.  ``shift_distances(m, lo, hi)`` is its
  checked one-shift call.

All partition/pair suprema elsewhere in the library are taken over grid
points only; that is the discrete definition of every norm in this package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np

from .exceptions import ParameterError
from .tensor_core import (
    MAX_DEPTH,
    GroupElement,
    TruncatedTensor,
    _count,
    _entries,
    _float_array,
    _in_range,
    _instance,
    _real,
    _shape,
    group_inverse,
    group_mul,
    stacked_exp,
    stacked_inverse,
)

#: Grid pairs per block of the level-norm kernel (``GroupPath._entries``).
_BLOCK_PAIRS = 2**14


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
        grid = cls(np.linspace(0.0, _real(horizon, "the horizon"),
                               _entries(_count(intervals, "intervals", 1) + 1, "the grid")))
        if not grid.is_uniform:  # subnormal steps round apart
            raise ParameterError(f"the horizon {horizon!r} is too small for "
                                 f"{intervals} uniform intervals")
        return grid

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
        """Grid index of time ``t`` (must coincide with a grid point): the
        nearest grid point, within 1e-9 max(1, |t|) of ``t``."""
        t = _real(t, "a grid time")
        # times[i - 1] < t <= times[i]
        i = int(np.searchsorted(self.times, t))
        if i == len(self) or (i > 0 and t - self.times[i - 1] < self.times[i] - t):
            i -= 1
        if abs(self.times[i] - t) <= 1e-9 * max(1.0, abs(t)):
            return i
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


def _euclidean_norm(a: np.ndarray, b: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale`` |a - b| over the leading (coordinate) axis, in the order of the
    module docstring: even and odd coordinates summed apart, then added.

    ``a[c]`` and ``b[c]`` broadcast to the shape of the result.  A distance
    beyond the float range is inf, without a warning.  At dim 1 the distance
    is |a - b|, exact, with no square to leave the normal range.
    """
    even = np.subtract(a[0], b[0])
    if len(a) == 1:
        np.abs(even, out=even)
    else:
        even *= even
        odd = np.subtract(a[1], b[1])
        odd *= odd
        sq = np.empty_like(even)
        for c in range(2, len(a)):
            np.subtract(a[c], b[c], out=sq)
            sq *= sq
            acc = odd if c % 2 else even
            acc += sq
        even += odd
        np.sqrt(even, out=even)
    if scale != 1.0:
        with np.errstate(over="ignore"):
            even *= scale
    return even


class _PathSource:
    """The public distance calls of both kinds of path, read from the source
    contract (module docstring) after checking their indices."""

    def distance_block(self, lo: int, j0: int, j1: int) -> np.ndarray:
        """Distances d(f_i, f_j) for rows i in [lo, j1) and columns j in [j0, j1), lo <= j0.

        Column j is stored as the contiguous row j - j0 of the result, so
        ``distance_block(lo, j0, j1)[c, r]`` is d(f_(lo+r), f_(j0+c)).  The
        cells with i > j hold d(f_j, f_i), mirrored from those with i < j, so
        the blocks are exactly symmetric.
        """
        lo, j0, j1 = _block_indices(lo, j0, j1, len(self.grid))
        block = self._block(lo, j1, j0, j1)
        square = block[:, j0 - lo :]  # [c, r] = d(f_(j0+r), f_(j0+c)); i > j where r > c
        np.copyto(square, square.T, where=np.tri(j1 - j0, dtype=bool).T)
        return block

    def shift_distances(self, m: int, lo: int, hi: int) -> np.ndarray:
        """Distances d(f_r, f_(r+m)) for r in [lo, hi - m]; m = hi - lo + 1 gives none."""
        m, lo, hi = _shift_indices(m, lo, hi, len(self.grid))
        return next(self._shift_blocks(lo, hi, m, m + 1, 1))[0]


@dataclass(frozen=True, eq=False)
class EuclideanPath(_PathSource):
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

    _cells = dim  # the source contract (module docstring): one cell a coordinate

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean distances |f_j - f_i|, shape (M+1, M+1), read-only;
        a public dense reference that no code of the package reads."""
        dist = self.distance_block(0, 0, len(self.grid))
        dist.flags.writeable = False
        return dist

    def _block(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        x, s = self._scaled
        return _euclidean_norm(x[:, j0:j1, None], x[:, None, i0:i1], s)

    def _span_bounds(self, lo: int, hi: int, width: int):
        """The distance bounds of the source contract, from per-coordinate extremes.

        The bound of row block I in column block J is ``_euclidean_norm`` of
        the coordinate spans max(cmax - xmin_I, xmax_I - cmin), the extremes
        of the scaled values over the row block and the column block, taken
        once per call.  Each coordinate difference of a cell lies between the
        two spans' negatives and the spans, and subtraction, squaring, the
        sums, the root and the power-of-two scale are monotone under rounding,
        so the bound dominates every computed distance with no margin.
        """
        x, s = self._scaled
        starts = np.arange(0, hi - lo, width)
        # the values of the rows and, below them, of the columns of each block
        both = np.concatenate([x[:, lo:hi], x[:, lo + 1 : hi + 1]])
        low, high = (ufunc.reduceat(both, starts, axis=1) for ufunc in (np.minimum, np.maximum))
        dim = len(x)

        def chunk(c0, c1):
            span = np.maximum(high[dim:, c0:c1, None] - low[:dim, None, :c1],
                              high[:dim, None, :c1] - low[dim:, c0:c1, None])
            return _euclidean_norm(span, np.zeros((dim, 1, 1)), s)

        return chunk

    def _shift_blocks(self, lo: int, hi: int, m0: int, m1: int, width: int):
        """The diagonals of the source contract, each block broadcast over one
        window view (``_shifted``) of the scaled values."""
        x, s = self._scaled
        window = _shifted(x, lo, hi, m0, m1)
        for b0 in range(m0, m1, width):
            shifts = np.s_[:, b0 - m0 : min(b0 + width, m1) - m0, : hi + 1 - lo - b0]
            yield _euclidean_norm(x[:, None, lo : hi + 1 - b0], window[shifts], s)

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, float]:
        """The values as (dim, M+1) rows divided by s, and s: the power of two
        nearest the largest coordinate span when that span lies outside
        [2^-256, 2^256], else 1 (module docstring)."""
        x = self.values.T
        half = float((x.max(axis=1) * 0.5 - x.min(axis=1) * 0.5).max())
        if half == 0.0 or 2.0**-257 <= half <= 2.0**255:
            return x, 1.0
        # neither the divided values nor s may leave the float range
        e = max(round(math.log2(half)) + 1, math.frexp(np.abs(x).max())[1] - 1000)
        s = 2.0 ** min(e, 1023)
        return x / s, s


@dataclass(frozen=True, eq=False)
class GroupPath(_PathSource):
    """Group-valued path of running signatures X_{0,t_j}, stored as stacked levels.

    ``levels[k]`` is a read-only array of shape ``(M+1, dim^k)`` whose row j
    is level k of X_{0,t_j} flattened in C order; level 0 is all ones and
    row 0 is the identity.  ``from_elements`` builds a path from one
    ``GroupElement`` per grid point, and ``values`` gives the elements back.

    Its distance is the forward norm d(X_i, X_j) = max_k |pi_k(X_i^{-1} x X_j)|^(1/k)
    for i < j, one level norm per level, read at i > j as d(X_j, X_i)
    (``distance_block``).  On a ``lift`` it is the symmetric norm
    max_k max(|pi_k(X_{i,j})|, |pi_k(X_{i,j}^{-1})|)^(1/k) of
    ``tensor_core.group_distance``: the inverse of a group-like element g is
    its antipode, which maps each word e_(i_1...i_k) to (-1)^k e_(i_k...i_1),
    so it permutes the entries of each level and flips their signs, and
    |pi_k(g^{-1})| = |pi_k(g)| in exact arithmetic; the computed values differ
    by rounding only.  A path built from arbitrary levels or elements, which
    need not be group-like, gets the forward norm too.  As a distance source
    (module docstring) it has no bounds.
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
    def _transposed(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Levels of X_{0,t_j}^{-1} and of X_{0,t_j}, each a C-ordered (n^k, M+1)
        copy: entry e of level k at every grid point is the contiguous row e.

        Raises ``ParameterError`` when the inverse overflows, or when a level
        norm of an increment could not be formed in the normal float range:
        the largest entry of a level of the path or of its inverse has a
        subnormal square, or the bound sum_h |a_h| |b_(k-h)| on the entries of
        level k of X_i^{-1} X_j, squared and summed n^k times, overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            inv = stacked_inverse(self.levels)
        if not all(np.isfinite(lv).all() for lv in inv):
            raise ParameterError("the inverse of the path overflows")
        a, b = ([1.0] + [float(np.abs(lv).max()) for lv in x[1:]] for x in (inv, self.levels))
        for k in range(1, self.depth + 1):
            bound = sum(a[h] * b[k - h] for h in range(k + 1))
            too_large = bound * bound * self.dim**k > np.finfo(float).max
            if too_large or 0.0 < min(a[k], b[k]) < 2.0**-511:
                raise ParameterError(f"the squares of level {k} of the path's increments "
                                     f"leave the normal float range")
        return ([np.ascontiguousarray(lv.T) for lv in inv],
                [np.ascontiguousarray(lv.T) for lv in self.levels])

    def _levels(self, i, j) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The levels of X_i^{-1} and of X_j as ``_entries`` reads them: the
        transposed levels at the indices ``i`` and ``j`` of their grid axis (a
        leading ``:`` for the entries, then grid slices whose results broadcast)."""
        inv, lev = self._transposed
        return [lv[i] for lv in inv], [lv[j] for lv in lev]

    @cached_property
    def _level_diff_cache(self) -> WeakKeyDictionary:
        """Partner path -> {level k: its ``_level_diff`` matrix}, the partner held weakly."""
        return WeakKeyDictionary()

    def __getstate__(self):
        # the weak map holds weak references, which do not pickle; a copy starts without it
        return {key: v for key, v in vars(self).items() if key != "_level_diff_cache"}

    def _level_diff(self, other: "GroupPath", k: int) -> np.ndarray:
        """The read-only (M+1, M+1) matrix of |pi_k(X_{i,j} - Y_{i,j})|, Y = ``other``
        (a path of the same grid, dim and depth), at i <= j and zero below.

        Built on the first request for this partner and level and kept while
        both paths live.  A row pass over the upper triangle j >= i0, blocks of
        about ``_BLOCK_PAIRS`` pairs, each norm the sum of squares of the
        entries of X less those of Y (``_norm``).
        """
        mats = self._level_diff_cache.setdefault(other, {})
        if k not in mats:
            m, i0 = len(self.grid), 0
            mat = np.zeros((m, m))
            while i0 < m:
                i1 = min(m, i0 + max(1, _BLOCK_PAIRS // (m - i0)))
                rows, cols = np.s_[:, i0:i1, None], np.s_[:, None, i0:]
                diffs = (np.subtract(e1, e2, out=e1) for e1, e2 in
                         zip(*(x._entries(k, *x._levels(rows, cols)) for x in (self, other))))
                mat[i0:i1, i0:] = np.triu(_norm(diffs, self.dim**k))
                i0 = i1
            mat.flags.writeable = False
            mats[k] = mat
        return mats[k]

    def _entries(self, k: int, a, b):
        """Entries e = 0..n^k - 1 of level k of X_i^{-1} x X_j, one fresh array each.

        ``a`` and ``b`` are the levels of X_i^{-1} and of X_j, level h an
        (n^h, ...) view of the transposed levels (``_levels``) whose entries,
        arrays over the grid points i and j, broadcast; entry e is added in the
        order of the module docstring.
        """
        n = self.dim
        for e in range(n**k):
            if k == 1:
                yield np.add(b[1][e], a[1][e])
                continue
            entry = np.multiply(a[1][e // n ** (k - 1)], b[k - 1][e % n ** (k - 1)])
            entry += b[k][e]
            for h in range(2, k):
                entry += a[h][e // n ** (k - h)] * b[k - h][e % n ** (k - h)]
            entry += a[k][e]
            yield entry

    def _distances(self, a, b) -> np.ndarray:
        """d(X_i, X_j) = max_k |pi_k(X_i^{-1} X_j)|^(1/k) over the pairs of the
        ``_entries`` levels ``a`` (X_i^{-1}) and ``b`` (X_j), one level norm and
        one root per level (``np.sqrt`` at k = 2): the forward norm of the class
        docstring."""
        dist = _norm(self._entries(1, a, b), self.dim)
        for k in range(2, self.depth + 1):
            level = _norm(self._entries(k, a, b), self.dim**k)
            if k == 2:
                np.sqrt(level, out=level)
            else:
                np.power(level, 1.0 / k, out=level)
            np.maximum(dist, level, out=dist)
        return dist

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise homogeneous distances d(X_i, X_j), shape (M+1, M+1), read-only;
        a public dense reference that no code of the package reads."""
        dist = self.distance_block(0, 0, len(self.grid))
        dist.flags.writeable = False
        return dist

    #: The source contract (module docstring): one distance is one cell, and no
    #: bound is cheaper than the distances.
    _cells = 1
    _span_bounds = None

    def _block(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """The block of the source contract: pieces of columns [c0, c1), of about
        ``_BLOCK_PAIRS`` pairs each, over the rows i < min(i1, c1); the cells of
        the rows from c1 on, with i > j, are left at 0."""
        block = np.zeros((j1 - j0, i1 - i0))
        width = max(1, _BLOCK_PAIRS // max(1, i1 - i0))
        for c0 in range(j0, j1, width):
            c1 = min(c0 + width, j1)
            r1 = max(i0, min(i1, c1))
            block[c0 - j0 : c1 - j0, : r1 - i0] = self._distances(
                *self._levels(np.s_[:, None, i0:r1], np.s_[:, c0:c1, None]))
        return block

    def _shift_blocks(self, lo: int, hi: int, m0: int, m1: int, width: int):
        """The diagonals of the source contract, each block one ``_distances``
        call over the rows r and the window views (``_shifted``) of the columns r + m."""
        inv, lev = self._transposed
        windows = [_shifted(lv, lo, hi, m0, m1) for lv in lev]
        for b0 in range(m0, m1, width):
            shifts = np.s_[:, b0 - m0 : min(b0 + width, m1) - m0, : hi + 1 - lo - b0]
            yield self._distances([lv[:, lo : hi + 1 - b0] for lv in inv],
                                  [lv[shifts] for lv in windows])


def _block_indices(lo, j0, j1, points: int) -> tuple[int, int, int]:
    """``distance_block`` indices: integers (not booleans) with 0 <= lo <= j0 <= j1 <= points."""
    try:
        if bool not in (type(lo), type(j0), type(j1)):
            lo, j0, j1 = operator.index(lo), operator.index(j0), operator.index(j1)
            if 0 <= lo <= j0 <= j1 <= points:
                return lo, j0, j1
    except TypeError:
        pass
    raise ParameterError(f"a distance block needs integers 0 <= lo <= j0 <= j1 <= {points}, "
                         f"got ({lo!r}, {j0!r}, {j1!r})")


def _shift_indices(m, lo, hi, points: int) -> tuple[int, int, int]:
    """``shift_distances`` arguments: integers (not booleans) with 0 <= lo <= hi < points
    and 1 <= m <= hi - lo + 1 (the longest shift gives an empty diagonal)."""
    try:
        if bool not in (type(m), type(lo), type(hi)):
            m, lo, hi = operator.index(m), operator.index(lo), operator.index(hi)
            if 0 <= lo <= hi < points and 1 <= m <= hi - lo + 1:
                return m, lo, hi
    except TypeError:
        pass
    raise ParameterError(f"shift distances need integers 0 <= lo <= hi <= {points - 1} and "
                         f"1 <= m <= hi - lo + 1, got (m, lo, hi) = ({m!r}, {lo!r}, {hi!r})")


def _shifted(x: np.ndarray, lo: int, hi: int, m0: int, m1: int) -> np.ndarray:
    """The shifted columns of a ``_shift_blocks`` call on the rows of ``x``: a
    window view whose ``[:, m - m0, r - lo]`` is column r + m of ``x`` for r + m
    <= hi (zero past it), for the shifts m = m0..m1-1, over one copy of the
    columns lo+m0..hi padded with zeros; for one shift, a view of ``x`` itself."""
    if m1 == m0 + 1:
        return x[:, None, lo + m0 : hi + 1]  # one shift needs no padding
    ends = np.concatenate([x[:, lo + m0 : hi + 1], np.zeros((len(x), m1 - m0 - 1))], axis=1)
    return np.lib.stride_tricks.sliding_window_view(ends, hi + 1 - lo - m0, axis=1)


def _norm(entries, count: int) -> np.ndarray:
    """sqrt of the sum of squares of the ``count`` arrays of ``entries`` (fresh
    arrays, squared in place), the sum in NumPy's pairwise order (module docstring)."""
    total = _pairwise_sum((np.multiply(x, x, out=x) for x in entries), count)
    return np.sqrt(total, out=total)


def _pairwise_sum(terms, count: int) -> np.ndarray:
    """The sum of the next ``count`` arrays of the iterator ``terms``, in the order of
    NumPy's ``pairwise_sum``; the first array it takes holds the result."""
    if count < 8:
        total = next(terms)
        for _ in range(count - 1):
            total += next(terms)
        return total
    if count <= 128:
        r = [next(terms) for _ in range(8)]
        for _ in range(count // 8 - 1):
            for acc in r:
                acc += next(terms)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        for _ in range(count % 8):
            r[0] += next(terms)
        return r[0]
    half = count // 2 - count // 2 % 8
    total = _pairwise_sum(terms, half)
    total += _pairwise_sum(terms, count - half)
    return total


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@_in_range
def lift(path: EuclideanPath, depth: int) -> GroupPath:
    """Exact signature lift of the piecewise-linear interpolant.

    Row j is exp(d_1) x ... x exp(d_j) with d_i the i-th raw increment; by
    Chen's identity this is the signature of the interpolant on [0, t_j].
    Level k is one cumulative sum over the grid of the step increments

        S^k_{j+1} - S^k_j = e_k + S^1_j x e_{k-1} + ... + S^{k-1}_j x e_1,

    e_i = d^(x)i / i!, level i of the one segment exponential
    ``tensor_core.stacked_exp`` (``segment_exp`` is its one-row call), and
    S_j the running signature, built level by level from the lower levels.
    Terms are added in this order, the order of
    ``group_mul(S_j, segment_exp(d, depth))``, so the levels equal that
    per-step chain bit for bit.
    """
    if not isinstance(depth, (int, np.integer)):
        raise ParameterError(f"depth must be an integer in 1..{MAX_DEPTH}, got {depth!r}")
    d = _instance(path, EuclideanPath, "path").increments()
    _, depth = _shape(path.dim, depth)  # a boolean or a depth out of range raises
    steps = d.shape[0]
    s = [np.ones((steps + 1, 1))]
    e = stacked_exp(d, depth)
    for k in range(1, depth + 1):
        inc = 0.0
        for i in range(k):
            term = s[i][:-1, :, None] * e[k - i][:, None, :]
            inc = inc + term.reshape(steps, -1)
        s.append(np.cumsum(np.vstack([np.zeros((1, inc.shape[1])), inc]), axis=0))
    return GroupPath(path.grid, tuple(s))  # a level that overflows raises here


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
