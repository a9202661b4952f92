"""Path seminorms on the Hoelder / variation / Besov-Nikolskii scale.

Seven families, all over a grid subinterval [s, t] and a metric d on the
path's state space (Euclidean for vector paths, the homogeneous surrogate
for group paths):

* Hoelder          sup_{u<v} d(f_u, f_v) / (v-u)^delta
* q-variation      ( sup_P sum d(f_u, f_v)^q )^(1/q)
* Riesz variation  ( sup_P sum d(f_u, f_v)^p / (v-u)^(delta*p-1) )^(1/p)
* mixed            as Riesz, with the block's (1/delta)-variation in place
                   of the endpoint distance; equal to Riesz on every grid
                   (below) and computed as Riesz
* Nikolskii        sup_h h^(-delta) ( int d(f_u, f_{u+h})^p du )^(1/p)
* refined Nikolskii( sup_P sum ||f||_{Nikolskii;[u,v]}^p )^(1/p)
* fractional       ( iint d(f_u, f_v)^p / |v-u|^(1+delta*p) du dv )^(1/p)
  Sobolev

Partition suprema run over grid points only and are computed by an exact
O(M^2) dynamic program, ``dp_partition_sup``, that consumes its weight
columns in blocks.  The single-value families and refined Nikolskii stream
on Euclidean paths: their distances come from the path values, about
``_BLOCK_CELLS`` cells at a time, so no (M+1)^2 matrix is built and memory
is O(M).

* Hoelder: the maximum of the block maxima.
* q-variation, Riesz (and so mixed): the DP fed block by block.
* Nikolskii: one diagonal d(f_r, f_(r+m)) per shift m.
* fractional Sobolev: a sum accumulated over blocks.
* refined Nikolskii: the fused sweep ``shift_partition_sup`` (below).

These give the values of the dense formulas bit for bit, except fractional
Sobolev, whose blockwise sum may move the last ulp.  Group paths feed the
same code blocks sliced from their cached distance matrix.  Where a table
over all subintervals is the output the dense matrix stays: interval tables
and ``qvar_power_table``.  Interval tables are O(M^3) and capped at
``max_nested`` grid intervals (default 512) unless the caller raises the cap
explicitly; no other function has a cap.  The table of q-variation powers
over all subintervals is ``dp_power_table``, an O(M^3) DP in push form (one
NumPy max per finished column), whose values are bit-identical to the
per-cell recursion.  Both DPs take leading batch axes: ``dp_power_table``
weights of shape ``(*batch, N, N)`` and ``dp_partition_sup`` column blocks
of shape ``(*batch, rows, cols)``, so one Python loop over the columns
serves a stack of same-grid matrices (the verify reference runs a family
of paths this way), with the values of the per-matrix calls bit for bit;
the batch-free calls are the case ``batch = ()``.  Nikolskii shifts h run
over integer multiples of the uniform mesh with a left Riemann sum for the
inner integral; the fractional Sobolev double integral uses the
tensor-grid quadrature with the diagonal band |u-v| < mesh excluded.

Refined Nikolskii (and, level by level, the Nikolskii-hat distance of
``distances``) is a partition sup of inner Nikolskii values.  On a uniform
mesh dt let c_m = (m dt)^(-delta*p) dt and S_m[k] = sum_{lo <= r < k}
d(f_r, f_(r+m))^p.  The inner value of a block [i, j] is
T[i, j] = max_{1 <= m <= j-i} c_m (S_m[j-m] - S_m[i]) (``shift_sup_table``;
the shift m = j-i gives 0), and the outer DP is
best[j] = max_{i < j} (best[i] + T[i, j]).  Both maxima run over the pairs
(i, m) with i + m <= j, so they may be swapped:

    best[j] = max_m ( c_m S_m[j-m] + R_m[j-m] ),
    R_m[k]  = max_{lo <= i <= k} ( best[i] - c_m S_m[i] ).

Column j advances every running sum a_m = S_m[j-m] by d(j-m, j)^p and
every running max R_m by the one new index i = j-m, so the sweep costs
O(M) per column and O(M^2) in all, with no inner table.  The arithmetic
order changes from best[i] + c (a - b) to (best[i] - c b) + c a, and the
sums start at lo rather than at 0: values move in the last ulps.  As
S_m[lo] = 0, every term is at most best[j], so no cancellation is amplified.

Large powers d^p can leave the float range.  The q-variation and Riesz
kernels divide the distances by a scale s, the power of two at or above
b = 2 max_i d(f_lo, f_i), when (b/2)^p or b^p leaves the normal range (the
largest distance lies between them), and multiply the root by s (the norms
are 1-homogeneous in d); otherwise s = 1.0 and the division is exact.  A
Riesz weight also multiplies d^p by the time factor g^(1-delta*p) of the
block length g after the power is taken.  When an O(M) range check finds
that this product can leave the normal range, the time factor is folded
into the base, (d/s * g^((1-delta*p)/p))^p, with s the power of two at or
above the largest base; otherwise the weight is formed as written.
Nikolskii and fractional Sobolev sums are formed as written and kept
unless an O(M) check after the sum (``_sum_kept``) finds a time factor out
of range, a non-finite sum, or underflow losses that could reach 2^-64 of
it.  Then Nikolskii scales each shift by the power of two at or above its
largest distance (its time factor is constant within the shift), and
fractional Sobolev folds its time factor into the base as Riesz does.  The
refined Nikolskii sweep raises ``ParameterError`` on the same kind of check
rather than return 0, inf or NaN.

Mixed equals Riesz on every grid.  Let q = 1/delta, and split a block I at
grid points into blocks J_j with endpoint distances d_j.

* Riesz <= mixed: d(f_u, f_v) <= ||f||_{q-var;[u,v]} (one-block partition).
* mixed <= Riesz for delta*p >= 1, i.e. p >= q.  Write d_j^q = a_j b_j with
  b_j = |J_j|^(q(delta*p-1)/p).  As q(delta*p-1) = p-q, Hoelder's inequality
  with exponents p/q and p/(p-q) gives
      sum_j d_j^q <= (sum_j d_j^p / |J_j|^(delta*p-1))^(q/p) |I|^((p-q)/p),
  i.e. (sum_j d_j^q)^(p/q) / |I|^(delta*p-1) <= sum_j d_j^p / |J_j|^(delta*p-1).
  Refining each block of a partition by its optimal sub-partition thus
  gives a Riesz sum at least the mixed sum.
  ``_check_riesz_p`` admits delta*p down to 1 - 1e-12; there
  (sum_j d_j^q)^(p/q) <= sum_j d_j^p still holds and the length factors
  bound the norms' ratio by (T/h)^(1e-12/p), h the smallest grid step.
* p = infinity: with H the Hoelder seminorm, sum_j d_j^q <= H^q |I|, so no
  block's q-variation exceeds H |I|^delta and mixed equals Hoelder, which
  is Riesz at p = infinity.

No triangle inequality is used, so the identity also holds for the
quasi-metric surrogate of group paths and, level by level, for the
distances of ``distances`` (apply it to D_k^(1/k)).  ``mixed_norm`` is
therefore ``riesz_norm``, an O(M^2) DP; the nested definition is kept only
as the independent reference of the checks ``verify.check_riesz_eq_mixed``
and ``verify.check_distance_equivalences``, computed per family by
``verify._nested_mixed``.

Riesz variation with p = infinity is the Hoelder seminorm by definition.
Infinite integrability is the sentinel ``P_INF``; a float inf passed as p is
mapped to it, and a NaN or missing p raises ``ParameterError``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniformGridError, ParameterError
from .paths import EuclideanPath, GroupPath


class PInf(enum.Enum):
    """Distinguished marker for infinite integrability."""

    INF = "inf"


P_INF = PInf.INF


class NormKind(enum.Enum):
    HOELDER = "hoelder"
    QVAR = "qvar"
    RIESZ = "rieszv"
    MIXED = "mixedv"
    NIKOLSKII = "nikolskii"
    REFINED_NIKOLSKII = "refinednikolskii"
    FRAC_SOBOLEV = "fracsobolev"


@dataclass(frozen=True)
class NormSpec:
    """Norm selector: family, regularity delta, integrability p, interval.

    QVar reads the variation exponent q from ``p`` and ignores delta;
    Hoelder ignores p.  Riesz/mixed require p >= 1/delta.
    """

    kind: NormKind
    delta: float = 1.0
    p: float | PInf = P_INF
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        k, d, p = self.kind, self.delta, self.p
        if k is NormKind.HOELDER:
            _check_delta(d)
            return
        if k is NormKind.QVAR:
            p = _check_q(p)
        elif k in (NormKind.RIESZ, NormKind.MIXED):
            _check_delta(d)
            p = _check_riesz_p(d, p)
        elif k in (NormKind.NIKOLSKII, NormKind.REFINED_NIKOLSKII):
            _check_delta(d)
            p = _check_nikolskii_p(p)
        else:
            p = _check_frac_sobolev(d, p)
        object.__setattr__(self, "p", p)


def _check_delta(delta):
    if delta is None or not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")


def _check_p(p):
    """The integrability exponent p, with a float infinity mapped to ``P_INF``.

    Every entry point that takes p goes through here, so a float inf selects
    the same formula as the sentinel; a missing or NaN p raises.
    """
    if p is P_INF:
        return p
    if p is None:
        raise ParameterError("an integrability exponent p is required")
    if math.isnan(p):
        raise ParameterError("the integrability exponent p is NaN")
    return P_INF if p == math.inf else p


def _finite_p(p, what):
    if p is P_INF:
        raise ParameterError(f"{what} needs a finite p")
    return p


def _check_q(q):
    q = _finite_p(_check_p(q), "q-variation")
    if q < 1.0:
        raise ParameterError(f"q-variation needs an exponent q >= 1, got {q}")
    return q


def _check_riesz_p(delta, p):
    p = _check_p(p)
    if p is not P_INF and p * delta < 1.0 - 1e-12:
        raise ParameterError(
            f"Riesz-type norms need p >= 1/delta (got p={p}, 1/delta={1/delta:.6g})"
        )
    return p


def _check_nikolskii_p(p):
    p = _check_p(p)
    if p is not P_INF and p < 1.0:
        raise ParameterError(f"Nikolskii norms need p >= 1, got {p}")
    return p


def _check_frac_sobolev(delta, p):
    if delta is None or not 0.0 < delta < 1.0:
        raise ParameterError(f"fractional Sobolev needs delta in (0, 1), got {delta}")
    p = _finite_p(_check_p(p), "fractional Sobolev")
    if p < 1.0:
        raise ParameterError(f"fractional Sobolev needs p >= 1, got {p}")
    return p


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: Cells (rows x columns x dim) of one streamed block of Euclidean distances.
#: It bounds the scratch memory of the single-value norms (2 MB per float
#: array) whatever the grid size; a block has at least one column.
_BLOCK_CELLS = 1 << 18


def _check_path(path):
    if not isinstance(path, (EuclideanPath, GroupPath)):
        raise ParameterError(f"unsupported path type {type(path).__name__}")


def _path_data(path):
    _check_path(path)
    return path.grid.times, path.distance_matrix


def dense_columns(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns lo+1..hi of a dense matrix, rows [lo, hi], as one column block.

    Row c of the result is column lo+1+c, ``matrix[..., lo:hi+1, lo+1+c]``;
    leading batch axes of a stack of matrices are kept.
    """
    return np.swapaxes(matrix[..., lo : hi + 1, lo + 1 : hi + 1], -1, -2)


def _columns(path, lo, hi):
    """Distances d(f_i, f_j) of the columns j = lo+1..hi, in blocks.

    Yields ``(j0, block)`` with ``block[c, r]`` = d(f_(lo+r), f_(j0+c)) for at
    least every r with lo+r < j0+c.  Euclidean paths compute the blocks from
    their values, about ``_BLOCK_CELLS`` cells at a time, so no (M+1)^2
    matrix is built; group paths slice their cached distance matrix.
    """
    if isinstance(path, GroupPath):
        if hi > lo:
            yield lo + 1, dense_columns(path.distance_matrix, lo, hi)
        return
    width = max(1, _BLOCK_CELLS // ((hi - lo + 1) * path.dim))
    for j0 in range(lo + 1, hi + 1, width):
        yield j0, path.distance_block(lo, j0, min(j0 + width, hi + 1))


def _shift_distances(path, m, lo, hi) -> np.ndarray:
    """d(f_r, f_(r+m)) for r in [lo, hi - m]."""
    if isinstance(path, GroupPath):
        return np.diagonal(path.distance_matrix, m)[lo : hi - m + 1]
    return path.shift_distances(m, lo, hi)


def _gaps(times, lo, j0, block, fill) -> np.ndarray:
    # t_j - t_i over the cells of a column block whose first row is column
    # j0 (see ``_columns``); ``fill`` in the cells with i >= j
    gap = times[j0 : j0 + block.shape[0], None] - times[None, lo : lo + block.shape[1]]
    return np.where(gap > 0, gap, fill)


def _distance_bound(path, lo, hi) -> float:
    """b = 2 max_i d(f_lo, f_i): every distance on [lo, hi] is at most b and
    the largest is at least b/2 (triangle inequality)."""
    if isinstance(path, GroupPath):
        radius = path.distance_matrix[lo, lo : hi + 1].max()
    else:
        radius = np.linalg.norm(path.values[lo : hi + 1] - path.values[lo], axis=1).max()
    return 2.0 * float(radius)


def _scale(bound, power) -> float:
    """Divisor s of the distances, bounded by ``bound``, before they are raised to ``power``.

    s is 1.0, an exact no-op, unless the power of b/2 or of b leaves the
    normal float range; then s is the power of two at or above b, so the
    scaled distances lie in [0, 1].  The norms are 1-homogeneous in d, so
    the root times s is the norm.
    """
    if bound == 0.0 or -1022.0 <= power * (math.log2(bound) - 1.0) < power * math.log2(bound) < 1024.0:
        return 1.0
    return 2.0 ** math.ceil(math.log2(bound))


def _riesz_unfused_fits(path, lo, hi, delta, p, bound, s) -> bool:
    """Whether the Riesz weights (d/s)^p * g^e, e = 1 - delta*p, may be formed as written.

    O(M) bounds in log2 units, g the block length t_j - t_i.  The time
    factor g^e is monotone in g, so its extremes sit at the shortest step and
    at t_hi - t_lo.  A block of length g has d <= min(bound, g L), L the
    largest step distance over its time step, so a weight is at most
    p log2(min(bound, g L)/s) + e log2 g, piecewise linear in log2 g with its
    maximum at an end or at the kink g = bound/L.  The largest step weight
    is a lower bound of the partition sup.  A d-power that underflows loses
    less than 2^-1022 times the time factor, so the product as written is
    kept when neither factor nor product overflows or underflows and hi - lo
    such losses stay below 2^-64 of that lower bound.
    """
    steps = _shift_distances(path, 1, lo, hi)
    if not steps.any():
        return True
    times = path.grid.times
    e = 1.0 - delta * p
    dt = np.diff(times[lo : hi + 1])
    shortest, span = float(dt.min()), float(times[hi] - times[lo])
    factor = (e * math.log2(span), e * math.log2(shortest))
    speed = float(np.max(steps / dt))
    top = max(p * math.log2(min(bound, g * speed) / s) + e * math.log2(g)
              for g in (shortest, min(max(bound / speed, shortest), span), span))
    with np.errstate(divide="ignore"):
        floor = float(np.max(p * np.log2(steps / s) + e * np.log2(dt)))
    return (min(factor) >= -1022.0 and max(factor) < 1024.0 and top < 1024.0
            and max(max(factor), 0.0) - 1022.0 + math.log2(hi - lo) + 64.0 <= floor)


def _sum_kept(path, lo, hi, total, count, factors) -> bool:
    """Whether a sum of at most ``count`` terms d^p * c, formed as written, is kept.

    ``factors`` are log2 of the extreme time factors c.  The sum is kept
    when every factor lies in the normal float range, the sum is finite, and
    the d-powers and terms lost to underflow (less than 2^-1022 times a
    factor, or 2^-1022, each) add up to at most 2^-64 of it; a zero sum
    with zero step distances (a constant path) is kept too.  O(M) at most.
    """
    if not (-1022.0 <= min(factors) and max(factors) <= 1022.0 and math.isfinite(total)):
        return False
    if total > 0.0 and math.log2(total) >= max(max(factors), 0.0) - 958.0 + math.log2(count):
        return True
    return total == 0.0 and not _shift_distances(path, 1, lo, hi).any()


def _fused_weights(path, lo, hi, p, e):
    """The terms (d/s)^p * g^e with the time factor folded into the base.

    Returns s and the column blocks of (d/s * g^(e/p))^p, s the power of two
    at or above the largest base (a first pass over the blocks); unread
    cells get g = inf and so weight 0.
    """
    times = path.grid.times

    def bases(j0, block):
        return block * _gaps(times, lo, j0, block, np.inf) ** (e / p)

    s = 2.0 ** math.ceil(math.log2(max(float(bases(j0, block).max())
                                       for j0, block in _columns(path, lo, hi))))
    return s, (bases(j0, block / s) ** p for j0, block in _columns(path, lo, hi))


def dp_partition_sup(columns, lo: int, hi: int, batch: tuple = ()):
    """Exact sup over grid partitions of [lo, hi] of the summed block weights.

    ``columns`` is an iterable of blocks of shape ``(*batch, rows, cols)``
    whose rows, in order, are the weight columns j = lo+1, ..., hi: the row
    of column j holds the (nonnegative) weight of block [t_i, t_j] at
    position i - lo, for at least every i in [lo, j).  The recursion
    best[j] = max_i ( best[i] + weight[i, j] ) visits every partition into
    consecutive blocks, for every batch index at once.  Single-value norms
    of Euclidean paths stream the blocks from the path values; a caller with
    a dense weight matrix, or a stack of them, passes
    ``[dense_columns(weight, lo, hi)]``.  Returns a float when ``batch`` is
    empty, otherwise the array of suprema of shape ``batch``.
    """
    if hi <= lo:
        return np.zeros(batch) if batch else 0.0
    best = np.zeros((*batch, hi - lo + 1))
    c = 1
    for block in columns:
        for r in range(block.shape[-2]):
            best[..., c] = np.maximum.reduce(best[..., :c] + block[..., r, :c], axis=-1)
            c += 1
    return best[..., -1] if batch else float(best[-1])


def dp_power_table(weight: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Partition suprema for every subinterval: B[i, j] = sup over partitions of [i, j].

    B[i, j] = max_{i <= k < j} ( B[i, k] + weight[k, j] ), filled in push
    form: the cells i < j of the window start at -inf, and each finished
    column k pushes its candidates B[i, k] + weight[k, j] for all rows
    i <= k and columns j > k at once, one NumPy ``maximum`` per column.
    ``weight`` may carry leading batch axes, ``(*batch, N, N)``; each
    column's push then serves every matrix of the stack, and B has the
    same shape.  No candidate with k < i is ever formed, so no mask is
    needed and an infinite weight gives inf, as in the recursion.  Every
    candidate is the same single addition and max is exact, so the table
    equals the per-cell recursion bit for bit, batched or not.  The pushes
    read about (hi-lo)^3/6 cells per matrix; scratch memory is one buffer of
    at most (hi-lo+1)^2/4 floats per matrix.
    """
    b = np.zeros_like(weight)
    n = hi - lo + 1
    if n <= 1:
        return b
    batch = weight.shape[:-2]
    size = math.prod(batch)
    t = b[..., lo : hi + 1, lo : hi + 1]
    w = weight[..., lo : hi + 1, lo : hi + 1]
    t[(..., *np.triu_indices(n, 1))] = -np.inf
    buf = np.empty(size * (n // 2 + 1) * ((n + 1) // 2 + 1))
    for k in range(n - 1):
        cand = buf[: size * (k + 1) * (n - k - 1)].reshape(*batch, k + 1, n - k - 1)
        np.add(t[..., : k + 1, k, None], w[..., k, None, k + 1 :], out=cand)
        np.maximum(t[..., : k + 1, k + 1 :], cand, out=t[..., : k + 1, k + 1 :])
    return b


def _onevar_power_table(dist: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # For q = 1 the finest partition is optimal (triangle inequality, which
    # both path metrics satisfy), so the table is prefix sums of the steps.
    steps = np.concatenate([[0.0], np.cumsum(np.diagonal(dist, 1)[lo:hi])])
    b = np.zeros_like(dist)
    b[lo : hi + 1, lo : hi + 1] = np.maximum(steps[None, :] - steps[:, None], 0.0)
    return b


def _dt_upper(times: np.ndarray) -> np.ndarray:
    dt = times[None, :] - times[:, None]
    return np.where(dt > 0, dt, np.inf)  # inf keeps unused cells harmless


def _riesz_weight(block, times, lo, j0, delta, p, k=1):
    # weights d^(p/k) / (v-u)^(delta*p-1) of a column block; k > 1 for
    # level-k distances.  Cells with i >= j, never read by a DP, get a unit gap.
    return block ** (p / k) * _gaps(times, lo, j0, block, 1.0) ** (1.0 - delta * p)


def qvar_power_table(path, q, lo, hi) -> np.ndarray:
    """Table of q-variation powers ||f||_{q-var;[i,j]}^q over [lo, hi]."""
    times, dist = _path_data(path)
    if q == 1.0:
        return _onevar_power_table(dist, lo, hi)
    return dp_power_table(dist**q, lo, hi)


def _check_nested(lo, hi, max_nested):
    if hi - lo > max_nested:
        raise ParameterError(
            f"interval table over {hi - lo} grid intervals exceeds max_nested="
            f"{max_nested}; the table build is O(M^3), pass a larger "
            "max_nested explicitly to accept the cost"
        )


def _require_uniform(path):
    if not path.grid.is_uniform:
        raise NonUniformGridError(
            "this norm is defined on uniform grids; resample_uniform the path first"
        )


# ---------------------------------------------------------------------------
# the seven families
# ---------------------------------------------------------------------------

def holder_norm(path, delta: float, interval=None) -> float:
    """Hoelder seminorm sup_{u<v} d(f_u, f_v) / (v-u)^delta over grid pairs."""
    _check_delta(delta)
    _check_path(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    best = 0.0
    for j0, block in _columns(path, lo, hi):
        best = max(best, float(np.max(block / _gaps(times, lo, j0, block, np.inf) ** delta)))
    return best


def qvar_norm(path, q: float, interval=None) -> float:
    """q-variation ( sup_P sum d(f_u, f_v)^q )^(1/q), exact over grid partitions."""
    q = _check_q(q)
    _check_path(path)
    lo, hi = path.grid.resolve_interval(interval)
    if q == 1.0:  # the finest partition is optimal (triangle inequality)
        return float(np.sum(_shift_distances(path, 1, lo, hi)))
    s = _scale(_distance_bound(path, lo, hi), q)
    powers = ((block / s) ** q for _, block in _columns(path, lo, hi))
    return dp_partition_sup(powers, lo, hi) ** (1.0 / q) * s


def riesz_norm(path, delta: float, p, interval=None) -> float:
    """Riesz variation ( sup_P sum d^p / (v-u)^(delta*p-1) )^(1/p); p = P_INF is Hoelder."""
    _check_delta(delta)
    p = _check_riesz_p(delta, p)
    if p is P_INF:
        return holder_norm(path, delta, interval)
    _check_path(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    bound = _distance_bound(path, lo, hi)
    s = _scale(bound, p)
    if hi == lo or _riesz_unfused_fits(path, lo, hi, delta, p, bound, s):
        weights = (_riesz_weight(block / s, times, lo, j0, delta, p)
                   for j0, block in _columns(path, lo, hi))
    else:
        s, weights = _fused_weights(path, lo, hi, p, 1.0 - delta * p)
    return dp_partition_sup(weights, lo, hi) ** (1.0 / p) * s


def mixed_norm(path, delta: float, p, interval=None) -> float:
    """Mixed Hoelder-variation norm; equal to ``riesz_norm`` on every grid."""
    return riesz_norm(path, delta, p, interval)


def nikolskii_norm(path, delta: float, p, interval=None) -> float:
    """Nikolskii seminorm sup_h h^(-delta) ( int_s^{t-h} d(f_u, f_{u+h})^p du )^(1/p).

    Shifts h are integer multiples of the uniform mesh; the integral is a
    left Riemann sum over grid points in [s, t-h).  For p = P_INF the inner
    integral becomes a maximum.  Each shift reads one diagonal d(f_r, f_(r+m)).
    """
    _check_delta(delta)
    p = _check_nikolskii_p(p)
    _require_uniform(path)
    _check_path(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    span = hi - lo
    if span == 0:
        return 0.0
    dt = (times[hi] - times[lo]) / span
    best = 0.0
    if p is P_INF:
        for m in range(1, span + 1):
            seg = _shift_distances(path, m, lo, hi)
            best = max(best, (m * dt) ** (-delta) * float(np.max(seg)))
        return best
    with np.errstate(over="ignore"):
        for m in range(1, span + 1):
            # left Riemann sum over r = lo .. hi-m-1 (exclusive right endpoint)
            total = float(np.sum(_shift_distances(path, m, lo, hi - 1) ** p))
            best = max(best, (m * dt) ** (-delta * p) * dt * total)
    # time factors (m*mesh)^(-delta*p) and that times mesh, extreme at m = 1, span
    factors = [-delta * p * math.log2(m * dt) + u for m in (1, span) for u in (0.0, math.log2(dt))]
    if _sum_kept(path, lo, hi - 1, best, span, factors):
        return best ** (1.0 / p)
    # out of range: scale shift m by s_m, the power of two at or above its
    # largest distance; the time factor is constant within a shift, so
    # ( c_m sum d^p )^(1/p) = s_m h^(-delta) ( mesh sum (d/s_m)^p )^(1/p)
    best = 0.0
    for m in range(1, span):
        seg = _shift_distances(path, m, lo, hi - 1)
        if seg.any():
            s = 2.0 ** math.ceil(math.log2(float(seg.max())))
            best = max(best, s * (m * dt) ** (-delta) * (dt * float(np.sum((seg / s) ** p))) ** (1.0 / p))
    return best


def shift_sup_table(dist: np.ndarray, times: np.ndarray, lo: int, hi: int,
                    power: float, hexp: float) -> np.ndarray:
    """Nikolskii-type inner table on a uniform mesh.

    T[i, j] = max over shifts h = m*mesh (1 <= m <= j-i) of
              h^hexp * mesh * sum_{r=i..j-m-1} dist[r, r+m]^power,
    the sum being the left Riemann quadrature of the shifted increment
    integral over [t_i, t_j - h).
    """
    span = hi - lo
    t = np.zeros_like(dist)
    if span == 0:
        return t
    dt = (times[hi] - times[lo]) / span
    for m in range(1, span + 1):
        g = np.diagonal(dist, m) ** power
        s = np.concatenate([[0.0], np.cumsum(g)])
        c = (m * dt) ** hexp * dt
        js = np.arange(lo + m, hi + 1)
        is_ = np.arange(lo, hi - m + 1)
        block = s[js - m][None, :] - s[is_][:, None]
        view = t[lo : hi - m + 1, lo + m : hi + 1]
        np.maximum(view, c * block, out=view)
    return t


def shift_partition_sup(columns, times: np.ndarray, lo: int, hi: int,
                        power: float, hexp: float) -> float:
    """Partition sup of the ``shift_sup_table`` values over [lo, hi], in O(M^2).

    Equals ``dp_partition_sup([dense_columns(shift_sup_table(...), lo, hi)])``
    without the table: with c_m = (m*mesh)^hexp * mesh and S_m[k] the sum of
    d(r, r+m)^power over lo <= r < k, the DP runs
    best[j] = max_m ( c_m S_m[j-m] + R_m ), R_m = max_{i <= j-m} (best[i] - c_m S_m[i]),
    keeping a_m = S_m[j-m] and R_m for every shift m as it goes (see the
    module docstring).  ``columns`` are the distance column blocks of
    ``dp_partition_sup``; column j adds d(j-m, j)^power to a_m after
    best[j] is taken.

    An O(M) check after the sweep raises ``ParameterError`` when the value is
    not finite, or when the powers or coefficients that left the normal float
    range could have lost more than 2^-64 of it; a zero value with zero step
    distances is returned as 0.
    """
    span = hi - lo
    if span <= 0:
        return 0.0
    dt = (times[hi] - times[lo]) / span
    acc, run = np.zeros(span), np.zeros(span)
    best, steps = np.zeros(span + 1), np.zeros(span)
    c = 1
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (np.arange(1, span + 1) * dt) ** hexp * dt
        for block in columns:
            for col in block:
                ca = coef[:c] * acc[:c]
                np.maximum(run[:c], best[c - 1 :: -1] - ca, out=run[:c])
                best[c] = (ca + run[:c]).max()
                acc[:c] += col[c - 1 :: -1] ** power
                steps[c - 1] = col[c - 1]
                c += 1
    value = float(best[-1])
    # underflow loses less than 2^-1022 per power (times c_m) and per product
    # c_m a_m, and less than 2^-1022 a_m through a subnormal c_m; the last
    # column's distances enter no Riemann sum
    tiny = 2.0**-1022
    lost = tiny * span * (float(coef.max()) + 1.0) + tiny * float(acc[coef < tiny].sum())
    if not (math.isfinite(value) and np.isfinite(coef).all()
            and (value >= 2.0**64 * lost or (value == 0.0 and not steps[:-1].any()))):
        raise ParameterError(
            f"the Nikolskii-type partition sum at power {power:g} leaves the float range "
            "(the result would be 0, inf or NaN); rescale the path"
        )
    return value


def refined_nikolskii_norm(path, delta: float, p, interval=None) -> float:
    """Refined Nikolskii norm ( sup_P sum ||f||_{Nikolskii;[u,v]}^p )^(1/p).

    For p = P_INF this is the plain Nikolskii sup itself (the inner norm is
    monotone under interval inclusion, so the full interval dominates).
    Otherwise one ``shift_partition_sup`` sweep over the distance columns,
    O(M^2) time and, on Euclidean paths, O(M) memory.
    """
    _check_delta(delta)
    p = _check_nikolskii_p(p)
    _require_uniform(path)
    if p is P_INF:
        return nikolskii_norm(path, delta, p, interval)
    _check_path(path)
    lo, hi = path.grid.resolve_interval(interval)
    columns = (block for _, block in _columns(path, lo, hi))
    return shift_partition_sup(columns, path.grid.times, lo, hi, p, -delta * p) ** (1.0 / p)


def frac_sobolev_norm(path, delta: float, p: float, interval=None) -> float:
    """Fractional Sobolev (Sobolev-Slobodeckij) seminorm by tensor-grid quadrature.

    ( sum_{i != j} d(f_i, f_j)^p / |t_j - t_i|^(1 + delta*p) * mesh^2 )^(1/p),
    cells closer than one mesh to the diagonal excluded.  The sum over i < j
    is accumulated block by block.
    """
    p = _check_frac_sobolev(delta, p)
    _require_uniform(path)
    _check_path(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    if hi == lo:
        return 0.0
    dt = (times[hi] - times[lo]) / (hi - lo)
    total = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j0, block in _columns(path, lo, hi):
            gap = _gaps(times, lo, j0, block, np.inf)
            d = np.where(gap < np.inf, block, 0.0)  # cells i >= j add 0, never inf/inf
            total += float(np.sum(d**p / gap ** (1.0 + delta * p)))
    span, e = hi - lo, -(1.0 + delta * p)
    if _sum_kept(path, lo, hi, total, span * (span + 1) / 2,
                 [e * math.log2(dt), e * math.log2(span * dt)]):
        return (2.0 * total * dt * dt) ** (1.0 / p)
    # out of range: fold the time factor into the base, as ``riesz_norm`` does
    s, weights = _fused_weights(path, lo, hi, p, e)
    return (2.0 * sum(float(np.sum(w)) for w in weights) * dt * dt) ** (1.0 / p) * s


# ---------------------------------------------------------------------------
# interval tables and the dispatcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IntervalNormTable:
    """Norm of the path restricted to [t_i, t_j] for every grid pair i <= j."""

    kind: NormKind
    delta: float | None
    p: float | PInf | None
    values: np.ndarray


def interval_norm_table(path, kind: NormKind, delta=None, p=None, interval=None,
                        max_nested: int = 512) -> IntervalNormTable:
    """Build the full subinterval table for a pair-sup or partition-sup norm.

    The Riesz, mixed and Nikolskii tables need a finite p.
    """
    times, dist = _path_data(path)
    lo, hi = path.grid.resolve_interval(interval)
    _check_nested(lo, hi, max_nested)
    if kind is NormKind.HOELDER:
        _check_delta(delta)
        # vals[i, j] = max of ratio[a, b] over i <= a < b <= j: running maxima
        # along each row, then up each column
        ratio = dist[lo : hi + 1, lo : hi + 1] / _dt_upper(times[lo : hi + 1]) ** delta
        run = np.maximum.accumulate(ratio, axis=1)
        vals = np.zeros_like(dist)
        vals[lo : hi + 1, lo : hi + 1] = np.maximum.accumulate(run[::-1], axis=0)[::-1]
        return IntervalNormTable(kind, delta, None, vals)
    if kind is NormKind.QVAR:
        q = _check_q(p)
        b = qvar_power_table(path, q, lo, hi)
        return IntervalNormTable(kind, None, q, b ** (1.0 / q))
    if kind in (NormKind.RIESZ, NormKind.MIXED):  # mixed equals Riesz on the grid
        _check_delta(delta)
        p = _finite_p(_check_riesz_p(delta, p), f"the {kind.value} interval table")
        b = dp_power_table(_riesz_weight(dist.T, times, 0, 0, delta, p).T, lo, hi)
        return IntervalNormTable(kind, delta, p, b ** (1.0 / p))
    if kind is NormKind.NIKOLSKII:
        _check_delta(delta)
        p = _finite_p(_check_nikolskii_p(p), "the Nikolskii interval table")
        _require_uniform(path)
        t = shift_sup_table(dist, times, lo, hi, p, -delta * p)
        return IntervalNormTable(kind, delta, p, t ** (1.0 / p))
    raise ParameterError(f"no interval table for kind {kind}")


def compute_norm(path, spec: NormSpec) -> float:
    """Evaluate the norm selected by ``spec`` on ``path``."""
    k = spec.kind
    if k is NormKind.HOELDER:
        return holder_norm(path, spec.delta, spec.interval)
    if k is NormKind.QVAR:
        return qvar_norm(path, spec.p, spec.interval)
    if k in (NormKind.RIESZ, NormKind.MIXED):
        return riesz_norm(path, spec.delta, spec.p, spec.interval)
    if k is NormKind.NIKOLSKII:
        return nikolskii_norm(path, spec.delta, spec.p, spec.interval)
    if k is NormKind.REFINED_NIKOLSKII:
        return refined_nikolskii_norm(path, spec.delta, spec.p, spec.interval)
    if k is NormKind.FRAC_SOBOLEV:
        return frac_sobolev_norm(path, spec.delta, spec.p, spec.interval)
    raise ParameterError(f"unknown norm kind {k}")
