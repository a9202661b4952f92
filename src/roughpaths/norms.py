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
on both path types: their distances come from the path, about
``_BLOCK_CELLS`` cells at a time, so no (M+1)^2 matrix is built and memory
is O(M).  The budget, 2^15 cells, keeps the few float arrays a kernel holds
per block in the L2 cache (256 KB each).

* Hoelder: the maximum of the block maxima.
* q-variation, Riesz (and so mixed): the DP fed block by block.
* Nikolskii: one diagonal d(f_r, f_(r+m)) per shift m.
* fractional Sobolev: a sum accumulated over summation blocks of
  ``_SUM_CELLS`` cells, each gathered from ``_BLOCK_CELLS`` pieces.
* refined Nikolskii: the fused sweep ``shift_partition_sup`` (below).

These give the values of the dense formulas bit for bit, whatever the
block size, except fractional Sobolev, whose blockwise sum may move the
last ulp: ``np.sum`` adds pairwise, so the grouping is part of the value,
and the summation blocks keep one size whatever ``_BLOCK_CELLS`` is.
Group paths compute their blocks from their increments (``paths``).
Every norm here returns one value over one interval, in O(M^2) at
most, with no size cap; tables over all subintervals are left to the
independent references (``oracle.shift_sup_table``, the nested mixed
definition of ``verify``).
The one table kept here is ``dp_power_table``, the q-variation powers over
all subintervals, which the verify control function and that reference
need: an O(M^3) DP in push form (one NumPy max per finished column), whose
values are bit-identical to the per-cell recursion.  Both DPs take leading
batch axes: ``dp_power_table`` weights of shape ``(*batch, N, N)``, and
``dp_partition_sup`` column blocks of shape ``(*batch, rows, cols)``, so one
Python loop over the columns serves a stack of same-grid matrices, with the
values of the per-matrix calls bit for bit (elementwise ops and exact
maxima).  The batch-free calls are the case ``batch = ()``.

Distances reach the kernels as *sources*: a Euclidean path, a group path,
or a dense distance matrix such as ``distances.level_diff_matrix``.  Two
functions read them, and only they: ``_columns`` yields the column blocks
of one source, and ``_family_columns`` stacks the blocks of several sources
on one grid on a leading axis.  One rule serves every source: each block
is fresh, a writable C-ordered array of about ``_BLOCK_CELLS`` cells (a
group path or a dense matrix counts as dim 1), computed by a path's
``distance_block`` or copied from a dense matrix.  The kernels
raise, multiply and divide the blocks in place, and no kernel can write a
caller's matrix.  They keep the ``**`` / ``**=`` operators on contiguous
arrays, which take NumPy's fast paths for the exponents 2, 0.5 and -1, so
the values do not change.  A block's cells with i >= j, which no DP reads,
are the upper triangle of its trailing rows x rows square, and ``_gaps``
and ``_fill_unread`` write their fill there and nowhere else.

Every partition power sum, ( sup_P sum D^a (v-u)^e )^(1/a), has one
kernel, ``_power_sup_family``: q-variation (a = q, e = 0), Riesz (a = p,
e = 1 - delta*p) and the level-k q-variation and Riesz distances of
``distances`` (a = p/k on the level-k differences) differ only in a and e.
It takes a list of sources on one grid and a list of members, each a
source index with its (a, e) and the root, 1/a up to rounding (k/p for the
level distances); the members share one batched ``dp_partition_sup``, a
single member being a batch of one.  ``qvar_norm``, ``riesz_norm`` and the
level distances are its single-member case.  The refined Nikolskii sweep
``shift_partition_sup`` takes a list of sources the same way and sweeps
them all at once; it raises its distances as reversed 1-D arrays, where
NumPy applies the C pow whatever the batch.  The verify checks call both
once per same-grid chunk of a family.  Nikolskii shifts h run over integer
multiples of the uniform mesh with a left Riemann sum for the inner
integral; the fractional Sobolev double integral uses the tensor-grid
quadrature with the diagonal band |u-v| < mesh excluded.

Refined Nikolskii (and, level by level, the Nikolskii-hat distance of
``distances``) is a partition sup of inner Nikolskii values.  On a uniform
mesh dt let c_m = (m dt)^(-delta*p) dt and S_m[k] = sum_{lo <= r < k}
d(f_r, f_(r+m))^p.  The inner value of a block [i, j] is
T[i, j] = max_{1 <= m <= j-i} c_m (S_m[j-m] - S_m[i]) (``oracle.shift_sup_table``;
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

Large powers d^p can leave the float range, and one policy serves every
sum: it is formed as written and kept unless an O(M) check after the sum
(``_sum_kept``) finds a time factor out of the normal range, a non-finite
sum, or underflow losses that could reach 2^-64 of it; a zero sum is kept
when every distance is zero.  A partition power sum that fails takes the
fused weights (``_fused_weights``): the time factor is folded into the
base, (d g^(e/a) / s)^a with g the block length and s the largest base, so
the largest term is exactly 1 and the root times s is the finite value
rather than 0, inf or NaN.  q-variation has no time factor and so divides
by the largest distance.  Nikolskii and fractional Sobolev sums run the
same check; Nikolskii then divides each shift by its largest distance (its
time factor is constant within the shift), and fractional Sobolev takes
the fused weights in units of the mesh, where every gap is at least 1,
with mesh^(1 - delta*p) applied outside the root.  The refined Nikolskii
sweep runs the same kind of check per slice; a slice that fails is swept
again with the per-shift time factor folded into the base,
(d (m mesh)^(hexp/power) / B)^power with B the largest base.

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
  ``_check_params`` admits delta*p down to 1 - 1e-12; there
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

Riesz variation with p = infinity is the Hoelder seminorm by definition;
infinite integrability is the sentinel ``P_INF``, and a float inf p is
mapped to it.  The (delta, p) range of every family is decided in one
place, ``_check_params``, whose docstring holds the range table.
``NormSpec``, the norm functions and, through ``distances._check_dist``,
the level distances call it at entry; the kernels trust their arguments.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniformGridError, ParameterError
from .paths import EuclideanPath, GroupPath, _instance, _real


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
    Hoelder ignores p.  ``_check_params``, the range table of the families,
    checks them at construction: a float inf p is stored as ``P_INF``, and
    any other value as given.
    """

    kind: NormKind
    delta: float = 1.0
    p: float | PInf = P_INF
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _check_params(self.kind, self.delta, self.p))


def _check_params(kind, delta, p):
    """The exponent p of family ``kind`` after checking (delta, p) against its range.

    =====================  ============  ==============  ==========
    family                 delta         p               p = inf
    =====================  ============  ==============  ==========
    Hoelder                (0, 1]        not read
    q-variation (q = p)    not read      q >= 1          no
    Riesz, mixed           (0, 1]        p >= 1/delta    yes
    Nikolskii, refined     (0, 1]        p >= 1          yes
    fractional Sobolev     (0, 1)        p >= 1          no
    =====================  ============  ==============  ==========

    A parameter that is read must be a real number, not a boolean, string,
    None or NaN.  p >= 1/delta means delta * p >= 1 - 1e-12 (see the mixed =
    Riesz proof).  A float inf p is returned as ``P_INF``, any other p as given.
    """
    if not isinstance(kind, NormKind):
        raise ParameterError(f"unknown norm kind {kind!r}")
    if kind is not NormKind.QVAR:
        d, open_end = _real(delta, "delta"), kind is NormKind.FRAC_SOBOLEV
        if not (0.0 < d < 1.0 or d == 1.0 and not open_end):
            raise ParameterError(f"{kind.value} needs delta in (0, 1{')' if open_end else ']'}, "
                                 f"got {delta!r}")
    if kind is NormKind.HOELDER:
        return p
    if isinstance(p, numbers.Real) and p == math.inf:
        p = P_INF
    if p is P_INF:
        if kind in (NormKind.QVAR, NormKind.FRAC_SOBOLEV):
            raise ParameterError(f"{kind.value} needs a finite p")
        return p
    name = "q" if kind is NormKind.QVAR else "p"
    if kind in (NormKind.RIESZ, NormKind.MIXED):
        if _real(p, name) * delta < 1.0 - 1e-12:
            raise ParameterError(f"Riesz-type norms need p >= 1/delta (got p={p!r}, "
                                 f"1/delta={1 / delta:.6g})")
    elif _real(p, name) < 1.0:
        raise ParameterError(f"{kind.value} needs {name} >= 1, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: Cells (rows x columns x dim, dim 1 for a dense source) of one column block
#: of distances.  It bounds the scratch memory of the kernels whatever the
#: grid size, and is sized for the L2 cache: a kernel holds a few float arrays
#: of a block at once, 256 KB each at 2^15 cells, and a sweep over budgets from
#: 2^12 to 2^20 cells on a 2-vCPU VM was fastest per cell at 2^14 to 2^16
#: (about 20 % faster than 2^18).  A block has at least one column.
_BLOCK_CELLS = 1 << 15

#: Cells of one summation block of fractional Sobolev.  ``np.sum`` adds a
#: block's terms pairwise, so the grouping of the sum, and with it the last
#: bits of the value, depends on the block size: the terms are computed in
#: ``_BLOCK_CELLS`` pieces and gathered into summation blocks of this size.
_SUM_CELLS = 1 << 18

_PATHS = (EuclideanPath, GroupPath)


def dense_columns(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns lo+1..hi of a dense matrix, rows [lo, hi], as one column block.

    Row c of the result is column lo+1+c, ``matrix[..., lo:hi+1, lo+1+c]``;
    leading batch axes of a stack of matrices are kept.
    """
    return np.swapaxes(matrix[..., lo : hi + 1, lo + 1 : hi + 1], -1, -2)


def _dense(src) -> np.ndarray:
    """The dense (M+1, M+1) distance matrix of a source, for the references:
    computed afresh for a Euclidean path, which caches none, cached for a group path."""
    if isinstance(src, EuclideanPath):
        return src.distance_block(0, 0, len(src.grid))
    if isinstance(src, GroupPath):
        return src.distance_matrix
    return src


def _width(srcs, lo, hi, cells) -> int:
    """Columns per block of about ``cells`` cells (rows x columns x dim) of
    sources on [lo, hi]; a source that is not a Euclidean path counts as dim 1."""
    dims = sum(f.dim if isinstance(f, EuclideanPath) else 1 for f in srcs)
    return max(1, cells // ((hi - lo + 1) * dims))


def _columns(src, lo, hi, width=None, first=None):
    """Distances d(f_i, f_j) of a source's columns j = first..hi, in blocks.

    Yields ``(j0, block)`` with ``block[c, r]`` = d(f_(lo+r), f_(j0+c)) for
    rows lo..j1-1 of the block's columns j0..j1-1, the columns starting at
    ``first``, by default lo+1, ``width`` columns (by default about
    ``_BLOCK_CELLS`` cells) at a time.  Every block is a fresh, writable,
    C-ordered array that the caller may overwrite: a path computes it
    (``distance_block``), so no (M+1)^2 matrix is built, and a dense matrix
    is copied from.
    """
    first = first or lo + 1
    width = width or _width([src], lo, hi, _BLOCK_CELLS)
    for j0 in range(first, hi + 1, width):
        j1 = min(j0 + width, hi + 1)
        yield j0, (src.distance_block(lo, j0, j1) if isinstance(src, _PATHS)
                   else np.array(src[lo:j1, j0:j1].T, order="C"))


def _family_columns(srcs, lo, hi):
    """The ``_columns`` blocks of sources on one grid, stacked on a leading axis.

    Yields ``(j0, block)`` with ``block[b]`` the block of ``srcs[b]``, about
    ``_BLOCK_CELLS`` cells in all; one source's blocks get a length-1 axis
    without a copy.  A distance does not depend on the block it is computed
    in, so every slice holds the values of the source's own ``_columns``.
    """
    if len(srcs) == 1:
        for j0, block in _columns(srcs[0], lo, hi):
            yield j0, block[None]
        return
    width = _width(srcs, lo, hi, _BLOCK_CELLS)
    for parts in zip(*(_columns(f, lo, hi, width) for f in srcs)):
        yield parts[0][0], np.stack([block for _, block in parts])


def _fill_unread(a, fill):
    """Set the cells with i >= j of a column block ``a`` to ``fill``, in place.

    Row c of a block whose first row is column j0 holds the rows i = lo,
    lo+1, ... of column j0+c, and a block has j0 - lo + rows positions, so the
    cells with i >= j are the upper triangle, diagonal included, of its
    trailing rows x rows square; only that square is written.
    """
    rows = a.shape[-2]
    r = np.arange(rows)
    np.copyto(a[..., a.shape[-1] - rows :], fill, where=r[:, None] <= r)
    return a


def _gaps(times, lo, j0, block, fill) -> np.ndarray:
    # t_j - t_i over the cells of a column block whose first row is column
    # j0 (see ``_columns``), batch axes dropped; ``fill`` in the cells with i >= j
    rows, cols = block.shape[-2:]
    return _fill_unread(times[j0 : j0 + rows, None] - times[None, lo : lo + cols], fill)


def _sum_kept(total, count, factors, flat) -> bool:
    """Whether a sum of at most ``count`` terms d^p * c, formed as written, is kept.

    ``factors`` are log2 of the extreme time factors c.  The sum is kept
    when every factor lies in the normal float range, the sum is finite, and
    the d-powers and terms lost to underflow (less than 2^-1022 times a
    factor, or 2^-1022, each) add up to at most 2^-64 of it; a zero sum is
    kept too when ``flat()`` finds every distance zero.
    """
    if not (-1022.0 <= min(factors) and max(factors) <= 1022.0 and math.isfinite(total)):
        return False
    if total > 0.0 and math.log2(total) >= max(max(factors), 0.0) - 958.0 + math.log2(count):
        return True
    return total == 0.0 and flat()


def _fused_weights(src, times, lo, hi, p, e, unit=1.0):
    """The terms (d/s)^p * g^e of a source over [lo, hi], time factor folded into the base.

    Returns s and the column blocks of (d g^(e/p) / s)^p, laid out as by
    ``_columns``, s the largest base (a first pass over the blocks), so the
    largest term is exactly 1; unread cells get weight 0.  Zero distances
    give s = 1 and zero weights.  The block lengths g are measured in
    multiples of ``unit``: (t_j - t_i) / unit.
    """
    def bases(j0, block):
        base = _gaps(times, lo, j0, block, unit)
        with np.errstate(invalid="ignore"):
            base /= unit
            base **= e / p
            base *= block
        return _fill_unread(base, 0.0)

    def weights(s):
        for j0, block in _columns(src, lo, hi):
            w = bases(j0, block)
            w /= s
            w **= p
            yield w

    s = max(float(bases(j0, block).max()) for j0, block in _columns(src, lo, hi)) or 1.0
    return s, weights(s)


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


def _power_sup_family(srcs, times, lo, hi, members) -> list[float]:
    """( sup_P sum D_b(u, v)^a (v-u)^e )^r over [lo, hi], one value per member (b, a, e, r).

    The one kernel of every partition power sum, r = 1/a up to rounding:
    q-variation (a = q, e = 0, r = 1/q), Riesz (a = p, e = 1 - delta*p,
    r = 1/p) and the level-k distances of ``distances`` (D_b the level-k
    difference, a = p/k, r = k/p).  ``srcs`` are distance sources on one
    grid (see the module docstring), D_b the distances of ``srcs[b]``, read
    through ``_family_columns``.

    The members' weights are formed as written and share one
    ``dp_partition_sup`` of batch ``(len(members),)``, whose slices equal
    the per-member DPs bit for bit; a single member raises its slice of the
    fresh block in place, several raise copies.  A member's sum is kept when
    ``_sum_kept`` keeps it, with the time factor g^e extreme at the shortest
    step and at t_hi - t_lo; otherwise that member alone takes the fused
    weights of its source.  Cells with i >= j, never read by a DP, get a
    unit gap.
    """
    if hi <= lo:
        return [0.0] * len(members)
    exponents = list(dict.fromkeys(e for _, _, e, _ in members if e))

    def weights(j0, block):
        if len(members) == 1:  # the fresh block's own slice, raised in place
            b, a = members[0][:2]
            w = block[b : b + 1]
            w **= a
        else:
            w = np.empty((len(members), *block.shape[-2:]))
            for row, (b, a, _, _) in zip(w, members):
                np.copyto(row, block[b])
                row **= a
        if exponents:
            gap = _gaps(times, lo, j0, block, 1.0)
            factors = {e: gap**e for e in exponents[1:]}
            gap **= exponents[0]  # the gaps' last use: raised in place
            factors[exponents[0]] = gap
            for row, (_, _, e, _) in zip(w, members):
                if e:
                    row *= factors[e]
        return w

    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _family_columns(srcs, lo, hi)
        totals = dp_partition_sup((weights(j0, block) for j0, block in blocks), lo, hi,
                                  (len(members),))
    shortest = float(np.diff(times[lo : hi + 1]).min())
    span = float(times[hi] - times[lo])
    values = []
    for (b, a, e, root), total in zip(members, totals):
        total = float(total)
        if _sum_kept(total, hi - lo, [e * math.log2(shortest), e * math.log2(span)],
                     lambda: not any(block.any() for _, block in _columns(srcs[b], lo, hi))):
            values.append(total**root)
        else:
            s, fused = _fused_weights(srcs[b], times, lo, hi, a, e)
            values.append(dp_partition_sup(fused, lo, hi) ** root * s)
    return values


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
    _check_params(NormKind.HOELDER, delta, None)
    _instance(path, _PATHS, "path")
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    best = 0.0
    for j0, block in _columns(path, lo, hi):
        w = _gaps(times, lo, j0, block, np.inf)
        w **= delta
        np.divide(block, w, out=w)
        best = max(best, float(np.max(w)))
    return best


def qvar_norm(path, q: float, interval=None) -> float:
    """q-variation ( sup_P sum d(f_u, f_v)^q )^(1/q), exact over grid partitions."""
    q = _check_params(NormKind.QVAR, None, q)
    _instance(path, _PATHS, "path")
    lo, hi = path.grid.resolve_interval(interval)
    if q == 1.0:  # the finest partition is optimal (triangle inequality)
        return float(np.sum(path.shift_distances(1, lo, hi)))
    return _power_sup_family([path], path.grid.times, lo, hi, [(0, q, 0.0, 1.0 / q)])[0]


def riesz_norm(path, delta: float, p, interval=None) -> float:
    """Riesz variation ( sup_P sum d^p / (v-u)^(delta*p-1) )^(1/p); p = P_INF is Hoelder."""
    p = _check_params(NormKind.RIESZ, delta, p)
    if p is P_INF:
        return holder_norm(path, delta, interval)
    _instance(path, _PATHS, "path")
    lo, hi = path.grid.resolve_interval(interval)
    return _power_sup_family([path], path.grid.times, lo, hi,
                             [(0, p, 1.0 - delta * p, 1.0 / p)])[0]


def mixed_norm(path, delta: float, p, interval=None) -> float:
    """Mixed Hoelder-variation norm; equal to ``riesz_norm`` on every grid."""
    return riesz_norm(path, delta, p, interval)


def nikolskii_norm(path, delta: float, p, interval=None) -> float:
    """Nikolskii seminorm sup_h h^(-delta) ( int_s^{t-h} d(f_u, f_{u+h})^p du )^(1/p).

    Shifts h are integer multiples of the uniform mesh; the integral is a
    left Riemann sum over grid points in [s, t-h).  For p = P_INF the inner
    integral becomes a maximum.  Each shift reads one diagonal d(f_r, f_(r+m)).
    """
    p = _check_params(NormKind.NIKOLSKII, delta, p)
    _instance(path, _PATHS, "path")
    _require_uniform(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    span = hi - lo
    if span == 0:
        return 0.0
    dt = (times[hi] - times[lo]) / span
    best = 0.0
    if p is P_INF:
        for m in range(1, span + 1):
            seg = path.shift_distances(m, lo, hi)
            best = max(best, (m * dt) ** (-delta) * float(np.max(seg)))
        return float(best)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, span + 1):
            # left Riemann sum over r = lo .. hi-m-1 (exclusive right endpoint)
            seg = path.shift_distances(m, lo, hi - 1)
            seg **= p
            total = float(seg.sum())
            best = max(best, (m * dt) ** (-delta * p) * dt * total)
    # time factors (m*mesh)^(-delta*p) and that times mesh, extreme at m = 1, span
    factors = [-delta * p * math.log2(m * dt) + u for m in (1, span) for u in (0.0, math.log2(dt))]
    if _sum_kept(best, span, factors, lambda: not path.shift_distances(1, lo, hi - 1).any()):
        return float(best ** (1.0 / p))
    # out of range: scale shift m by s_m, its largest distance (so its largest
    # power is exactly 1); the time factor is constant within a shift, so
    # ( c_m sum d^p )^(1/p) = s_m h^(-delta) ( mesh sum (d/s_m)^p )^(1/p)
    best = 0.0
    for m in range(1, span):
        seg = path.shift_distances(m, lo, hi - 1)
        if seg.any():
            s = float(seg.max())
            best = max(best, s * (m * dt) ** (-delta) * (dt * float(np.sum((seg / s) ** p))) ** (1.0 / p))
    return float(best)


def shift_partition_sup(srcs, times: np.ndarray, lo: int, hi: int,
                        power: float, hexp: float, root: float) -> list[float]:
    """Partition sup of the ``oracle.shift_sup_table`` values over [lo, hi], in O(M^2).

    Returns, for each distance source of ``srcs`` (paths or dense matrices
    on one uniform grid, see the module docstring), the sup to the power
    ``root`` (1/power up to rounding), the value of
    ``dp_partition_sup([dense_columns(oracle.shift_sup_table(...), lo, hi)]) ** root``
    without the table: with c_m = (m*mesh)^hexp * mesh and S_m[k] the sum of
    d(r, r+m)^power over lo <= r < k, the DP runs
    best[j] = max_m ( c_m S_m[j-m] + R_m ), R_m = max_{i <= j-m} (best[i] - c_m S_m[i]),
    keeping a_m = S_m[j-m] and R_m for every shift m as it goes (see the
    module docstring); column j adds d(j-m, j)^power to a_m after best[j] is
    taken.  The sources are swept at once on the stacked blocks of
    ``_family_columns``, batch ``(len(srcs),)``.  The ops are elementwise or
    exact maxima, so every value equals the call on its source alone bit
    for bit.

    An O(M) check after the sweep finds, per source, a value that is not
    finite, or powers and coefficients outside the normal float range that
    could have lost more than 2^-64 of it; a zero value with zero step
    distances passes.  A source that fails is swept again on its own with
    the time factor folded into the base (``_fused_shift_sup``).
    """
    span = hi - lo
    if span <= 0:
        return [0.0] * len(srcs)
    dt = (times[hi] - times[lo]) / span
    shifts = np.arange(1, span + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        best, kept = _shift_sweep(_family_columns(srcs, lo, hi), shifts**hexp * dt, power,
                                  (len(srcs),))
        return [float(value) ** root if ok else
                _fused_shift_sup(src, lo, hi, shifts, power, hexp, root)
                for src, value, ok in zip(srcs, best, kept)]


def _shift_sweep(blocks, coef, power, batch):
    """The sweep of ``shift_partition_sup`` with coefficients ``coef`` (c_m).

    Returns the partition sums best[hi] (shape ``batch``) and whether each
    passes the range check.
    """
    span = coef.size
    acc, run, steps = (np.zeros((*batch, span)) for _ in range(3))
    best = np.zeros((*batch, span + 1))
    flip = (slice(None, None, -1),) * len(batch)
    c = 1
    for _, block in blocks:
        for r in range(block.shape[-2]):
            ca = coef[:c] * acc[..., :c]
            np.maximum(run[..., :c], best[..., c - 1 :: -1] - ca, out=run[..., :c])
            best[..., c] = (ca + run[..., :c]).max(axis=-1)
            # d(j-m, j)^power for m = 1..c, raised as one reversed 1-D array:
            # NumPy applies the C pow there, while on positive strides it may
            # take a SIMD pow that differs in the last ulp, so a batch would
            # not match its slices
            rev = np.ascontiguousarray(block[..., r, :c]).reshape(-1)[::-1] ** power
            acc[..., :c] += rev.reshape(*batch, c)[flip]
            steps[..., c - 1] = block[..., r, c - 1]
            c += 1
    value = best[..., -1]
    # underflow loses less than 2^-1022 per power (times c_m) and per product
    # c_m a_m, and less than 2^-1022 a_m through a subnormal c_m; the last
    # column's distances enter no Riemann sum
    tiny = 2.0**-1022
    lost = tiny * span * (coef.max() + 1.0) + tiny * acc[..., coef < tiny].sum(axis=-1)
    flat = (value == 0.0) & ~steps[..., :-1].any(axis=-1)
    kept = np.isfinite(value) & np.isfinite(coef).all() & ((value >= 2.0**64 * lost) | flat)
    return value, kept


def _fused_shift_sup(src, lo, hi, shifts, power, hexp, root) -> float:
    """The value of ``shift_partition_sup`` for one source, time factor folded into the base.

    c_m d^power = mesh (d (m mesh)^(hexp/power))^power, so the sweep runs on
    the bases divided by B, the largest base of a cell that enters a sum (a
    first pass over the columns; the last column enters none), with every
    coefficient the mesh; the largest term is then exactly mesh and the
    value is B sup^root.  Zero distances give B = 1 and 0.
    """
    factor = shifts ** (hexp / power)

    def bases():
        for j0, d in _columns(src, lo, hi):
            j = j0 + np.arange(d.shape[-2])[:, None]
            m = j - lo - np.arange(d.shape[-1])
            live = (m >= 1) & (j < hi)
            yield j0, np.where(live, d * factor[np.clip(m, 1, None) - 1], 0.0)

    s = max(float(base.max()) for _, base in bases()) or 1.0
    mesh = shifts[0]
    best, _ = _shift_sweep(((j0, base / s) for j0, base in bases()),
                           np.full(shifts.size, mesh), power, ())
    return s * float(best) ** root


def refined_nikolskii_norm(path, delta: float, p, interval=None) -> float:
    """Refined Nikolskii norm ( sup_P sum ||f||_{Nikolskii;[u,v]}^p )^(1/p).

    For p = P_INF this is the plain Nikolskii sup itself (the inner norm is
    monotone under interval inclusion, so the full interval dominates).
    Otherwise one ``shift_partition_sup`` sweep over the distance columns,
    O(M^2) time and, on Euclidean paths, O(M) memory.
    """
    p = _check_params(NormKind.REFINED_NIKOLSKII, delta, p)
    if p is P_INF:
        return nikolskii_norm(path, delta, p, interval)
    _instance(path, _PATHS, "path")
    _require_uniform(path)
    lo, hi = path.grid.resolve_interval(interval)
    return shift_partition_sup([path], path.grid.times, lo, hi, p, -delta * p, 1.0 / p)[0]


def frac_sobolev_norm(path, delta: float, p: float, interval=None) -> float:
    """Fractional Sobolev (Sobolev-Slobodeckij) seminorm by tensor-grid quadrature.

    ( sum_{i != j} d(f_i, f_j)^p / |t_j - t_i|^(1 + delta*p) * mesh^2 )^(1/p),
    cells closer than one mesh to the diagonal excluded.  The sum over i < j
    is accumulated over summation blocks of about ``_SUM_CELLS`` cells, each
    filled from ``_BLOCK_CELLS`` pieces of terms computed on their own, so
    a sum that the range check keeps does not depend on ``_BLOCK_CELLS``.
    """
    p = _check_params(NormKind.FRAC_SOBOLEV, delta, p)
    _instance(path, _PATHS, "path")
    _require_uniform(path)
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    if hi == lo:
        return 0.0
    dt = (times[hi] - times[lo]) / (hi - lo)
    span, e = hi - lo, -(1.0 + delta * p)

    def terms(j0, block):
        # d^p / gap^(1 + delta p) in a fresh C-ordered array; cells i >= j
        # add 0, never inf/inf
        gap = _gaps(times, lo, j0, block, np.inf)
        gap **= -e
        d = _fill_unread(block, 0.0)
        d **= p
        d /= gap
        return d

    width, piece = (_width([path], lo, hi, cells) for cells in (_SUM_CELLS, _BLOCK_CELLS))
    buf = np.empty(min(width, span) * (span + 1))
    total = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j0 in range(lo + 1, hi + 1, width):
            j1 = min(j0 + width, hi + 1)
            chunk = buf[: (j1 - j0) * (j1 - lo)].reshape(j1 - j0, j1 - lo)
            for c0, d in _columns(path, lo, j1 - 1, piece, j0):
                rows = slice(c0 - j0, c0 - j0 + d.shape[0])
                chunk[rows, : d.shape[1]] = terms(c0, d)
                chunk[rows, d.shape[1] :] = 0.0
            total += float(np.sum(chunk))
    if _sum_kept(total, span * (span + 1) / 2, [e * math.log2(dt), e * math.log2(span * dt)],
                 lambda: not path.shift_distances(1, lo, hi).any()):
        return float((2.0 * total * dt * dt) ** (1.0 / p))
    # out of range: in units of the mesh every gap is at least 1, so the bases
    # d g^(e/p) of the fused weights (as ``riesz_norm`` takes them) are at most
    # d; mesh^(2+e) = mesh^(1 - delta*p) is applied outside the root, as two
    # halves of its p-th root, neither of which leaves the float range
    s, weights = _fused_weights(path, times, lo, hi, p, e, dt)
    half = float(dt) ** ((2.0 + e) / (2.0 * p))
    return (2.0 * sum(float(np.sum(w)) for w in weights)) ** (1.0 / p) * s * half * half


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

def compute_norm(path, spec: NormSpec) -> float:
    """Evaluate the norm selected by ``spec`` on ``path``."""
    k = _instance(spec, NormSpec, "norm spec").kind
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
    return frac_sobolev_norm(path, spec.delta, spec.p, spec.interval)
