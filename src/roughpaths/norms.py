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

* Hoelder: the maximum of the block maxima, pruned (below).
* q-variation, Riesz (and so mixed): the DP fed block by block, pruned.
* Nikolskii and fractional Sobolev: one list of shift sums S_m, each the
  pairwise sum of d(f_r, f_(r+m))^p over its own diagonal, read in blocks
  of shifts m (``_shift_sums``); Nikolskii takes their largest weighted
  value, fractional Sobolev their weighted sum.
* refined Nikolskii: the fused sweep ``shift_partition_sup`` (below).

These give the values of the dense formulas bit for bit, whatever the
block size.  Every norm here returns one value over one interval, in O(M^2) at
most, with no size cap; tables over all subintervals are left to the
independent references (``oracle.shift_sup_table``, and the nested mixed
definition of ``verify`` with its ``dp_power_table``).
``dp_partition_sup`` takes leading batch axes, column blocks of shape
``(*batch, cols, rows)``, so one Python loop over the columns serves a
stack of same-grid sources, with the values of the per-source calls bit for
bit (elementwise ops and exact maxima).  A batch of one, the batch-free
call ``batch = ()`` among them, advances ``_DP_COLUMNS`` columns at a time:
one NumPy add and max over the rows before them, then their own triangle of
candidates in Python floats.  A larger batch advances one column at a time.

Distances reach the kernels as *sources*, read only through the private
contract of the ``paths`` module docstring.  A kernel takes sources alone:
its gaps, mesh and time factors come from the sources' one grid, so a path
and the level-k differences of a pair are read one way.
``_columns`` yields the column blocks of sources on one grid, stacked on a
leading axis (``_stacked``), and ``_shift_sums`` reads a path's raw
diagonals in blocks of shifts, which it raises and cuts into rows itself,
whatever the kind of path.  Each block is fresh, a writable C-ordered
array of about ``_BLOCK_CELLS`` cells in all (``_width``).  The kernels
raise, multiply and divide the blocks in place, and no kernel can write a
caller's matrix.  They keep the ``**`` / ``**=`` operators on contiguous
arrays, which take NumPy's fast paths for the exponents 2, 0.5 and -1, so
the values do not change.  A block's cells with i >= j, which no DP reads,
are the upper triangle of its trailing rows x rows square, and ``_gaps``
and ``_fill_unread`` write their fill there and nowhere else.

The Hoelder sup and the partition DP skip the cells that cannot win, by
one rule, ``_kept_runs``.  It walks the column blocks of ``_columns``
(``_spans``) in order.  The rows of a column block J fall into the row
blocks of the same width before it, I < J, and its band, the rows from the
column before it on.  The band is always computed, and each row block I
unless the kernel's ``skip`` finds that its bound cannot win, decided when
the kernel asks for block J, so ``skip`` reads the kernel's state after
every earlier block.  A NaN or inf bound compares False, so it keeps its
row block.  A call is bounded only where the column blocks outnumber the
columns of a block and every source has bounds; on fewer column blocks,
most rows lie in a band or next to one, and otherwise no bound is cheaper
than the distances, so every block is computed whole.  ``_bounds`` reads
each source's bounds on the distances of row block I in column block J,
which dominate every distance as computed with no margin, and the kernel
turns them into bounds on its weights.  Only ``np.power`` (SVML, not
correctly rounded) needs a margin there: each bound on a power, of a
distance or of a gap (t_j - t_i as computed, extreme at the shortest or
longest gap of the block), moves out by 2^-40 relative plus 2^-1022
absolute.

* Partition DP: best is nondecreasing in floats (best[j] >= best[j-1] +
  w >= best[j-1] for w >= 0).  If best at the last row of I plus the bound
  on I's weights is strictly below best[j0 - 1] for every member of the
  batch, no candidate best[i] + w[i, j] of row block I can be the max of
  column j >= j0, which some band candidate best[j-1] + w >= best[j0 - 1]
  reaches.  Such a row block is neither computed nor read: the DP gets
  the kept rows only, band last, and gathers best at them once per column
  block, so every max, and every bit of best, is the max over all rows.  A
  NaN in best reaches best[j0 - 1] through the band, and a NaN comparison
  keeps every row block.
* Hoelder: a row block is skipped when its ratio bound, the distance bound
  over the lowered power of the shortest gap, is below the running max.
  The max is exact, so the skipped cells do not change it.

``_sum_kept`` and the folded reruns (below) read every cell.

Every partition power sum, ( sup_P sum D^(p/k) (v-u)^e )^(k/p), has one
kernel, ``_power_sup_family``: q-variation (q = p, e = 0), Riesz
(e = 1 - delta*p) and the level-k q-variation and Riesz distances of
``distances`` (on the level-k differences) differ only in delta, p and the
level k, 1 for a path.  It takes a list of sources on one grid and a list
of members, each a source index with its family's own (delta, p, k),
delta None for q-variation; the kernel forms the power p/k, the gap
exponent and the root k/p itself.  The members share one batched
``dp_partition_sup``, a single member being a batch of one.
``qvar_norm``, ``riesz_norm`` and the level distances are its
single-member case.  The refined Nikolskii sweep ``shift_partition_sup``
takes a list of sources the same way, with one (delta, p, k) for all of
them, and sweeps them all at once; it raises its distances as reversed
1-D arrays, where NumPy applies the C pow whatever the batch.  The verify
checks call both once per same-grid chunk of a family.  Nikolskii shifts h
run over integer multiples of the uniform mesh with a left Riemann sum for
the inner integral; the fractional Sobolev double integral uses the
tensor-grid quadrature with the diagonal band |u-v| < mesh excluded, read
on the same shifts: W^p = 2 mesh^2 sum_m (m mesh)^(-(1 + delta*p)) S_m
with S_m the sum of d(f_r, f_(r+m))^p over the shift's diagonal
(``frac_sobolev_norm``), so its gaps are the exact multiples m mesh.

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

Large powers d^p can leave the float range, and one rule serves every
sum: it is formed as written and kept unless one check after the sum,
``_sum_kept``, the only range check of the module, finds a time factor out
of the normal range, a non-finite sum, or underflow losses that could reach
2^-64 of it.  A zero sum is kept when every distance that enters it is
zero, and the check reads them all (``_columns``): level differences are
not a metric, so zero one-step differences leave the others free.  A sum
that fails is formed again by one rule, ``_refolded``: the kernel reruns
itself, with unit time factors, on its source folded in units u
(``_Folded``), the distances d (g/u)^x / s with g the gap, x the exponent
of the kernel's gap factor over its power and s the largest base, so that
no term exceeds 1; u's own power, the time factor at g = u to the kernel's
root, is applied outside the root as two halves, neither of which leaves
the float range where the value does not.  u = 1 for the partition power
sums (q-variation, Riesz and the level distances, x = e/a), whose gaps are
t_j - t_i as computed, and u = the mesh for the shift kernels (Nikolskii,
refined Nikolskii and Nikolskii-hat, fractional Sobolev), whose gaps in
units of the mesh are the integers m of their shifts: folded before the
mesh's own power, a base of d m^x cannot overflow where the value is
finite.  The refined Nikolskii sweep runs the check per source, with the
extreme coefficients c_1 and c_span as the time factors.

A norm whose true value lies beyond the float range (a distance near 1e150
over a gap near 1e-300, say) has no finite answer.  Every norm function
returns through one exit check, ``_in_range`` (the level distances of
``distances`` too): it runs with NumPy's float warnings off, and an inf or
NaN value raises ``ParameterError``.  A finite value passes unchanged.  The
maxima over blocks and shifts taken in Python keep a NaN (``_max``).

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

Riesz variation with p = infinity is the Hoelder seminorm by definition.
Infinite integrability is the float inf, exported as ``P_INF``: an infinite
p of any real type is mapped onto that one object, so the kernels test
``p is P_INF``.  The (delta, p) range of every family is decided in one
place, ``_check_params``, whose docstring holds the range table.
``NormSpec``, the norm functions and, through ``distances._check_dist``,
the level distances call it at entry; the kernels trust their arguments.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import NonUniformGridError, ParameterError
from .paths import EuclideanPath, GroupPath, _instance, _real


#: Infinite integrability p = infinity: the float inf.
P_INF = math.inf


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
    checks them at construction: an infinite p is stored as ``P_INF``, and
    any other value as given.
    """

    kind: NormKind
    delta: float = 1.0
    p: float = P_INF
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
    Riesz proof).  An infinite p of any real type is returned as ``P_INF``,
    any other p as given.
    """
    if not isinstance(kind, NormKind):
        raise ParameterError(f"unknown norm kind {kind!r}")
    if kind is not NormKind.QVAR:
        d, open_end = _real(delta, "delta"), kind is NormKind.FRAC_SOBOLEV
        if not (0.0 < d < 1.0 or d == 1.0 and not open_end):
            raise ParameterError(f"{kind.value} needs delta in (0, 1{')' if open_end else ']'}, "
                                 f"got {delta!r}")
    if isinstance(p, numbers.Real) and p == P_INF:
        p = P_INF
    if kind is NormKind.HOELDER:
        return p
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

#: Cells (rows x columns x the sources' ``_cells``) of one column block of
#: distances.  It bounds the scratch memory of the kernels whatever the
#: grid size, and is sized for the L2 cache: a kernel holds a few float arrays
#: of a block at once, 256 KB each at 2^15 cells, and a sweep over budgets from
#: 2^12 to 2^20 cells on a 2-vCPU VM was fastest per cell at 2^14 to 2^16
#: (about 20 % faster than 2^18).  A block has at least one column.
_BLOCK_CELLS = 1 << 15

_PATHS = (EuclideanPath, GroupPath)


def _width(srcs, lo, hi, cells) -> int:
    """Columns per block of about ``cells`` cells (rows x columns x ``_cells``)
    of sources on [lo, hi]."""
    return max(1, cells // ((hi - lo + 1) * sum(f._cells for f in srcs)))


def _spans(first, hi, width) -> list[tuple[int, int]]:
    """The column blocks (j0, j1), columns j0..j1-1, of the columns first..hi:
    ``width`` columns each, the last one the rest."""
    return [(j0, min(j0 + width, hi + 1)) for j0 in range(first, hi + 1, width)]


def _stacked(srcs, i0, i1, j0, j1) -> np.ndarray:
    """The ``_block`` of each source on one grid, stacked on a leading axis;
    one source's block gets a length-1 axis without a copy.  A distance does
    not depend on the block it is computed in, so every slice holds the
    values of the source's own block."""
    if len(srcs) == 1:
        return srcs[0]._block(i0, i1, j0, j1)[None]
    return np.stack([f._block(i0, i1, j0, j1) for f in srcs])


def _columns(srcs, lo, hi):
    """Distances d(f_i, f_j) of sources on one grid, columns j = lo+1..hi, in blocks.

    Yields ``(j0, block)`` with ``block[b]`` the ``_block`` of ``srcs[b]`` for
    rows lo..j1-1 and the block's columns j0..j1-1, ``block[b, c, r]`` =
    d(f_(lo+r), f_(j0+c)) (``_stacked``), about ``_BLOCK_CELLS`` cells at a
    time (``_spans``).  A single source's ``block[0]`` is its fresh block
    itself.
    """
    for j0, j1 in _spans(lo + 1, hi, _width(srcs, lo, hi, _BLOCK_CELLS)):
        yield j0, _stacked(srcs, lo, j1, j0, j1)


#: The margin of a bound on a power that ``np.power`` computes, not correctly
#: rounded (SVML): of two powers whose exact values are ordered, the smaller
#: one computed is at most the larger one computed times 1 + 2^-40, plus
#: 2^-1022 for the powers below the normal range.
_POW_REL, _POW_ABS = 2.0**-40, 2.0**-1022


def _raised(power):
    """A computed power, raised in place by the pow margin: at least every
    computed power whose exact value is at most this one's."""
    power *= 1.0 + _POW_REL
    power += _POW_ABS
    return power


def _lowered(power):
    """A computed power, lowered in place by the pow margin: at most every
    computed power whose exact value is at least this one's."""
    power *= 1.0 - _POW_REL
    power -= _POW_ABS
    return power


def _bounds(srcs, lo, hi, width, bound):
    """Bounds of the earlier row blocks of each column block of [lo, hi].

    The column blocks are the ``_spans`` of ``width`` columns, block J the
    columns lo+1+J*width onwards, and row block I the rows lo+I*width to
    lo+(I+1)*width-1; the earlier row blocks of column block J are I < J.
    For J = 0, 1, ... in order this yields ``bound(dist, short, long)``'s
    row of block J, cut to its entries I < J; the arrays are computed for
    about ``_BLOCK_CELLS`` cells of column blocks at a time, row r of each
    the chunk's r-th column block.  Over the cells of row block I in column
    block J, ``dist[b, r, I]`` bounds every distance of ``srcs[b]`` as
    ``_block`` computes it (its ``_span_bounds``), and ``short[r, I]`` and
    ``long[r, I]`` are the shortest and the longest gap t_j - t_i of the
    sources' grid as ``_gaps`` computes it.  Nothing is computed before the
    first block is asked for.
    """
    first = np.arange(lo, hi, width)
    n = len(first)
    readers = [f._span_bounds(lo, hi, width) for f in srcs]
    times = srcs[0].grid.times
    last = np.minimum(first + width, hi)  # the last column of J; minus 1, the last row of I
    chunk = _width(srcs, 1, n, _BLOCK_CELLS)  # column blocks of n cells (x _cells) each
    for c0 in range(0, n, chunk):
        c1 = min(c0 + chunk, n)  # the row blocks I < c1 cover the chunk's earlier ones
        dist = np.stack([read(c0, c1) for read in readers])
        chunk_bound = bound(dist, times[first[c0:c1] + 1, None] - times[last[:c1] - 1],
                            times[last[c0:c1], None] - times[first[:c1]])
        for r in range(c1 - c0):
            yield chunk_bound[..., r, : c0 + r]


def _kept_runs(srcs, lo, hi, width, bound, skip):
    """The column blocks of [lo, hi] and the rows of each that a pruned kernel computes.

    Yields ``(j0, j1, runs)`` for the column blocks of ``_spans`` in order,
    ``runs`` the ordered, disjoint row ranges ``(a, b)``, rows a..b-1, of
    column block k: its band, the rows from lo+k*width to j1-1, always, and
    each earlier row block I < k unless ``skip(bound_k, k)[I]``, with
    ``bound_k`` the bounds of ``_bounds`` under ``bound``.  Adjacent ranges
    are merged, so the last run ends at j1.  Block k is decided when it is
    asked for, so ``skip`` may read the state of a kernel that has consumed
    the blocks before it.

    A call is bounded only when the column blocks outnumber the columns of a
    block and every source has bounds; otherwise every block is
    ``[(lo, j1)]``, whole, and no source's ``_span_bounds`` is called.  On
    fewer column blocks most rows lie in a band or next to one, and the
    bounds' fixed cost, a few dozen NumPy calls a call and a few a column
    block, outweighs the few cells they skip.
    """
    spans = _spans(lo + 1, hi, width)
    if len(spans) <= width or any(f._span_bounds is None for f in srcs):
        for j0, j1 in spans:
            yield j0, j1, [(lo, j1)]
        return
    for k, ((j0, j1), bound_k) in enumerate(zip(spans, _bounds(srcs, lo, hi, width, bound))):
        # the kept row blocks, then the band, between two unkept edges
        keep = np.concatenate(([False], ~skip(bound_k, k), [True, False]))
        ends = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
        runs = [(lo + a * width, lo + b * width) for a, b in zip(ends[::2], ends[1::2])]
        runs[-1] = (runs[-1][0], j1)
        yield j0, j1, runs


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
    # t_j - t_i over the cells of a block of rows lo.. whose first row is
    # column j0 (see ``_block``), batch axes dropped; ``fill`` in the cells with
    # i >= j, which only a block whose rows reach j0 has
    rows, cols = block.shape[-2:]
    gaps = times[j0 : j0 + rows, None] - times[None, lo : lo + cols]
    return _fill_unread(gaps, fill) if lo + cols > j0 else gaps


def _sum_kept(total, count, factors, src, lo, hi) -> bool:
    """Whether a sum of at most ``count`` terms d^p * c, formed as written, is kept.

    ``factors`` are log2 of the extreme time factors c, and the distances d
    are those of the source ``src`` in the columns lo+1..hi.  The sum is kept
    when every factor lies in the normal float range, the sum is finite, and
    the d-powers and terms lost to underflow (less than 2^-1022 times a
    factor, or 2^-1022, each) add up to at most 2^-64 of it; a zero sum is
    kept too when every distance of those columns, i < j, is zero.
    """
    if not (-1022.0 <= min(factors) and max(factors) <= 1022.0 and math.isfinite(total)):
        return False
    if total > 0.0 and math.log2(total) >= max(max(factors), 0.0) - 958.0 + math.log2(count):
        return True
    return total == 0.0 and not any(_fill_unread(block, 0.0).any()
                                    for _, block in _columns([src], lo, hi))


class _Folded:
    """The distances of ``src`` with a time factor folded in: d (g/u)^x / s.

    g/u is the gap of a cell in units u: t_j - t_i as computed for u = 1,
    and for u the mesh of a shift kernel's uniform grid the integer j - i,
    which the definition's gaps (j - i) mesh make exact; the diagonals, read
    by the shift kernels only, have the gap m of their shift.  s is the
    largest base d (g/u)^x over the cells i < j of [lo, last], found in one
    first pass, so no distance exceeds 1 (up to the rounding of a power);
    zero distances give s = 1.  A distance source (the contract of
    ``paths``), with the diagonals of ``src`` if it has them.
    """

    _cells = 1
    _span_bounds = None

    def __init__(self, src, lo, last, x, unit):
        self.grid, self._src, self._x = src.grid, src, x
        self._times = src.grid.times if unit == 1.0 else np.arange(len(src.grid), dtype=float)
        self.scale = 1.0  # the first pass reads the bases themselves
        self.scale = max((float(_fill_unread(block, 0.0).max())
                          for _, block in _columns([self], lo, last)), default=0.0) or 1.0

    def _fold(self, block, gaps):
        # the block's distances times gaps^x, over s, in place
        with np.errstate(all="ignore"):
            gaps **= self._x
            block *= gaps
        block /= self.scale
        return block

    def _block(self, i0, i1, j0, j1):
        block = self._src._block(i0, i1, j0, j1)
        return self._fold(block, _gaps(self._times, i0, j0, block, 1.0))

    def _shift_blocks(self, lo, hi, m0, m1, width):
        for b0, block in zip(range(m0, m1, width), self._src._shift_blocks(lo, hi, m0, m1, width)):
            yield self._fold(block, np.arange(b0, b0 + len(block), dtype=float)[:, None])


def _refolded(rerun, src, lo, last, x, unit=1.0, c=0.0):
    """The value of a kernel whose sum ``_sum_kept`` rejects: the one out-of-range rule.

    ``rerun(folded)`` is the kernel's value, to its root, rerun with unit
    time factors on ``folded = _Folded(src, lo, last, x, unit)``, x the
    exponent of the kernel's gap factor over its power.  The value is
    rerun * s * half * half, half = unit^(c/2) with unit^c the kernel's time
    factor at the gap u, to its root: applied outside the root as two
    halves, neither leaves the float range where the value does not.  A
    folded sum that is itself rejected has no finite value (NaN).
    """
    if isinstance(src, _Folded):
        return math.nan
    folded = _Folded(src, lo, last, x, unit)
    half = float(unit) ** (c / 2.0)
    return rerun(folded) * folded.scale * half * half


#: Columns that ``dp_partition_sup`` advances at once for a batch of one: one
#: NumPy add and max give the candidates of the rows before them, and their
#: own triangle of candidates is finished in Python floats.  On seeded walks
#: at M = 1024-1536 (2-vCPU VM) widths 8 to 16 were fastest.
_DP_COLUMNS = 10


def dp_partition_sup(columns, lo: int, hi: int, batch: tuple = (), best=None):
    """Exact sup over grid partitions of [lo, hi] of the summed block weights.

    ``columns`` yields blocks of shape ``(*batch, cols, n)`` whose rows, in
    order, are the weight columns j = lo+1, ..., hi: the row of column j
    holds the (nonnegative) weight of block [t_i, t_j] at position i - lo,
    for at least every i in [lo, j).  An item may instead be a pair
    ``(rows, block)``, the block of columns j0..j1-1 holding only the rows
    ``rows``, offsets i - lo in increasing order, at its positions: the
    last j1 - j0 of them are the rows j0..j1-1, and row j0 - 1 comes before
    them.  The recursion best[j] = max_i ( best[i] + weight[i, j] ), over
    the rows a block holds, visits every partition into consecutive blocks
    when it holds them all, for every batch index at once.  The kernels
    stream the blocks from their sources; a caller with a dense weight
    matrix, or a stack of them, passes ``[verify.dense_columns(weight, lo,
    hi)]``.  Returns a float when ``batch`` is empty, otherwise the array of
    suprema of shape ``batch``.

    Each block gathers best at its rows once.  A batch of one advances
    ``_DP_COLUMNS`` columns at a time: one add and one ``maximum.reduce``
    give every column's max over the rows before the chunk, and the chunk's
    own triangle follows in Python floats, in row order, with a max that
    keeps NaN; a larger batch advances one column at a time.  Each candidate
    is the one addition best[i] + weight[i, j] and a max is exact, so the
    value does not depend on the blocks, the chunks or the batch.

    ``best``, if given, is a zero array of shape ``(*batch, hi - lo + 1)`` that
    the DP fills in place: a generator of ``columns`` that holds it reads
    best[..., :j0 - lo], final, when it is asked for the block of column j0.
    """
    if hi <= lo:
        return np.zeros(batch) if batch else 0.0
    best = np.zeros((*batch, hi - lo + 1)) if best is None else best
    one = math.prod(batch) == 1
    step = _DP_COLUMNS if one else 1
    flat = best.reshape(hi - lo + 1) if one else best  # a batch of one on 1-D arrays
    c = 1
    for item in columns:
        rows, block = item if isinstance(item, tuple) else (None, item)
        block = block.reshape(block.shape[-2:]) if one else block
        cols = block.shape[-2]
        got = flat[..., : c + cols] if rows is None else flat[..., rows]
        first = got.shape[-1] - cols  # the rows before the block's own columns
        for a in range(0, cols, step):
            end = first + a
            if step == 1:
                got[..., end] = np.maximum.reduce(got[..., :end] + block[..., a, :end], axis=-1)
                continue
            # a batch of one: the chunk's columns over the rows before it, then
            # its own triangle in Python floats, in row order
            cand = np.maximum.reduce(got[:end] + block[a : a + step, :end], axis=-1).tolist()
            for x, row in enumerate(block[a + 1 : a + step, end : end + step - 1].tolist(), 1):
                v = cand[x]
                for y in range(x):
                    w = cand[y] + row[y]
                    v = w if w > v or w != w else v  # NaN kept, as ``_max``
                cand[x] = v
            got[end : end + len(cand)] = cand
        flat[..., c : c + cols] = got[..., first:]
        c += cols
    return best[..., -1] if batch else float(best[-1])


def _power_sup_family(srcs, lo, hi, members) -> list[float]:
    """( sup_P sum D_b(u, v)^(p/k) (v-u)^e )^(k/p) over [lo, hi] per member (b, delta, p, k).

    The one kernel of every partition power sum, each member a source index
    b with its family's own parameters: e = 1 - delta*p, or e = 0 for
    ``delta`` None, q-variation with q = p.  k = 1 gives ``qvar_norm`` and
    ``riesz_norm`` of a path; on the level-k differences of a pair, k the
    level, the level distances of ``distances``.  The kernel forms each
    member's power a = p/k, gap exponent e and root r = k/p itself.
    ``srcs`` are distance sources on one grid (see the module docstring),
    D_b the distances of ``srcs[b]``, read through ``_stacked`` in the
    column blocks of ``_spans``, and the gaps v - u those of the grid of
    ``srcs[0]``.

    The members' weights are formed as written and share one
    ``dp_partition_sup`` of batch ``(len(members),)``, whose slices equal
    the per-member DPs bit for bit; a single member raises its slice of the
    fresh block in place, several raise copies.  A row block that no
    member's bound lets win in a column block is neither computed nor passed
    to the DP, which gets that block's kept rows, band last (the pruning rule
    of the module docstring).  A member's
    sum is kept when ``_sum_kept`` keeps it, with the time factor g^e
    extreme at the shortest step and at t_hi - t_lo; otherwise that member
    alone reruns as the member (0, None, p, k) of its source folded with
    x = e/a and u = 1 (``_refolded``).  Cells with i >= j, never read by a
    DP, get a unit gap.
    """
    if hi <= lo:
        return [0.0] * len(members)
    # each member as (b, a, e, r)
    terms = [(b, p / k, 0.0 if delta is None else 1.0 - delta * p, k / p)
             for b, delta, p, k in members]
    exponents = list(dict.fromkeys(e for _, _, e, _ in terms if e))

    def weights(j0, i0, block):
        # the weights of a stacked block of rows i0.. and columns j0..
        if len(terms) == 1:  # the fresh block's own slice, raised in place
            b, a = terms[0][:2]
            w = block[b : b + 1]
            w **= a
        else:
            w = np.empty((len(terms), *block.shape[-2:]))
            for row, (b, a, _, _) in zip(w, terms):
                np.copyto(row, block[b])
                row **= a
        if exponents:
            gap = _gaps(srcs[0].grid.times, i0, j0, block, 1.0)
            factors = {e: gap**e for e in exponents[1:]}
            gap **= exponents[0]  # the gaps' last use: raised in place
            factors[exponents[0]] = gap
            for row, (_, _, e, _) in zip(w, terms):
                if e:
                    row *= factors[e]
        return w

    def weight_bounds(dist, short, long):
        # D^a g^e of a member: the powers of the largest distance and of the
        # gap where g^e is largest, each raised by the pow margin
        out = np.empty((len(terms), *short.shape))
        for row, (b, a, e, _) in zip(out, terms):
            _raised(np.power(dist[b], a, out=row))
            if e:
                row *= _raised((short if e < 0 else long) ** e)
        return out

    width = _width(srcs, lo, hi, _BLOCK_CELLS)
    best = np.zeros((len(terms), hi - lo + 1))

    def skip(bound, k):
        # row block I < k cannot win when, for every member, best at its last
        # row plus its bound is below best[j0 - 1]
        return (best[:, width - 1 : k * width : width] + bound
                < best[:, k * width, None]).all(axis=0)

    def columns():
        for j0, j1, runs in _kept_runs(srcs, lo, hi, width, weight_bounds, skip):
            if runs[0] == (lo, j1):
                yield weights(j0, lo, _stacked(srcs, lo, j1, j0, j1))
                continue
            yield (np.concatenate([np.arange(a - lo, b - lo) for a, b in runs]),
                   np.concatenate([weights(j0, a, _stacked(srcs, a, b, j0, j1))
                                   for a, b in runs], axis=-1))

    with np.errstate(all="ignore"):
        totals = dp_partition_sup(columns(), lo, hi, (len(terms),), best)
    shortest = float(np.diff(srcs[0].grid.times[lo : hi + 1]).min())
    span = float(srcs[0].grid.times[hi] - srcs[0].grid.times[lo])
    values = []
    for (b, _, p, k), (_, a, e, root), total in zip(members, terms, totals):
        total = float(total)
        if _sum_kept(total, hi - lo, [e * math.log2(shortest), e * math.log2(span)],
                     srcs[b], lo, hi):
            values.append(total**root)
        else:
            member = [(0, None, p, k)]  # the time factor folded into the base
            values.append(_refolded(lambda f: _power_sup_family([f], lo, hi, member)[0],
                                    srcs[b], lo, hi, e / a))
    return values


def _require_uniform(path):
    if not path.grid.is_uniform:
        raise NonUniformGridError(
            "this norm is defined on uniform grids; resample_uniform the path first"
        )


# ---------------------------------------------------------------------------
# the seven families
# ---------------------------------------------------------------------------

def _in_range(norm):
    """``norm`` with the one exit check of the norm and distance functions.

    The function runs with NumPy's float warnings off, and a value beyond
    the float range, inf or NaN (a distance over a gap can exceed it where
    no scale helps), raises ``ParameterError``; a finite value is returned
    as computed, bit for bit.
    """
    @functools.wraps(norm)
    def checked(*args, **kwargs):
        with np.errstate(all="ignore"):
            value = norm(*args, **kwargs)
        if not math.isfinite(value):
            raise ParameterError(f"{norm.__name__} leaves the float range on this input")
        return value

    return checked


def _max(best: float, value: float) -> float:
    """max(best, value), NaN once either is NaN, so that the exit check sees
    it: Python's ``max`` keeps a first argument that a NaN does not exceed."""
    return value if value > best or value != value else best


@_in_range
def holder_norm(path, delta: float, interval=None) -> float:
    """Hoelder seminorm sup_{u<v} d(f_u, f_v) / (v-u)^delta over grid pairs.

    The column blocks (``_spans``) are taken in order, each the runs of
    ``_kept_runs``: its band, the rows from j0 - 1 on, and every earlier row
    block whose ratio bound is not below the running max (the pruning rule
    of the module docstring).  The max is exact, so the skipped cells do not
    change the value.
    """
    _check_params(NormKind.HOELDER, delta, None)
    _instance(path, _PATHS, "path")
    times = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    width = _width([path], lo, hi, _BLOCK_CELLS)

    def ratio_bounds(dist, short, long):
        # d / g^delta: the largest distance over the shortest gap's power,
        # lowered by the pow margin; inf or NaN where that is not positive
        return dist[0] / np.maximum(_lowered(short**delta), 0.0)

    def ratio_max(j0, j1, a, b):
        block = path._block(a, b, j0, j1)
        w = _gaps(times, a, j0, block, np.inf)
        w **= delta
        np.divide(block, w, out=w)
        return float(np.max(w))

    best = 0.0
    for j0, j1, runs in _kept_runs([path], lo, hi, width, ratio_bounds,
                                   lambda bound, k: bound < best):
        for a, b in runs:
            best = _max(best, ratio_max(j0, j1, a, b))
    return best


@_in_range
def qvar_norm(path, q: float, interval=None) -> float:
    """q-variation ( sup_P sum d(f_u, f_v)^q )^(1/q), exact over grid partitions."""
    q = _check_params(NormKind.QVAR, None, q)
    _instance(path, _PATHS, "path")
    lo, hi = path.grid.resolve_interval(interval)
    if q == 1.0:  # the finest partition is optimal (triangle inequality)
        return float(np.sum(path.shift_distances(1, lo, hi)))
    return _power_sup_family([path], lo, hi, [(0, None, q, 1)])[0]


@_in_range
def riesz_norm(path, delta: float, p, interval=None) -> float:
    """Riesz variation ( sup_P sum d^p / (v-u)^(delta*p-1) )^(1/p); p = P_INF is Hoelder."""
    p = _check_params(NormKind.RIESZ, delta, p)
    if p is P_INF:
        return holder_norm(path, delta, interval)
    _instance(path, _PATHS, "path")
    lo, hi = path.grid.resolve_interval(interval)
    return _power_sup_family([path], lo, hi, [(0, delta, p, 1)])[0]


def mixed_norm(path, delta: float, p, interval=None) -> float:
    """Mixed Hoelder-variation norm; equal to ``riesz_norm`` on every grid."""
    return riesz_norm(path, delta, p, interval)


def _shift_sums(path, lo, last, span, p) -> list[float]:
    """S_m = sum_{r=lo..last-m} d(f_r, f_(r+m))^p for the shifts m = 1..span.

    The diagonals come from the path's ``_shift_blocks`` in blocks of about
    ``_BLOCK_CELLS`` cells, each raised at once and cut into its shifts'
    contiguous rows, so each S_m is the pairwise sum of its own raised
    diagonal, whatever the block; at p = P_INF it is the diagonal's maximum.
    Nikolskii reads them with last = hi - 1 (last = hi at P_INF), fractional
    Sobolev with last = hi.
    """
    width = _width([path], lo, last, _BLOCK_CELLS)
    blocks = path._shift_blocks(lo, last, 1, span + 1, width)
    reduce = np.max if p is P_INF else np.add.reduce
    sums = []
    for m0, block in zip(range(1, span + 1, width), blocks):
        if p is not P_INF:
            block **= p
        sums.extend(float(reduce(row[: last + 1 - lo - m])) for m, row in enumerate(block, m0))
    return sums


@_in_range
def nikolskii_norm(path, delta: float, p, interval=None) -> float:
    """Nikolskii seminorm sup_h h^(-delta) ( int_s^{t-h} d(f_u, f_{u+h})^p du )^(1/p).

    Shifts h are integer multiples of the uniform mesh; the integral is a
    left Riemann sum over grid points in [s, t-h).  For p = P_INF the inner
    integral becomes a maximum.  The value is the largest of the shift sums
    S_m (``_shift_sums``) times their time factors.  A sum out of the float
    range reruns on the shift sums of the folded path (``_refolded``).
    """
    p = _check_params(NormKind.NIKOLSKII, delta, p)
    _instance(path, _PATHS, "path")
    _require_uniform(path)
    lo, hi = path.grid.resolve_interval(interval)
    span = hi - lo
    if span == 0:
        return 0.0
    dt = (path.grid.times[hi] - path.grid.times[lo]) / span
    # the left Riemann sum leaves the last column out
    last = hi if p is P_INF else hi - 1
    # shift m's time factor: (m mesh)^(-delta) on a max, (m mesh)^(-delta*p) mesh on a sum
    expo, unit = (-delta, 1.0) if p is P_INF else (-delta * p, dt)
    sums = _shift_sums(path, lo, last, span, p)
    best = functools.reduce(_max, ((m * dt) ** expo * unit * s for m, s in enumerate(sums, 1)), 0.0)
    if p is P_INF:
        return float(best)
    # time factors (m*mesh)^(-delta*p) and that times mesh, extreme at m = 1, span
    factors = [-delta * p * math.log2(m * dt) + u for m in (1, span) for u in (0.0, math.log2(dt))]
    # the last column's distances enter no left Riemann sum
    if _sum_kept(best, span, factors, path, lo, hi - 1):
        return float(best ** (1.0 / p))

    def rerun(folded):  # the largest shift sum, (m mesh)^(-delta*p) mesh folded in
        return functools.reduce(_max, _shift_sums(folded, lo, last, span, p), 0.0) ** (1.0 / p)

    return _refolded(rerun, path, lo, last, -delta, dt, (1.0 - delta * p) / p)


def shift_partition_sup(srcs, lo: int, hi: int, delta: float, p: float, k: int = 1) -> list[float]:
    """Partition sup of the ``oracle.shift_sup_table`` values over [lo, hi], in O(M^2).

    Returns, for each distance source of ``srcs`` (on one uniform grid, the
    mesh that of ``srcs[0]``, see the module docstring), the refined
    Nikolskii value of regularity ``delta`` and integrability ``p``: with
    power = p/k and hexp = -delta*p, the value of
    ``dp_partition_sup([verify.dense_columns(oracle.shift_sup_table(...), lo, hi)]) ** (k/p)``
    without the table.  k = 1 gives ``refined_nikolskii_norm`` of a path;
    on the level-k differences of a pair, k the level, the Nikolskii-hat
    distance of ``distances``.  With c_m = (m*mesh)^hexp * mesh and S_m[n]
    the sum of d(r, r+m)^power over lo <= r < n, the DP runs
    best[j] = max_m ( c_m S_m[j-m] + R_m ), R_m = max_{i <= j-m} (best[i] - c_m S_m[i]),
    keeping a_m = S_m[j-m] and R_m for every shift m as it goes (see the
    module docstring); column j adds d(j-m, j)^power to a_m after best[j] is
    taken.  The sources are swept at once on the stacked blocks of
    ``_columns``, batch ``(len(srcs),)``.  The ops are elementwise or
    exact maxima, so every value equals the call on its source alone bit
    for bit.

    Each source's sum is kept when ``_sum_kept`` keeps it, with the extreme
    coefficients c_1 and c_span as its time factors and the columns
    lo+1..hi-1 as its distances (the last column enters no sum); otherwise
    that source alone is swept again, with unit coefficients, on its folded
    columns (``_refolded``).
    """
    span = hi - lo
    if span <= 0:
        return [0.0] * len(srcs)
    power, hexp, root = p / k, -delta * p, k / p
    dt = (srcs[0].grid.times[hi] - srcs[0].grid.times[lo]) / span
    shifts = np.arange(1, span + 1) * dt
    # log2 c_m for m = 1 and span, from the logs: c_m itself may overflow
    factors = [hexp * math.log2(h) + math.log2(dt) for h in (shifts[0], shifts[-1])]
    with np.errstate(over="ignore", invalid="ignore"):
        best = _shift_sweep(_columns(srcs, lo, hi), shifts**hexp * dt, power,
                            (len(srcs),))
        return [value**root if _sum_kept(value, span, factors, src, lo, hi - 1)
                else _refolded(lambda f: float(_shift_sweep(_columns([f], lo, hi), np.ones(span),
                                                            power, ())) ** root,
                               src, lo, hi - 1, hexp / power, dt, (hexp + 1.0) * root)
                for src, value in zip(srcs, best.tolist())]


def _shift_sweep(blocks, coef, power, batch):
    """The sweep of ``shift_partition_sup`` with coefficients ``coef`` (c_m):
    the partition sums best[hi], of shape ``batch``, formed as written."""
    span = coef.size
    acc, run = np.zeros((*batch, span)), np.zeros((*batch, span))
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
            c += 1
    return best[..., -1]


@_in_range
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
    return shift_partition_sup([path], lo, hi, delta, p)[0]


@_in_range
def frac_sobolev_norm(path, delta: float, p: float, interval=None) -> float:
    """Fractional Sobolev (Sobolev-Slobodeckij) seminorm as a sum over shifts.

    On the uniform grid of [s, t], mesh (t - s) / span with span = hi - lo,
    the tensor-grid quadrature of the double integral with the cells closer
    than one mesh to the diagonal excluded, each pair at gap h = m mesh:

        ( 2 mesh^2 sum_{m=1..span} (m mesh)^(-(1 + delta*p)) S_m )^(1/p),
        S_m = sum_{r=lo..hi-m} d(f_r, f_(r+m))^p.

    Each S_m is the pairwise sum of its own diagonal (``_shift_sums``, shared
    with Nikolskii), so no value depends on ``_BLOCK_CELLS``; each factor
    (m mesh)^(-(1 + delta*p)) is one scalar power, and the terms are added
    pairwise over m: they fall with m, and a sum left to right would carry
    the rounding of every large term into the small ones.
    """
    p = _check_params(NormKind.FRAC_SOBOLEV, delta, p)
    _instance(path, _PATHS, "path")
    _require_uniform(path)
    lo, hi = path.grid.resolve_interval(interval)
    span = hi - lo
    if span == 0:
        return 0.0
    dt = (path.grid.times[hi] - path.grid.times[lo]) / span
    e = -(1.0 + delta * p)
    sums = _shift_sums(path, lo, hi, span, p)
    total = float(np.add.reduce([(m * dt) ** e * s for m, s in enumerate(sums, 1)]))
    if _sum_kept(total, span * (span + 1) / 2, [e * math.log2(dt), e * math.log2(span * dt)],
                 path, lo, hi):
        return float((2.0 * total * dt * dt) ** (1.0 / p))

    def rerun(folded):  # the shift sums, (m mesh)^e mesh^2 folded in, added pairwise
        return (2.0 * float(np.add.reduce(_shift_sums(folded, lo, hi, span, p)))) ** (1.0 / p)

    return _refolded(rerun, path, lo, hi, e / p, dt, (2.0 + e) / p)


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
