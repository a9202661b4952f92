"""Truncated tensor algebra and the step-N free nilpotent group.

An element of the depth-N truncated tensor algebra over R^n is a tuple of
dense coefficient blocks, one block per tensor level k = 0..N; block k holds
the n^k coefficients in lexicographic (C-order) multi-index order.  Group
elements are the subtype with level-0 entry equal to 1 and model truncated
signatures of bounded-variation paths.

The homogeneous norm used throughout is the symmetric max-over-levels
surrogate

    |g|  =  max_k  max( |pi_k(g)|, |pi_k(g^{-1})| )^(1/k)

with the Euclidean norm on each level.  It is exactly 1-homogeneous under
dilation and equivalent to the Carnot-Caratheodory norm up to ball-box
constants; ``oracle.cc_norm_bruteforce`` gives an independent depth-2 CC
value for calibrating that equivalence.

It is subadditive, |gh| <= |g| + |h|, so d(g, h) = |g^{-1} h| is a true
metric.  The Euclidean norm is multiplicative on tensor products and
|pi_i(g)| <= |g|^i, hence

    |pi_k(gh)| <= sum_{i=0..k} |pi_i(g)| |pi_{k-i}(h)|
               <= sum_i |g|^i |h|^(k-i) <= (|g| + |h|)^k.

The same bound holds for (gh)^{-1} = h^{-1} g^{-1}, as |g^{-1}| = |g| by the
symmetric definition.  The q = 1 variation of a path is therefore the sum
of its grid steps.  A group path (``paths.GroupPath``) measures d(X_i, X_j),
i < j, by the forward norm max_k |pi_k(X_i^{-1} X_j)|^(1/k), which equals
this one on group-like elements.  The bound above holds for the forward
norm as it stands (it uses |pi_i(g)| <= |g|^i only), so the sum of grid
steps is that norm's q = 1 variation too.

Batched kernels.  ``stacked_mul`` and ``stacked_inverse`` work on stacked
levels: one ``(*batch, n^k)`` array per level k, the last axis holding the
C-order flattened level k of one element.  Leading batch axes broadcast
(axes of 1 against axes of N), so a path's rows times a single element is an
``(N, n^k)`` by ``(1, n^k)`` call.  They are the only implementation of the
product and the inverse: ``tensor_mul``, ``group_mul`` and ``group_inverse``
are their one-element calls, so one element and a stacked path get the same
floating-point operations in the same order, and batched results equal
per-element ones bit for bit.

Every module checks its arguments at entry with the helpers here: ``_real``,
``_count`` (a whole float counts), ``_float_array``, ``_instance`` and
``_shape``, through which every dim and depth goes, ``lift``'s included.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, ParameterError

#: Hard construction-time cap on the truncation depth.  The dense multiply
#: costs O(n^(2N)) and nothing in the library needs more than level 4.
MAX_DEPTH = 4

#: Cap on the entries of one tensor level (``_shape``) and on the points of
#: ``TimeGrid.uniform``, checked before anything is allocated: 2^27 entries
#: are 1 GiB of float64.
MAX_ENTRIES = 1 << 27


def _real(value, name: str) -> float:
    """``value`` as a finite float; booleans, strings, None, NaN and infinities raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _count(value, name: str, low: int) -> int:
    """``value`` as an int in ``low``..``sys.maxsize``; a whole float counts,
    other floats, strings and booleans raise."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value))
    if isinstance(value, bool) or not whole or not low <= value <= sys.maxsize:
        raise ParameterError(f"{name} must be an integer in {low}..{sys.maxsize}, got {value!r}")
    return int(value)


def _float_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    """``value`` as a fresh float array, with ``ndim`` axes if given; strings
    and ragged input raise."""
    try:
        a = np.array(value, dtype=float, copy=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{what} must be a numeric array: {exc}") from None
    if ndim is not None and a.ndim != ndim:
        raise ParameterError(f"{what} must be a {ndim}-D array, got shape {a.shape}")
    return a


def _instance(value, cls, what: str):
    """``value`` if it is an instance of ``cls`` (a class or a tuple of them)."""
    if not isinstance(value, cls):
        raise ParameterError(f"unsupported {what} type {type(value).__name__}")
    return value


def _entries(count: int, what: str) -> int:
    """``count`` if it is within ``MAX_ENTRIES``."""
    if count > MAX_ENTRIES:
        raise ParameterError(f"{what} would hold {count} entries, more than {MAX_ENTRIES}")
    return count


def _shape(dim, depth) -> tuple[int, int]:
    """``(dim, depth)`` as ints, dim >= 1, depth in 1..MAX_DEPTH and at most
    ``MAX_ENTRIES`` entries at the top level."""
    depth = _count(depth, "depth", 1)
    if depth > MAX_DEPTH:
        raise ParameterError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    dim = _count(dim, "dim", 1)
    _entries(dim**depth, "a tensor level")
    return dim, depth


def _frozen_level(block, dim: int, k: int) -> np.ndarray:
    arr = _float_array(block, f"level {k}")
    if arr.size != dim**k:
        raise ParameterError(f"level {k} needs {dim**k} entries, got {arr.size}")
    arr = arr.reshape((dim,) * k)
    if not np.isfinite(arr).all():  # ndarray.all, not np.all: runs for every level of every element
        raise ParameterError(f"level {k} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Element of the level-N truncated tensor algebra T^N(R^n).

    ``levels[k]`` is a read-only array of shape ``(dim,) * k`` (a 0-d array
    at level 0).  Instances are immutable and safe to share across threads.
    """

    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        dim, depth = _shape(self.dim, self.depth)
        levels = _instance(self.levels, (tuple, list), "levels")
        if len(levels) != depth + 1:
            raise ParameterError(f"expected {depth + 1} level blocks, got {len(levels)}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "levels",
                           tuple(_frozen_level(block, dim, k) for k, block in enumerate(levels)))

    def level(self, k: int) -> np.ndarray:
        """Projection pi_k onto tensor level k."""
        return self.levels[k]

    @property
    def scalar(self) -> float:
        return float(self.levels[0])

    def __repr__(self):
        return f"TruncatedTensor(dim={self.dim}, depth={self.depth})"


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Element of the step-N free nilpotent group: level-0 entry exactly 1."""

    tensor: TruncatedTensor

    def __post_init__(self):
        if _instance(self.tensor, TruncatedTensor, "tensor").scalar != 1.0:
            raise ParameterError(
                f"group elements need level-0 entry exactly 1, got {self.tensor.scalar!r}"
            )

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def depth(self) -> int:
        return self.tensor.depth

    def level(self, k: int) -> np.ndarray:
        return self.tensor.levels[k]

    def __repr__(self):
        return f"GroupElement(dim={self.dim}, depth={self.depth})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_tensor(dim: int, depth: int) -> TruncatedTensor:
    dim, depth = _shape(dim, depth)
    return TruncatedTensor(dim, depth, tuple(np.zeros((dim,) * k) for k in range(depth + 1)))


def unit_tensor(dim: int, depth: int) -> TruncatedTensor:
    dim, depth = _shape(dim, depth)
    levels = [np.ones(())] + [np.zeros((dim,) * k) for k in range(1, depth + 1)]
    return TruncatedTensor(dim, depth, tuple(levels))


def identity_element(dim: int, depth: int) -> GroupElement:
    return GroupElement(unit_tensor(dim, depth))


def segment_exp(delta, depth: int) -> GroupElement:
    """Signature of one linear segment with increment ``delta``: pi_k = delta^(x)k / k!."""
    delta = _float_array(delta, "the increment").reshape(-1)
    dim, depth = _shape(delta.size, depth)
    levels = [np.ones(())]
    with np.errstate(over="ignore", invalid="ignore"):  # ``TruncatedTensor`` rejects overflow
        for k in range(1, depth + 1):
            levels.append(np.multiply.outer(levels[-1], delta) / k)
    return GroupElement(TruncatedTensor(dim, depth, tuple(levels)))


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------

def _check_compatible(a, b, cls):
    _instance(a, cls, "operand")
    _instance(b, cls, "operand")
    if a.dim != b.dim or a.depth != b.depth:
        raise DimensionMismatchError(
            f"incompatible operands: dim/depth ({a.dim},{a.depth}) vs ({b.dim},{b.depth})"
        )


def stacked_mul(a, b) -> list[np.ndarray]:
    """Element-wise truncated tensor product of stacked levels.

    ``a[k]`` and ``b[k]`` have shape ``(*batch, n^k)`` with the same number
    of axes; their batch axes broadcast against each other.  Level k of the
    result, C-contiguous of shape ``(*batch, n^k)``, is
    0 + sum_{i=0..k} a_i x b_{k-i}, added in that order, each outer product
    flattened in C order.  The products run on contiguous copies with all
    axes reversed, level axis first, so the first batch axis (the longest,
    in the callers' layout) is the inner loop rather than the n^k entries.
    """
    ta = [np.ascontiguousarray(x.T)[:, None] for x in a]
    tb = [np.ascontiguousarray(x.T)[None] for x in b]
    batch = np.broadcast_shapes(a[0].shape[:-1], b[0].shape[:-1])[::-1]
    out = []
    for k in range(len(a)):
        acc = 0.0  # the first += makes a new array, 0.0 + term; the rest add in place
        for i in range(k + 1):
            acc += (ta[i] * tb[k - i]).reshape(a[k].shape[-1], *batch)
        out.append(np.ascontiguousarray(acc.T))
    return out


def stacked_inverse(levels) -> list[np.ndarray]:
    """Element-wise group inverse of stacked levels via the finite Neumann series.

    With u = 1 - g (no level-0 part, hence nilpotent in the truncated
    algebra), g^{-1} = sum_{k=0..N} u^(x)k exactly; level 0 of the input is
    not read and level 0 of the result is 1.
    """
    scalar = levels[1].shape[:-1] + (1,)
    unit = [np.ones(scalar)] + [np.zeros_like(lv) for lv in levels[1:]]
    u = [np.zeros(scalar)] + [-lv for lv in levels[1:]]
    acc, power = unit, unit
    for _ in range(len(levels) - 1):
        power = stacked_mul(power, u)
        acc = [x + y for x, y in zip(acc, power)]
    return [np.ones(scalar)] + acc[1:]


def _rows(t: TruncatedTensor) -> list[np.ndarray]:
    return [lv.reshape(1, -1) for lv in t.levels]


def _from_row(dim: int, depth: int, levels) -> TruncatedTensor:
    return TruncatedTensor(dim, depth, tuple(lv[0] for lv in levels))


def tensor_mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product: pi_k(a x b) = sum_{i+j=k} pi_i(a) x pi_j(b)."""
    _check_compatible(a, b, TruncatedTensor)
    return _from_row(a.dim, a.depth, stacked_mul(_rows(a), _rows(b)))


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    _check_compatible(g, h, GroupElement)
    return GroupElement(tensor_mul(g.tensor, h.tensor))


def group_inverse(g: GroupElement) -> GroupElement:
    """Group inverse via the finite Neumann series (``stacked_inverse``)."""
    _instance(g, GroupElement, "group element")
    return GroupElement(_from_row(g.dim, g.depth, stacked_inverse(_rows(g.tensor))))


def dilate(g: GroupElement, lam: float) -> GroupElement:
    """Dilation: pi_k -> lam^k * pi_k; a level that overflows raises ``ParameterError``."""
    lam = np.float64(_real(lam, "the dilation factor"))
    _instance(g, GroupElement, "group element")
    with np.errstate(over="ignore", invalid="ignore"):
        levels = [np.ones(())] + [lam**k * g.level(k) for k in range(1, g.depth + 1)]
    return GroupElement(TruncatedTensor(g.dim, g.depth, tuple(levels)))


# ---------------------------------------------------------------------------
# homogeneous norm and distance
# ---------------------------------------------------------------------------

def level_norms(g: GroupElement) -> np.ndarray:
    """Euclidean norms |pi_k(g)| for k = 1..N."""
    return np.array(
        [np.linalg.norm(g.level(k).ravel()) for k in range(1, g.depth + 1)]
    )


def homogeneous_norm(g: GroupElement) -> float:
    """Symmetric homogeneous norm max_k max(|pi_k(g)|, |pi_k(g^-1)|)^(1/k)."""
    _instance(g, GroupElement, "group element")
    fwd = level_norms(g)
    bwd = level_norms(group_inverse(g))
    ks = np.arange(1, g.depth + 1)
    return float(np.max(np.maximum(fwd, bwd) ** (1.0 / ks)))


def group_distance(g: GroupElement, h: GroupElement) -> float:
    """Left-invariant homogeneous distance |g^{-1} x h|."""
    _check_compatible(g, h, GroupElement)
    return homogeneous_norm(group_mul(group_inverse(g), h))


def grouplike_defect(g: GroupElement) -> float:
    """Relative defect of the depth-2 group-like identity sym(pi_2) = pi_1 x pi_1 / 2.

    Returns 0 for depth-1 elements.  Useful as a cheap sanity check that an
    element is a plausible signature; products of segment exponentials
    satisfy it to machine precision.
    """
    if _instance(g, GroupElement, "group element").depth < 2:
        return 0.0
    l1, l2 = g.level(1), g.level(2)
    sym = 0.5 * (l2 + l2.T)
    target = 0.5 * np.multiply.outer(l1, l1)
    scale = np.linalg.norm(l2) + np.linalg.norm(target) + 1e-300
    return float(np.linalg.norm(sym - target) / scale)
