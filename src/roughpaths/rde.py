"""Controlled/rough differential equation solvers.

Two schemes for dY = V(Y) dX with V = (V_1, ..., V_n):

* ``solve_bv``     left-point Riemann-Stieltjes Euler for vector-valued
                   drivers of finite 1-variation, with optional substepping
                   along the linear interpolant (order 1 on smooth drivers).
* ``solve_rough``  step-N Euler for group-valued drivers: each step adds

                   sum_{k<=N} sum_{words (i_1..i_k)}
                        (V_{i_1} ... V_{i_k} Id)(Y_j) * pi_k(X_{t_j,t_{j+1}})^{(i_1..i_k)}

                   where V_i acts as the first-order operator
                   sum_a V_i^a(y) d/dy_a.  Depth is capped at 3, which needs
                   vector field derivatives up to order 2 only.

The scheme is decided by the driver type: an ``RdeConfig`` names one, and
each solver checks its arguments once, in ``_check_solve``, so a config of
the other scheme, or a driver of the wrong type, depth or dimension, raises.
``ito_lyons`` picks the solver from the driver and, without a config, the
scheme's default one.

Vector fields come in linear / affine / quadratic-polynomial families with
analytic first and second derivatives.  Solutions that leave the field's
validity box (a Euclidean ball around the initial condition), or whose state
is no longer finite, raise ``BlowUpError`` carrying the exit time.

Word rows.  Both solvers run on one array of the steps' increments, a row
a step: 1 (the empty word), then levels 1..N of the increment, each
flattened in C order.  ``solve_bv`` writes the driver increments divided by
the substep count (depth 1), ``solve_rough`` levels 1..N of
X_j^{-1} x X_{j+1} from one batched inverse and multiply per block of steps.
Word (i_1..i_k) contributes the polynomial P_(i_1..i_k) = (V_{i_1} ...
V_{i_k} Id), with P_i = V_i and P_(i,w) = DP_w . V_i, and one function,
``_word_polynomials``, composes them all once per solve, in elementwise
products and sums of one fixed order (no BLAS), and stacks them with Id
(the empty word) as one matrix C of m (1 + n + ... + n^N) rows on a basis
of monomials mu(y).

One stepper, ``_word_steps``, runs every field: a buffer holds (1, Y_j) a
row, and a step is u = C mu(Y_j) and Y_{j+1} = the step's word row times u
as a (words, m) matrix, two matrix-vector products.  For a field without a
quadratic part, V_i(y) = c_i + A_i y, C is written on the monomials (1, y),
so mu(Y_j) is the state row itself: level 1 is [c_i | A_i], and word
(i_1..i_k) is A_{i_k} ... A_{i_2} [c_{i_1} | A_{i_1}].  For a field with a
quadratic part, P_w has degree k+1, and C is written on the graded basis of
symmetric monomials of degree <= N+1, W = C(m+N+1, N+1) of them (15 at
m = 2, N = 3); mu(Y_j) is one gather of their factors from the state row and
N products.  At depth 1, C = [Id; V] is about the size of the field.  At
depths 2 and 3, C grows as n^N m^(N+2), so a quadratic field with more than
256 monomials, or a C of more than 2^16 entries, is instead evaluated at
every step (V(Y_j) and its Jacobian by flattened products, on column views
of the word rows), whose cost grows as n m^3 + m n^3.

The box is tested once, on all states, after the loop; arithmetic past a
blow-up is silent.  ``oracle.euler_step_increment`` keeps the term-by-term
formula as the independent reference.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError, DimensionMismatchError, ParameterError
from .paths import EuclideanPath, GroupPath, TimeGrid, _count, _float_array, _instance, _real
from .tensor_core import _entries, _in_range, stacked_inverse, stacked_mul


class FieldFamily(enum.Enum):
    LINEAR = "linear"
    AFFINE = "affine"
    POLYNOMIAL = "polynomial"


class Scheme(enum.Enum):
    EULER_BV = "eulerbv"
    ROUGH_EULER = "rougheulerstepn"


@dataclass(frozen=True, eq=False)
class VectorField:
    """Collection of n maps V_i: R^m -> R^m with analytic derivatives.

    V_i(y) = const[i] + A[i] @ y + Q[i] : (y x y), with Q[i] symmetric in its
    last two axes and zero unless the family is polynomial.  ``gamma`` and
    ``box_radius`` declare the Lipschitz smoothness class and the radius of
    the validity ball (around the initial condition handed to the solver).
    """

    family: FieldFamily
    m: int
    n: int
    const: np.ndarray   # (n, m)
    lin: np.ndarray     # (n, m, m)
    quad: np.ndarray    # (n, m, m, m), symmetric in axes (2, 3)
    gamma: float = 2.5
    box_radius: float = 10.0

    def __post_init__(self):
        _instance(self.family, FieldFamily, "field family")
        for name in ("m", "n"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        for name, arr, shape in (
            ("const", self.const, (self.n, self.m)),
            ("lin", self.lin, (self.n, self.m, self.m)),
            ("quad", self.quad, (self.n, self.m, self.m, self.m)),
        ):
            a = _float_array(arr, name)
            if a.shape != shape:
                raise ParameterError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ParameterError(f"{name} contains non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        for name in ("gamma", "box_radius"):
            object.__setattr__(self, name, _field_float(getattr(self, name), name))
        if not self.box_radius > 0.0:
            raise ParameterError(f"box_radius must be positive, got {self.box_radius}")
        q = self.quad
        if not np.allclose(q, np.swapaxes(q, 2, 3)):
            raise ParameterError("quadratic blocks must be symmetric in the last two axes")
        if self.family is FieldFamily.LINEAR and (self.const.any() or self.quad.any()):
            raise ParameterError("linear fields carry matrices only")
        if self.family is FieldFamily.AFFINE and self.quad.any():
            raise ParameterError("affine fields carry no quadratic part")

    # -- constructors -------------------------------------------------------

    @classmethod
    def linear(cls, matrices, gamma=2.5, box_radius=10.0) -> "VectorField":
        a = _float_array(matrices, "the field entry 'matrices'", 3)
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.LINEAR, m, n, np.zeros((n, m)), a,
                   np.zeros((n, m, m, m)), gamma, box_radius)

    @classmethod
    def affine(cls, matrices, offsets, gamma=2.5, box_radius=10.0) -> "VectorField":
        a = _float_array(matrices, "the field entry 'matrices'", 3)
        c = _float_array(offsets, "the field entry 'offsets'", 2)
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.AFFINE, m, n, c, a, np.zeros((n, m, m, m)),
                   gamma, box_radius)

    @classmethod
    @_in_range
    def polynomial(cls, constants, matrices, quadratics, gamma=2.5,
                   box_radius=10.0) -> "VectorField":
        c = _float_array(constants, "the field entry 'offsets'", 2)
        a = _float_array(matrices, "the field entry 'matrices'", 3)
        q = _float_array(quadratics, "the field entry 'quadratics'", 4)
        q = 0.5 * (q + np.swapaxes(q, 2, 3))
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.POLYNOMIAL, m, n, c, a, q, gamma, box_radius)

    # -- evaluation ---------------------------------------------------------

    @_in_range
    def value(self, y: np.ndarray) -> np.ndarray:
        """V(y) as an (m, n) matrix; column i is V_i(y).  Points stacked
        along leading axes, shape (..., m), give shape (..., m, n)."""
        y = np.asarray(y, dtype=float)
        out = self.const + np.einsum("iab,...b->...ia", self.lin, y)
        if self.quad.any():
            out = out + np.einsum("iabc,...b,...c->...ia", self.quad, y, y)
        return np.swapaxes(out, -1, -2)

    @_in_range
    def jac(self, y: np.ndarray) -> np.ndarray:
        """J[i, a, b] = d V_i^a / d y_b; shape (..., n, m, m) for stacked points."""
        y = np.asarray(y, dtype=float)
        j = np.broadcast_to(self.lin, y.shape[:-1] + self.lin.shape).copy()
        if self.quad.any():
            j = j + 2.0 * np.einsum("iabc,...c->...iab", self.quad, y)
        return j

    @_in_range
    def hess(self, y: np.ndarray) -> np.ndarray:
        """H[i, a, b, c] = d^2 V_i^a / d y_b d y_c (constant for these families)."""
        return 2.0 * self.quad

    @_in_range
    def scaled(self, factor: float) -> "VectorField":
        return VectorField(self.family, self.m, self.n, factor * self.const,
                           factor * self.lin, factor * self.quad, self.gamma,
                           self.box_radius)

    @_in_range
    def derivative_defect(self, points, h: float = 1e-5) -> float:
        """Max relative error of the analytic Jacobian/Hessian vs central differences at
        ``points`` (count, m), step ``h`` > 0; a value or derivative off the float
        range raises ``ParameterError`` (``tensor_core._in_range``)."""
        if (h := _real(h, "the step h")) <= 0.0:
            raise ParameterError(f"the step h must be positive, got {h!r}")
        defects = [0.0]
        for y in _float_array(points, "points", 2):
            y = _state(y, self, "a point")
            jac_fd = np.empty((self.n, self.m, self.m))
            hess_fd = np.empty((self.n, self.m, self.m, self.m))
            for b in range(self.m):
                e = np.zeros(self.m)
                e[b] = h
                jac_fd[:, :, b] = (self.value(y + e) - self.value(y - e)).T / (2 * h)
                hess_fd[:, :, b, :] = (self.jac(y + e) - self.jac(y - e)) / (2 * h)
            for exact, fd in ((self.jac(y), jac_fd), (self.hess(y), hess_fd)):
                scale = max(np.abs(exact).max(), np.abs(fd).max(), 1.0)
                defects.append(float(np.abs(exact - fd).max() / scale))
        return max(defects)

    @_in_range
    def lip_norm(self, center, radius=None, samples: int = 256, seed: int = 0) -> float:
        """Sampled bound for the Lip-gamma norm on the validity ball.

        Maximum over sampled ball points of |V|, |DV| and |D^2 V| (operator
        norms replaced by Frobenius norms); the top-derivative Hoelder
        constant vanishes for these polynomial families.  A ball on which
        one of them leaves the float range raises ``ParameterError``
        (``tensor_core._in_range``).
        """
        center = _state(center, self, "center")
        radius = _real(self.box_radius if radius is None else radius, "radius")
        samples = _count(samples, "samples", 0)
        _entries(samples * self.m, "the sample points")
        rng = np.random.default_rng(_count(seed, "seed", 0))
        pts = center + radius * rng.uniform(-1.0, 1.0, size=(samples, self.m))
        return max(max_point_norm(self.value(pts)), max_point_norm(self.jac(pts)),
                   float(np.linalg.norm(self.hess(center).ravel())) if samples else 0.0)

    # -- JSON spec ----------------------------------------------------------

    def to_spec(self) -> dict:
        spec = {
            "family": self.family.value,
            "m": self.m,
            "n": self.n,
            "coefficients": {"matrices": self.lin.tolist()},
            "box_radius": self.box_radius,
            "lip_gamma": self.gamma,
        }
        if self.family is not FieldFamily.LINEAR:
            spec["coefficients"]["offsets"] = self.const.tolist()
        if self.family is FieldFamily.POLYNOMIAL:
            spec["coefficients"]["quadratics"] = self.quad.tolist()
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "VectorField":
        """Field from its JSON spec; a missing or wrongly typed entry or an
        unknown family raises ``ParameterError``."""
        if not isinstance(spec, dict):
            raise ParameterError("the field spec must be a JSON object")
        try:
            family = FieldFamily(str(spec.get("family")).lower())
        except ValueError:
            raise ParameterError(f"the field spec needs a family from "
                                 f"{[f.value for f in FieldFamily]}, got "
                                 f"{spec.get('family')!r}") from None
        try:
            coeffs = spec["coefficients"]
            if not isinstance(coeffs, dict):
                raise ParameterError("the field spec entry 'coefficients' must be an object")
            matrices = coeffs["matrices"]
            offsets = coeffs["offsets"] if family is FieldFamily.AFFINE else coeffs.get("offsets")
            if family is FieldFamily.POLYNOMIAL:
                n, m = _count(spec["n"], "n", 1), _count(spec["m"], "m", 1)
        except KeyError as exc:
            raise ParameterError(f"the field spec lacks the key {exc}") from None
        gamma, radius = spec.get("lip_gamma", 2.5), spec.get("box_radius", 10.0)
        if family is FieldFamily.LINEAR:
            return cls.linear(matrices, gamma, radius)
        if family is FieldFamily.AFFINE:
            return cls.affine(matrices, offsets, gamma, radius)
        quadratics = coeffs.get("quadratics")
        return cls.polynomial(
            np.zeros((n, m)) if offsets is None else offsets,
            matrices,
            np.zeros((n, m, m, m)) if quadratics is None else quadratics,
            gamma, radius,
        )


@_in_range
def max_point_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over the points stacked along the first axis."""
    flat = stack.reshape(stack.shape[0], int(np.prod(stack.shape[1:])))
    return float(np.linalg.norm(flat, axis=1).max(initial=0.0))


def _field_float(value, name: str) -> float:
    """``value`` as a float: a real number, not a boolean, string, None, NaN
    or an integer beyond the float range.

    Infinities pass, unlike ``_real``: ``box_radius = inf`` is an unbounded
    validity ball.
    """
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if math.isnan(x):
        raise ParameterError(f"the field entry {name!r} must be a number, got {value!r}")
    return x


@dataclass(frozen=True)
class RdeConfig:
    """Scheme selection: truncation depth, substeps per grid interval, scheme tag."""

    depth: int = 1
    substeps: int = 1
    scheme: Scheme = Scheme.EULER_BV

    def __post_init__(self):
        _instance(self.scheme, Scheme, "scheme")
        for name in ("depth", "substeps"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        if self.depth > 3:
            raise ParameterError(f"depth must be 1, 2 or 3, got {self.depth}")
        if self.scheme is Scheme.EULER_BV and self.depth != 1:
            raise ParameterError("the BV Euler scheme runs at depth 1")
        if self.scheme is Scheme.ROUGH_EULER and self.substeps != 1:
            raise ParameterError(
                "rough Euler does not substep (group increments have no "
                "canonical fractional splitting here); refine the driver grid instead"
            )


def _state(y, v: VectorField, name: str = "y0") -> np.ndarray:
    """``y`` as a finite float vector of the field's state dimension."""
    y = _float_array(y, name).reshape(-1)
    if y.size != v.m:
        raise DimensionMismatchError(f"{name} has dim {y.size}, field state dim {v.m}")
    if not np.all(np.isfinite(y)):
        raise ParameterError(f"{name} contains non-finite entries")
    return y


#: Terms per block of the word-polynomial composition (``_word_polynomials``),
#: and entries per block of steps of the group increments (``_group_increments``).
_BLOCK_TERMS = 1 << 15
#: Most monomials and most entries of the composed matrix C (``_word_steps``)
#: at depth 2 or 3.
#: C has m (1 + n + ... + n^N) rows and W = C(m+N+1, N+1) columns, so it
#: grows as n^N m^(N+2), and the work of its composition as
#: n^(N-1) m^(N+3); a field beyond either bound is evaluated at every step
#: (``_polynomial_steps``), whose cost grows as n m^3 + m n^3.  Near the
#: bounds the two take about equally long at 1024 steps.
_WORD_WIDTH, _WORD_COEFS = 1 << 8, 1 << 16


def _monomials(m: int, degree: int) -> np.ndarray:
    """Exponents of the symmetric monomials of degree <= ``degree`` in m
    variables, shape (W, m) with W = C(m + degree, degree), in the order of
    ``_monomial_rank``: graded, so row 0 is 1 and rows 1..m are y_1..y_m."""
    exps = np.array([np.bincount(c, minlength=m) for d in range(degree + 1)
                     for c in itertools.combinations_with_replacement(range(m), d)],
                    dtype=np.int8).reshape(-1, m)
    table = np.empty_like(exps)
    table[_monomial_rank(exps)] = exps
    return table


def _monomial_rank(e: np.ndarray) -> np.ndarray:
    """Positions of the exponent rows ``e`` in the graded order: by degree,
    then by the exponents from the last variable to the first.

    The position counts the monomials before the row: those of lower degree,
    then, variable by variable from the last, those that agree on the later
    exponents and have a smaller one here.  Each count is one of
    C(r + v, v), the number of monomials of degree <= r in v variables, so no
    value exceeds the number of monomials of the rows' largest degree.
    """
    m, remaining = e.shape[-1], e.sum(axis=-1)
    # below[r + 1, v] = C(r + v, v); row 0 (r = -1) counts nothing
    below = np.array([[0] * (m + 1)] + [[math.comb(r + v, v) for v in range(m + 1)]
                                        for r in range(int(remaining.max()) + 1)],
                     dtype=np.int64)
    rank = below[remaining, m]
    for var in range(m - 1, 0, -1):
        rank += below[remaining + 1, var] - below[remaining - e[..., var] + 1, var]
        remaining = remaining - e[..., var]
    return rank


def _factors(exps: np.ndarray, count: int) -> np.ndarray:
    """The factors of the monomials ``exps``, shape (count, W), as positions
    in the state row (1, y): column r holds the variables of monomial r in
    increasing order, y_b at 1 + b, each as often as its exponent, then 0
    (the factor 1) up to ``count``."""
    var = (np.cumsum(exps, axis=1)[:, None, :] <= np.arange(count)[:, None]).sum(axis=2).T
    return (var + 1) % (exps.shape[1] + 1)


def _word_polynomials(v: VectorField, exps: np.ndarray, depth: int) -> np.ndarray:
    """Coefficients of the step-N Euler word polynomials, N = ``depth``, on the
    monomials ``exps`` of degree <= N+1, or, for a field without a quadratic
    part, of degree <= 1: (1, y).

    Word (i_1..i_k) contributes P_(i_1..i_k)(y) = (V_{i_1} ... V_{i_k} Id)(y);
    P_i = V_i, and P_(i,w) = DP_w . V_i has degree k+1.  The rows of the
    result are those of Id (the empty word), then, level by level and in C
    order of the words, the m rows of every P_w.  Level k+1 applies the
    derivation D_i P = sum_b V_i^b d_b P to every row of level k: each
    (source monomial s of degree <= k+1, b with s_b > 0, monomial t of V_i^b)
    makes one term s_b P[s] V_i^b[t], and the terms of one target monomial
    are added in one fixed order by ``np.add.reduceat``.  Rows do not
    interact, so they run in blocks of about ``_BLOCK_TERMS`` terms, and no
    value depends on the blocks or on BLAS.
    """
    n, m = v.n, v.m
    width = exps.shape[0]
    quad = min(width, (m + 1) * (m + 2) // 2)                # the monomials of V
    # V_i^a on the monomials of degree <= 2 (<= 1 on (1, y)): c, A, and
    # Q[b, c] + Q[c, b] on y_b y_c
    b, c = _factors(exps, 2)[:, 1 + m:quad] - 1
    field = np.zeros((n, m, quad))
    field[:, :, 0] = v.const
    field[:, :, 1:1 + m] = v.lin
    field[:, :, 1 + m:] = np.where(b == c, v.quad[:, :, b, c],
                                   v.quad[:, :, b, c] + v.quad[:, :, c, b])
    coef = np.zeros((m * sum(n**k for k in range(depth + 1)), width))
    coef[:m] = np.eye(m, width, 1)
    level, start = coef[m:m + n * m], m + n * m
    level[:, :quad] = field.reshape(n * m, quad)
    degree = exps.sum(axis=1)
    for k in range(1, depth):
        # the monomials of degree <= k+1 are the first rows of the table, and
        # y_b is row 1+b: the target of a term is the monomial s - y_b + t
        src, b = np.nonzero(exps[degree <= k + 1] > 0)
        src, b, t = np.repeat(src, quad), np.repeat(b, quad), np.tile(np.arange(quad), src.size)
        target = _monomial_rank(exps[src] - exps[1 + b] + exps[t])
        order = np.argsort(target, kind="stable")
        src, b, t, target = src[order], b[order], t[order], target[order]
        starts = np.flatnonzero(np.diff(target, prepend=-1))
        scale = exps[src, b] * field[:, b, t]                   # (n, terms)
        rows = level.shape[0]
        nxt = coef[start:start + n * rows].reshape(n, rows, width)
        block, cols = max(1, _BLOCK_TERMS // src.size), target[starts]
        for r in range(0, rows, block):
            terms = level[r:r + block, src]
            for i in range(n):
                nxt[i][r:r + block, cols] = np.add.reduceat(terms * scale[i], starts, axis=1)
        level, start = coef[start:start + n * rows], start + n * rows
    return coef


def _word_steps(v: VectorField, y0: np.ndarray, words: np.ndarray, depth: int) -> np.ndarray:
    """States Y_0..Y_S of the step-N Euler scheme, N = ``depth``, on the
    composed word polynomials C (``_word_polynomials``): two matrix-vector
    products a step.

    Row j of ``words`` holds 1 (the empty word), then levels 1..N of step
    j's increment, and row j of one state buffer holds (1, Y_j).  The
    monomials mu of Y_j are, for a field without a quadratic part, (1, Y_j):
    that row itself.  For a quadratic field they are one gather of that row,
    each monomial's N+1 factors (its variables as often as their exponents,
    padded with the 1), multiplied factor by factor (N products over all
    monomials at once, which beats one reduction over the factor axis once
    there are more than about 70 monomials).  u = C mu holds every word
    polynomial at Y_j, and Y_{j+1} is the word row times u as a (words, m)
    matrix.
    """
    m, quadratic = v.m, v.quad.any()
    exps = _monomials(m, depth + 1 if quadratic else 1)
    coef = _word_polynomials(v, exps, depth)
    factors = _factors(exps, depth + 1)
    products, u = np.empty(exps.shape[0]), np.empty(coef.shape[0])
    terms = u.reshape(-1, m)
    states = np.ones((words.shape[0] + 1, m + 1))
    states[0, 1:] = y0
    ys = states[:, 1:]
    for g, mono, out in zip(words, states, ys[1:]):
        if quadratic:
            first, second, *rest = mono[factors]
            mono = np.multiply(first, second, out=products)
            for factor in rest:
                np.multiply(mono, factor, out=mono)
        coef.dot(mono, out=u)
        g.dot(terms, out=out)
    return ys


def _polynomial_steps(v: VectorField, y0: np.ndarray, words: np.ndarray, depth: int) -> np.ndarray:
    """Step-N Euler states, N = 2 or 3, for a field with a quadratic part.

    Evaluated one step at a time: V(y), row i equal to V_i(y), is one
    matrix product with the monomials (1, y, y (x) y), the Jacobian one with
    (1, y), and the level-2 and level-3 terms are flattened matrix products
    over these.  The levels are column views of the word rows ``words``;
    each step copies its own level 2 and 3, transposed and C-ordered, for
    the products, so no copy of the levels of all steps is made.
    """
    m, n = v.m, v.n
    vf = np.concatenate([v.const.reshape(n * m, 1), v.lin.reshape(n * m, m),
                         v.quad.reshape(n * m, m * m)], axis=1)
    # jf @ (1, y) is the Jacobian laid out as J[a, (j, b)] = d V_j^a / d y_b
    jf = np.concatenate([v.lin.transpose(1, 0, 2).reshape(m * n * m, 1),
                         2.0 * v.quad.transpose(1, 0, 2, 3).reshape(m * n * m, m)], axis=1)
    hess = 2.0 * v.quad.transpose(1, 3, 2, 0).reshape(m, m * m * n)   # [a, (c, b, k)]
    steps = words.shape[0]
    g1, g2, g3 = words[:, 1:1 + n], words[:, 1 + n:1 + n + n * n], words[:, 1 + n + n * n:]
    mono = np.empty(1 + m + m * m)
    mono[0] = 1.0
    square = mono[1 + m:].reshape(m, m)
    y, ys = y0, [y0]
    for j in range(steps):
        mono[1:1 + m] = y
        np.multiply.outer(y, y, out=square)
        vt = (vf @ mono).reshape(n, m)
        jac = (jf @ mono[:1 + m]).reshape(m, n * m)
        g2t = g2[j].reshape(n, n).T.copy()          # [j, i] = g2[i, j]
        inc = g1[j] @ vt + jac @ (g2t @ vt).ravel()
        if depth > 2:
            g3t = g3[j].reshape(n, n, n).transpose(1, 0, 2).copy()  # [j, i, k]
            u = vt.T @ g3t                       # [j, c, k] = sum_i V_i^c g3[i, j, k]
            inc = inc + hess @ (vt.T @ u.reshape(n, m * n)).ravel()
            inc = inc + jac @ (jac @ u.reshape(n * m, n)).T.ravel()
        y = y + inc
        ys.append(y)
    return np.stack(ys)


def _euler_steps(v: VectorField, y0: np.ndarray, words: np.ndarray, depth: int,
                 times) -> np.ndarray:
    """States Y_0..Y_S of the step-N Euler scheme, N = ``depth``, along the
    word rows ``words`` of the steps' increments (``_word_steps``).

    Every field runs its composed word polynomials, except a quadratic field
    at depth 2 or 3 whose basis or matrix exceeds ``_WORD_WIDTH`` or
    ``_WORD_COEFS``: that one is evaluated at every step.  (At depth 1,
    C = [Id; V] is about the size of the field itself, and without a
    quadratic part C is written on (1, y).)  Arithmetic past a blow-up is
    silent; the first state at ``times[1:]`` outside the box, or not
    finite, raises ``BlowUpError`` with its time.
    """
    with np.errstate(all="ignore"):
        width = math.comb(v.m + depth + 1, depth + 1)
        if not v.quad.any() or depth == 1 or (
                width <= _WORD_WIDTH and width * v.m * words.shape[1] <= _WORD_COEFS):
            ys = _word_steps(v, y0, words, depth)
        else:
            ys = _polynomial_steps(v, y0, words, depth)
        dist = ys[1:] - y0                  # |Y_j - y0| as np.linalg.norm(axis=1),
        dist *= dist                        # with no second (steps, m) array
        dist = np.sqrt(dist.sum(axis=1))
    inside = (dist <= v.box_radius) & np.isfinite(ys[1:]).all(axis=1)
    if not inside.all():
        raise BlowUpError(float(times[1 + np.argmin(inside)]))
    return ys


def _check_solve(y0, v, x, config, scheme) -> np.ndarray:
    """``y0`` as a state, after the one check of a solver call of ``scheme``:
    the types (an ``EuclideanPath`` drives BV Euler, a ``GroupPath`` rough
    Euler) and the config's scheme (``ParameterError``), then the driver's
    depth and dimension (``DimensionMismatchError``) and the state."""
    _instance(v, VectorField, "vector field")
    _instance(x, EuclideanPath if scheme is Scheme.EULER_BV else GroupPath, "driver")
    _instance(config, RdeConfig, "solver config")
    if config.scheme is not scheme:
        raise ParameterError(f"{type(x).__name__} drivers need the {scheme.value} scheme, "
                             f"got {config.scheme.value}")
    if scheme is Scheme.ROUGH_EULER and x.depth != config.depth:
        raise DimensionMismatchError(f"driver depth {x.depth} != configured depth {config.depth}")
    if x.dim != v.n:
        raise DimensionMismatchError(f"driver dim {x.dim} != field driver dim {v.n}")
    return _state(y0, v)


def solve_bv(y0, v: VectorField, x: EuclideanPath, config: RdeConfig = RdeConfig()) -> EuclideanPath:
    """Left-point Euler for dY = V(Y) dX along a bounded-variation driver.

    With s substeps per grid interval the driver increment is split into s
    equal parts (exact for the linear interpolant); the returned path lives
    on the substepped grid.
    """
    y0 = _check_solve(y0, v, x, config, Scheme.EULER_BV)
    s = config.substeps
    t = x.grid.times
    _entries((len(t) - 1) * s + 1, "the substepped grid")
    sub = t[:-1, None] + (np.diff(t)[:, None] * np.arange(1, s + 1)) / s
    times = np.concatenate([[0.0], sub.ravel()])
    words = np.ones((len(times) - 1, 1 + x.dim))
    words[:, 1:] = np.repeat(x.increments() / s, s, axis=0)
    return EuclideanPath(TimeGrid(times), _euler_steps(v, y0, words, 1, times))


def _group_increments(x: GroupPath) -> np.ndarray:
    """Word rows of the one-step increments X_j^{-1} x X_{j+1}: row j holds 1,
    then levels 1..N of step j, shape ``(steps, 1 + n + ... + n^N)``.  One
    batched inverse and one batched multiply per block of steps of about
    ``_BLOCK_TERMS`` entries write into it; both work step by step, so no
    value depends on the blocks."""
    steps = len(x.grid) - 1
    ends = np.cumsum([lv.shape[1] for lv in x.levels])
    words = np.ones((steps, ends[-1]))
    block = max(1, _BLOCK_TERMS // words.shape[1])
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        part = stacked_mul(stacked_inverse([lv[lo:hi] for lv in x.levels]),
                           [lv[lo + 1:hi + 1] for lv in x.levels])
        for a, b, lv in zip(ends[:-1], ends[1:], part[1:]):
            words[lo:hi, a:b] = lv
    return words


def solve_rough(y0, v: VectorField, x: GroupPath, config: RdeConfig) -> EuclideanPath:
    """Step-N Euler for dY = V(Y) dX along a group-valued driver."""
    y0 = _check_solve(y0, v, x, config, Scheme.ROUGH_EULER)
    return EuclideanPath(x.grid, _euler_steps(v, y0, _group_increments(x), config.depth,
                                                 x.grid.times))


def ito_lyons(y0, v: VectorField, x, config: RdeConfig | None = None) -> EuclideanPath:
    """Solution map (y0, V, X) -> Y: ``solve_rough`` for a ``GroupPath``
    driver, else ``solve_bv``, whose check rejects other types.  Without a
    ``config`` the driver's scheme runs at its default: rough Euler at the
    driver's depth, or BV Euler without substeps."""
    if isinstance(x, GroupPath):
        if config is None:
            config = RdeConfig(depth=x.depth, scheme=Scheme.ROUGH_EULER)
        return solve_rough(y0, v, x, config)
    return solve_bv(y0, v, x, RdeConfig() if config is None else config)
