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

Vector fields come in linear / affine / quadratic-polynomial families with
analytic first and second derivatives.  Solutions that leave the field's
validity box (a Euclidean ball around the initial condition), or whose state
is no longer finite, raise ``BlowUpError`` carrying the exit time.

Step maps.  Both solvers run on the stacked increments of all steps: the
driver increments divided by the substep count for ``solve_bv`` (depth 1),
and levels 1..N of X_j^{-1} x X_{j+1} from one batched inverse and multiply
for ``solve_rough``.  For a field without a quadratic part,
V_i(y) = c_i + A_i y, the word (i_1..i_k) contributes
A_{i_k} ... A_{i_2} (c_{i_1} + A_{i_1} y), so each step is affine in the
state, Y_{j+1} = P_j Y_j + k_j, with [k_j | P_j - I] the sum over words of
pi(X_{t_j,t_{j+1}})^word times that word's matrix.  At depth 1 a quadratic
part adds the column block sum_i dX^i Q_i acting on Y_j (x) Y_j.  All maps
are built before the loop, word by word with elementwise products (so a map
does not depend on how many steps are built with it), and the loop is one
matrix-vector product per step on the monomials (1, Y_j[, Y_j (x) Y_j]).  A
quadratic field at depth 2 or 3 is evaluated at every step from flattened
coefficient matrices.  The box is tested once, on all states, after the
loop; arithmetic past a blow-up is silent.  ``oracle.euler_step_increment``
keeps the term-by-term formula as the independent reference.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError, DimensionMismatchError, ParameterError
from .paths import EuclideanPath, GroupPath, TimeGrid, _count, _float_array, _instance, _real
from .tensor_core import stacked_inverse, stacked_mul


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
    def polynomial(cls, constants, matrices, quadratics, gamma=2.5,
                   box_radius=10.0) -> "VectorField":
        c = _float_array(constants, "the field entry 'offsets'", 2)
        a = _float_array(matrices, "the field entry 'matrices'", 3)
        q = _float_array(quadratics, "the field entry 'quadratics'", 4)
        q = 0.5 * (q + np.swapaxes(q, 2, 3))
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.POLYNOMIAL, m, n, c, a, q, gamma, box_radius)

    # -- evaluation ---------------------------------------------------------

    def value(self, y: np.ndarray) -> np.ndarray:
        """V(y) as an (m, n) matrix; column i is V_i(y).  Points stacked
        along leading axes, shape (..., m), give shape (..., m, n)."""
        y = np.asarray(y, dtype=float)
        out = self.const + np.einsum("iab,...b->...ia", self.lin, y)
        if self.quad.any():
            out = out + np.einsum("iabc,...b,...c->...ia", self.quad, y, y)
        return np.swapaxes(out, -1, -2)

    def jac(self, y: np.ndarray) -> np.ndarray:
        """J[i, a, b] = d V_i^a / d y_b; shape (..., n, m, m) for stacked points."""
        y = np.asarray(y, dtype=float)
        j = np.broadcast_to(self.lin, y.shape[:-1] + self.lin.shape).copy()
        if self.quad.any():
            j = j + 2.0 * np.einsum("iabc,...c->...iab", self.quad, y)
        return j

    def hess(self, y: np.ndarray) -> np.ndarray:
        """H[i, a, b, c] = d^2 V_i^a / d y_b d y_c (constant for these families)."""
        return 2.0 * self.quad

    def scaled(self, factor: float) -> "VectorField":
        return VectorField(self.family, self.m, self.n, factor * self.const,
                           factor * self.lin, factor * self.quad, self.gamma,
                           self.box_radius)

    def derivative_defect(self, points, h: float = 1e-5) -> float:
        """Max relative error of the analytic Jacobian/Hessian vs central differences at
        ``points`` (count, m), step ``h`` > 0; ``ParameterError`` off the float range."""
        if (h := _real(h, "the step h")) <= 0.0:
            raise ParameterError(f"the step h must be positive, got {h!r}")
        defects = [0.0]
        with np.errstate(over="ignore", invalid="ignore"):
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
        if not all(map(math.isfinite, defects)):
            raise ParameterError("derivative_defect leaves the float range at these points")
        return max(defects)

    def lip_norm(self, center, radius=None, samples: int = 256, seed: int = 0) -> float:
        """Sampled bound for the Lip-gamma norm on the validity ball.

        Maximum over sampled ball points of |V|, |DV| and |D^2 V| (operator
        norms replaced by Frobenius norms); the top-derivative Hoelder
        constant vanishes for these polynomial families.  A ball on which
        one of them leaves the float range raises ``ParameterError``.
        """
        center = _state(center, self, "center")
        radius = _real(self.box_radius if radius is None else radius, "radius")
        samples = _count(samples, "samples", 0)
        rng = np.random.default_rng(_count(seed, "seed", 0))
        with np.errstate(over="ignore", invalid="ignore"):
            pts = center + radius * rng.uniform(-1.0, 1.0, size=(samples, self.m))
            norms = [max_point_norm(self.value(pts)), max_point_norm(self.jac(pts)),
                     float(np.linalg.norm(self.hess(center).ravel())) if samples else 0.0]
        if not all(map(math.isfinite, norms)):
            raise ParameterError(f"lip_norm leaves the float range on the ball of radius {radius!r}")
        return max(norms)

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


def _step_maps(v: VectorField, levels) -> np.ndarray:
    """Euler step maps: Y_{j+1} = G_j (1, Y_j[, Y_j (x) Y_j]), shape (steps, m, width).

    ``levels[k-1]`` holds level k of every step's increment, shape
    ``(steps, n**k)``, its words (i_1..i_k) flattened in C order.  The word
    matrices of level 1 are [c_i | A_i], with the block Q_i on y (x) y for a
    quadratic field, which runs here at depth 1 only; those of level k are
    A_{i_k} times the level k-1 ones, so for an affine field the word's
    matrix is that of (V_{i_1} ... V_{i_k} Id)(y) acting on (1, y).  The maps
    are summed word by word with elementwise products, so each step's map
    does not depend on the others.
    """
    n, m = v.n, v.m
    parts = [v.const[:, :, None], v.lin]
    if v.quad.any():
        parts.append(v.quad.reshape(n, m, m * m))
    words = np.concatenate(parts, axis=2)
    maps = np.zeros((levels[0].shape[0], m, words.shape[2]))
    for k, g in enumerate(levels):
        if k:
            words = (v.lin[None] @ words[:, None]).reshape(-1, m, words.shape[2])
        for col, word in zip(g.T, words):
            maps += col[:, None, None] * word
    maps[:, :, 1:1 + m] += np.eye(m)
    return maps


def _map_steps(maps: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """States Y_0..Y_S of Y_{j+1} = G_j mu(Y_j), one matrix-vector product a step.

    Row j of one buffer holds the monomials mu(Y_j) = (1, Y_j[, Y_j (x) Y_j]),
    so the product writes Y_{j+1} in place.
    """
    steps, m, width = maps.shape
    mono = np.zeros((steps + 1, width))
    mono[:, 0] = 1.0
    mono[0, 1:1 + m] = y0
    ys = mono[:, 1:1 + m]
    if width == 1 + m:
        for g, mu, out in zip(maps, mono, ys[1:]):
            np.matmul(g, mu, out=out)
    else:
        square = mono[:, 1 + m:].reshape(steps + 1, m, m)
        for g, mu, out, sq, col, row in zip(maps, mono, ys[1:], square,
                                            ys[:, :, None], ys[:, None]):
            np.multiply(col, row, out=sq)
            np.matmul(g, mu, out=out)
    return ys


def _polynomial_steps(v: VectorField, y0: np.ndarray, levels) -> np.ndarray:
    """Step-N Euler states, N = 2 or 3, for a field with a quadratic part.

    Evaluated one step at a time: V(y), row i equal to V_i(y), is one
    matrix product with the monomials (1, y, y (x) y), the Jacobian one with
    (1, y), and the level-2 and level-3 terms are flattened matrix products
    over these.
    """
    m, n, depth = v.m, v.n, len(levels)
    vf = np.concatenate([v.const.reshape(n * m, 1), v.lin.reshape(n * m, m),
                         v.quad.reshape(n * m, m * m)], axis=1)
    # jf @ (1, y) is the Jacobian laid out as J[a, (j, b)] = d V_j^a / d y_b
    jf = np.concatenate([v.lin.transpose(1, 0, 2).reshape(m * n * m, 1),
                         2.0 * v.quad.transpose(1, 0, 2, 3).reshape(m * n * m, m)], axis=1)
    hess = 2.0 * v.quad.transpose(1, 3, 2, 0).reshape(m, m * m * n)   # [a, (c, b, k)]
    steps = levels[0].shape[0]
    g1 = levels[0]
    g2t = levels[1].reshape(steps, n, n).transpose(0, 2, 1).copy()      # [j, i] = g2[i, j]
    if depth > 2:
        g3t = levels[2].reshape(steps, n, n, n).transpose(0, 2, 1, 3).copy()  # [j, i, k]
    mono = np.empty(1 + m + m * m)
    mono[0] = 1.0
    square = mono[1 + m:].reshape(m, m)
    y, ys = y0, [y0]
    for j in range(steps):
        mono[1:1 + m] = y
        np.multiply.outer(y, y, out=square)
        vt = (vf @ mono).reshape(n, m)
        jac = (jf @ mono[:1 + m]).reshape(m, n * m)
        inc = g1[j] @ vt + jac @ (g2t[j] @ vt).ravel()
        if depth > 2:
            u = vt.T @ g3t[j]                    # [j, c, k] = sum_i V_i^c g3[i, j, k]
            inc = inc + hess @ (vt.T @ u.reshape(n, m * n)).ravel()
            inc = inc + jac @ (jac @ u.reshape(n * m, n)).T.ravel()
        y = y + inc
        ys.append(y)
    return np.stack(ys)


def _euler_steps(v: VectorField, y0: np.ndarray, levels, times) -> np.ndarray:
    """States Y_0..Y_S of the step-N Euler scheme along stacked increments.

    A field without a quadratic part, and any field at depth 1, runs one
    precomputed step map per step; a quadratic field at depth 2 or 3 is
    evaluated at every step.  Arithmetic past a blow-up is silent; the first
    state at ``times[1:]`` outside the box, or not finite, raises
    ``BlowUpError`` with its time.
    """
    with np.errstate(all="ignore"):
        if v.quad.any() and len(levels) > 1:
            ys = _polynomial_steps(v, y0, levels)
        else:
            ys = _map_steps(_step_maps(v, levels), y0)
        dist = np.linalg.norm(ys[1:] - y0, axis=1)
    inside = (dist <= v.box_radius) & np.isfinite(ys[1:]).all(axis=1)
    if not inside.all():
        raise BlowUpError(float(times[1 + np.argmin(inside)]))
    return ys


def _check_solve(v, x, driver, config):
    _instance(v, VectorField, "vector field")
    _instance(x, driver, "driver")
    _instance(config, RdeConfig, "solver config")


def solve_bv(y0, v: VectorField, x: EuclideanPath, config: RdeConfig = RdeConfig()) -> EuclideanPath:
    """Left-point Euler for dY = V(Y) dX along a bounded-variation driver.

    With s substeps per grid interval the driver increment is split into s
    equal parts (exact for the linear interpolant); the returned path lives
    on the substepped grid.
    """
    _check_solve(v, x, EuclideanPath, config)
    if x.dim != v.n:
        raise DimensionMismatchError(f"driver dim {x.dim} != field driver dim {v.n}")
    y0 = _state(y0, v)
    s = config.substeps
    t = x.grid.times
    sub = t[:-1, None] + (np.diff(t)[:, None] * np.arange(1, s + 1)) / s
    times = np.concatenate([[0.0], sub.ravel()])
    dx = np.repeat(x.increments() / s, s, axis=0)
    return EuclideanPath(TimeGrid(times), _euler_steps(v, y0, [dx], times))


def _group_increments(x: GroupPath) -> list[np.ndarray]:
    """Levels 1..N of the one-step increments X_j^{-1} x X_{j+1}, level k of
    shape ``(steps, n**k)``: one batched inverse and one batched multiply."""
    inc = stacked_mul(stacked_inverse([lv[:-1] for lv in x.levels]),
                      [lv[1:] for lv in x.levels])
    return inc[1:]


def solve_rough(y0, v: VectorField, x: GroupPath, config: RdeConfig) -> EuclideanPath:
    """Step-N Euler for dY = V(Y) dX along a group-valued driver."""
    _check_solve(v, x, GroupPath, config)
    if config.scheme is not Scheme.ROUGH_EULER:
        raise ParameterError("solve_rough needs the rough Euler scheme")
    if x.depth != config.depth:
        raise DimensionMismatchError(
            f"driver depth {x.depth} != configured depth {config.depth}"
        )
    if x.dim != v.n:
        raise DimensionMismatchError(f"driver dim {x.dim} != field driver dim {v.n}")
    y0 = _state(y0, v)
    return EuclideanPath(x.grid, _euler_steps(v, y0, _group_increments(x), x.grid.times))


def ito_lyons(y0, v: VectorField, x, config: RdeConfig | None = None) -> EuclideanPath:
    """Solution map (y0, V, X) -> Y, dispatching on the driver type."""
    if config is not None:
        _instance(config, RdeConfig, "solver config")
    if isinstance(x, EuclideanPath):
        config = config or RdeConfig()
        if config.scheme is not Scheme.EULER_BV:
            raise ParameterError("Euclidean drivers use the BV Euler scheme")
        return solve_bv(y0, v, x, config)
    if isinstance(x, GroupPath):
        config = config or RdeConfig(depth=x.depth, scheme=Scheme.ROUGH_EULER)
        return solve_rough(y0, v, x, config)
    raise ParameterError(f"unsupported driver type {type(x).__name__}")
