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
validity box (a Euclidean ball around the initial condition) raise
``BlowUpError`` carrying the exit time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import BlowUpError, DimensionMismatchError, ParameterError
from .paths import EuclideanPath, GroupPath, TimeGrid
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
        for name, arr, shape in (
            ("const", self.const, (self.n, self.m)),
            ("lin", self.lin, (self.n, self.m, self.m)),
            ("quad", self.quad, (self.n, self.m, self.m, self.m)),
        ):
            a = np.array(arr, dtype=float, copy=True)
            if a.shape != shape:
                raise ParameterError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ParameterError(f"{name} contains non-finite entries")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
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
        a = _field_array(matrices, "matrices", 3)
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.LINEAR, m, n, np.zeros((n, m)), a,
                   np.zeros((n, m, m, m)), gamma, box_radius)

    @classmethod
    def affine(cls, matrices, offsets, gamma=2.5, box_radius=10.0) -> "VectorField":
        a = _field_array(matrices, "matrices", 3)
        c = _field_array(offsets, "offsets", 2)
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.AFFINE, m, n, c, a, np.zeros((n, m, m, m)),
                   gamma, box_radius)

    @classmethod
    def polynomial(cls, constants, matrices, quadratics, gamma=2.5,
                   box_radius=10.0) -> "VectorField":
        c = _field_array(constants, "offsets", 2)
        a = _field_array(matrices, "matrices", 3)
        q = _field_array(quadratics, "quadratics", 4)
        q = 0.5 * (q + np.swapaxes(q, 2, 3))
        n, m = a.shape[0], a.shape[1]
        return cls(FieldFamily.POLYNOMIAL, m, n, c, a, q, gamma, box_radius)

    # -- evaluation ---------------------------------------------------------

    def value(self, y: np.ndarray) -> np.ndarray:
        """V(y) as an (m, n) matrix; column i is V_i(y)."""
        y = np.asarray(y, dtype=float)
        out = self.const + np.einsum("iab,b->ia", self.lin, y)
        if self.quad.any():
            out = out + np.einsum("iabc,b,c->ia", self.quad, y, y)
        return out.T

    def jac(self, y: np.ndarray) -> np.ndarray:
        """J[i, a, b] = d V_i^a / d y_b."""
        y = np.asarray(y, dtype=float)
        j = self.lin.copy()
        if self.quad.any():
            j = j + 2.0 * np.einsum("iabc,c->iab", self.quad, y)
        return j

    def hess(self, y: np.ndarray) -> np.ndarray:
        """H[i, a, b, c] = d^2 V_i^a / d y_b d y_c (constant for these families)."""
        return 2.0 * self.quad

    def scaled(self, factor: float) -> "VectorField":
        return VectorField(self.family, self.m, self.n, factor * self.const,
                           factor * self.lin, factor * self.quad, self.gamma,
                           self.box_radius)

    def derivative_defect(self, points, h: float = 1e-5) -> float:
        """Max relative error of the analytic Jacobian/Hessian vs central differences."""
        worst = 0.0
        for y in points:
            y = np.asarray(y, dtype=float)
            jac_fd = np.empty((self.n, self.m, self.m))
            hess_fd = np.empty((self.n, self.m, self.m, self.m))
            for b in range(self.m):
                e = np.zeros(self.m)
                e[b] = h
                jac_fd[:, :, b] = (self.value(y + e) - self.value(y - e)).T / (2 * h)
                hess_fd[:, :, b, :] = (self.jac(y + e) - self.jac(y - e)) / (2 * h)
            for exact, fd in ((self.jac(y), jac_fd), (self.hess(y), hess_fd)):
                scale = max(np.abs(exact).max(), np.abs(fd).max(), 1.0)
                worst = max(worst, float(np.abs(exact - fd).max() / scale))
        return worst

    def lip_norm(self, center, radius=None, samples: int = 256, seed: int = 0) -> float:
        """Sampled bound for the Lip-gamma norm on the validity ball.

        Maximum over sampled ball points of |V|, |DV| and |D^2 V| (operator
        norms replaced by Frobenius norms); the top-derivative Hoelder
        constant vanishes for these polynomial families.
        """
        center = np.asarray(center, dtype=float)
        radius = self.box_radius if radius is None else radius
        rng = np.random.default_rng(seed)
        pts = center + radius * rng.uniform(-1.0, 1.0, size=(samples, self.m))
        best = 0.0
        for y in pts:
            best = max(
                best,
                float(np.linalg.norm(self.value(y))),
                float(np.linalg.norm(self.jac(y).ravel())),
                float(np.linalg.norm(self.hess(y).ravel())),
            )
        return best

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
                n, m = _spec_size(spec["n"], "n"), _spec_size(spec["m"], "m")
        except KeyError as exc:
            raise ParameterError(f"the field spec lacks the key {exc}") from None
        gamma = _spec_float(spec.get("lip_gamma", 2.5), "lip_gamma")
        radius = _spec_float(spec.get("box_radius", 10.0), "box_radius")
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


def _field_array(value, name: str, ndim: int) -> np.ndarray:
    """Field coefficient ``name`` as a float array with ``ndim`` axes."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"the field entry {name!r} is not a numeric array") from None
    if a.ndim != ndim:
        raise ParameterError(f"the field entry {name!r} needs {ndim} axes, got {a.ndim}")
    return a


def _spec_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"the field spec entry {name!r} must be a number, "
                             f"got {value!r}") from None


def _spec_size(value, name: str) -> int:
    try:
        size = int(value)
    except (TypeError, ValueError):
        size = 0
    if size < 1:
        raise ParameterError(f"the field spec entry {name!r} must be a positive integer, "
                             f"got {value!r}")
    return size


@dataclass(frozen=True)
class RdeConfig:
    """Scheme selection: truncation depth, substeps per grid interval, scheme tag."""

    depth: int = 1
    substeps: int = 1
    scheme: Scheme = Scheme.EULER_BV

    def __post_init__(self):
        if self.depth not in (1, 2, 3):
            raise ParameterError(f"depth must be 1, 2 or 3, got {self.depth}")
        if self.substeps < 1:
            raise ParameterError("substeps must be >= 1")
        if self.scheme is Scheme.EULER_BV and self.depth != 1:
            raise ParameterError("the BV Euler scheme runs at depth 1")
        if self.scheme is Scheme.ROUGH_EULER and self.substeps != 1:
            raise ParameterError(
                "rough Euler does not substep (group increments have no "
                "canonical fractional splitting here); refine the driver grid instead"
            )


def _check_box(y, y0, radius, t):
    if np.linalg.norm(y - y0) > radius:
        raise BlowUpError(t)


def solve_bv(y0, v: VectorField, x: EuclideanPath, config: RdeConfig = RdeConfig()) -> EuclideanPath:
    """Left-point Euler for dY = V(Y) dX along a bounded-variation driver.

    With s substeps per grid interval the driver increment is split into s
    equal parts (exact for the linear interpolant); the returned path lives
    on the substepped grid.
    """
    if x.dim != v.n:
        raise DimensionMismatchError(f"driver dim {x.dim} != field driver dim {v.n}")
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    if y0.size != v.m:
        raise DimensionMismatchError(f"y0 has dim {y0.size}, field state dim {v.m}")
    s = config.substeps
    times = [0.0]
    ys = [y0]
    y = y0
    tgrid = x.grid.times
    for j, dx in enumerate(x.increments()):
        t0, t1 = tgrid[j], tgrid[j + 1]
        for r in range(s):
            y = y + v.value(y) @ (dx / s)
            t = t0 + (t1 - t0) * (r + 1) / s
            _check_box(y, y0, v.box_radius, t)
            times.append(t)
            ys.append(y)
    return EuclideanPath(TimeGrid(np.array(times)), np.stack(ys))


def _euler_step_increment(v: VectorField, y: np.ndarray, g) -> np.ndarray:
    """Step-N Euler increment sum over words of (V_word Id)(y) pi_k(g)^word.

    ``g[k]`` is level k of the step's group increment as an array of shape
    ``(n,) * k`` (k = 1..N; ``g[0]`` is not read).
    """
    vmat = v.value(y)                       # (m, n)
    out = vmat @ g[1]
    if len(g) > 2:
        jac = v.jac(y)                      # (i, a, b)
        out = out + np.einsum("jab,bi,ij->a", jac, vmat, g[2])
    if len(g) > 3:
        hes = v.hess(y)                     # (k, a, b, c)
        g3 = g[3]
        out = out + np.einsum("kabc,bi,cj,ijk->a", hes, vmat, vmat, g3)
        out = out + np.einsum("kab,jbc,ci,ijk->a", jac, jac, vmat, g3)
    return out


def solve_rough(y0, v: VectorField, x: GroupPath, config: RdeConfig) -> EuclideanPath:
    """Step-N Euler for dY = V(Y) dX along a group-valued driver.

    The one-step increments X_j^{-1} x X_{j+1} of all steps come from one
    batched inverse and one batched multiply before the step loop.
    """
    if config.scheme is not Scheme.ROUGH_EULER:
        raise ParameterError("solve_rough needs the rough Euler scheme")
    if x.depth != config.depth:
        raise DimensionMismatchError(
            f"driver depth {x.depth} != configured depth {config.depth}"
        )
    if x.dim != v.n:
        raise DimensionMismatchError(f"driver dim {x.dim} != field driver dim {v.n}")
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    if y0.size != v.m:
        raise DimensionMismatchError(f"y0 has dim {y0.size}, field state dim {v.m}")
    steps = x.grid.intervals
    inc = stacked_mul(stacked_inverse([lv[:-1] for lv in x.levels]),
                      [lv[1:] for lv in x.levels])
    inc = [lv.reshape((steps,) + (x.dim,) * k) for k, lv in enumerate(inc)]
    ys = [y0]
    y = y0
    for j in range(steps):
        y = y + _euler_step_increment(v, y, [lv[j] for lv in inc])
        _check_box(y, y0, v.box_radius, float(x.grid.times[j + 1]))
        ys.append(y)
    return EuclideanPath(x.grid, np.stack(ys))


def ito_lyons(y0, v: VectorField, x, config: RdeConfig | None = None) -> EuclideanPath:
    """Solution map (y0, V, X) -> Y, dispatching on the driver type."""
    if isinstance(x, EuclideanPath):
        config = config or RdeConfig()
        if config.scheme is not Scheme.EULER_BV:
            raise ParameterError("Euclidean drivers use the BV Euler scheme")
        return solve_bv(y0, v, x, config)
    if isinstance(x, GroupPath):
        config = config or RdeConfig(depth=x.depth, scheme=Scheme.ROUGH_EULER)
        return solve_rough(y0, v, x, config)
    raise ParameterError(f"unsupported driver type {type(x).__name__}")
