"""Independent brute-force references for the fast implementations.

Everything here is written to be obviously correct rather than fast: full
enumeration over all partitions of an interval (so the interval may span at
most 12 grid points), plain double loops for the reference norms/distances,
the dense O(M^3) Nikolskii inner table ``shift_sup_table`` (by prefix
sums per shift), a penalty-free constrained minimizer for the depth-2
Carnot-Caratheodory norm, and the step-N Euler increment written term by
term with einsum.  None of it shares code with the dynamic programs in
``norms``/``distances`` or with the word polynomials in ``rde``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, PartitionSizeError
from .paths import EuclideanPath, GroupPath
from .tensor_core import (
    GroupElement,
    _count,
    group_distance,
    group_inverse,
    group_mul,
    grouplike_defect,
    homogeneous_norm,
)

MAX_ENUM_POINTS = 12


def enumerate_partition_supremum(weight, lo: int, hi: int) -> float:
    """Exact sup over all partitions of [lo, hi] of the summed block weights.

    ``weight`` is either a matrix or a callable on index pairs.  Every subset
    of the interior grid points is tried, so the interval may span at most
    ``MAX_ENUM_POINTS`` grid points (2^10 partitions).
    """
    if hi <= lo:
        return 0.0
    npts = hi - lo + 1
    if npts > MAX_ENUM_POINTS:
        raise PartitionSizeError(
            f"interval spans {npts} grid points, enumeration capped at {MAX_ENUM_POINTS}"
        )
    w = weight if callable(weight) else (lambda i, j: weight[i, j])
    interior = list(range(lo + 1, hi))
    best = -np.inf
    for mask in range(1 << len(interior)):
        pts = [lo]
        for b, pt in enumerate(interior):
            if mask >> b & 1:
                pts.append(pt)
        pts.append(hi)
        best = max(best, sum(w(pts[i], pts[i + 1]) for i in range(len(pts) - 1)))
    return float(best)


# ---------------------------------------------------------------------------
# reference norms (plain loops, no shared DP code)
# ---------------------------------------------------------------------------

def _dist_fn(path):
    if isinstance(path, EuclideanPath):
        return lambda i, j: float(np.linalg.norm(path.values[j] - path.values[i]))
    if isinstance(path, GroupPath):
        return lambda i, j: group_distance(path.values[i], path.values[j])
    raise ParameterError(f"unsupported path type {type(path).__name__}")


def oracle_qvar(path, q: float, interval=None) -> float:
    d = _dist_fn(path)
    lo, hi = path.grid.resolve_interval(interval)
    return enumerate_partition_supremum(lambda i, j: d(i, j) ** q, lo, hi) ** (1.0 / q)


def oracle_riesz(path, delta: float, p: float, interval=None) -> float:
    d = _dist_fn(path)
    t = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    w = lambda i, j: d(i, j) ** p / (t[j] - t[i]) ** (delta * p - 1.0)
    return enumerate_partition_supremum(w, lo, hi) ** (1.0 / p)


def oracle_mixed(path, delta: float, p: float, interval=None) -> float:
    d = _dist_fn(path)
    t = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    q = 1.0 / delta
    # the outer enumeration revisits each block many times; tabulate the
    # inner enumerations once per (u, v)
    inner = {
        (u, v): enumerate_partition_supremum(lambda i, j: d(i, j) ** q, u, v) ** (1.0 / q)
        for u in range(lo, hi) for v in range(u + 1, hi + 1)
    }
    w = lambda u, v: inner[u, v] ** p / (t[v] - t[u]) ** (delta * p - 1.0)
    return enumerate_partition_supremum(w, lo, hi) ** (1.0 / p)


def _oracle_nik_inner(dfun, times, u, v, delta, p):
    """Reference Nikolskii power on a block of a uniform grid (left Riemann sum)."""
    span = v - u
    if span == 0:
        return 0.0
    dt = (times[v] - times[u]) / span
    best = 0.0
    for m in range(1, span + 1):
        acc = 0.0
        for r in range(u, v - m):
            acc += dfun(r, r + m) ** p * dt
        best = max(best, (m * dt) ** (-delta * p) * acc)
    return best


def oracle_refined_nikolskii(path, delta: float, p: float, interval=None) -> float:
    d = _dist_fn(path)
    t = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    inner = {
        (u, v): _oracle_nik_inner(d, t, u, v, delta, p)
        for u in range(lo, hi) for v in range(u + 1, hi + 1)
    }
    return enumerate_partition_supremum(lambda u, v: inner[u, v], lo, hi) ** (1.0 / p)


def oracle_nikolskii(path, delta: float, p: float, interval=None) -> float:
    d = _dist_fn(path)
    t = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    return _oracle_nik_inner(d, t, lo, hi, delta, p) ** (1.0 / p)


def oracle_frac_sobolev(path, delta: float, p: float, interval=None) -> float:
    """Reference fractional Sobolev seminorm on a uniform grid, by a double loop
    over the grid pairs i < j at gap (j - i) * mesh:
    ( 2 mesh^2 sum_{i<j} d(f_i, f_j)^p / ((j - i) mesh)^(1 + delta*p) )^(1/p)."""
    d = _dist_fn(path)
    t = path.grid.times
    lo, hi = path.grid.resolve_interval(interval)
    if hi == lo:
        return 0.0
    dt = (t[hi] - t[lo]) / (hi - lo)
    acc = 0.0
    for i in range(lo, hi):
        for j in range(i + 1, hi + 1):
            acc += d(i, j) ** p / ((j - i) * dt) ** (1.0 + delta * p)
    return float((2.0 * acc * dt * dt) ** (1.0 / p))


def shift_sup_table(dist: np.ndarray, times: np.ndarray, lo: int, hi: int,
                    power: float, hexp: float) -> np.ndarray:
    """Nikolskii-type inner table on a uniform mesh, the O(M^3) table that
    ``norms.shift_partition_sup`` never builds.

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


# ---------------------------------------------------------------------------
# reference level distances
# ---------------------------------------------------------------------------

def _level_diff_fn(x1: GroupPath, x2: GroupPath, k: int):
    cache = {}

    def d(i, j):
        if (i, j) not in cache:
            a = group_mul(group_inverse(x1.values[i]), x1.values[j]).level(k)
            b = group_mul(group_inverse(x2.values[i]), x2.values[j]).level(k)
            cache[i, j] = float(np.linalg.norm((a - b).ravel()))
        return cache[i, j]

    return d


def oracle_rho_qvar(x1, x2, q, k, interval=None) -> float:
    d = _level_diff_fn(x1, x2, k)
    lo, hi = x1.grid.resolve_interval(interval)
    return enumerate_partition_supremum(lambda i, j: d(i, j) ** (q / k), lo, hi) ** (k / q)


def oracle_rho_riesz(x1, x2, delta, p, k, interval=None) -> float:
    d = _level_diff_fn(x1, x2, k)
    t = x1.grid.times
    lo, hi = x1.grid.resolve_interval(interval)
    w = lambda i, j: d(i, j) ** (p / k) / (t[j] - t[i]) ** (delta * p - 1.0)
    return enumerate_partition_supremum(w, lo, hi) ** (k / p)


def oracle_rho_mixed(x1, x2, delta, p, k, interval=None) -> float:
    d = _level_diff_fn(x1, x2, k)
    t = x1.grid.times
    lo, hi = x1.grid.resolve_interval(interval)
    q = 1.0 / delta
    inner = {
        (u, v): enumerate_partition_supremum(lambda i, j: d(i, j) ** (q / k), u, v)
        for u in range(lo, hi) for v in range(u + 1, hi + 1)
    }
    w = lambda u, v: inner[u, v] ** (p / q) / (t[v] - t[u]) ** (delta * p - 1.0)
    return enumerate_partition_supremum(w, lo, hi) ** (k / p)


def oracle_rho_nikolskii_hat(x1, x2, delta, p, k, interval=None) -> float:
    d = _level_diff_fn(x1, x2, k)
    t = x1.grid.times
    lo, hi = x1.grid.resolve_interval(interval)
    inner = {
        (u, v): _oracle_nik_inner(d, t, u, v, delta * k, p / k)
        for u in range(lo, hi) for v in range(u + 1, hi + 1)
    }
    return enumerate_partition_supremum(lambda u, v: inner[u, v], lo, hi) ** (k / p)


# ---------------------------------------------------------------------------
# reference RDE step (einsum over the field's value and derivatives)
# ---------------------------------------------------------------------------

def euler_step_increment(v, y: np.ndarray, g) -> np.ndarray:
    """Step-N Euler increment sum over words of (V_word Id)(y) pi_k(g)^word.

    ``v`` is a ``VectorField``; ``g[k]`` is level k of the step's group
    increment as an array of shape ``(n,) * k`` (k = 1..N; ``g[0]`` is not
    read).  The solvers in ``rde`` build the same step from flattened
    coefficients; this is the formula written out term by term.
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


# ---------------------------------------------------------------------------
# Carnot-Caratheodory norm at depth 2 in the plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CcResult:
    value: float
    converged: bool
    residual: float


def cc_norm_bruteforce(g: GroupElement, segments: int = 24, starts: int = 8,
                       seed: int = 0, with_info: bool = False):
    """Upper bound on the Carnot-Caratheodory norm of a depth-2 planar element.

    Minimizes the length of a polygonal path whose depth-2 signature equals
    ``g``.  For a group-like g the signature constraint reduces to matching
    the endpoint displacement and the signed (Levy) area, which gives a
    smooth equality-constrained problem solved by SLSQP from several seeded
    starts.  Non-convergence is reported in the result; the best value found
    is still a valid upper bound.  SciPy, a test dependency, is imported here
    and nowhere else in the package.
    """
    from scipy.optimize import minimize

    if g.depth != 2 or g.dim != 2:
        raise ParameterError("the CC oracle supports depth 2 in the plane only")
    segments = _count(segments, "segments", 0)
    if not 2 <= segments <= 32:
        raise ParameterError("segments must lie in 2..32")
    starts, seed = _count(starts, "starts", 1), _count(seed, "seed", 0)
    if grouplike_defect(g) > 1e-8:
        raise ParameterError("element is not group-like; no path has this signature")

    if homogeneous_norm(g) < 1e-12:
        res = CcResult(0.0, True, 0.0)
        return res if with_info else res.value

    chord = np.asarray(g.level(1), dtype=float)
    l2 = np.asarray(g.level(2), dtype=float)
    area = 0.5 * (l2[0, 1] - l2[1, 0])
    k = segments
    eps = 1e-16

    def unpack(z):
        return z.reshape(k, 2)

    def length(z):
        d = unpack(z)
        return float(np.sum(np.sqrt(np.sum(d * d, axis=1) + eps)))

    def length_grad(z):
        d = unpack(z)
        return (d / np.sqrt(np.sum(d * d, axis=1) + eps)[:, None]).ravel()

    def chord_con(z):
        return unpack(z).sum(axis=0) - chord

    chord_jac_mat = np.tile(np.eye(2), (1, k))

    def signed_area(z):
        d = unpack(z)
        sx, sy = d[:, 0], d[:, 1]
        # 0.5 * sum_{i<j} (dx_i dy_j - dy_i dx_j) via suffix sums
        suf_x = np.concatenate([np.cumsum(sx[::-1])[::-1][1:], [0.0]])
        suf_y = np.concatenate([np.cumsum(sy[::-1])[::-1][1:], [0.0]])
        return 0.5 * float(np.sum(sx * suf_y - sy * suf_x))

    def area_grad(z):
        d = unpack(z)
        sx, sy = d[:, 0], d[:, 1]
        suf_x = np.concatenate([np.cumsum(sx[::-1])[::-1][1:], [0.0]])
        suf_y = np.concatenate([np.cumsum(sy[::-1])[::-1][1:], [0.0]])
        pre_x = np.concatenate([[0.0], np.cumsum(sx)[:-1]])
        pre_y = np.concatenate([[0.0], np.cumsum(sy)[:-1]])
        grad = np.empty((k, 2))
        grad[:, 0] = 0.5 * (suf_y - pre_y)
        grad[:, 1] = 0.5 * (pre_x - suf_x)
        return grad.ravel()

    def initial_increments(rng, jitter):
        tgrid = np.linspace(0.0, 1.0, k + 1)
        clen = float(np.linalg.norm(chord))
        if clen > 1e-9:
            normal = np.array([-chord[1], chord[0]]) / clen
            bump = np.pi * area / (2.0 * clen)
            pts = np.outer(tgrid, chord) + np.outer(np.sin(np.pi * tgrid) * bump, normal)
        else:
            r = np.sqrt(abs(area) / np.pi) if area != 0.0 else 0.1
            sgn = 1.0 if area >= 0 else -1.0
            ang = 2.0 * np.pi * tgrid
            pts = np.column_stack([r * np.sin(ang), sgn * r * (1.0 - np.cos(ang))])
            pts[-1] = pts[0]
        scale = max(np.abs(pts).max(), 1e-3)
        if jitter > 0:
            pts = pts + jitter * scale * rng.standard_normal(pts.shape)
            pts[0] = 0.0
        return np.diff(pts, axis=0).ravel()

    constraints = [
        {"type": "eq", "fun": chord_con, "jac": lambda z: chord_jac_mat},
        {"type": "eq", "fun": lambda z: np.array([signed_area(z) - area]),
         "jac": lambda z: area_grad(z)[None, :]},
    ]

    rng = np.random.default_rng(seed)
    best = None
    for trial in range(starts):
        z0 = initial_increments(rng, 0.0 if trial == 0 else 0.15)
        sol = minimize(
            length, z0, jac=length_grad, method="SLSQP", constraints=constraints,
            options={"maxiter": 300, "ftol": 1e-12},
        )
        resid = float(
            np.linalg.norm(chord_con(sol.x)) + abs(signed_area(sol.x) - area)
        )
        scale = max(1.0, float(np.linalg.norm(chord)), abs(area))
        # feasibility is what makes the length a valid upper bound; SLSQP's
        # own success flag can stall on the constraint manifold at optimum
        ok = bool(resid < 1e-6 * scale)
        cand = (length(sol.x), ok, resid)
        if best is None or (cand[1], -cand[0]) > (best[1], -best[0]):
            best = cand
    res = CcResult(value=best[0], converged=best[1], residual=best[2])
    return res if with_info else res.value
