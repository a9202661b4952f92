"""Verification harness: seeded path families, pass/fail check records, suites.

Every check produces a ``CheckRecord`` that is reproducible bit-for-bit from
its seed and parameters.  Explicit-constant inequalities (constant 1 or a
closed form) are hard-asserted with 1e-9 relative slack plus quadrature
slack where integrals appear; implicit-constant inclusions only report the
empirical constant ``max(lhs/rhs)`` over the family, asserting finiteness
and stability under one grid refinement.  Deliberately failing negative
controls guard against vacuous passes: a suite is OK only if every hard
check passes *and* every negative control fails.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import (
    DenseSource,
    DistKind,
    _check_dist,
    level_diff_matrix,
    rho_aggregate,
    rho_mixed_level,
)
from .exceptions import BlowUpError, ParameterError
from .norms import (
    _power_sup_family,
    _require_uniform,
    dp_partition_sup,
    frac_sobolev_norm,
    holder_norm,
    mixed_norm,
    nikolskii_norm,
    qvar_norm,
    refined_nikolskii_norm,
    riesz_norm,
    shift_partition_sup,
)
from .paths import EuclideanPath, GroupPath, TimeGrid, _count, _instance, lift, resample_uniform
from .rde import VectorField, ito_lyons, max_point_norm
from .tensor_core import (
    _entries,
    _in_range,
    stacked_dilate,
    stacked_distance,
    stacked_exp,
    stacked_homogeneous_norm,
    stacked_inverse,
    stacked_level_norms,
    stacked_mul,
)

#: Frozen quasi-metric constant for the homogeneous surrogate distance.
#: Calibrated once on depths <= 3, dims <= 3: the max-over-levels norm is
#: genuinely subadditive (|pi_k(g x h)| <= (|g| + |h|)^k level by level), so
#: the exact triangle constant is 1.
TRIANGLE_K = 1.0

HARD_TOL = 1e-9


# ---------------------------------------------------------------------------
# check records and reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    """One verification outcome: pass iff lhs <= constant * rhs * (1 + tol)."""

    check_id: str
    params: dict
    lhs: float
    rhs: float
    constant: float | str
    passed: bool
    category: str = "hard"  # hard | reported | negative_control
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "constant": self.constant if isinstance(self.constant, str) else float(self.constant),
            "passed": bool(self.passed),
            "category": self.category,
            "notes": self.notes,
        }


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def ineq_record(check_id, lhs, rhs, constant=1.0, tol=HARD_TOL, params=None,
                category="hard", notes="") -> CheckRecord:
    """Inequality check lhs <= constant * rhs * (1 + tol)."""
    params = dict(params or {})
    params.setdefault("tolerance", tol)
    c = constant if not isinstance(constant, str) else 1.0
    passed = bool(lhs <= c * rhs * (1.0 + tol))
    return CheckRecord(check_id, params, float(lhs), float(rhs), constant,
                       passed, category, notes)


def equality_record(check_id, max_rel_dev, tol=HARD_TOL, params=None,
                    notes="") -> CheckRecord:
    """Two-sided equality check recorded as max relative deviation <= tol."""
    return ineq_record(check_id, max_rel_dev, tol, constant=1.0, tol=0.0,
                       params=params, notes=notes or "max relative deviation vs tolerance")


def reported_record(check_id, value, params=None, notes="") -> CheckRecord:
    """Empirical constant: asserted finite only, value logged."""
    return CheckRecord(check_id, dict(params or {}), float(value), 0.0,
                       "empirical", bool(np.isfinite(value)), "reported", notes)


def write_report_json(records, path) -> None:
    payload = {"schema_version": 1, "checks": [r.to_dict() for r in records]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_report_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check_id", "category", "passed", "lhs", "rhs", "constant", "notes"])
        for r in records:
            w.writerow([r.check_id, r.category, r.passed, repr(r.lhs), repr(r.rhs),
                        r.constant, r.notes])


def suite_ok(records) -> bool:
    """Exit condition: all hard checks pass and all negative controls fail."""
    for r in records:
        if r.category == "hard" and not r.passed:
            return False
        if r.category == "negative_control" and r.passed:
            return False
    return True


# ---------------------------------------------------------------------------
# seeded path families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathFamily:
    """Reproducible family of sampled paths on [0, 1].

    Generators: ``smooth_fourier`` (low-frequency trigonometric series with
    an analytic derivative), ``random_walk`` (piecewise-linear Gaussian
    walk), ``fractional`` (spectral series with amplitude decay set by
    ``hurst``; its empirical Hoelder exponent lands near ``hurst``,
    diagnostic only), ``zigzag`` (alternating slopes on eight equal pieces).
    """

    generator: str
    count: int
    grid_size: int
    dim: int = 1
    seed: int = 0
    hurst: float = 0.75

    def paths(self, refine: int = 1) -> list[EuclideanPath]:
        return [p for p, _ in self._build(refine)]

    def paths_with_derivatives(self, refine: int = 1):
        """Pairs (path, derivative callable); derivative is None unless smooth_fourier."""
        return self._build(refine)

    def _build(self, refine: int):
        out = []
        grid = TimeGrid.uniform(self.grid_size * refine)  # shared by the family's paths
        for idx in range(self.count):
            rng = np.random.default_rng([self.seed, idx])
            if self.generator == "smooth_fourier":
                out.append(_fourier_path(rng, grid, self.dim))
            elif self.generator == "random_walk":
                out.append((_walk_path(rng, grid, refine, self.dim), None))
            elif self.generator == "fractional":
                out.append((_fractional_path(rng, grid, self.dim, self.hurst), None))
            elif self.generator == "zigzag":
                out.append((_zigzag_path(rng, grid, self.dim), None))
            else:
                raise ParameterError(f"unknown generator {self.generator!r}")
        return out


def _fourier_path(rng, grid, dim, modes=4):
    j = np.arange(1, modes + 1)
    a = rng.standard_normal((dim, modes)) / j
    b = rng.standard_normal((dim, modes)) / j

    def df(t):
        ang = 2.0 * np.pi * np.outer(np.atleast_1d(t), j)
        return np.cos(ang) @ a.T - np.sin(ang) @ b.T

    ang = 2.0 * np.pi * np.outer(grid.times, j)
    vals = np.sin(ang) @ (a / (2 * np.pi * j)).T + (np.cos(ang) - 1.0) @ (b / (2 * np.pi * j)).T
    return EuclideanPath(grid, vals), df


def _walk_path(rng, grid, refine, dim):
    # increments drawn at the finest supported resolution, then subsampled,
    # so refine=2 is a genuine refinement of the refine=1 path
    if refine not in (1, 2):
        raise ParameterError("random_walk families support refine in {1, 2}")
    fine = grid.intervals // refine * 2
    steps = rng.standard_normal((fine, dim)) * np.sqrt(1.0 / fine)
    fine_vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return EuclideanPath(grid, fine_vals[:: 2 // refine])


def _fractional_path(rng, grid, dim, hurst, modes=48):
    j = np.arange(1, modes + 1)
    amp = rng.standard_normal((dim, modes)) * j ** (-(hurst + 0.5))
    phase = rng.uniform(0, 2 * np.pi, (dim, modes))
    t = grid.times[:, None]
    vals = np.stack(
        [
            (amp[c] * (np.sin(2 * np.pi * t * j + phase[c]) - np.sin(phase[c]))).sum(axis=1)
            for c in range(dim)
        ],
        axis=1,
    )
    return EuclideanPath(grid, vals)


def _zigzag_path(rng, grid, dim, pieces=8):
    # alternating slopes of random magnitude on eight equal pieces
    mags = rng.uniform(0.5, 1.5, (dim, pieces))
    signs = np.ones(pieces)
    signs[1::2] = -1.0
    if rng.uniform() < 0.5:
        signs = -signs
    knots_t = np.linspace(0.0, 1.0, pieces + 1)
    knots_v = np.concatenate(
        [np.zeros((dim, 1)), np.cumsum(mags * signs / pieces, axis=1)], axis=1
    )
    vals = np.stack(
        [np.interp(grid.times, knots_t, knots_v[c]) for c in range(dim)], axis=1
    )
    return EuclideanPath(grid, vals)


def empirical_holder_exponent(path: EuclideanPath) -> float:
    """Log-log slope of the increment sup against the dyadic lags up to a
    quarter of the grid (diagnostic); a slope needs two lags, so the grid
    needs at least 8 intervals."""
    m = _instance(path, EuclideanPath, "path").grid.intervals
    if m < 8:
        raise ParameterError(f"empirical_holder_exponent needs at least 8 grid intervals, got {m}")
    lags, sups = [], []
    lag = 1
    while lag <= m // 4:
        d = np.linalg.norm(path.values[lag:] - path.values[:-lag], axis=1)
        lags.append(lag / m)
        sups.append(d.max())
        lag *= 2
    fit = np.polyfit(np.log(lags), np.log(np.maximum(sups, 1e-300)), 1)
    return float(fit[0])


@dataclass(frozen=True)
class RoughPairFamily:
    """Pairs of nearby lifted paths on one common uniform grid."""

    count: int
    grid_size: int
    dim: int = 2
    depth: int = 2
    seed: int = 0
    perturbation: float = 0.1

    def euclidean_pairs(self, refine: int = 1):
        base = PathFamily("random_walk", self.count, self.grid_size, self.dim, seed=self.seed)
        bump = PathFamily("random_walk", self.count, self.grid_size, self.dim,
                          seed=self.seed + 7919)
        out = []
        for p1, p2 in zip(base.paths(refine), bump.paths(refine)):
            v2 = p1.values + self.perturbation * p2.values
            out.append((p1, EuclideanPath(p1.grid, v2)))
        return out

    def pairs(self, refine: int = 1) -> list[tuple[GroupPath, GroupPath]]:
        return [
            (lift(p1, self.depth), lift(p2, self.depth))
            for p1, p2 in self.euclidean_pairs(refine)
        ]


# ---------------------------------------------------------------------------
# elementary checks
# ---------------------------------------------------------------------------

def _gaps(grid_times) -> np.ndarray:
    """The (M+1, M+1) matrix of t_j - t_i, zero on and below the diagonal."""
    t = np.asarray(grid_times, dtype=float)
    return np.maximum(t[None, :] - t[:, None], 0.0)


def check_superadditivity(w, grid_times, check_id="superadditivity", tol=HARD_TOL,
                          product_rule=True, category="hard") -> list[CheckRecord]:
    """Verify w[s,t] + w[t,u] <= w[s,u] over all grid triples s < t < u.

    ``w`` is an (M+1, M+1) weight matrix on ``grid_times``; only its cells
    i < j are read.  Also checks the product rule: w^alpha * (t-s)^beta stays
    super-additive for (alpha, beta) in {(0.5, 0.5), (1, 0.2)} (exponents
    summing >= 1).
    """
    w = np.triu(w, k=1)  # the other cells are zeroed before any power
    records = [_superadditivity_record(w, check_id, tol, category)]
    if product_rule:
        gap = _gaps(grid_times)
        for alpha, beta in ((0.5, 0.5), (1.0, 0.2)):  # both factors are 0 for i >= j
            records.append(_superadditivity_record(
                w**alpha * gap**beta, f"{check_id}_product_{alpha}_{beta}", tol, category))
    return records


def _superadditivity_record(w, check_id, tol, category):
    m = w.shape[0]
    worst = 0.0
    for j in range(1, m - 1):
        split = w[:j, j, None] + w[j, j + 1 :][None, :]
        direct = w[:j, j + 1 :]
        scale = np.maximum(direct, 1e-300)
        worst = max(worst, float(np.max(split / scale)))
    return ineq_record(check_id, worst, 1.0, tol=tol, category=category,
                       notes="max over triples of (w(s,t)+w(t,u))/w(s,u)")


def _safe_ratio(lhs, rhs):
    if rhs <= 0.0:
        return 0.0 if lhs <= 1e-14 else np.inf
    return lhs / rhs


def _stability_record(check_id, c0, c1, params, notes="") -> CheckRecord:
    """A constant ``c0`` and its value ``c1`` after one grid refinement within
    a factor 2 of each other: max(c0/c1, c1/c0) <= 2."""
    return ineq_record(check_id, max(_safe_ratio(c0, c1), _safe_ratio(c1, c0)), 2.0,
                       constant=1.0, params=params, notes=notes)


def _sub_intervals(rng, times, count):
    """A few random grid-aligned subintervals plus the full interval."""
    m = times.size - 1
    out = [(times[0], times[-1])]
    for _ in range(count):
        i = int(rng.integers(0, m))
        j = int(rng.integers(i + 1, m + 1))
        out.append((times[i], times[j]))
    return out


def check_embedding_chain(paths, delta, p, seed=0) -> list[CheckRecord]:
    """Explicit-constant embedding inequalities over a path family.

    Hard checks (constant 1 or closed form): the variation/Riesz
    interpolation bound, the pointwise increment bound, monotonicity in
    delta and p with their length-power constants, and Nikolskii <= refined
    Nikolskii.  Implicit-constant inclusions are reported separately by
    ``check_inclusion_constants``.
    """
    p = _check_dist(DistKind.RIESZ, delta, p)
    rng = np.random.default_rng([seed, 101])
    pr = {"delta": delta, "p": p, "paths": len(paths)}
    worst_interp = worst_point = worst_dmono = worst_pmono = worst_nik = 0.0
    dprime = delta - 0.05
    pprime = p - 1.0
    d_ok = dprime > 0 and p * dprime >= 1.0
    p_ok = pprime * delta >= 1.0
    # the Riesz norms at (delta, p), (delta', p) and (delta, p') and the
    # (1/delta)-variation of one path and interval come from one kernel
    # call; at 1/delta = 1 ``qvar_norm`` serves the variation as a step sum
    members = [(0, delta, p, 1)] + [(0, dprime, p, 1)] * d_ok + [(0, delta, pprime, 1)] * p_ok
    if delta != 1.0:
        members.append((0, None, 1.0 / delta, 1))
    for f in paths:
        t = f.grid.times
        for s, u in _sub_intervals(rng, t, 3):
            iv = (s, u)
            length = u - s
            i, j = f.grid.resolve_interval(iv)
            rz, *others = _power_sup_family([f], i, j, members)
            qv = others.pop() if delta != 1.0 else qvar_norm(f, 1.0, iv)
            worst_interp = max(worst_interp, _safe_ratio(qv, rz * length ** (delta - 1.0 / p)))
            dend = float(np.linalg.norm(f.values[j] - f.values[i]))
            worst_point = max(worst_point, _safe_ratio(dend, rz * length ** (delta - 1.0 / p)))
            if d_ok:
                worst_dmono = max(
                    worst_dmono,
                    _safe_ratio(others.pop(0), length ** (delta - dprime) * rz),
                )
            if p_ok:
                worst_pmono = max(
                    worst_pmono,
                    _safe_ratio(others.pop(0), length ** (1.0 / pprime - 1.0 / p) * rz),
                )
        if f.grid.is_uniform:
            worst_nik = max(
                worst_nik,
                _safe_ratio(nikolskii_norm(f, delta, p), refined_nikolskii_norm(f, delta, p)),
            )
    records = [
        ineq_record("embed_interp_bound", worst_interp, 1.0, params=pr,
                    notes="qvar <= riesz * len^(delta-1/p), constant 1"),
        ineq_record("embed_pointwise_bound", worst_point, 1.0, params=pr,
                    notes="d(f_s,f_t) <= riesz * len^(delta-1/p), constant 1"),
        ineq_record("embed_nik_le_refined", worst_nik, 1.0, params=pr,
                    notes="Nikolskii <= refined Nikolskii, constant 1"),
    ]
    if d_ok:
        records.append(
            ineq_record("embed_delta_monotone", worst_dmono, 1.0,
                        params={**pr, "delta_prime": dprime},
                        notes="riesz(delta') <= len^(delta-delta') riesz(delta)"))
    else:
        records.append(CheckRecord("embed_delta_monotone", {**pr, "delta_prime": dprime},
                                   0.0, 0.0, 1.0, True, "reported",
                                   "skipped: p < 1/delta' violates the hypothesis"))
    if p_ok:
        records.append(
            ineq_record("embed_p_monotone", worst_pmono, 1.0,
                        params={**pr, "p_prime": pprime},
                        notes="riesz(p') <= len^(1/p'-1/p) riesz(p)"))
    else:
        records.append(CheckRecord("embed_p_monotone", {**pr, "p_prime": pprime},
                                   0.0, 0.0, 1.0, True, "reported",
                                   "skipped: p' < 1/delta violates the hypothesis"))
    return records


def check_inclusion_constants(paths, refined_paths, delta, p, eps=0.1) -> list[CheckRecord]:
    """Empirical constants for the implicit-constant inclusions.

    Sobolev into Riesz, Riesz into Nikolskii, and Nikolskii(delta+eps) into
    refined Nikolskii(delta); each constant is max(lhs/rhs) over the family,
    reported together with its ratio across one grid refinement (asserted
    within factor 2).
    """
    recs = []
    pr = {"delta": delta, "p": p, "eps": eps}

    def constants(fams):
        cw = cv = cn = 0.0
        for f in fams:
            v = riesz_norm(f, delta, p)
            cw = max(cw, _safe_ratio(v, frac_sobolev_norm(f, delta, p)))
            cv = max(cv, _safe_ratio(nikolskii_norm(f, delta, p), v))
            cn = max(cn, _safe_ratio(refined_nikolskii_norm(f, delta, p),
                                     nikolskii_norm(f, delta + eps, p)))
        return cw, cv, cn

    coarse = constants(paths)
    fine = constants(refined_paths)
    for name, c0, c1 in zip(
        ("inclusion_sobolev_riesz", "inclusion_riesz_nikolskii", "inclusion_nik_refined"),
        coarse, fine,
    ):
        recs.append(reported_record(name, c0, params=pr,
                                    notes=f"refined-grid constant {float(c1)!r}"))
        recs.append(_stability_record(f"{name}_stability", c0, c1, pr,
                                      "constant ratio across one refinement within factor 2"))
    return recs


def check_p_limit(paths, delta=0.5, ps=(8.0, 16.0, 32.0, 64.0),
                  gap_bound=0.05) -> list[CheckRecord]:
    """Riesz norm converges to the Hoelder norm as p grows (horizon 1 grids).

    The gap |riesz - hoelder| must be non-increasing along ``ps`` and end
    below ``gap_bound`` relative to the Hoelder value.
    """
    worst_gap = 0.0
    worst_mono = 0.0
    for f in paths:
        hol = holder_norm(f, delta)
        if hol <= 0:
            continue
        gaps = [abs(riesz_norm(f, delta, p) - hol) / hol for p in ps]
        worst_gap = max(worst_gap, gaps[-1])
        worst_mono = max(
            worst_mono, max(gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1))
        )
    return [
        ineq_record("p_limit_monotone", worst_mono, HARD_TOL, tol=0.0, constant=1.0,
                    params={"delta": delta, "ps": list(ps)},
                    notes="max increase of the relative gap along p"),
        ineq_record("p_limit_gap", worst_gap, gap_bound, constant=1.0, tol=0.0,
                    params={"delta": delta, "ps": list(ps)},
                    notes="final relative gap below 5%"),
    ]


def check_sobolev_nikolskii(paths, delta=0.3, delta_prime=0.45, p=4.0,
                            slack=0.05) -> list[CheckRecord]:
    """Explicit Sobolev-from-Nikolskii bound with its closed-form constant.

    W(delta, p) <= (2 / ((delta'-delta) p))^(1/p) * N(delta', p) * T^(delta'-delta),
    quadrature slack ``slack``.
    """
    const = (2.0 / ((delta_prime - delta) * p)) ** (1.0 / p)
    worst = 0.0
    for f in paths:
        horizon = f.grid.horizon
        rhs = const * nikolskii_norm(f, delta_prime, p) * horizon ** (delta_prime - delta)
        worst = max(worst, _safe_ratio(frac_sobolev_norm(f, delta, p), rhs))
    return [
        ineq_record("sobolev_nikolskii_bound", worst, 1.0, tol=slack,
                    params={"delta": delta, "delta_prime": delta_prime, "p": p,
                            "constant_value": const, "paths": len(paths)},
                    constant=1.0,
                    notes="closed-form constant, 5% quadrature slack")
    ]


def check_bv_identity(paths_with_derivs, p, tol=0.01, quad_points=8192) -> list[CheckRecord]:
    """At regularity 1 the Riesz, mixed and refined Nikolskii norms all equal
    the L^p norm of the derivative; compared against direct quadrature."""
    worst = {"riesz": 0.0, "mixed": 0.0, "refined_nikolskii": 0.0}
    for f, df in paths_with_derivs:
        tq = np.linspace(0.0, f.grid.horizon, quad_points + 1)
        speed = np.linalg.norm(df(tq), axis=1)
        lp = (np.trapezoid(speed**p, tq)) ** (1.0 / p)
        riesz = riesz_norm(f, 1.0, p)  # mixed_norm is riesz_norm
        vals = {
            "riesz": riesz,
            "mixed": riesz,
            "refined_nikolskii": refined_nikolskii_norm(f, 1.0, p),
        }
        for k, v in vals.items():
            worst[k] = max(worst[k], abs(v - lp) / lp)
    return [
        ineq_record(f"bv_identity_{k}", worst[k], tol, constant=1.0, tol=0.0,
                    params={"p": p, "quad_points": quad_points},
                    notes="relative deviation from the derivative L^p quadrature")
        for k in worst
    ]


def check_scaling_laws(paths, delta, p, c=2.5, lam=2.0) -> list[CheckRecord]:
    """Exact homogeneity: spatial scaling by c multiplies every norm by c;
    mapping the grid onto [0, lam T] multiplies Riesz/mixed norms by
    lam^(1/p - delta) and the Hoelder norm by lam^(-delta).  The mixed norm
    is the Riesz norm, so its deviations are the Riesz ones."""
    worst_space = worst_time = 0.0
    for f in paths:
        scaled = EuclideanPath(f.grid, c * f.values)
        stretched = EuclideanPath(TimeGrid(lam * f.grid.times), f.values)
        for fn, factor_s, factor_t in (
            (lambda g: riesz_norm(g, delta, p), c, lam ** (1.0 / p - delta)),
            (lambda g: holder_norm(g, delta), c, lam ** (-delta)),
        ):
            base = fn(f)
            if base <= 0:
                continue
            worst_space = max(worst_space, abs(fn(scaled) - factor_s * base) / (factor_s * base))
            worst_time = max(worst_time, abs(fn(stretched) - factor_t * base) / (factor_t * base))
    return [
        equality_record("scaling_spatial", worst_space, tol=1e-12,
                        params={"delta": delta, "p": p, "c": c}),
        equality_record("scaling_time", worst_time, tol=1e-12,
                        params={"delta": delta, "p": p, "lam": lam}),
    ]


def check_norm_superadditivity(paths, delta, p, seed=0) -> list[CheckRecord]:
    """Super-additivity of riesz^p, mixed^p and refined-Nikolskii^p over
    adjacent grid intervals, on random triples; the mixed norm is the Riesz
    norm, so its ratio is the Riesz one."""
    rng = np.random.default_rng([seed, 55])
    worst = {"riesz": 0.0, "refined_nikolskii": 0.0}
    fns = {
        "riesz": lambda f, iv: riesz_norm(f, delta, p, iv) ** p,
        "refined_nikolskii": lambda f, iv: refined_nikolskii_norm(f, delta, p, iv) ** p,
    }
    for f in paths:
        t = f.grid.times
        m = t.size - 1
        for _ in range(3):
            i = int(rng.integers(0, m - 1))
            j = int(rng.integers(i + 1, m))
            k = int(rng.integers(j + 1, m + 1))
            for name, fn in fns.items():
                if name == "refined_nikolskii" and not f.grid.is_uniform:
                    continue
                split = fn(f, (t[i], t[j])) + fn(f, (t[j], t[k]))
                whole = fn(f, (t[i], t[k]))
                worst[name] = max(worst[name], _safe_ratio(split, whole))
    worst["mixed"] = worst["riesz"]
    return [
        ineq_record(f"superadditive_{name}", worst[name], 1.0,
                    params={"delta": delta, "p": p},
                    notes="(norm^p on [s,t]) + (norm^p on [t,u]) <= norm^p on [s,u]")
        for name in ("riesz", "mixed", "refined_nikolskii")
    ]


def dense_columns(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns lo+1..hi of a dense matrix, rows [lo, hi], as one column block
    of ``dp_partition_sup``.

    Row c of the result is column lo+1+c, ``matrix[..., lo:hi+1, lo+1+c]``;
    leading batch axes of a stack of matrices are kept.
    """
    return np.swapaxes(matrix[..., lo : hi + 1, lo + 1 : hi + 1], -1, -2)


def dp_power_table(weight: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Partition suprema for every subinterval: B[i, j] = sup over partitions of [i, j].

    The one table over all subintervals of the package, the q-variation
    powers that the pair control function and the nested mixed reference
    need.  B[i, j] = max_{i <= k < j} ( B[i, k] + weight[k, j] ), filled in
    push form: the cells i < j of the window start at -inf, and each
    finished column k pushes its candidates B[i, k] + weight[k, j] for all
    rows i <= k and columns j > k at once, one NumPy ``maximum`` per column.
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
    size = int(np.prod(batch))
    t = b[..., lo : hi + 1, lo : hi + 1]
    w = weight[..., lo : hi + 1, lo : hi + 1]
    t[(..., *np.triu_indices(n, 1))] = -np.inf
    buf = np.empty(size * (n // 2 + 1) * ((n + 1) // 2 + 1))
    for k in range(n - 1):
        cand = buf[: size * (k + 1) * (n - k - 1)].reshape(*batch, k + 1, n - k - 1)
        np.add(t[..., : k + 1, k, None], w[..., k, None, k + 1 :], out=cand)
        np.maximum(t[..., : k + 1, k + 1 :], cand, out=t[..., : k + 1, k + 1 :])
    return b


#: Cells of one stacked (items, M+1, M+1) array of ``_nested_mixed``: a
#: family is served in chunks of about this size.
_FAMILY_CELLS = 1 << 16


def _family_chunks(family):
    """Consecutive runs of the distance sources ``family`` on one grid, each
    within ``_FAMILY_CELLS``."""
    chunk = []
    for src in family:
        if chunk and ((len(chunk) + 1) * len(src.grid) ** 2 > _FAMILY_CELLS
                      or not np.array_equal(src.grid.times, chunk[0].grid.times)):
            yield chunk
            chunk = []
        chunk.append(src)
    if chunk:
        yield chunk


def _nested_mixed(family, delta, ps, k=None) -> list[list[float]]:
    """Nested-definition mixed values of the distance sources ``family`` for
    every p of ``ps``: entry [a][b] is the value of source b at p = ps[a].
    With ``k`` None they are the mixed norms of paths, with a level k the
    level-k mixed distances of pairs, the sources their level-k differences;
    k sets the exponents only.  None is not 1 here: a path's exponent
    delta*p can differ from the level form p/q in the last bit.

    The independent reference for the Riesz = mixed grid identity that
    serves ``mixed_norm`` and ``rho_mixed_level``.  Sources on one grid are
    stacked in chunks; each chunk builds its O(M^3) table of block
    q-variation powers, q = 1/delta, once with the batched
    ``dp_power_table`` and runs the outer partition DP once per p with the
    batched ``dp_partition_sup``.  Each root is taken on a Python float.
    """
    q = 1.0 / delta
    values = [[] for _ in ps]
    for chunk in _family_chunks(family):
        times = chunk[0].grid.times
        m = len(times) - 1
        iu = np.triu_indices(m + 1, k=1)
        # each source's dense matrix, d(i, j) at [i, j], stacked C-ordered;
        # dp_power_table reads the cells i < j only, so only they are raised
        d = np.array([f._block(0, m + 1, 0, m + 1).T for f in chunk])
        np.power(d, q / (k or 1), out=d, where=np.tri(m + 1, k=-1, dtype=bool).T)
        inner = dp_power_table(d, 0, m)[:, iu[0], iu[1]]
        gap = times[iu[1]] - times[iu[0]]
        w = np.zeros_like(d)  # each p rewrites the cells i < j
        for out, p in zip(values, ps):
            expo, root = (delta * p, 1.0 / p) if k is None else (p / q, k / p)
            w[:, iu[0], iu[1]] = inner ** expo * gap ** (1.0 - delta * p)
            best = dp_partition_sup([dense_columns(w, 0, m)], 0, m, batch=(len(chunk),))
            out.extend(float(v) ** root for v in best)
    return values


def _family_riesz(family, delta, ps, k=1) -> list[list[float]]:
    """The Riesz values of the distance sources ``family`` at every p of
    ``ps``, laid out and read as by ``_nested_mixed``: ``riesz_norm`` of paths
    (k = 1), or ``rho_riesz_level`` of pairs at level k.  One ``_power_sup_family``
    call per same-grid chunk, its members every (source, p)."""
    ps = [_check_dist(DistKind.RIESZ, delta, p) for p in ps]
    values = [[] for _ in ps]
    for chunk in _family_chunks(family):
        got = _power_sup_family(chunk, 0, chunk[0].grid.intervals,
                                [(b, delta, p, k) for p in ps for b in range(len(chunk))])
        for i, out in enumerate(values):
            out.extend(got[i * len(chunk) : (i + 1) * len(chunk)])
    return values


def _family_refined_nikolskii(family, delta, p, k=1) -> list[float]:
    """The refined Nikolskii values of the distance sources ``family``, read as
    by ``_nested_mixed``: ``refined_nikolskii_norm`` of paths (k = 1), or
    ``rho_nikolskii_hat_level`` of pairs at level k.  One
    ``shift_partition_sup`` sweep per same-grid chunk."""
    values = []
    for chunk in _family_chunks(family):
        _require_uniform(chunk[0])
        values.extend(shift_partition_sup(chunk, 0, chunk[0].grid.intervals, delta, p, k))
    return values


def check_riesz_eq_mixed(paths, delta, ps) -> list[CheckRecord]:
    """Grid equality of the Riesz norm and the nested mixed norm (constant 1
    both ways), one record per p of ``ps``."""
    recs = []
    for p, riesz, nested in zip(ps, _family_riesz(paths, delta, ps),
                                _nested_mixed(paths, delta, ps)):
        dev = 0.0
        for a, b in zip(riesz, nested):
            dev = max(dev, abs(a - b) / max(a, b, 1e-300))
        recs.append(equality_record("riesz_eq_mixed", dev,
                                    params={"delta": delta, "p": p, "paths": len(paths)},
                                    notes="grid equality, constant 1 in both directions"))
    return recs


def check_riesz_characterization(paths, refined_paths, delta, p) -> list[CheckRecord]:
    """Reported two-sided constants between the mixed and refined Nikolskii
    norms with refinement stability."""
    pr = {"delta": delta, "p": p, "paths": len(paths)}

    def two_sided(fams):
        c1 = c2 = 0.0
        (mixed,) = _family_riesz(fams, delta, [p])  # mixed equals Riesz on every grid
        for mv, nh in zip(mixed, _family_refined_nikolskii(fams, delta, p)):
            c1 = max(c1, _safe_ratio(nh, mv))
            c2 = max(c2, _safe_ratio(mv, nh))
        return c1, c2

    c1, c2 = two_sided(paths)
    c1f, c2f = two_sided(refined_paths)
    recs = []
    for name, c0, cf in (("charact_nhat_over_mixed", c1, c1f),
                         ("charact_mixed_over_nhat", c2, c2f)):
        recs.append(reported_record(name, c0, params=pr,
                                    notes=f"refined-grid constant {cf!r}"))
        recs.append(_stability_record(f"{name}_stability", c0, cf, pr))
    return recs


# ---------------------------------------------------------------------------
# distance checks and the control function
# ---------------------------------------------------------------------------

def check_distance_equivalences(pairs, delta, p, ball_paths,
                                refined_pairs=None) -> list[CheckRecord]:
    """Distance-level analogues: grid equality of rho_riesz and the nested
    rho_mixed per level, reported two-sided constants against the
    Nikolskii-hat distance (with the Nikolskii-hat ball bound logged), and
    symmetry.

    The ball bound reads ``ball_paths``, the paths of ``pairs`` as dense
    sources, which a caller that checks the same pairs at several (delta, p)
    makes once.  Each level's sources, the level-k differences of the pairs,
    are made once and read by the three family helpers.
    """
    p = _check_dist(DistKind.RIESZ, delta, p)
    depth = pairs[0][0].depth
    pr = {"delta": delta, "p": p, "depth": depth, "pairs": len(pairs)}
    dev = 0.0
    c1 = c2 = 0.0
    for k in range(1, depth + 1):
        srcs = [DenseSource(level_diff_matrix(x1, x2, k), x1.grid) for x1, x2 in pairs]
        for a, b, nh in zip(_family_riesz(srcs, delta, [p], k)[0],
                            _nested_mixed(srcs, delta, [p], k)[0],
                            _family_refined_nikolskii(srcs, delta, p, k)):
            dev = max(dev, abs(a - b) / max(a, b, 1e-300))
            c1 = max(c1, _safe_ratio(nh, b))
            c2 = max(c2, _safe_ratio(b, nh))
    ball = max(_family_refined_nikolskii(ball_paths, delta, p))
    x1, x2 = pairs[0]
    sym_dev = abs(
        rho_aggregate(x1, x2, DistKind.RIESZ, delta=delta, p=p)
        - rho_aggregate(x2, x1, DistKind.RIESZ, delta=delta, p=p)
    )
    recs = [
        equality_record("rho_riesz_eq_mixed", dev, params=pr,
                        notes="grid equality, constant 1 in both directions"),
        equality_record("rho_symmetry", sym_dev, tol=1e-12, params=pr),
        reported_record("dist_nhat_over_mixed", c1, params={**pr, "ball_bound": ball},
                        notes="ball bound = max refined-Nikolskii norm of the inputs"),
        reported_record("dist_mixed_over_nhat", c2, params={**pr, "ball_bound": ball},
                        notes="constant depends on the Nikolskii-hat ball"),
    ]
    if refined_pairs is not None:
        c1f = c2f = 0.0
        for k in range(1, depth + 1):
            # rho_mixed_level equals rho_riesz_level on every grid
            srcs = [DenseSource(level_diff_matrix(x1, x2, k), x1.grid) for x1, x2 in refined_pairs]
            for b, nh in zip(_family_riesz(srcs, delta, [p], k)[0],
                             _family_refined_nikolskii(srcs, delta, p, k)):
                c1f = max(c1f, _safe_ratio(nh, b))
                c2f = max(c2f, _safe_ratio(b, nh))
        recs += [_stability_record("dist_nhat_over_mixed_stability", c1, c1f, pr),
                 _stability_record("dist_mixed_over_nhat_stability", c2, c2f, pr)]
    return recs


def build_control_function(x1: GroupPath, x2: GroupPath, delta, p) -> np.ndarray:
    """Control function of the pair on the grid, as the (M+1, M+1) matrix
    ``w[i, j]`` = omega(t_i, t_j), i < j:

    omega(s,t) = ||X1||_{q-var;[s,t]}^q + ||X2||_{q-var;[s,t]}^q
                 + sum_k ( rho^(k)_{q-var;[s,t]} / rho^(k)_{mixed;[0,T]} )^(q/k),

    q = 1/delta, with 0/0 = 0.  Super-additive on the grid by construction.
    """
    q, hi = 1.0 / delta, len(x1.grid) - 1
    w = sum(dp_power_table(x.distance_block(0, 0, hi + 1) ** q, 0, hi) for x in (x1, x2))
    for k in range(1, x1.depth + 1):
        denom = rho_mixed_level(x1, x2, delta, p, k)
        if denom > 0.0:  # the table is rho_qvar^(q/k) blockwise
            table = dp_power_table(level_diff_matrix(x1, x2, k) ** (q / k), 0, hi)
            w = w + table / denom ** (q / k)
    return w


def check_control_function(x1, x2, delta, p) -> list[CheckRecord]:
    """Super-additivity of the pair control function plus the reported
    constant in sup_P sum omega^(delta p)/len^(delta p - 1) <= C (norms + 1)."""
    omega = build_control_function(x1, x2, delta, p)
    recs = check_superadditivity(omega, x1.grid.times, check_id="control_superadditive",
                                 product_rule=False)
    t = x1.grid.times
    iu = np.triu_indices(t.size, k=1)
    w = np.zeros_like(omega)
    w[iu] = omega[iu] ** (delta * p) * (t[iu[1]] - t[iu[0]]) ** (1.0 - delta * p)
    lhs = dp_partition_sup([dense_columns(w, 0, t.size - 1)], 0, t.size - 1)
    bound = mixed_norm(x1, delta, p) ** p + mixed_norm(x2, delta, p) ** p + 1.0
    recs.append(reported_record("control_riesz_sum_constant", _safe_ratio(lhs, bound),
                                params={"delta": delta, "p": p},
                                notes="empirical constant in the omega Riesz-sum bound"))
    return recs


# ---------------------------------------------------------------------------
# Lipschitz continuity of the solution map
# ---------------------------------------------------------------------------

def lipschitz_ratio(num: float, den: float) -> float:
    """Solution-map ratio with the 0/0 -> 0 convention for identical inputs."""
    if num == 0.0:
        return 0.0
    return num / den


@_in_range
def field_distance(v1: VectorField, v2: VectorField, order: float, center,
                   radius: float, samples: int = 128, seed: int = 0) -> float:
    """Sampled Lip^(order) distance: max over box points of the value and
    derivative differences (second derivatives included when order > 2)."""
    samples = _count(samples, "samples", 0)
    _entries(samples * v1.m, "the sample points")
    rng = np.random.default_rng(_count(seed, "seed", 0))
    center = np.asarray(center, dtype=float)
    pts = center + radius * rng.uniform(-1.0, 1.0, size=(samples, v1.m))
    worst = max_point_norm(v1.value(pts) - v2.value(pts))
    if order >= 1.0:
        worst = max(worst, max_point_norm(v1.jac(pts) - v2.jac(pts)))
    if order > 2.0 and samples:
        worst = max(worst, float(np.linalg.norm((v1.hess(center) - v2.hess(center)).ravel())))
    return worst


def _field_pairs(pair_family, seed, stream, gamma, bound):
    """Pair i of nearby polynomial fields on R^2, one per driver pair, from RNG
    ``[seed, stream, i]``; both scaled so that the larger Lip norm is 0.98 bound."""
    m, n, pairs = 2, pair_family.dim, []
    for i in range(pair_family.count):
        rng = np.random.default_rng([seed, stream, i])
        const = rng.standard_normal((n, m)) * 0.3
        lin = rng.standard_normal((n, m, m)) * 0.3
        quad = rng.standard_normal((n, m, m, m)) * 0.05
        v1 = VectorField.polynomial(const, lin, quad, gamma=gamma, box_radius=3.0)
        dconst = rng.standard_normal((n, m)) * 0.05
        dlin = rng.standard_normal((n, m, m)) * 0.05
        v2 = VectorField.polynomial(const + dconst, lin + dlin, quad, gamma=gamma,
                                    box_radius=3.0)
        norm = max(v1.lip_norm(np.zeros(m), radius=2.0), v2.lip_norm(np.zeros(m), radius=2.0))
        s = 0.98 * bound / norm
        pairs.append((v1.scaled(s), v2.scaled(s)))
    return pairs


def _scaled_pair(p1, p2, depth, delta, p, target):
    """The drivers of a path pair, scaled by the one factor that makes the
    larger of their mixed (delta, p) norms ``target``: the lifts to ``depth``,
    or the paths themselves when ``depth`` is None."""
    def drive(f):
        return f if depth is None else lift(f, depth)

    size = max(mixed_norm(drive(p1), delta, p), mixed_norm(drive(p2), delta, p))
    lam = target / size if size > 0 else 1.0
    return tuple(drive(EuclideanPath(f.grid, lam * f.values)) for f in (p1, p2))


def _run_lipschitz(name, pair_family, rng, fields, targets, *, depth, delta, p, order, seed,
                   params, ball=None, notes=("", "")) -> list[CheckRecord]:
    """Solution-map Lipschitz records over a family of driver pairs, either solver.

    Trial i solves through ``ito_lyons`` (the driver type picks the scheme)
    with ``fields[i]``, the drivers of ``_scaled_pair`` at size ``targets[i]``
    and y01, y02 = y01 + a perturbation, drawn from ``rng`` after the
    caller's draws.  Its ratio is ||Y1 - Y2||_mixed(delta,p) divided by
    ||V1 - V2||_Lip^order + |y01 - y02| + rho(X1, X2), rho the mixed distance
    of group drivers or the mixed norm of X1 - X2.  Trials that blow up are
    skipped and counted.  Records ``name`` + suffix: non-finite ratios, max
    ratio, blow-ups, with a ``ball`` radius the max over the surviving
    trials of target <= ball against the max over all, and the max ratio
    stable within a factor 2 under one refinement, failed by a refinement
    without ratios.  ``notes`` go to the first and the last record.
    """
    y0_base = rng.standard_normal((pair_family.count, 2)) * 0.1
    y0_pert = rng.standard_normal((pair_family.count, 2)) * 0.02

    def ratios(refine):
        rs, kept = [], []
        for i, (p1, p2) in enumerate(pair_family.euclidean_pairs(refine)):
            x1, x2 = _scaled_pair(p1, p2, depth, delta, p, targets[i])
            v1, v2 = fields[i]
            y01, y02 = y0_base[i], y0_base[i] + y0_pert[i]
            try:
                yy1 = ito_lyons(y01, v1, x1)
                yy2 = ito_lyons(y02, v2, x2)
            except BlowUpError:
                continue
            num = mixed_norm(EuclideanPath(yy1.grid, yy1.values - yy2.values), delta, p)
            den = (
                field_distance(v1, v2, order, y01, 2.0, seed=seed)
                + float(np.linalg.norm(y01 - y02))
                + (mixed_norm(EuclideanPath(x1.grid, x1.values - x2.values), delta, p)
                   if depth is None else rho_aggregate(x1, x2, DistKind.MIXED, delta=delta, p=p))
            )
            rs.append(lipschitz_ratio(num, den))
            kept.append(i)
        return np.array(rs), kept

    rs, kept = ratios(1)
    recs = [
        ineq_record(f"{name}_ratios_finite", float(np.sum(~np.isfinite(rs))), 0.0,
                    tol=0.0, params=params, notes=notes[0]),
        reported_record(f"{name}_max_ratio", float(rs.max()) if rs.size else 0.0,
                        params=params),
        reported_record(f"{name}_blowups", float(pair_family.count - rs.size), params=params),
    ]
    if ball is not None and (half := rs[targets[kept] <= ball]).size:
        recs.append(
            ineq_record(f"{name}_ball_monotone", float(half.max()),
                        float(rs.max()), params=params,
                        notes="max ratio over the half ball <= max over the full ball"))
    rs2, _ = ratios(2)
    # no ratios, so no stability shown: (inf, 0) fails the record
    c0, c1 = (float(rs.max()), float(rs2.max())) if rs.size and rs2.size else (np.inf, 0.0)
    recs.append(_stability_record(f"{name}_refine_stable", c0, c1, params, notes[1]))
    return recs


def run_lipschitz_suite(pair_family: RoughPairFamily, delta=0.45, p=4.0,
                        gamma=2.5, b=1.0, l=1.0, seed=0) -> list[CheckRecord]:
    """Solution-map Lipschitz ratios over a seeded family of driver pairs.

    For each pair, r = ||Y1 - Y2||_mixed / ( ||V1 - V2||_Lip^(gamma-1)
    + |y01 - y02| + rho_mixed(X1, X2) ).  Asserts every ratio finite, that
    the max ratio over the half ball is dominated by the max over the full
    ball, and stability of the max ratio within a factor 2
    under one grid refinement.  Blow-up trials are excluded and counted.
    """
    rng = np.random.default_rng([seed, 977])
    targets = rng.uniform(0.3, 1.0, pair_family.count) * b
    pr = {"delta": delta, "p": p, "gamma": gamma, "b": b, "l": l,
          "pairs": pair_family.count, "grid_size": pair_family.grid_size}
    return _run_lipschitz(
        "lipschitz", pair_family, rng, _field_pairs(pair_family, seed, 31, gamma, l), targets,
        depth=pair_family.depth, delta=delta, p=p, order=gamma - 1.0, seed=seed, params=pr,
        ball=0.5 * b, notes=("count of non-finite ratios",
                             "max ratio stable within factor 2 under one refinement"))


def run_lipschitz_bv_suite(pair_family: RoughPairFamily, p=4.0, b=1.0, l=1.0,
                           seed=0) -> list[CheckRecord]:
    """Regularity-1 variant driven through the bounded-variation solver:
    r = ||Y1 - Y2||_mixed(1,p) / (||V1 - V2||_inf + |y01 - y02|
        + ||X1 - X2||_mixed(1,p)), every driver pair scaled to 0.999 b."""
    rng = np.random.default_rng([seed, 978])
    pr = {"delta": 1.0, "p": p, "b": b, "l": l, "pairs": pair_family.count}
    return _run_lipschitz(
        "lipschitz_bv", pair_family, rng, _field_pairs(pair_family, seed, 32, 2.0, l),
        np.full(pair_family.count, 0.999 * b), depth=None, delta=1.0, p=p, order=0.0,
        seed=seed, params=pr)


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def negative_controls(seed=0) -> list[CheckRecord]:
    """Deliberately failing checks; the suite is broken if any of them passes."""
    grid = TimeGrid.uniform(16)
    recs = check_superadditivity(
        np.sqrt(_gaps(grid.times)), grid.times,
        check_id="neg_subadditive_omega", product_rule=False,
        category="negative_control",
    )
    recs[0].notes = "sqrt(t-s) is sub-additive; this check must fail"

    # the first walk on which the reversed inequality fails: on a walk whose
    # best Riesz partition is the whole interval at both deltas it ties; if
    # none fails, the last walk is kept, and the suite fails
    for walk in PathFamily("random_walk", 8, 64, dim=1, seed=seed + 13).paths():
        lhs, rhs = riesz_norm(walk, 0.6, 5.0), riesz_norm(walk, 0.5, 5.0)
        if lhs > rhs * (1.0 + HARD_TOL):
            break
    recs.append(
        ineq_record("neg_reversed_inequality", lhs, rhs, constant=1.0,
                    params={"delta": 0.6, "delta_prime": 0.5, "p": 5.0},
                    category="negative_control",
                    notes="reversed delta-monotonicity; must fail on a rough path"))
    return recs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(seed=0, trials=500) -> list[CheckRecord]:
    """Tensor/group algebra identities on seeded random data (depths <= 3).

    The trials are drawn one after another and grouped by (dim, depth), and
    each identity is checked with one call of a ``tensor_core`` stacked form
    per group.  A defect is the max over trials, so the grouping leaves it
    unchanged, bit for bit.
    """
    worst = dict.fromkeys(
        ["assoc", "inverse", "chen", "dilation", "symmetry", "left_inv", "triangle"], 0.0
    )

    def record(name, defects):
        worst[name] = float(np.max(defects, initial=worst[name]))

    rng = np.random.default_rng([seed, 1])
    groups = {}
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        # tensors a, b, c; three steps each for the group elements g, h, k; a dilation
        tensors = [[rng.standard_normal(dim**lv) for lv in range(depth + 1)] for _ in range(3)]
        groups.setdefault((dim, depth), []).append(
            (tensors, rng.standard_normal((3, 3, dim)), rng.choice([0.5, 2.0, 10.0])))
    for (dim, depth), draws in groups.items():
        tensors, steps, lams = zip(*draws)
        a, b, c = ([np.stack(lv) for lv in zip(*t)] for t in zip(*tensors))
        left = stacked_mul(stacked_mul(a, b), c)
        right = stacked_mul(a, stacked_mul(b, c))
        record("assoc", stacked_level_norms([x - y for x, y in zip(left, right)]).max(axis=-1)
               / (1.0 + stacked_level_norms(left).max(axis=-1)))

        steps = np.stack(steps)
        unit = stacked_exp(np.zeros((len(draws), dim)), depth)  # exp(0), the identity
        g, h, k = (functools.reduce(stacked_mul, (stacked_exp(steps[:, e, s], depth)
                                                  for s in range(3)), unit)
                   for e in range(3))
        hn = stacked_homogeneous_norm(g)
        prod = stacked_mul(g, stacked_inverse(g))
        record("inverse", stacked_level_norms(prod[1:]).max(axis=-1) / (1.0 + hn))
        # lam^k is exact for these factors, as an array power or a scalar one
        lam = np.array(lams)
        dilated = stacked_homogeneous_norm(stacked_dilate(g, lam[:, None]))
        pos = hn > 0
        record("dilation", abs(dilated[pos] - lam[pos] * hn[pos]) / (lam[pos] * hn[pos]))
        dgh = stacked_distance(g, h)
        record("symmetry", abs(dgh - stacked_distance(h, g)) / np.maximum(dgh, 1e-300))
        record("left_inv", abs(stacked_distance(stacked_mul(k, g), stacked_mul(k, h)) - dgh)
               / np.maximum(dgh, 1e-300))
        record("triangle", [_safe_ratio(x, y) for x, y in
                            zip(stacked_distance(g, k), dgh + stacked_distance(h, k))])

    rng2 = np.random.default_rng([seed, 2])
    chen = {}
    for _ in range(60):
        dim = int(rng2.integers(1, 4))
        depth = int(rng2.integers(2, 4))
        m = int(rng2.integers(4, 9))
        vals = np.vstack([np.zeros((1, dim)),
                          np.cumsum(rng2.standard_normal((m, dim)), axis=0)])
        x = lift(EuclideanPath(TimeGrid.uniform(m), vals), depth)
        ijk = sorted(rng2.choice(m + 1, size=3, replace=False))
        chen.setdefault((dim, depth), []).append([lv[ijk] for lv in x.levels])
    for rows in chen.values():
        # X_i, X_j, X_k of each trial's lift; X_{i,k} against X_{i,j} x X_{j,k}
        xi, xj, xk = ([np.stack(lv)[:, r] for lv in zip(*rows)] for r in range(3))
        inv_i = stacked_inverse(xi)
        whole = stacked_mul(inv_i, xk)
        split = stacked_mul(stacked_mul(inv_i, xj), stacked_mul(stacked_inverse(xj), xk))
        record("chen", stacked_level_norms([u - v for u, v in zip(whole[1:], split[1:])])
               .max(axis=-1) / (1.0 + stacked_homogeneous_norm(whole)))

    tol = {"left_inv": 1e-10, "triangle": 1.0}
    recs = []
    for name, val in worst.items():
        if name == "triangle":
            recs.append(
                ineq_record("algebra_triangle_quasi", val, TRIANGLE_K, constant=1.0,
                            params={"trials": trials, "K": TRIANGLE_K},
                            notes="frozen quasi-metric constant K = 1"))
        else:
            recs.append(
                ineq_record(f"algebra_{name}", val, tol.get(name, 1e-11), tol=0.0,
                            constant=1.0, params={"trials": trials},
                            notes="max relative defect"))
    return recs


def _mixed_family(seed, count, grid_size, dim=1):
    per = max(count // 4, 1)
    gens = ("smooth_fourier", "random_walk", "fractional", "zigzag")
    paths = []
    for gi, gen in enumerate(gens):
        fam = PathFamily(gen, per, grid_size, dim, seed=seed + gi)
        paths.extend(fam.paths())
    return paths[:count]


def suite_embeddings(seed=0, family_count=100, grid_size=64) -> list[CheckRecord]:
    """Explicit-constant embedding inequalities, the p -> infinity limit, the
    Sobolev-Nikolskii bound, the regularity-1 identity, scaling laws,
    super-additivity, and the reported inclusion constants."""
    recs = []
    paths = _mixed_family(seed, family_count, grid_size)
    for delta in (0.4, 0.6):
        for p in (3.0, 5.0, 8.0):
            recs.extend(check_embedding_chain(paths, delta, p, seed=seed))
    recs.extend(check_norm_superadditivity(paths[:12], 0.4, 3.0, seed=seed))
    recs.extend(check_scaling_laws(paths[:6], 0.4, 5.0))

    limit_paths = (
        PathFamily("zigzag", 10, 128, seed=seed + 21).paths()
        + PathFamily("smooth_fourier", 10, 128, seed=seed + 22).paths()
    )
    recs.extend(check_p_limit(limit_paths, delta=0.5))

    sob_paths = _mixed_family(seed + 31, 50, 512)
    recs.extend(check_sobolev_nikolskii(sob_paths, 0.3, 0.45, 4.0))

    bv = PathFamily("smooth_fourier", 6, 1024, dim=2, seed=seed + 41)
    for p in (2.0, 4.0):
        recs.extend(check_bv_identity(bv.paths_with_derivatives(), p))

    small = _mixed_family(seed + 51, 16, 64)
    fine = [resample_uniform(f, 128) for f in small]
    recs.extend(check_inclusion_constants(small, fine, 0.45, 4.0))
    return recs


def suite_characterization(seed=0, family_count=100, grid_size=64) -> list[CheckRecord]:
    """Grid equality of the Riesz and mixed norms and the two-sided refined
    Nikolskii constants across the (delta, p) grid."""
    recs = []
    paths = _mixed_family(seed + 61, family_count, grid_size)
    subset = paths[:10]
    fine = [resample_uniform(f, grid_size * 2) for f in subset]
    for delta in (0.4, 0.6):
        recs.extend(check_riesz_eq_mixed(paths, delta, (3.0, 5.0, 8.0)))
    recs.extend(check_riesz_characterization(subset, fine, 0.45, 4.0))
    return recs


def suite_distances(seed=0, pair_count=20, grid_size=48) -> list[CheckRecord]:
    """Distance equalities/equivalences and the control function checks."""
    fam = RoughPairFamily(pair_count, grid_size, dim=2, depth=2, seed=seed + 71)
    pairs = fam.pairs()
    fine = RoughPairFamily(4, grid_size, dim=2, depth=2, seed=seed + 71).pairs(refine=2)
    recs = []
    checked = pairs[: max(6, pair_count // 3)]  # pairs[:4] among them
    # each path's distances once, for all four checks
    ball_paths = [DenseSource(x.distance_block(0, 0, len(x.grid)), x.grid)
                  for pair in checked for x in pair]
    for delta, p in ((0.4, 3.0), (0.45, 4.0), (0.6, 8.0)):
        recs.extend(check_distance_equivalences(checked, delta, p, ball_paths))
    recs.extend(check_distance_equivalences(pairs[:4], 0.45, 4.0, ball_paths[: 2 * 4],
                                            refined_pairs=fine))
    x1, x2 = pairs[0]
    recs.extend(check_control_function(x1, x2, 0.45, 4.0))
    gap = _gaps(x1.grid.times)
    recs.extend(check_superadditivity(gap, x1.grid.times, check_id="superadditive_length"))
    recs.extend(check_superadditivity(gap**2, x1.grid.times,
                                      check_id="superadditive_square",
                                      product_rule=False))
    return recs


def suite_lipschitz(seed=0, pair_count=50, grid_size=32) -> list[CheckRecord]:
    """Solution-map Lipschitz ratio suites at regularity 0.45 (rough) and 1 (BV)."""
    fam = RoughPairFamily(pair_count, grid_size, dim=2, depth=2, seed=seed + 81,
                          perturbation=0.05)
    recs = run_lipschitz_suite(fam, delta=0.45, p=4.0, gamma=2.5, b=1.0, l=1.0,
                               seed=seed)
    recs.extend(run_lipschitz_bv_suite(fam, p=4.0, b=1.0, l=1.0, seed=seed))
    return recs


SUITES = {
    "algebra": suite_algebra,
    "embeddings": suite_embeddings,
    "characterization": suite_characterization,
    "distances": suite_distances,
    "lipschitz": suite_lipschitz,
}


def run_suite(name: str, seed: int = 0, out_dir=None) -> tuple[list[CheckRecord], bool]:
    """Run one named suite (or ``all``), append the negative controls, and
    optionally persist JSON + CSV reports."""
    if not isinstance(name, str) or name not in (*SUITES, "all"):
        raise ParameterError(f"unknown suite {name!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    seed = _count(seed, "seed", 0)
    if out_dir is not None:
        try:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
        except (OSError, TypeError) as exc:
            raise ParameterError(f"cannot write {out_dir}: {exc}") from exc
    records = []
    for n in names:
        records.extend(SUITES[n](seed=seed))
    records.extend(negative_controls(seed=seed))
    ok = suite_ok(records)
    if out_dir is not None:
        try:
            write_report_json(records, out / f"{name}_report.json")
            write_report_csv(records, out / f"{name}_report.csv")
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc}") from exc
    return records, ok
