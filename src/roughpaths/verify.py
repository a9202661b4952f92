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
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import (
    DistKind,
    LevelDistanceSpec,
    level_diff_matrix,
    rho_aggregate,
    rho_mixed_level,
)
from .exceptions import BlowUpError, ParameterError
from .norms import (
    NormKind,
    NormSpec,
    _dense,
    _finite_p,
    _power_sup_family,
    _require_uniform,
    dense_columns,
    dp_partition_sup,
    dp_power_table,
    frac_sobolev_norm,
    holder_norm,
    mixed_norm,
    nikolskii_norm,
    qvar_norm,
    refined_nikolskii_norm,
    riesz_norm,
    shift_partition_sup,
)
from .paths import EuclideanPath, GroupPath, TimeGrid, lift, resample_uniform
from .rde import RdeConfig, Scheme, VectorField, max_point_norm, solve_bv, solve_rough
from .tensor_core import (
    dilate,
    group_distance,
    group_inverse,
    group_mul,
    homogeneous_norm,
    identity_element,
    segment_exp,
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
        for idx in range(self.count):
            rng = np.random.default_rng([self.seed, idx])
            m = self.grid_size * refine
            grid = TimeGrid.uniform(m)
            if self.generator == "smooth_fourier":
                out.append(_fourier_path(rng, grid, self.dim))
            elif self.generator == "random_walk":
                out.append((_walk_path(rng, self.grid_size, refine, self.dim), None))
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


def _walk_path(rng, base_intervals, refine, dim):
    # increments drawn at the finest supported resolution, then subsampled,
    # so refine=2 is a genuine refinement of the refine=1 path
    if refine not in (1, 2):
        raise ParameterError("random_walk families support refine in {1, 2}")
    fine = base_intervals * 2
    steps = rng.standard_normal((fine, dim)) * np.sqrt(1.0 / fine)
    fine_vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return EuclideanPath(TimeGrid.uniform(base_intervals * refine),
                         fine_vals[:: 2 // refine])


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
    """Log-log slope of the increment sup against dyadic lags (diagnostic)."""
    m = path.grid.intervals
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
    generator: str = "random_walk"

    def euclidean_pairs(self, refine: int = 1):
        base = PathFamily(self.generator, self.count, self.grid_size, self.dim,
                          seed=self.seed)
        bump = PathFamily(self.generator, self.count, self.grid_size, self.dim,
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

def check_superadditivity(fn, grid_times, check_id="superadditivity", tol=HARD_TOL,
                          product_rule=True, category="hard") -> list[CheckRecord]:
    """Verify fn(s,t) + fn(t,u) <= fn(s,u) over all grid triples.

    Also checks the product rule: fn^alpha * (t-s)^beta stays super-additive
    for (alpha, beta) in {(0.5, 0.5), (1, 0.2)} (exponents summing >= 1).
    """
    t = np.asarray(grid_times, dtype=float)
    m = t.size
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w[i, j] = fn(t[i], t[j])
    records = [_superadditivity_record(w, check_id, tol, category)]
    if product_rule:
        gap = t[None, :] - t[:, None]
        for alpha, beta in ((0.5, 0.5), (1.0, 0.2)):
            prod = np.where(gap > 0, w**alpha * np.maximum(gap, 0.0) ** beta, 0.0)
            records.append(
                _superadditivity_record(
                    prod, f"{check_id}_product_{alpha}_{beta}", tol, category
                )
            )
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
    p = _finite_p(NormSpec(NormKind.RIESZ, delta, p).p, "a Riesz family")
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
    members = ([(0, p, 1.0 - delta * p, 1.0 / p)] + [(0, p, 1.0 - dprime * p, 1.0 / p)] * d_ok
               + [(0, pprime, 1.0 - delta * pprime, 1.0 / pprime)] * p_ok)
    if delta != 1.0:
        q = 1.0 / delta
        members.append((0, q, 0.0, 1.0 / q))
    for f in paths:
        t = f.grid.times
        for s, u in _sub_intervals(rng, t, 3):
            iv = (s, u)
            length = u - s
            i, j = f.grid.resolve_interval(iv)
            rz, *others = _power_sup_family([f], t, i, j, members)
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
                                    notes=f"refined-grid constant {c1!r}"))
        recs.append(ineq_record(f"{name}_stability",
                                max(_safe_ratio(c0, c1), _safe_ratio(c1, c0)), 2.0,
                                constant=1.0, params=pr,
                                notes="constant ratio across one refinement within factor 2"))
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
        vals = {
            "riesz": riesz_norm(f, 1.0, p),
            "mixed": mixed_norm(f, 1.0, p),
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
    lam^(1/p - delta) and the Hoelder norm by lam^(-delta)."""
    worst_space = worst_time = 0.0
    for f in paths:
        scaled = EuclideanPath(f.grid, c * f.values)
        stretched = EuclideanPath(TimeGrid(lam * f.grid.times), f.values)
        for fn, factor_s, factor_t in (
            (lambda g: riesz_norm(g, delta, p), c, lam ** (1.0 / p - delta)),
            (lambda g: mixed_norm(g, delta, p), c, lam ** (1.0 / p - delta)),
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
    adjacent grid intervals, on random triples."""
    rng = np.random.default_rng([seed, 55])
    worst = {"riesz": 0.0, "mixed": 0.0, "refined_nikolskii": 0.0}
    fns = {
        "riesz": lambda f, iv: riesz_norm(f, delta, p, iv) ** p,
        "mixed": lambda f, iv: mixed_norm(f, delta, p, iv) ** p,
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
    return [
        ineq_record(f"superadditive_{name}", worst[name], 1.0,
                    params={"delta": delta, "p": p},
                    notes="(norm^p on [s,t]) + (norm^p on [t,u]) <= norm^p on [s,u]")
        for name in fns
    ]


#: Cells of one stacked (items, M+1, M+1) array of ``_nested_mixed``: a
#: family is served in chunks of about this size.
_FAMILY_CELLS = 1 << 16


def _family_chunks(family, k):
    """Consecutive runs of ``family`` on one grid, each within ``_FAMILY_CELLS``."""
    chunk, times = [], None
    for item in family:
        t = (item if k is None else item[0]).grid.times
        if chunk and ((len(chunk) + 1) * t.size**2 > _FAMILY_CELLS
                      or not np.array_equal(t, times)):
            yield times, chunk
            chunk = []
        chunk.append(item)
        times = t
    if chunk:
        yield times, chunk


def _sources(chunk, k):
    # the kernel sources of a chunk: its paths, or the level-k differences of its pairs
    return chunk if k is None else [level_diff_matrix(x1, x2, k) for x1, x2 in chunk]


def _nested_mixed(family, delta, ps, k=None) -> list[list[float]]:
    """Nested-definition mixed norms of the paths of ``family`` (``k`` None),
    or level-k mixed distances of its pairs ``(x1, x2)``, for every p of
    ``ps``: entry [a][b] is the value of item b at p = ps[a].

    The independent reference for the Riesz = mixed grid identity that
    serves ``mixed_norm`` and ``rho_mixed_level``.  Items on one grid are
    stacked in chunks; each chunk builds its O(M^3) table of block
    q-variation powers, q = 1/delta, once with the batched
    ``dp_power_table`` and runs the outer partition DP once per p with the
    batched ``dp_partition_sup``.  Each root is taken on a Python float.
    """
    q = 1.0 / delta
    values = [[] for _ in ps]
    for times, chunk in _family_chunks(family, k):
        m = len(times) - 1
        iu = np.triu_indices(m + 1, k=1)
        d = np.stack([_dense(s) for s in _sources(chunk, k)]) ** (q if k is None else q / k)
        inner = dp_power_table(d, 0, m)[:, iu[0], iu[1]]
        gap = times[iu[1]] - times[iu[0]]
        w = np.zeros_like(d)  # each p rewrites the cells i < j
        for out, p in zip(values, ps):
            expo, root = (delta * p, 1.0 / p) if k is None else (p / q, k / p)
            w[:, iu[0], iu[1]] = inner ** expo * gap ** (1.0 - delta * p)
            best = dp_partition_sup([dense_columns(w, 0, m)], 0, m, batch=(len(chunk),))
            out.extend(float(v) ** root for v in best)
    return values


def _family_riesz(family, delta, ps, k=None) -> list[list[float]]:
    """``riesz_norm`` of every path of ``family`` (``k`` None), or
    ``rho_riesz_level`` of every pair ``(x1, x2)`` at level k, at every p of
    ``ps``, laid out as ``_nested_mixed``: one ``_power_sup_family`` call per
    same-grid chunk, its members every (item, p)."""
    ps = [_finite_p(NormSpec(NormKind.RIESZ, delta, p).p, "a Riesz family") for p in ps]
    level = k or 1
    values = [[] for _ in ps]
    for times, chunk in _family_chunks(family, k):
        got = _power_sup_family(_sources(chunk, k), times, 0, len(times) - 1,
                                [(b, p / level, 1.0 - delta * p, level / p)
                                 for p in ps for b in range(len(chunk))])
        for i, out in enumerate(values):
            out.extend(got[i * len(chunk) : (i + 1) * len(chunk)])
    return values


def _family_refined_nikolskii(family, delta, p, k=None) -> list[float]:
    """``refined_nikolskii_norm`` of every path of ``family`` (``k`` None), or
    ``rho_nikolskii_hat_level`` of every pair ``(x1, x2)`` at level k: one
    ``shift_partition_sup`` sweep per same-grid chunk."""
    level = k or 1
    values = []
    for times, chunk in _family_chunks(family, k):
        _require_uniform(chunk[0] if k is None else chunk[0][0])
        values.extend(shift_partition_sup(_sources(chunk, k), times, 0, len(times) - 1,
                                          p / level, -delta * p, level / p))
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
        recs.append(ineq_record(f"{name}_stability",
                                max(_safe_ratio(c0, cf), _safe_ratio(cf, c0)), 2.0,
                                constant=1.0, params=pr))
    return recs


# ---------------------------------------------------------------------------
# distance checks and the control function
# ---------------------------------------------------------------------------

def check_distance_equivalences(pairs, delta, p, refined_pairs=None) -> list[CheckRecord]:
    """Distance-level analogues: grid equality of rho_riesz and the nested
    rho_mixed per level, reported two-sided constants against the
    Nikolskii-hat distance (with the Nikolskii-hat ball bound logged), and
    symmetry."""
    LevelDistanceSpec(DistKind.RIESZ, delta, p)  # checks delta and p
    depth = pairs[0][0].depth
    pr = {"delta": delta, "p": p, "depth": depth, "pairs": len(pairs)}
    dev = 0.0
    c1 = c2 = 0.0
    for k in range(1, depth + 1):
        for a, b, nh in zip(_family_riesz(pairs, delta, [p], k)[0],
                            _nested_mixed(pairs, delta, [p], k)[0],
                            _family_refined_nikolskii(pairs, delta, p, k)):
            dev = max(dev, abs(a - b) / max(a, b, 1e-300))
            c1 = max(c1, _safe_ratio(nh, b))
            c2 = max(c2, _safe_ratio(b, nh))
    ball = max(max(_family_refined_nikolskii([x for x, _ in pairs], delta, p)),
               max(_family_refined_nikolskii([x for _, x in pairs], delta, p)))
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
            for b, nh in zip(_family_riesz(refined_pairs, delta, [p], k)[0],
                             _family_refined_nikolskii(refined_pairs, delta, p, k)):
                c1f = max(c1f, _safe_ratio(nh, b))
                c2f = max(c2f, _safe_ratio(b, nh))
        for name, c0, cf in (("dist_nhat_over_mixed", c1, c1f),
                             ("dist_mixed_over_nhat", c2, c2f)):
            recs.append(ineq_record(f"{name}_stability",
                                    max(_safe_ratio(c0, cf), _safe_ratio(cf, c0)), 2.0,
                                    constant=1.0, params=pr))
    return recs


@dataclass(frozen=True)
class ControlFunction:
    """Grid control function omega(s, t) built from a pair of rough paths."""

    times: np.ndarray
    matrix: np.ndarray

    def __call__(self, s: float, t: float) -> float:
        i = int(np.searchsorted(self.times, s))
        j = int(np.searchsorted(self.times, t))
        i = min(max(i, 0), self.times.size - 1)
        j = min(max(j, 0), self.times.size - 1)
        return float(self.matrix[i, j]) if i <= j else 0.0


def build_control_function(x1: GroupPath, x2: GroupPath, delta, p) -> ControlFunction:
    """Control function for the pair:

    omega(s,t) = ||X1||_{q-var;[s,t]}^q + ||X2||_{q-var;[s,t]}^q
                 + sum_k ( rho^(k)_{q-var;[s,t]} / rho^(k)_{mixed;[0,T]} )^(q/k),

    q = 1/delta, with 0/0 = 0.  Super-additive on the grid by construction.
    """
    q = 1.0 / delta
    m = len(x1.grid)
    lo, hi = 0, m - 1
    w = sum(dp_power_table(x.distance_matrix**q, lo, hi) for x in (x1, x2))
    for k in range(1, x1.depth + 1):
        denom = rho_mixed_level(x1, x2, delta, p, k)
        if denom <= 0.0:
            continue
        d = level_diff_matrix(x1, x2, k)
        table = dp_power_table(d ** (q / k), lo, hi)  # = rho_qvar^(q/k) blockwise
        w = w + table / denom ** (q / k)
    return ControlFunction(x1.grid.times, w)


def check_control_function(x1, x2, delta, p) -> list[CheckRecord]:
    """Super-additivity of the pair control function plus the reported
    constant in sup_P sum omega^(delta p)/len^(delta p - 1) <= C (norms + 1)."""
    omega = build_control_function(x1, x2, delta, p)
    recs = check_superadditivity(omega, x1.grid.times, check_id="control_superadditive",
                                 product_rule=False)
    t = x1.grid.times
    iu = np.triu_indices(t.size, k=1)
    w = np.zeros_like(omega.matrix)
    w[iu] = omega.matrix[iu] ** (delta * p) * (t[iu[1]] - t[iu[0]]) ** (1.0 - delta * p)
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


def field_distance(v1: VectorField, v2: VectorField, order: float, center,
                   radius: float, samples: int = 128, seed: int = 0) -> float:
    """Sampled Lip^(order) distance: max over box points of the value and
    derivative differences (second derivatives included when order > 2)."""
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    pts = center + radius * rng.uniform(-1.0, 1.0, size=(samples, v1.m))
    worst = max_point_norm(v1.value(pts) - v2.value(pts))
    if order >= 1.0:
        worst = max(worst, max_point_norm(v1.jac(pts) - v2.jac(pts)))
    if order > 2.0 and samples:
        worst = max(worst, float(np.linalg.norm((v1.hess(center) - v2.hess(center)).ravel())))
    return worst


def _random_field_pair(rng, m, n, gamma, bound, box_radius, perturbation=0.05):
    const = rng.standard_normal((n, m)) * 0.3
    lin = rng.standard_normal((n, m, m)) * 0.3
    quad = rng.standard_normal((n, m, m, m)) * 0.05
    v1 = VectorField.polynomial(const, lin, quad, gamma=gamma, box_radius=box_radius)
    dconst = rng.standard_normal((n, m)) * perturbation
    dlin = rng.standard_normal((n, m, m)) * perturbation
    v2 = VectorField.polynomial(const + dconst, lin + dlin, quad, gamma=gamma,
                                box_radius=box_radius)
    norm = max(v1.lip_norm(np.zeros(m), radius=2.0), v2.lip_norm(np.zeros(m), radius=2.0))
    s = 0.98 * bound / norm
    return v1.scaled(s), v2.scaled(s)


def _scaled_group_pair(p1, p2, depth, delta, p, target):
    x1, x2 = lift(p1, depth), lift(p2, depth)
    size = max(mixed_norm(x1, delta, p), mixed_norm(x2, delta, p))
    lam = target / size if size > 0 else 1.0
    s1 = EuclideanPath(p1.grid, lam * p1.values)
    s2 = EuclideanPath(p2.grid, lam * p2.values)
    return lift(s1, depth), lift(s2, depth)


def run_lipschitz_suite(pair_family: RoughPairFamily, delta=0.45, p=4.0,
                        gamma=2.5, b=1.0, l=1.0, seed=0,
                        refine_check=True) -> list[CheckRecord]:
    """Solution-map Lipschitz ratios over a seeded family of driver pairs.

    For each pair, r = ||Y1 - Y2||_mixed / ( ||V1 - V2||_Lip^(gamma-1)
    + |y01 - y02| + rho_mixed(X1, X2) ).  Asserts every ratio finite, that
    the max ratio over the half ball is dominated by the max over the full
    ball, and (optionally) stability of the max ratio within a factor 2
    under one grid refinement.  Blow-up trials are excluded and counted.
    """
    depth = pair_family.depth
    rng = np.random.default_rng([seed, 977])
    targets = rng.uniform(0.3, 1.0, pair_family.count) * b
    y0_base = rng.standard_normal((pair_family.count, 2)) * 0.1
    y0_pert = rng.standard_normal((pair_family.count, 2)) * 0.02
    fields = [
        _random_field_pair(np.random.default_rng([seed, 31, i]), 2, pair_family.dim,
                           gamma, l, box_radius=3.0)
        for i in range(pair_family.count)
    ]

    def ratios(refine):
        rs, used_targets, blowups = [], [], 0
        for i, (p1, p2) in enumerate(pair_family.euclidean_pairs(refine)):
            x1, x2 = _scaled_group_pair(p1, p2, depth, delta, p, targets[i])
            v1, v2 = fields[i]
            y01, y02 = y0_base[i], y0_base[i] + y0_pert[i]
            cfg = RdeConfig(depth=depth, scheme=Scheme.ROUGH_EULER)
            try:
                yy1 = solve_rough(y01, v1, x1, cfg)
                yy2 = solve_rough(y02, v2, x2, cfg)
            except BlowUpError:
                blowups += 1
                continue
            num = mixed_norm(EuclideanPath(yy1.grid, yy1.values - yy2.values), delta, p)
            den = (
                field_distance(v1, v2, gamma - 1.0, y01, 2.0, seed=seed)
                + float(np.linalg.norm(y01 - y02))
                + rho_aggregate(x1, x2, DistKind.MIXED, delta=delta, p=p)
            )
            rs.append(lipschitz_ratio(num, den))
            used_targets.append(targets[i])
        return np.array(rs), np.array(used_targets), blowups

    rs, tg, blowups = ratios(1)
    pr = {"delta": delta, "p": p, "gamma": gamma, "b": b, "l": l,
          "pairs": pair_family.count, "grid_size": pair_family.grid_size}
    recs = [
        ineq_record("lipschitz_ratios_finite", float(np.sum(~np.isfinite(rs))), 0.0,
                    tol=0.0, params=pr, notes="count of non-finite ratios"),
        reported_record("lipschitz_max_ratio", float(rs.max()) if rs.size else 0.0,
                        params=pr),
        reported_record("lipschitz_blowups", float(blowups), params=pr),
    ]
    half = rs[tg <= 0.5 * b]
    if half.size:
        recs.append(
            ineq_record("lipschitz_ball_monotone", float(half.max()),
                        float(rs.max()), params=pr,
                        notes="max ratio over the half ball <= max over the full ball"))
    if refine_check:
        rs2, _, _ = ratios(2)
        m1, m2 = float(rs.max()), float(rs2.max())
        recs.append(
            ineq_record("lipschitz_refine_stable",
                        max(_safe_ratio(m1, m2), _safe_ratio(m2, m1)), 2.0,
                        constant=1.0, params=pr,
                        notes="max ratio stable within factor 2 under one refinement"))
    return recs


def run_lipschitz_bv_suite(pair_family: RoughPairFamily, p=4.0, b=1.0, l=1.0,
                           seed=0, refine_check=True) -> list[CheckRecord]:
    """Regularity-1 variant driven through the bounded-variation solver:
    r = ||Y1 - Y2||_mixed(1,p) / (||V1 - V2||_inf + |y01 - y02|
        + ||X1 - X2||_mixed(1,p))."""
    rng = np.random.default_rng([seed, 978])
    y0_base = rng.standard_normal((pair_family.count, 2)) * 0.1
    y0_pert = rng.standard_normal((pair_family.count, 2)) * 0.02
    fields = [
        _random_field_pair(np.random.default_rng([seed, 32, i]), 2, pair_family.dim,
                           2.0, l, box_radius=3.0)
        for i in range(pair_family.count)
    ]

    def ratios(refine):
        rs, blowups = [], 0
        for i, (p1, p2) in enumerate(pair_family.euclidean_pairs(refine)):
            size = max(mixed_norm(p1, 1.0, p), mixed_norm(p2, 1.0, p))
            lam = 0.999 * b / size if size > 0 else 1.0
            x1 = EuclideanPath(p1.grid, lam * p1.values)
            x2 = EuclideanPath(p2.grid, lam * p2.values)
            v1, v2 = fields[i]
            y01, y02 = y0_base[i], y0_base[i] + y0_pert[i]
            try:
                yy1 = solve_bv(y01, v1, x1)
                yy2 = solve_bv(y02, v2, x2)
            except BlowUpError:
                blowups += 1
                continue
            num = mixed_norm(EuclideanPath(yy1.grid, yy1.values - yy2.values), 1.0, p)
            den = (
                field_distance(v1, v2, 0.0, y01, 2.0, seed=seed)
                + float(np.linalg.norm(y01 - y02))
                + mixed_norm(EuclideanPath(x1.grid, x1.values - x2.values), 1.0, p)
            )
            rs.append(lipschitz_ratio(num, den))
        return np.array(rs), blowups

    rs, blowups = ratios(1)
    pr = {"delta": 1.0, "p": p, "b": b, "l": l, "pairs": pair_family.count}
    recs = [
        ineq_record("lipschitz_bv_ratios_finite", float(np.sum(~np.isfinite(rs))), 0.0,
                    tol=0.0, params=pr),
        reported_record("lipschitz_bv_max_ratio", float(rs.max()) if rs.size else 0.0,
                        params=pr),
        reported_record("lipschitz_bv_blowups", float(blowups), params=pr),
    ]
    if refine_check:
        rs2, _ = ratios(2)
        m1, m2 = float(rs.max()), float(rs2.max())
        recs.append(
            ineq_record("lipschitz_bv_refine_stable",
                        max(_safe_ratio(m1, m2), _safe_ratio(m2, m1)), 2.0,
                        constant=1.0, params=pr))
    return recs


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def negative_controls(seed=0) -> list[CheckRecord]:
    """Deliberately failing checks; the suite is broken if any of them passes."""
    grid = TimeGrid.uniform(16)
    recs = check_superadditivity(
        lambda s, t: np.sqrt(t - s), grid.times,
        check_id="neg_subadditive_omega", product_rule=False,
        category="negative_control",
    )
    recs[0].notes = "sqrt(t-s) is sub-additive; this check must fail"

    walk = PathFamily("random_walk", 1, 64, dim=1, seed=seed + 13).paths()[0]
    lhs = riesz_norm(walk, 0.6, 5.0)
    rhs = riesz_norm(walk, 0.5, 5.0)
    recs.append(
        ineq_record("neg_reversed_inequality", lhs, rhs, constant=1.0,
                    params={"delta": 0.6, "delta_prime": 0.5, "p": 5.0},
                    category="negative_control",
                    notes="reversed delta-monotonicity; must fail on a rough path"))
    return recs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _random_group_element(rng, dim, depth):
    g = identity_element(dim, depth)
    for _ in range(3):
        g = group_mul(g, segment_exp(rng.standard_normal(dim), depth))
    return g


def _random_tensor(rng, dim, depth):
    from .tensor_core import TruncatedTensor

    levels = [np.array(rng.standard_normal())] + [
        rng.standard_normal((dim,) * k) for k in range(1, depth + 1)
    ]
    return TruncatedTensor(dim, depth, tuple(levels))


def suite_algebra(seed=0, trials=500) -> list[CheckRecord]:
    """Tensor/group algebra identities on seeded random data (depths <= 3)."""
    from .tensor_core import tensor_mul

    rng = np.random.default_rng([seed, 1])
    worst = dict.fromkeys(
        ["assoc", "inverse", "chen", "dilation", "symmetry", "left_inv", "triangle"], 0.0
    )
    for _ in range(trials):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        a, bb, c = (_random_tensor(rng, dim, depth) for _ in range(3))
        left = tensor_mul(tensor_mul(a, bb), c)
        right = tensor_mul(a, tensor_mul(bb, c))
        num = max(
            float(np.linalg.norm((x - y).ravel()))
            for x, y in zip(left.levels, right.levels)
        )
        scale = 1.0 + max(float(np.linalg.norm(x.ravel())) for x in left.levels)
        worst["assoc"] = max(worst["assoc"], num / scale)

        g = _random_group_element(rng, dim, depth)
        h = _random_group_element(rng, dim, depth)
        k = _random_group_element(rng, dim, depth)
        prod = group_mul(g, group_inverse(g))
        worst["inverse"] = max(
            worst["inverse"],
            max(float(np.linalg.norm(prod.level(kk).ravel())) for kk in range(1, depth + 1))
            / (1.0 + homogeneous_norm(g)),
        )
        lam = float(rng.choice([0.5, 2.0, 10.0]))
        hn = homogeneous_norm(g)
        if hn > 0:
            worst["dilation"] = max(
                worst["dilation"],
                abs(homogeneous_norm(dilate(g, lam)) - lam * hn) / (lam * hn),
            )
        dgh = group_distance(g, h)
        worst["symmetry"] = max(
            worst["symmetry"], abs(dgh - group_distance(h, g)) / max(dgh, 1e-300)
        )
        worst["left_inv"] = max(
            worst["left_inv"],
            abs(group_distance(group_mul(k, g), group_mul(k, h)) - dgh) / max(dgh, 1e-300),
        )
        worst["triangle"] = max(
            worst["triangle"],
            _safe_ratio(group_distance(g, k), group_distance(g, h) + group_distance(h, k)),
        )

    rng2 = np.random.default_rng([seed, 2])
    for _ in range(60):
        dim = int(rng2.integers(1, 4))
        depth = int(rng2.integers(2, 4))
        m = int(rng2.integers(4, 9))
        vals = np.vstack([np.zeros((1, dim)),
                          np.cumsum(rng2.standard_normal((m, dim)), axis=0)])
        x = lift(EuclideanPath(TimeGrid.uniform(m), vals), depth)
        i, j, k = sorted(rng2.choice(m + 1, size=3, replace=False))
        from .paths import increment

        whole = increment(x, i, k)
        split = group_mul(increment(x, i, j), increment(x, j, k))
        num = max(
            float(np.linalg.norm((whole.level(kk) - split.level(kk)).ravel()))
            for kk in range(1, depth + 1)
        )
        worst["chen"] = max(worst["chen"], num / (1.0 + homogeneous_norm(whole)))

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
    for delta, p in ((0.4, 3.0), (0.45, 4.0), (0.6, 8.0)):
        recs.extend(check_distance_equivalences(pairs[: max(6, pair_count // 3)],
                                                delta, p))
    recs.extend(check_distance_equivalences(pairs[:4], 0.45, 4.0, refined_pairs=fine))
    x1, x2 = pairs[0]
    recs.extend(check_control_function(x1, x2, 0.45, 4.0))
    recs.extend(check_superadditivity(lambda s, t: t - s, x1.grid.times,
                                      check_id="superadditive_length"))
    recs.extend(check_superadditivity(lambda s, t: (t - s) ** 2, x1.grid.times,
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
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ParameterError(f"unknown suite {name!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    if out_dir is not None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc}") from exc
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
