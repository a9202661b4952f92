"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from roughpaths import (
    EuclideanPath,
    GroupElement,
    TimeGrid,
    TruncatedTensor,
    lift,
    mixed_norm,
    qvar_norm,
    refined_nikolskii_norm,
    rho_mixed_level,
    rho_nikolskii_hat_level,
    rho_qvar_level,
    rho_riesz_level,
    riesz_norm,
    segment_exp,
    solve_bv,
    solve_rough,
    RdeConfig,
    Scheme,
    VectorField,
)
from roughpaths import oracle, verify
from roughpaths.distances import DenseSource, level_diff_matrix


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


# ---------------------------------------------------------------------------
# 1. algebra suite
# ---------------------------------------------------------------------------

def test_criterion_01_algebra_suite():
    t0 = time.monotonic()
    records = verify.suite_algebra(seed=0, trials=500)
    elapsed = time.monotonic() - t0
    core = {"algebra_chen", "algebra_assoc", "algebra_inverse", "algebra_dilation"}
    by_id = {r.check_id: r for r in records}
    ok = all(by_id[c].passed and by_id[c].rhs <= 1e-11 for c in core)
    ok = ok and all(r.passed for r in records) and elapsed < 5.0
    _report(1, "Chen/associativity/inverse/dilation on 500 seeded tensors "
               "within 1e-11, runtime < 5 s", ok, f"{elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence on 200 seeded small paths
# ---------------------------------------------------------------------------

def _small_path(rng, uniform):
    m = int(rng.integers(2, 10))
    if uniform:
        grid = TimeGrid.uniform(m)
    else:
        t = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.02, 0.98, m - 1)]))
        grid = TimeGrid(t)
    vals = np.vstack([np.zeros((1, 2)),
                      np.cumsum(rng.standard_normal((len(grid) - 1, 2)), axis=0)])
    return EuclideanPath(grid, vals)


def test_criterion_02_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    delta, p = 0.45, 4.0
    worst = 0.0

    def dev(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    norm_paths = [_small_path(rng, uniform=False) for _ in range(50)] + [
        _small_path(rng, uniform=True) for _ in range(50)
    ]
    for f in norm_paths:
        for q in (1.0, 2.2):
            worst = max(worst, dev(qvar_norm(f, q), oracle.oracle_qvar(f, q)))
        worst = max(worst, dev(riesz_norm(f, delta, p), oracle.oracle_riesz(f, delta, p)))
        worst = max(worst, dev(mixed_norm(f, delta, p), oracle.oracle_mixed(f, delta, p)))
        if f.grid.is_uniform:
            worst = max(worst, dev(refined_nikolskii_norm(f, delta, p),
                                   oracle.oracle_refined_nikolskii(f, delta, p)))

    pair_paths = [_small_path(rng, uniform=True) for _ in range(100)]
    for base, bump in zip(pair_paths[::2], pair_paths[1::2]):
        if len(base.grid) != len(bump.grid):
            bump = EuclideanPath(base.grid, base.values[::-1] * 0.7)
        else:
            bump = EuclideanPath(base.grid, base.values + 0.2 * bump.values)
        x1, x2 = lift(base, 2), lift(bump, 2)
        for k in (1, 2):
            worst = max(worst, dev(rho_qvar_level(x1, x2, 1 / delta, k),
                                   oracle.oracle_rho_qvar(x1, x2, 1 / delta, k)))
            worst = max(worst, dev(rho_riesz_level(x1, x2, delta, p, k),
                                   oracle.oracle_rho_riesz(x1, x2, delta, p, k)))
            worst = max(worst, dev(rho_mixed_level(x1, x2, delta, p, k),
                                   oracle.oracle_rho_mixed(x1, x2, delta, p, k)))
            worst = max(worst, dev(rho_nikolskii_hat_level(x1, x2, delta, p, k),
                                   oracle.oracle_rho_nikolskii_hat(x1, x2, delta, p, k)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(2, "DP equals full partition enumeration on 200 seeded paths "
               "(4 norms + 4 distance kinds) within 1e-9, runtime < 60 s",
            ok, f"max dev {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. explicit-constant inequalities
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family_100():
    return verify._mixed_family(300, 100, 64)


@pytest.fixture(scope="module")
def pair_family_20():
    return verify.RoughPairFamily(20, 32, dim=2, depth=2, seed=301,
                                  perturbation=0.1).pairs()


def test_criterion_03_explicit_constant_inequalities(family_100, pair_family_20):
    records = []
    for delta in (0.4, 0.6):
        for p in (3.0, 5.0, 8.0):
            records.extend(verify.check_embedding_chain(family_100, delta, p, seed=1))
    hard_ok = all(r.passed for r in records if r.category == "hard")
    dist_ok = True
    for x1, x2 in pair_family_20[:6]:
        for delta, p in ((0.4, 3.0), (0.6, 8.0)):
            for k in (1, 2):
                lhs = rho_riesz_level(x1, x2, delta, p, k)
                rhs = verify._nested_mixed([DenseSource(level_diff_matrix(x1, x2, k), x1.grid)],
                                           delta, [p], k)[0][0]
                dist_ok = dist_ok and lhs <= rhs * (1 + 1e-9)
    ok = hard_ok and dist_ok
    _report(3, "constant-1 inequalities (interpolation bound, pointwise bound, "
               "parameter monotonicity, N<=N-hat, rho_riesz<=rho_mixed) over "
               "100 paths x {0.4,0.6} x {3,5,8}, slack 1e-9", ok)


# ---------------------------------------------------------------------------
# 4. grid equalities with constant 1 both ways
# ---------------------------------------------------------------------------

def test_criterion_04_grid_equalities(family_100, pair_family_20):
    worst_norm = 0.0
    for delta in (0.4, 0.6):
        for rec in verify.check_riesz_eq_mixed(family_100, delta, (3.0, 5.0, 8.0)):
            worst_norm = max(worst_norm, rec.lhs)
    worst_dist = 0.0
    for x1, x2 in pair_family_20[:8]:
        for delta, p in ((0.4, 3.0), (0.45, 4.0), (0.6, 8.0)):
            for k in (1, 2):
                a = rho_riesz_level(x1, x2, delta, p, k)
                b = verify._nested_mixed([DenseSource(level_diff_matrix(x1, x2, k), x1.grid)],
                                         delta, [p], k)[0][0]
                worst_dist = max(worst_dist, abs(a - b) / max(a, b, 1e-300))
    ok = worst_norm <= 1e-9 and worst_dist <= 1e-9
    _report(4, "riesz = mixed and rho_riesz = rho_mixed on the grid within 1e-9",
            ok, f"norm dev {worst_norm:.2e}, dist dev {worst_dist:.2e}")


# ---------------------------------------------------------------------------
# 5. regularity-1 identity against derivative quadrature
# ---------------------------------------------------------------------------

def test_criterion_05_bv_identity():
    fam = verify.PathFamily("smooth_fourier", 6, 1024, dim=2, seed=341)
    ok = True
    worst = 0.0
    for p in (2.0, 4.0):
        recs = verify.check_bv_identity(fam.paths_with_derivatives(), p, tol=0.01)
        ok = ok and all(r.passed for r in recs)
        worst = max(worst, max(r.lhs for r in recs))
    _report(5, "V^{1,p}, mixed^{1,p}, refined-Nikolskii^{1,p} match the "
               "derivative L^p quadrature within 1% on 1024-interval grids, "
               "p in {2,4}", ok, f"max rel dev {worst:.2%}")


# ---------------------------------------------------------------------------
# 6. Sobolev-Nikolskii explicit constant
# ---------------------------------------------------------------------------

def test_criterion_06_sobolev_nikolskii():
    paths = verify._mixed_family(351, 50, 512)
    recs = verify.check_sobolev_nikolskii(paths, delta=0.3, delta_prime=0.45,
                                          p=4.0, slack=0.05)
    ok = all(r.passed for r in recs)
    _report(6, "W^{0.3,4} <= (2/(0.15*4))^{1/4} N^{0.45,4} T^{0.15} with 5% "
               "slack on 512-interval grids, 50 paths", ok,
            f"max ratio {recs[0].lhs:.4f}")


# ---------------------------------------------------------------------------
# 7. p -> infinity limit
# ---------------------------------------------------------------------------

def test_criterion_07_p_limit():
    paths = (verify.PathFamily("zigzag", 10, 128, seed=361).paths()
             + verify.PathFamily("smooth_fourier", 10, 128, seed=362).paths())
    recs = verify.check_p_limit(paths, delta=0.5, ps=(8.0, 16.0, 32.0, 64.0),
                                gap_bound=0.05)
    ok = all(r.passed for r in recs)
    gap = next(r.lhs for r in recs if r.check_id == "p_limit_gap")
    _report(7, "|riesz(p) - hoelder| non-increasing over p in {8,16,32,64} "
               "and final gap < 5% (zigzag + smooth families)", ok,
            f"final gap {gap:.2%}")


# ---------------------------------------------------------------------------
# 8. CC oracle calibration
# ---------------------------------------------------------------------------

def test_criterion_08_cc_oracle():
    a = 0.25
    l2 = np.array([[0.0, a], [-a, 0.0]])
    area = GroupElement(TruncatedTensor(2, 2, (np.array(1.0), np.zeros(2), l2)))
    val = oracle.cc_norm_bruteforce(area, segments=32, starts=8)
    target = 2.0 * np.sqrt(np.pi * a)
    area_ok = abs(val - target) <= 0.05 * target
    seg_ok = True
    for delta in ([3.0, 4.0], [1.0, 0.0], [-0.3, 0.7]):
        g = segment_exp(delta, 2)
        got = oracle.cc_norm_bruteforce(g, segments=16, starts=4)
        seg_ok = seg_ok and abs(got - np.linalg.norm(delta)) <= 0.01 * np.linalg.norm(delta)
    _report(8, "CC brute force: pure area 0.25 -> 2 sqrt(pi/4) within 5%, "
               "straight segments within 1%", area_ok and seg_ok,
            f"area value {val:.4f} vs {target:.4f}")


# ---------------------------------------------------------------------------
# 9. RDE closed form and convergence order
# ---------------------------------------------------------------------------

def test_criterion_09_rde_closed_form():
    v = VectorField.linear([[[1.0]]])
    x = EuclideanPath.from_function(TimeGrid.uniform(100), lambda t: t)
    y = solve_bv([1.0], v, x, RdeConfig(substeps=100))
    euler_err = abs(float(y.values[-1, 0]) - np.e)
    errs = []
    for m in (8, 16, 32, 64):
        xg = lift(EuclideanPath.from_function(TimeGrid.uniform(m), lambda t: t), 2)
        yr = solve_rough([1.0], v, xg, RdeConfig(depth=2, scheme=Scheme.ROUGH_EULER))
        errs.append(abs(float(yr.values[-1, 0]) - np.e))
    order = -np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    ok = euler_err < 2e-4 and order >= 1.8
    _report(9, "scalar linear RDE: |Y_1 - e| < 2e-4 at 1e4 Euler substeps; "
               "rough depth-2 order >= 1.8 over three halvings", ok,
            f"err {euler_err:.1e}, order {order:.2f}")


# ---------------------------------------------------------------------------
# 10. solution-map Lipschitz suite
# ---------------------------------------------------------------------------

def test_criterion_10_lipschitz_suite():
    t0 = time.monotonic()
    fam = verify.RoughPairFamily(50, 32, dim=2, depth=2, seed=81, perturbation=0.05)
    recs = verify.run_lipschitz_suite(fam, delta=0.45, p=4.0, gamma=2.5,
                                      b=1.0, l=1.0, seed=0)
    recs_bv = verify.run_lipschitz_bv_suite(fam, p=4.0, b=1.0, l=1.0, seed=0)
    elapsed = time.monotonic() - t0
    hard_ok = all(r.passed for r in recs + recs_bv if r.category == "hard")
    maxr = next(r.lhs for r in recs if r.check_id == "lipschitz_max_ratio")
    ok = hard_ok and elapsed < 600.0
    _report(10, "50 driver pairs (depth 2, delta 0.45, p 4, b = l = 1): all "
                "ratios finite, max stable within factor 2 under refinement, "
                "regularity-1 variant via the BV solver, runtime < 10 min",
            ok, f"max ratio {maxr:.3f}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 11. negative controls
# ---------------------------------------------------------------------------

def test_criterion_11_negative_controls():
    recs = verify.negative_controls(seed=0)
    controls_fail = all(not r.passed for r in recs)
    # the suite must go red if a negative control unexpectedly passes
    flipped = [verify.CheckRecord(r.check_id, r.params, r.lhs, r.rhs, r.constant,
                                  True, r.category, r.notes) for r in recs]
    gate_works = not verify.suite_ok(flipped) and verify.suite_ok(recs)
    ok = controls_fail and gate_works
    _report(11, "sub-additive omega and reversed inequality both fail, and "
                "the suite exit flips if they pass", ok)
