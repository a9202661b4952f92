import decimal
import math
import tracemalloc
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughpaths import (
    P_INF,
    EuclideanPath,
    GroupPath,
    NonUniformGridError,
    NormKind,
    NormSpec,
    ParameterError,
    TimeGrid,
    compute_norm,
    frac_sobolev_norm,
    holder_norm,
    level1_path,
    lift,
    mixed_norm,
    nikolskii_norm,
    qvar_norm,
    refined_nikolskii_norm,
    riesz_norm,
    time_reversed,
)
from roughpaths import norms as norms_module
from roughpaths.distances import DenseSource
from roughpaths.norms import dp_partition_sup
from roughpaths.oracle import (
    enumerate_partition_supremum,
    oracle_frac_sobolev,
    oracle_mixed,
    oracle_nikolskii,
    oracle_qvar,
    oracle_refined_nikolskii,
    oracle_riesz,
    shift_sup_table,
)
from roughpaths.verify import _nested_mixed, dense_columns, dp_power_table
from conftest import random_walk_path


def linear_path(intervals=100, slope=1.0, horizon=1.0):
    return EuclideanPath.from_function(
        TimeGrid.uniform(intervals, horizon), lambda t: slope * t
    )


def zigzag():
    return EuclideanPath(TimeGrid([0.0, 0.5, 1.0]), [0.0, 1.0, 0.0])


def constant_path(intervals=10, dim=2):
    return EuclideanPath(TimeGrid.uniform(intervals), np.ones((intervals + 1, dim)))


# ---------------------------------------------------------------------------
# NormSpec parameter validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    NormSpec(NormKind.RIESZ, delta=0.5, p=2.0)
    with pytest.raises(ParameterError):
        NormSpec(NormKind.RIESZ, delta=0.5, p=1.5)
    with pytest.raises(ParameterError):
        NormSpec(NormKind.HOELDER, delta=1.5)
    with pytest.raises(ParameterError):
        NormSpec(NormKind.QVAR, p=0.5)
    with pytest.raises(ParameterError):
        NormSpec(NormKind.FRAC_SOBOLEV, delta=1.0, p=2.0)
    with pytest.raises(ParameterError):
        NormSpec(NormKind.FRAC_SOBOLEV, delta=0.5, p=P_INF)


# ---------------------------------------------------------------------------
# Hoelder
# ---------------------------------------------------------------------------

def test_holder_linear():
    assert holder_norm(linear_path(), 0.5) == pytest.approx(1.0)


def test_holder_constant_zero():
    assert holder_norm(constant_path(), 0.7) == 0.0


def test_holder_sqrt_path():
    f = EuclideanPath.from_function(TimeGrid.uniform(1000), lambda t: np.sqrt(t))
    assert holder_norm(f, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_holder_zero_length_interval():
    assert holder_norm(linear_path(), 0.5, interval=(0.25, 0.25)) == 0.0


def test_riesz_inf_dispatches_to_holder():
    f = zigzag()
    assert riesz_norm(f, 0.5, P_INF) == holder_norm(f, 0.5)


def test_float_inf_p_is_the_sentinel():
    f = random_walk_path(np.random.default_rng(11), 64, 2)
    assert riesz_norm(f, 0.5, float("inf")) == holder_norm(f, 0.5)
    assert mixed_norm(f, 0.5, math.inf) == mixed_norm(f, 0.5, P_INF)
    assert nikolskii_norm(f, 0.5, np.inf) == nikolskii_norm(f, 0.5, P_INF)
    assert NormSpec(NormKind.RIESZ, delta=0.5, p=float("inf")).p is P_INF
    assert NormSpec(NormKind.RIESZ, 0.5, np.float64("inf")).p is P_INF
    assert P_INF is math.inf


def test_nan_or_missing_p_rejected():
    f = zigzag()
    for call in (lambda: riesz_norm(f, 0.5, float("nan")),
                 lambda: mixed_norm(f, 0.5, None),
                 lambda: qvar_norm(f, float("nan")),
                 lambda: qvar_norm(f, P_INF),
                 lambda: nikolskii_norm(f, 0.5, float("nan")),
                 lambda: frac_sobolev_norm(f, 0.5, float("inf")),
                 lambda: NormSpec(NormKind.RIESZ, delta=0.5, p=float("nan")),
                 lambda: NormSpec(NormKind.QVAR, p=None)):
        with pytest.raises(ParameterError):
            call()


# ---------------------------------------------------------------------------
# q-variation
# ---------------------------------------------------------------------------

def test_qvar_monotone_path():
    f = EuclideanPath.from_function(TimeGrid.uniform(50), lambda t: t**3)
    for q in (1.0, 2.0, 4.0):
        assert qvar_norm(f, q) == pytest.approx(1.0, rel=1e-12)


def test_qvar_zigzag():
    assert qvar_norm(zigzag(), 1.0) == pytest.approx(2.0)
    assert qvar_norm(zigzag(), 2.0) == pytest.approx(np.sqrt(2.0))


def test_qvar_oracle_equality(rng):
    for _ in range(25):
        f = random_walk_path(rng, int(rng.integers(3, 9)), 2, uniform=False)
        for q in (1.0, 1.5, 3.0):
            assert qvar_norm(f, q) == pytest.approx(oracle_qvar(f, q), rel=1e-9)


def test_qvar_requires_q_at_least_one():
    with pytest.raises(ParameterError):
        qvar_norm(zigzag(), 0.9)


# ---------------------------------------------------------------------------
# Riesz variation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta,p,c", [(0.5, 4.0, 1.0), (0.4, 3.0, 2.0), (0.6, 8.0, 0.7)])
def test_riesz_linear_closed_form(delta, p, c):
    # single-block partition is optimal for a linear path
    f = linear_path(slope=c)
    assert riesz_norm(f, delta, p) == pytest.approx(c * 1.0 ** (1 - delta + 1 / p), rel=1e-12)


def test_riesz_delta_one_equals_derivative_lp():
    f = linear_path()
    assert riesz_norm(f, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_riesz_constant_zero():
    assert riesz_norm(constant_path(), 0.5, 3.0) == 0.0


def test_riesz_parameter_error():
    with pytest.raises(ParameterError):
        riesz_norm(zigzag(), 0.5, 1.8)


def test_riesz_oracle_equality(rng):
    for _ in range(25):
        f = random_walk_path(rng, int(rng.integers(3, 9)), 1, uniform=False)
        for delta, p in ((0.4, 3.0), (0.6, 5.0)):
            assert riesz_norm(f, delta, p) == pytest.approx(
                oracle_riesz(f, delta, p), rel=1e-9
            )


# ---------------------------------------------------------------------------
# mixed norm
# ---------------------------------------------------------------------------

def test_mixed_equals_riesz_on_grid(rng):
    # against the nested definition: the grid identity proved in ``norms``
    for _ in range(15):
        f = random_walk_path(rng, int(rng.integers(4, 20)), 2, uniform=False)
        for delta, p in ((0.4, 3.0), (0.45, 4.0), (0.6, 8.0)):
            a, b = riesz_norm(f, delta, p), _nested_mixed([f], delta, [p])[0][0]
            assert a == pytest.approx(b, rel=1e-9)
            assert mixed_norm(f, delta, p) == a


def test_mixed_linear_closed_form():
    assert mixed_norm(linear_path(), 0.5, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_mixed_oracle_equality(rng):
    for _ in range(10):
        f = random_walk_path(rng, int(rng.integers(3, 8)), 1, uniform=False)
        assert mixed_norm(f, 0.45, 4.0) == pytest.approx(
            oracle_mixed(f, 0.45, 4.0), rel=1e-9
        )


def test_nested_norms_have_no_size_cap():
    f = random_walk_path(np.random.default_rng(0), 40, 1)
    # refined Nikolskii and mixed are O(M^2) sweeps without a cap option
    with pytest.raises(TypeError):
        refined_nikolskii_norm(f, 0.5, 4.0, max_nested=16)
    big = random_walk_path(np.random.default_rng(1), 2048, 2)
    spec = NormSpec(NormKind.REFINED_NIKOLSKII, delta=0.5, p=4.0)
    refined = refined_nikolskii_norm(big, 0.5, 4.0)
    assert compute_norm(big, spec) == refined
    assert nikolskii_norm(big, 0.5, 4.0) <= refined < math.inf
    riesz = riesz_norm(big, 0.45, 4.0)
    assert mixed_norm(big, 0.45, 4.0) == riesz
    assert compute_norm(big, NormSpec(NormKind.MIXED, delta=0.45, p=4.0)) == riesz


def test_mixed_p_inf_is_blockwise_holder_of_qvar():
    f = zigzag()
    # sup over subintervals of 2-var / len^0.5: the whole interval gives
    # sqrt(2) / 1 and each leg gives 1 / sqrt(0.5); all equal sqrt(2)
    assert mixed_norm(f, 0.5, P_INF) == pytest.approx(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# Nikolskii and refined Nikolskii
# ---------------------------------------------------------------------------

def test_nikolskii_linear_half_delta():
    f = linear_path(1000)
    # sup_h h^{1/2} (1-h)^{1/2} = 1/2, attained at h = 1/2
    assert nikolskii_norm(f, 0.5, 2.0) == pytest.approx(0.5, abs=2e-3)


def test_nikolskii_linear_delta_one():
    f = linear_path(1000)
    assert nikolskii_norm(f, 1.0, 2.0) == pytest.approx(1.0, abs=2e-3)


def test_nikolskii_constant_zero():
    assert nikolskii_norm(constant_path(), 0.5, 2.0) == 0.0


def test_nikolskii_needs_uniform_grid(rng):
    f = random_walk_path(rng, 8, 1, uniform=False)
    with pytest.raises(NonUniformGridError):
        nikolskii_norm(f, 0.5, 2.0)
    with pytest.raises(NonUniformGridError):
        refined_nikolskii_norm(f, 0.5, 2.0)
    with pytest.raises(NonUniformGridError):
        frac_sobolev_norm(f, 0.5, 2.0)


def test_nikolskii_oracle_equality(rng):
    for _ in range(15):
        f = random_walk_path(rng, int(rng.integers(3, 9)), 1)
        assert nikolskii_norm(f, 0.45, 4.0) == pytest.approx(
            oracle_nikolskii(f, 0.45, 4.0), rel=1e-9
        )


def test_refined_nikolskii_dominates_nikolskii(rng):
    for _ in range(10):
        f = random_walk_path(rng, 12, 2)
        for delta, p in ((0.4, 3.0), (0.6, 8.0)):
            assert nikolskii_norm(f, delta, p) <= refined_nikolskii_norm(
                f, delta, p
            ) * (1 + 1e-12)


def test_refined_nikolskii_oracle_equality(rng):
    for _ in range(10):
        f = random_walk_path(rng, int(rng.integers(3, 9)), 1)
        assert refined_nikolskii_norm(f, 0.45, 4.0) == pytest.approx(
            oracle_refined_nikolskii(f, 0.45, 4.0), rel=1e-9
        )


def test_refined_nikolskii_constant_zero():
    assert refined_nikolskii_norm(constant_path(), 0.5, 2.0) == 0.0


def test_nikolskii_zero_when_only_the_last_step_moves():
    # the left Riemann sums read d(f_r, f_(r+m)) with r + m < hi only, so the
    # last step enters none of them, whether the sums are kept or folded
    values = np.zeros((17, 2))
    values[-1] = 1.0
    f = EuclideanPath(TimeGrid.uniform(16), values)
    for p in (4.0, 300.0):
        assert nikolskii_norm(f, 0.5, p) == 0.0
        assert refined_nikolskii_norm(f, 0.5, p) == 0.0


@pytest.mark.parametrize("intervals", [10, 200])
def test_nikolskii_left_riemann_sum_is_not_reversal_symmetric(intervals):
    # the pair (hi - m, hi) enters no shift sum, so reversing time moves both
    # Nikolskii norms, while the partition and double-integral norms keep
    # their value: a change of the inner integral's rule fails here
    f = random_walk_path(np.random.default_rng(3), intervals, 2)
    back = time_reversed(f)
    delta, p = 0.4, 4.0
    for norm, oracle in ((nikolskii_norm, oracle_nikolskii),
                         (refined_nikolskii_norm, oracle_refined_nikolskii)):
        a, b = norm(f, delta, p), norm(back, delta, p)
        assert abs(a - b) > 1e-5 * max(a, b)
        if intervals == 10:
            assert a == pytest.approx(oracle(f, delta, p), rel=1e-12, abs=0)
            assert b == pytest.approx(oracle(back, delta, p), rel=1e-12, abs=0)
    for a, b in ((qvar_norm(f, p), qvar_norm(back, p)),
                 (frac_sobolev_norm(f, delta, p), frac_sobolev_norm(back, delta, p))):
        assert abs(a - b) <= 2 * np.spacing(max(a, b))


def test_nikolskii_p_inf():
    f = zigzag()
    # lag 1: max |f_{u+h} - f_u| = 1 at h = 1/2; lag 2: 0
    assert nikolskii_norm(f, 0.5, P_INF) == pytest.approx(1.0 / np.sqrt(0.5))
    assert refined_nikolskii_norm(f, 0.5, P_INF) == pytest.approx(1.0 / np.sqrt(0.5))


# ---------------------------------------------------------------------------
# fractional Sobolev
# ---------------------------------------------------------------------------

def test_frac_sobolev_constant_zero():
    assert frac_sobolev_norm(constant_path(), 0.3, 2.0) == 0.0


def test_frac_sobolev_linear_quadrature():
    # exact: (2 int_0^1 h^(1-2 delta) (1-h) dh)^(1/2)
    delta = 0.25
    expected = np.sqrt(2.0 * (1 / (2 - 2 * delta) - 1 / (3 - 2 * delta)))
    f = linear_path(1024)
    assert frac_sobolev_norm(f, delta, 2.0) == pytest.approx(expected, rel=2e-3)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frac_sobolev_equals_the_double_loop_reference(dim, seed):
    # on the whole grid and on sub-intervals from lo > 0
    rng = np.random.default_rng(seed)
    f = random_walk_path(rng, 48, dim)
    t = f.grid.times
    for lo, hi in ((0, 48), (1, 48), (5, 31), (17, 19)):
        for delta, p in ((0.4, 3.0), (0.1, 1.0), (0.75, 6.5)):
            want = oracle_frac_sobolev(f, delta, p, (t[lo], t[hi]))
            assert frac_sobolev_norm(f, delta, p, (t[lo], t[hi])) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("dim, depth", [(2, 2), (2, 3), (3, 2)])
def test_frac_sobolev_of_a_lift_equals_the_double_loop_reference(dim, depth):
    x = lift(random_walk_path(np.random.default_rng(dim * depth), 24, dim), depth)
    t = x.grid.times
    for lo, hi in ((0, 24), (3, 20)):
        want = oracle_frac_sobolev(x, 0.4, 3.0, (t[lo], t[hi]))
        assert frac_sobolev_norm(x, 0.4, 3.0, (t[lo], t[hi])) == pytest.approx(want, rel=1e-14)


def test_frac_sobolev_finite_for_linear_any_delta():
    f = linear_path(256)
    for delta in (0.1, 0.5, 0.9):
        assert np.isfinite(frac_sobolev_norm(f, delta, 2.0))


# ---------------------------------------------------------------------------
# invariants across the families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.4, 0.6])
@pytest.mark.parametrize("p", [3.0, 5.0, 8.0])
def test_interp_ordering_chain(rng, delta, p):
    for _ in range(5):
        f = random_walk_path(rng, 16, 2)
        bound = riesz_norm(f, delta, p) * 1.0 ** (delta - 1 / p)
        assert qvar_norm(f, 1 / delta) <= bound * (1 + 1e-9)


def test_pointwise_increment_bound(rng):
    f = random_walk_path(rng, 16, 1)
    t = f.grid.times
    for _ in range(10):
        i = int(rng.integers(0, 16))
        j = int(rng.integers(i + 1, 17))
        d = abs(float(f.values[j, 0] - f.values[i, 0]))
        r = riesz_norm(f, 0.45, 4.0, (t[i], t[j]))
        assert d <= r * (t[j] - t[i]) ** (0.45 - 0.25) * (1 + 1e-9)


def test_parameter_monotonicity_constants(rng):
    f = random_walk_path(rng, 16, 1)
    assert riesz_norm(f, 0.5, 4.0) <= 1.0 ** 0.1 * riesz_norm(f, 0.6, 4.0) * (1 + 1e-9)
    assert riesz_norm(f, 0.6, 3.0) <= riesz_norm(f, 0.6, 4.0) * (1 + 1e-9)


def test_p_to_infinity_limit(rng):
    f = EuclideanPath.from_function(
        TimeGrid.uniform(128), lambda t: np.sin(2 * np.pi * t) / (2 * np.pi)
    )
    hol = holder_norm(f, 0.5)
    gaps = [abs(riesz_norm(f, 0.5, p) - hol) / hol for p in (8.0, 16.0, 32.0, 64.0)]
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(3))
    assert gaps[-1] < 0.05


def test_superadditivity_of_powers(rng):
    f = random_walk_path(rng, 16, 1)
    t = f.grid.times
    for _ in range(8):
        i, j, k = sorted(rng.choice(17, size=3, replace=False))
        if i == j or j == k:
            continue
        for fn, p in ((lambda g, iv: riesz_norm(g, 0.45, 4.0, iv) ** 4.0, 4.0),
                      (lambda g, iv: mixed_norm(g, 0.45, 4.0, iv) ** 4.0, 4.0),
                      (lambda g, iv: refined_nikolskii_norm(g, 0.45, 4.0, iv) ** 4.0, 4.0)):
            split = fn(f, (t[i], t[j])) + fn(f, (t[j], t[k]))
            whole = fn(f, (t[i], t[k]))
            assert split <= whole * (1 + 1e-9)


def test_spatial_and_time_scaling(rng):
    f = random_walk_path(rng, 12, 2)
    delta, p, c, lam = 0.45, 4.0, 2.5, 2.0
    scaled = EuclideanPath(f.grid, c * f.values)
    stretched = EuclideanPath(TimeGrid(lam * f.grid.times), f.values)
    assert riesz_norm(scaled, delta, p) == pytest.approx(
        c * riesz_norm(f, delta, p), rel=1e-12)
    assert holder_norm(scaled, delta) == pytest.approx(
        c * holder_norm(f, delta), rel=1e-12)
    assert riesz_norm(stretched, delta, p) == pytest.approx(
        lam ** (1 / p - delta) * riesz_norm(f, delta, p), rel=1e-12)
    assert holder_norm(stretched, delta) == pytest.approx(
        lam ** (-delta) * holder_norm(f, delta), rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 3),
       st.sampled_from([-40, -3, -1, 1, 3, 40]), st.sampled_from([-3, -1, 1, 2]),
       st.sampled_from([(0.3, 4.0), (0.45, 2.5), (0.5, 300.0)]))
def test_dilation_and_time_scaling_laws(seed, m, dim, n, tn, dp):
    # seeded walks on uniform grids: dilating the values by 2^n scales every
    # seminorm by 2^n; mapping the grid onto lam = 2^tn times itself scales
    # Hoelder by lam^(-delta), the integral norms by lam^(1/p - delta), and
    # leaves q-variation as it is; p = 300 takes the out-of-range fallbacks
    delta, p = dp
    f = random_walk_path(np.random.default_rng(seed), m, dim)
    dilated = EuclideanPath(f.grid, f.values * 2.0**n)
    lam = 2.0**tn
    stretched = EuclideanPath(TimeGrid(f.grid.times * lam), f.values)
    integral = lam ** (1.0 / p - delta)
    laws = [(lambda g: holder_norm(g, delta), lam**-delta),
            (lambda g: riesz_norm(g, delta, p), integral),
            (lambda g: nikolskii_norm(g, delta, p), integral),
            (lambda g: refined_nikolskii_norm(g, delta, p), integral),
            (lambda g: frac_sobolev_norm(g, delta, p), integral)]
    for norm, time_factor in laws:
        value = norm(f)
        assert math.isfinite(value)
        assert norm(dilated) == pytest.approx(2.0**n * value, rel=1e-12, abs=0.0)
        assert norm(stretched) == pytest.approx(time_factor * value, rel=1e-12, abs=0.0)
    assert qvar_norm(stretched, p) == qvar_norm(f, p)


def test_sobolev_nikolskii_embedding_constant(rng):
    delta, dp, p = 0.3, 0.45, 4.0
    const = (2.0 / ((dp - delta) * p)) ** (1 / p)
    for _ in range(5):
        f = random_walk_path(rng, 64, 1)
        lhs = frac_sobolev_norm(f, delta, p)
        rhs = const * nikolskii_norm(f, dp, p)
        assert lhs <= rhs * 1.05


# ---------------------------------------------------------------------------
# group-valued paths, tables, dispatcher
# ---------------------------------------------------------------------------

def test_norms_of_lifted_path(rng):
    f = random_walk_path(rng, 10, 2)
    x = lift(f, 2)
    assert qvar_norm(x, 2.5) > 0
    assert riesz_norm(x, 0.45, 4.0) == pytest.approx(_nested_mixed([x], 0.45, [4.0])[0][0],
                                                     rel=1e-9)


def test_interval_table_monotone_in_inclusion(rng):
    # the norms over every subinterval [t_i, t_j], one call per cell
    f = random_walk_path(rng, 10, 1)
    t, x = f.grid.times, f.values[:, 0]
    m = len(f.grid) - 1

    def table(norm):
        tbl = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in range(i, m + 1):
                tbl[i, j] = norm((t[i], t[j]))
        return tbl

    hol = table(lambda span: holder_norm(f, 0.5, span))
    for i in range(11):
        for j in range(i + 1, 11):
            pair_sup = max(abs(x[b] - x[a]) / (t[b] - t[a]) ** 0.5
                           for a in range(i, j) for b in range(a + 1, j + 1))
            assert hol[i, j] == pytest.approx(pair_sup, rel=1e-12)
    for norm in (
        lambda span: holder_norm(f, 0.5, span),
        lambda span: qvar_norm(f, 2.0, span),
        lambda span: riesz_norm(f, 0.45, 4.0, span),
        lambda span: mixed_norm(f, 0.45, 4.0, span),
    ):
        tbl = table(norm)
        for i in range(m):
            for j in range(i + 1, m + 1):
                if i > 0:
                    assert tbl[i, j] <= tbl[i - 1, j] * (1 + 1e-12)
                if j < m:
                    assert tbl[i, j] <= tbl[i, j + 1] * (1 + 1e-12)
        assert all(tbl[i, i] == 0.0 for i in range(m + 1))


def test_compute_norm_dispatch(rng):
    f = random_walk_path(rng, 12, 1)
    pairs = [
        (NormSpec(NormKind.HOELDER, delta=0.5), holder_norm(f, 0.5)),
        (NormSpec(NormKind.QVAR, p=2.0), qvar_norm(f, 2.0)),
        (NormSpec(NormKind.RIESZ, delta=0.45, p=4.0), riesz_norm(f, 0.45, 4.0)),
        (NormSpec(NormKind.MIXED, delta=0.45, p=4.0), riesz_norm(f, 0.45, 4.0)),
        (NormSpec(NormKind.NIKOLSKII, delta=0.45, p=4.0), nikolskii_norm(f, 0.45, 4.0)),
        (NormSpec(NormKind.FRAC_SOBOLEV, delta=0.3, p=2.0), frac_sobolev_norm(f, 0.3, 2.0)),
    ]
    for spec, expected in pairs:
        assert compute_norm(f, spec) == expected


def test_single_interval_grid_one_pair_value():
    f = EuclideanPath(TimeGrid([0.0, 0.5]), [0.0, 2.0])
    assert qvar_norm(f, 2.0) == pytest.approx(2.0)
    assert riesz_norm(f, 0.5, 4.0) == pytest.approx(2.0 / 0.5 ** (0.5 - 0.25))
    assert holder_norm(f, 0.5) == pytest.approx(2.0 / np.sqrt(0.5))


# ---------------------------------------------------------------------------
# the nested partition table against the per-cell DP and the enumeration
# ---------------------------------------------------------------------------

def _draw_weights(draw, n):
    cell = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    w = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        w[draw(st.integers(0, n - 2)), n - 1] = np.inf
    return w


@st.composite
def weight_windows(draw):
    n = draw(st.integers(2, 12))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    return _draw_weights(draw, n), lo, hi


@st.composite
def weight_stacks(draw):
    # weight_windows on one window, stacked under one or two batch axes,
    # and a split of the window's columns into two blocks
    w, lo, hi = draw(weight_windows())
    batch = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    mats = [w] + [_draw_weights(draw, w.shape[0]) for _ in range(math.prod(batch) - 1)]
    return np.stack(mats).reshape(*batch, *w.shape), lo, hi, draw(st.integers(0, hi - lo))


INF_AT_LO = np.triu(np.full((8, 8), 0.5), 1)
INF_AT_LO[3, 5] = np.inf


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(weight_windows())
@example((INF_AT_LO, 2, 7))
@example((np.zeros((6, 6)), 1, 5))
def test_power_table_equals_cellwise_dp(case):
    w, lo, hi = case
    b = dp_power_table(w, lo, hi)
    assert not np.isnan(b).any()
    inside = np.zeros(b.shape, dtype=bool)
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            inside[i, j] = True
            assert b[i, j] == dp_partition_sup([dense_columns(w, i, j)], i, j)
            assert b[i, j] == pytest.approx(enumerate_partition_supremum(w, i, j), rel=1e-12)
    assert not b[~inside].any()
    if np.isinf(w[lo:hi, lo + 1 : hi + 1]).any():
        assert b[lo, hi] == np.inf


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weight_stacks())
@example((np.stack([INF_AT_LO, np.zeros((8, 8))]), 2, 7, 3))
def test_batched_dp_kernels_equal_per_slice_calls(case):
    w, lo, hi, split = case
    batch = w.shape[:-2]
    table = dp_power_table(w, lo, hi)
    cols = dense_columns(w, lo, hi)
    best = dp_partition_sup([cols[..., :split, :], cols[..., split:, :]], lo, hi, batch)
    assert table.shape == w.shape and best.shape == batch
    for idx in np.ndindex(batch):
        assert np.array_equal(table[idx], dp_power_table(w[idx], lo, hi))
        assert best[idx] == dp_partition_sup([dense_columns(w[idx], lo, hi)], lo, hi)


@st.composite
def column_streams(draw):
    """A stack of weight matrices on [lo, hi] and a stream of its columns.

    The blocks have any width up to 2 ``_DP_COLUMNS`` + 1, multiples of it
    or not, empty and one-column blocks among them; each holds every row or,
    as a pair ``(rows, block)``, a random set of the rows before its band and
    then the band, the rows j0-1..j1-1.  Returns the stream and the reference: the
    stack with the rows each block leaves out set to 0 in its columns.
    Zero, inf and NaN weights are put in a few drawn cells.
    """
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    lo = draw(st.integers(0, 2))
    hi = lo + draw(st.integers(1, 3 * norms_module._DP_COLUMNS + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.0, 1e3, (*batch, hi + 1, hi + 1))
    for _ in range(draw(st.integers(0, 6))):
        idx = tuple(draw(st.integers(0, size - 1)) for size in w.shape)
        w[idx] = draw(st.sampled_from([0.0, np.inf, np.nan]))
    ref, stream, j0, j1 = w.copy(), [], lo + 1, None
    while j0 <= hi:
        # no two empty blocks in a row, so the stream ends
        j1 = j0 + draw(st.integers(int(j1 == j0), min(2 * norms_module._DP_COLUMNS + 1,
                                                       hi + 1 - j0)))
        if draw(st.booleans()):
            stream.append(dense_columns(w, lo, hi)[..., j0 - lo - 1 : j1 - lo - 1, : j1 - lo])
        else:
            kept = [i for i in range(lo, j0 - 1) if draw(st.booleans())]
            skipped = sorted(set(range(lo, j0 - 1)) - set(kept))
            ref[..., skipped, j0:j1] = 0.0
            rows = np.array(kept + list(range(j0 - 1, j1)), dtype=int)
            stream.append((rows - lo, np.swapaxes(w[..., rows, j0:j1], -1, -2)))
        j0 = j1
    return batch, lo, hi, stream, ref


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(column_streams())
def test_dp_equals_the_per_column_recurrence(case):
    # every best[j], of every batch index, is the plain recurrence's bit for
    # bit (NaN where it is NaN), whether a block holds every row or only its
    # kept rows, band last, the others being set to 0 in the reference
    batch, lo, hi, stream, ref = case
    best = np.zeros((*batch, hi - lo + 1))
    got = dp_partition_sup(iter(stream), lo, hi, batch, best)
    assert np.shape(got) == batch
    for idx in np.ndindex(batch):
        want = [0.0] + [_dense_dp(ref[idx], lo, j) for j in range(lo + 1, hi + 1)]
        assert np.array_equal(best[idx], want, equal_nan=True)
    assert np.array_equal(got, best[..., -1], equal_nan=True)


# ---------------------------------------------------------------------------
# streamed single-value norms against the dense formulas
# ---------------------------------------------------------------------------

def _dense_dp(w, lo, hi):
    best = np.zeros(hi - lo + 1)
    for j in range(lo + 1, hi + 1):
        best[j - lo] = np.max(best[: j - lo] + w[lo:j, j])
    return float(best[-1])


def _dense_values(f, lo, hi):
    """Every streamed family by its dense formula on ``distance_matrix``."""
    dist, t = f.distance_matrix, f.grid.times
    iu = np.triu_indices(len(t), k=1)
    gap = t[iu[1]] - t[iu[0]]
    dt_up = t[None, :] - t[:, None]
    dt_up = np.where(dt_up > 0, dt_up, np.inf)[lo : hi + 1, lo : hi + 1]
    w = np.zeros_like(dist)
    w[iu] = dist[iu] ** 4.0 * gap ** (1.0 - 0.5 * 4.0)
    out = {
        "holder": float(np.max(dist[lo : hi + 1, lo : hi + 1] / dt_up ** 0.4)),
        "riesz_inf": float(np.max(dist[lo : hi + 1, lo : hi + 1] / dt_up ** 0.5)),
        "qvar": _dense_dp(dist**2.5, lo, hi) ** (1.0 / 2.5),
        "qvar1": float(np.sum(np.diagonal(dist, 1)[lo:hi])),
        "riesz": _dense_dp(w, lo, hi) ** (1.0 / 4.0),
    }
    if f.grid.is_uniform:
        span, mesh = hi - lo, (t[hi] - t[lo]) / (hi - lo)
        out["nikolskii"] = max(
            (m * mesh) ** (-0.4 * 3.0) * mesh * float(np.sum(np.diagonal(dist, m)[lo : hi - m] ** 3.0))
            for m in range(1, span + 1)) ** (1.0 / 3.0)
        out["nikolskii_inf"] = max(
            (m * mesh) ** (-0.4) * float(np.max(np.diagonal(dist, m)[lo : hi - m + 1]))
            for m in range(1, span + 1))
        a, b = np.triu_indices(span + 1, k=1)
        d = dist[lo : hi + 1, lo : hi + 1][a, b]
        g = t[lo : hi + 1][b] - t[lo : hi + 1][a]
        out["frac"] = (2.0 * float(np.sum(d**3.0 / g ** (1.0 + 0.3 * 3.0))) * mesh * mesh) ** (1.0 / 3.0)
    return out


def _streamed_values(f, iv):
    out = {
        "holder": holder_norm(f, 0.4, iv),
        "riesz_inf": riesz_norm(f, 0.5, P_INF, iv),
        "qvar": qvar_norm(f, 2.5, iv),
        "qvar1": qvar_norm(f, 1.0, iv),
        "riesz": riesz_norm(f, 0.5, 4.0, iv),
    }
    if f.grid.is_uniform:
        out["nikolskii"] = nikolskii_norm(f, 0.4, 3.0, iv)
        out["nikolskii_inf"] = nikolskii_norm(f, 0.4, P_INF, iv)
        out["frac"] = frac_sobolev_norm(f, 0.3, 3.0, iv)
    return out


@st.composite
def streamed_cases(draw):
    dim = draw(st.integers(1, 5))
    intervals = draw(st.integers(2, 600))
    uniform = draw(st.booleans())
    lo = draw(st.integers(0, intervals - 2))
    hi = draw(st.integers(lo + 2, intervals))
    cells = draw(st.sampled_from([1, 5, 97, 1 << 18]))
    seed = draw(st.integers(0, 2**32 - 1))
    return dim, intervals, uniform, lo, hi, cells, seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(streamed_cases())
@example((3, 600, True, 17, 583, 97, 1))
@example((5, 300, False, 0, 300, 1 << 18, 2))
def test_streamed_norms_equal_dense_formulas(case):
    dim, intervals, uniform, lo, hi, cells, seed = case
    rng = np.random.default_rng(seed)
    f = random_walk_path(rng, intervals, dim, scale=float(rng.uniform(0.1, 10.0)),
                         uniform=uniform)
    hi = min(hi, len(f.grid) - 1)  # non-uniform grids may merge points
    lo = min(lo, hi - 1)
    t = f.grid.times
    iv = None if (lo, hi) == (0, len(t) - 1) else (t[lo], t[hi])
    with mock.patch.object(norms_module, "_BLOCK_CELLS", cells):
        got = _streamed_values(f, iv)
    want = _dense_values(f, lo, hi)
    assert got.keys() == want.keys()
    for name, value in got.items():
        if name == "frac":  # the blockwise sum may move the last ulp
            assert value == pytest.approx(want[name], rel=1e-14)
        else:
            assert value == want[name], name


def test_streamed_norms_on_group_path_equal_dense_formulas(rng):
    x = lift(random_walk_path(rng, 40, 2), 2)
    t = x.grid.times
    got = _streamed_values(x, (t[3], t[37]))
    want = _dense_values(x, 3, 37)
    for name, value in got.items():
        if name == "frac":
            assert value == pytest.approx(want[name], rel=1e-14)
        else:
            assert value == want[name], name
    for f in (x, level1_path(x)):  # a one-point interval has norm 0
        assert set(_streamed_values(f, (t[5], t[5])).values()) == {0.0}


@pytest.mark.parametrize("lifted", [False, True], ids=["euclidean", "group"])
@pytest.mark.parametrize("kind", list(NormKind), ids=lambda kind: kind.value)
def test_every_norm_kind_returns_a_python_float(kind, lifted, rng):
    # kept sums at p = 4, the out-of-range fallbacks at p = 300 on a path
    # scaled by 1e3, and p = infinity where the family takes it
    f = random_walk_path(rng, 24, 2)
    for scale, p in ((1.0, 4.0), (1e3, 300.0), (1.0, P_INF)):
        if p is P_INF and kind in (NormKind.QVAR, NormKind.FRAC_SOBOLEV):
            continue
        g = EuclideanPath(f.grid, scale * f.values)
        value = compute_norm(lift(g, 2) if lifted else g, NormSpec(kind, 0.5, p))
        assert type(value) is float and math.isfinite(value), (p, value)


def test_large_powers_are_scaled_not_overflowed(rng):
    f = random_walk_path(rng, 64, 2)
    big = EuclideanPath(f.grid, 1e3 * f.values)
    small = EuclideanPath(f.grid, 1e-3 * f.values)
    got = riesz_norm(big, 0.5, 128.0)
    assert math.isfinite(got)
    assert got == pytest.approx(1e3 * riesz_norm(f, 0.5, 128.0), rel=1e-12)
    got = qvar_norm(small, 200.0)
    assert got > 0.0
    assert got == pytest.approx(1e-3 * qvar_norm(f, 200.0), rel=1e-12)
    # the largest distance lies in [b/2, b]: b^p in range does not suffice
    for norm in (lambda g: qvar_norm(g, 128.0), lambda g: riesz_norm(g, 0.5, 128.0)):
        assert norm(small) == pytest.approx(1e-3 * norm(f), rel=1e-12)
    with np.errstate(over="ignore"):  # unscaled, as the parent formula
        assert not math.isnan(frac_sobolev_norm(big, 0.5, 300.0))


SEVEN_NORMS = (
    lambda f: holder_norm(f, 0.4),
    lambda f: qvar_norm(f, 2.5),
    lambda f: riesz_norm(f, 0.5, 4.0),
    lambda f: mixed_norm(f, 0.45, 3.0),
    lambda f: nikolskii_norm(f, 0.4, 4.0),
    lambda f: refined_nikolskii_norm(f, 0.4, 4.0),
    lambda f: frac_sobolev_norm(f, 0.4, 3.0),
)


@pytest.mark.parametrize("e", [600, -600])
def test_norms_of_walks_beyond_the_square_range(e):
    # a squared difference of the scaled walk overflows (2^600) or underflows
    # (2^-600); the path is measured on its values divided by a power of two
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    g = EuclideanPath(f.grid, 2.0**e * f.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [norm(g) for norm in SEVEN_NORMS]
    want = [2.0**e * norm(f) for norm in SEVEN_NORMS]
    assert got[0] == want[0]
    for value, ref in zip(got[1:], want[1:]):
        assert 0.0 < value < math.inf
        assert value == pytest.approx(ref, rel=1e-12)


def test_norms_beyond_the_float_range_raise():
    # distances near 1e150 over gaps near 1e-300: a quotient leaves the float
    # range, which no distance scale can fix.  q-variation reads no gap and
    # keeps its value
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    values = 1e150 / np.ptp(f.values) * f.values
    g = EuclideanPath(TimeGrid.uniform(32, 1e-300), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (lambda g: holder_norm(g, 1.0), lambda g: riesz_norm(g, 1.0, 4.0),
                     lambda g: mixed_norm(g, 1.0, 4.0), lambda g: nikolskii_norm(g, 1.0, 4.0),
                     lambda g: refined_nikolskii_norm(g, 1.0, 4.0),
                     lambda g: frac_sobolev_norm(g, 0.9, 3.0)):
            with pytest.raises(ParameterError, match="float range"):
                norm(g)
        assert qvar_norm(g, 2.0) == pytest.approx(1e150 / np.ptp(f.values) * qvar_norm(f, 2.0),
                                                  rel=1e-12)


def test_far_walks_keep_the_scaling_identity_where_it_is_finite():
    # the same walk, span 1e150 over horizon 1e-300: at delta = 0.9, p = 2 a
    # value is c H^(1/p - delta) that of the unit walk, about 1e270, though
    # the sums of the shift kernels as written leave the float range; folded
    # in units of the mesh, no base overflows before the mesh's own factor
    f = random_walk_path(np.random.default_rng(5), 32, 2)
    c, horizon = 1e150 / np.ptp(f.values), 1e-300
    g = EuclideanPath(TimeGrid.uniform(32, horizon), c * f.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (nikolskii_norm, refined_nikolskii_norm, frac_sobolev_norm, riesz_norm):
            want = c * horizon ** (0.5 - 0.9) * norm(f, 0.9, 2.0)
            assert norm(g, 0.9, 2.0) == pytest.approx(want, rel=1e-12)


def test_norms_keep_a_nan_block_or_shift_maximum():
    # distances beyond the float range: inf / inf turns a block or shift
    # maximum into NaN, which the sup must keep for the exit check.  The
    # distances themselves are inf, without a warning
    f = EuclideanPath(TimeGrid.uniform(4), [[1.7e308, -1.7e308], [-1.7e308, 1.7e308],
                                            [1e308, 0.0], [0.0, 0.0], [-1.7e308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.distance_block(0, 0, 5)[1, 0] == np.inf
        assert np.isinf(f.shift_distances(1, 0, 4)).tolist() == [True, True, False, False]
        for norm in (lambda: holder_norm(f, 0.5), lambda: nikolskii_norm(f, 0.5, 4.0),
                     lambda: nikolskii_norm(f, 0.5, P_INF)):
            with pytest.raises(ParameterError, match="float range"):
                norm()


def test_riesz_time_factor_folded_into_base_at_large_delta_p():
    # g^(1 - delta*p) = 2^894 on one step of 64: formed after the power, the
    # product overflows at c = 4.5 (seed 1) and (d/s)^p of short blocks underflows
    for seed in range(3):
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((64, 2)) / np.sqrt(64)
        walk = EuclideanPath(TimeGrid.uniform(64), np.vstack([np.zeros((1, 2)),
                                                              np.cumsum(steps, axis=0)]))
        want = riesz_norm(walk, 0.5, 300)
        for c in (1e-3, 4.5, 1e3):
            scaled = EuclideanPath(walk.grid, c * walk.values)
            assert riesz_norm(scaled, 0.5, 300) / c == pytest.approx(want, rel=1e-12)


def test_norms_at_huge_exponents_lie_within_their_sup_limits(rng):
    # at q, p = 1e3 .. 1e4 every power but the largest underflows; dividing by
    # the largest base keeps that one at exactly 1, so no norm drops to 0
    steps = rng.standard_normal((64, 2))
    f = EuclideanPath(TimeGrid.uniform(64),
                      0.125 * np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)]))
    d, dt, up = f.distance_matrix, 1.0 / 64, 1.0 + 1e-12
    hol = holder_norm(f, 0.5)
    # one block carries the largest distance; a partition has at most 64 blocks
    q = 1000.0
    assert d.max() <= qvar_norm(f, q) <= d.max() * 64 ** (1.0 / q) * up
    p = 1e4
    # a block [u, v] alone gives H (v-u)^(1/p); a partition sum is at most H^p T
    assert hol * dt ** (1.0 / p) <= riesz_norm(f, 0.5, p) <= hol * up
    # the pairs i < j weigh (d / g^delta)^p g^-1, and sum(1/g) <= 64^3
    sob = frac_sobolev_norm(f, 0.5, p)
    assert hol * (2.0 * dt * dt) ** (1.0 / p) <= sob <= hol * 128.0 ** (1.0 / p) * up
    # the p -> inf limit of the left Riemann sums: shift m reads r < 64 - m
    lim = max((m * dt) ** -0.5 * np.diagonal(d, m)[:-1].max() for m in range(1, 64))
    for p in (1e3, 1e4):
        assert lim * dt ** (1.0 / p) <= nikolskii_norm(f, 0.5, p) <= lim * up
    # constant paths stay 0, with the time factors far out of range
    flat = EuclideanPath(f.grid, np.ones_like(f.values))
    for norm in (riesz_norm, nikolskii_norm, frac_sobolev_norm):
        assert norm(flat, 0.5, 1e4) == 0.0
    assert qvar_norm(flat, 1e4) == 0.0


def test_single_value_norms_need_no_dense_matrix(rng):
    # the (M+1)^2 distance matrix alone would take 537 MB at M = 8192
    f = random_walk_path(rng, 8192, 2)
    for norm in (lambda: holder_norm(f, 0.5), lambda: qvar_norm(f, 2.5),
                 lambda: riesz_norm(f, 0.5, 4.0)):
        tracemalloc.start()
        try:
            assert norm() > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
    assert "distance_matrix" not in vars(f)


@pytest.mark.parametrize("p", [4.0, 600.0, P_INF], ids=["in-range", "fused", "inf"])
def test_group_path_norms_stream_without_the_dense_matrix(rng, p):
    # every family reads a group path through distance_block or shift_distances;
    # at p = 600 the sums leave the float range and rerun on their folded sources
    x = lift(random_walk_path(rng, 64, 2), 3)
    values = [holder_norm(x, 0.5), qvar_norm(x, 2.5), qvar_norm(x, 1.0),
              riesz_norm(x, 0.5, p), mixed_norm(x, 0.5, p), nikolskii_norm(x, 0.4, p),
              refined_nikolskii_norm(x, 0.4, p),
              frac_sobolev_norm(x, 0.4, 3.0 if p is P_INF else p),
              riesz_norm(x, 0.5, p, (0.25, 0.75)), nikolskii_norm(x, 0.4, p, (0.25, 0.75))]
    assert all(math.isfinite(v) and v > 0.0 for v in values)
    assert "distance_matrix" not in vars(x)


def test_group_path_norm_memory_is_flat_in_the_grid_size(rng):
    # the (M+1)^2 distance matrix alone takes 8 MB at M = 1024, and the cached
    # one held 10.1 MB at the peak of this call
    x = lift(random_walk_path(rng, 1024, 2), 3)
    tracemalloc.start()
    try:
        assert riesz_norm(x, 0.5, 4.0) > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert "distance_matrix" not in vars(x)


def test_streamed_norms_keep_scratch_in_cache_sized_blocks(rng):
    # blocks of 2^15 cells: under 1 MB per call on a 1-D walk at M = 1536;
    # blocks of 2^18 cells peaked at 3.9 MB (q-variation)
    f = random_walk_path(rng, 1536, 1)
    for norm, bound in ((lambda: holder_norm(f, 0.5), 2), (lambda: qvar_norm(f, 2.5), 2),
                        (lambda: riesz_norm(f, 0.5, 4.0), 2),
                        (lambda: nikolskii_norm(f, 0.4, 4.0), 2),
                        (lambda: refined_nikolskii_norm(f, 0.4, 4.0), 2),
                        (lambda: frac_sobolev_norm(f, 0.4, 3.0), 2)):
        tracemalloc.start()
        try:
            assert norm() > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(2, 900), st.integers(0, 2**32 - 1), st.data())
@example(1, 1536, 0, None)
def test_frac_sobolev_does_not_depend_on_the_block_budget(dim, intervals, seed, data):
    # each shift's sum is the pairwise sum of its own diagonal, whatever the
    # blocks of shifts its diagonals are computed in
    f = random_walk_path(np.random.default_rng(seed), intervals, dim)
    lo, hi = (0, intervals) if data is None else sorted(
        data.draw(st.lists(st.integers(0, intervals), min_size=2, max_size=2, unique=True)))
    t = f.grid.times
    want = frac_sobolev_norm(f, 0.4, 3.0, (t[lo], t[hi]))
    for cells in (1, 97, 1 << 12, 1 << 15, 1 << 18, 1 << 20):
        with mock.patch.object(norms_module, "_BLOCK_CELLS", cells):
            assert frac_sobolev_norm(f, 0.4, 3.0, (t[lo], t[hi])) == want


@pytest.mark.parametrize("p", [2.5, 300.0, P_INF], ids=["2.5", "300", "inf"])
def test_shift_sums_are_the_sums_of_each_raised_diagonal(p):
    # each S_m is the pairwise sum of shift m's raised diagonal as
    # shift_distances gives it (its max at P_INF), bit for bit, on Euclidean
    # paths and lifts, from lo > 0, to last = hi - 1 and to hi, whatever the
    # budget; p = 300 overflows and underflows some powers
    rng = np.random.default_rng(39)
    m = 150
    paths = [random_walk_path(rng, m, 1), random_walk_path(rng, m, 3),
             lift(random_walk_path(rng, m, 2), 2), lift(random_walk_path(rng, m, 1), 3)]
    for path in paths:
        for lo, hi in ((0, m), (13, m - 20)):
            for last in (hi - 1, hi):
                # the callers' spans: every shift of [lo, hi] for a sum, every
                # shift with a nonempty diagonal for a max
                span = hi - lo if p is not P_INF else last - lo
                with np.errstate(all="ignore"):
                    want = [float(np.max(d) if p is P_INF else np.add.reduce(d**p))
                            for d in (path.shift_distances(s, lo, last)
                                      for s in range(1, span + 1))]
                    for cells in (97, 1 << 12, 1 << 15):
                        with mock.patch.object(norms_module, "_BLOCK_CELLS", cells):
                            got = norms_module._shift_sums(path, lo, last, span, p)
                        assert got == want, (type(path).__name__, lo, last, cells)


@pytest.mark.parametrize("scale", [1e-320, 1e300])
@pytest.mark.parametrize("delta, p", [(0.5, 2.0), (1.0 / 3.0, 3.0), (0.25, 4.0)])
def test_frac_sobolev_on_grids_with_extreme_steps(scale, delta, p):
    # at delta = 1/p the seminorm does not depend on the time scale; the
    # sums as written leave the float range, so the mesh-unit fallback runs
    values = [[0.0, 0.0], [1.0, 0.5], [0.2, 1.5], [1.0, -1.0]]
    want = frac_sobolev_norm(EuclideanPath(TimeGrid([0.0, 1.0, 2.0, 3.0]), values), delta, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = frac_sobolev_norm(EuclideanPath(TimeGrid(scale * np.arange(4.0)), values),
                                delta, p)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("delta", [0.3, 0.5, 1.0])
def test_nikolskii_at_p_inf_on_a_subnormal_mesh_is_hoelder(delta):
    # (m mesh)^(-delta) overflows at mesh 1e-320, yet the value is finite; on a
    # uniform grid the p = inf Nikolskii sup is the Hoelder sup, which agrees
    # to the precision of the subnormal times (about 2^-11 relative)
    f = EuclideanPath(TimeGrid.uniform(4, 4e-320), [[0.0], [1e-100], [0.0], [2e-100], [0.0]])
    want = holder_norm(f, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (nikolskii_norm, refined_nikolskii_norm):
            got = norm(f, delta, P_INF)
            assert math.isfinite(got) and got == pytest.approx(want, rel=2.0**-11)


# ---------------------------------------------------------------------------
# the fused refined Nikolskii sweep and the push-form power table
# ---------------------------------------------------------------------------

@st.composite
def nikolskii_cases(draw):
    m = draw(st.integers(1, 11))  # at most 12 grid points
    lo = draw(st.integers(0, m - 1))
    hi = draw(st.integers(lo + 1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    values = np.vstack([np.zeros((1, dim)), np.cumsum(rng.standard_normal((m, dim)), axis=0)])
    f = EuclideanPath(TimeGrid.uniform(m, draw(st.sampled_from([1.0, 2.5]))), values)
    path = lift(f, draw(st.integers(2, 3))) if draw(st.booleans()) else f
    delta = draw(st.sampled_from([0.3, 0.45, 0.5, 1.0]))
    p = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0, 7.0]))
    return path, lo, hi, delta, p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nikolskii_cases())
def test_shift_partition_sup_equals_table_dp_and_oracle(case):
    path, lo, hi, delta, p = case
    times = path.grid.times
    span = (times[lo], times[hi])
    got = refined_nikolskii_norm(path, delta, p, span)
    dist = path.distance_matrix
    # the dense matrix, as a source, gives the streamed value bit for bit
    assert [got] == norms_module.shift_partition_sup([DenseSource(dist, path.grid)], lo, hi,
                                                     delta, p)
    table = shift_sup_table(dist, times, lo, hi, p, -delta * p)
    want = dp_partition_sup([dense_columns(table, lo, hi)], lo, hi) ** (1.0 / p)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(oracle_refined_nikolskii(path, delta, p, span), rel=1e-9)


def _cellwise_power_table(w, lo, hi):
    # B[i, j] = max_{i <= k < j} (B[i, k] + w[k, j]), one cell at a time
    b = np.zeros_like(w)
    for i in range(lo, hi + 1):
        for j in range(i + 1, hi + 1):
            b[i, j] = max(b[i, k] + w[k, j] for k in range(i, j))
    return b


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(weight_windows())
@example((INF_AT_LO, 2, 7))
@example((np.full((5, 5), np.inf), 0, 4))
def test_push_power_table_equals_cellwise_recursion(case):
    w, lo, hi = case
    assert (dp_power_table(w, lo, hi) == _cellwise_power_table(w, lo, hi)).all()


def test_refined_nikolskii_needs_no_dense_matrix(rng):
    # the (M+1)^2 inner table alone would take 537 MB at M = 8192
    f = random_walk_path(rng, 8192, 2)
    tracemalloc.start()
    try:
        assert refined_nikolskii_norm(f, 0.5, 4.0) >= nikolskii_norm(f, 0.5, 4.0) > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert "distance_matrix" not in vars(f)


def _nikolskii_as_written(f, delta, p):
    # the in-range formula: c_m = (m mesh)^(-delta p) mesh times the sum of d^p
    m_all, v = f.grid.intervals, f.values
    dt = f.grid.times[-1] / m_all
    return max((m * dt) ** (-delta * p) * dt
               * float(np.sum(np.linalg.norm(v[m:-1] - v[: -1 - m], axis=1) ** p))
               for m in range(1, m_all + 1)) ** (1.0 / p)


def test_nikolskii_family_at_large_p(rng):
    # at delta = 0.5, p = 300 the powers d^p of a walk scaled by 1e-3 or 1e3
    # underflow or overflow; the time factor (m mesh)^(-150) is constant per
    # shift, and the refined sweep folds it into the base
    f = random_walk_path(rng, 64, 2)
    nik, sob = nikolskii_norm(f, 0.5, 300.0), frac_sobolev_norm(f, 0.5, 300.0)
    assert nik == _nikolskii_as_written(f, 0.5, 300.0)  # in range: the formula as written
    assert refined_nikolskii_norm(f, 0.5, 300.0) == pytest.approx(nik, rel=1e-12)
    for c in (1e-3, 1e3):
        g = EuclideanPath(f.grid, c * f.values)
        assert nikolskii_norm(g, 0.5, 300.0) == pytest.approx(c * nik, rel=1e-12)
        assert frac_sobolev_norm(g, 0.5, 300.0) == pytest.approx(c * sob, rel=1e-12)
        refined = refined_nikolskii_norm(g, 0.5, 300.0)
        assert refined == pytest.approx(c * refined_nikolskii_norm(f, 0.5, 300.0), rel=1e-12)
        assert refined >= nikolskii_norm(g, 0.5, 300.0)
        assert refined_nikolskii_norm(g, 0.5, P_INF) == pytest.approx(
            c * refined_nikolskii_norm(f, 0.5, P_INF), rel=1e-12)
    # zero distances are not a range failure
    flat = EuclideanPath(f.grid, np.ones_like(f.values))
    for norm in (nikolskii_norm, frac_sobolev_norm, refined_nikolskii_norm):
        assert norm(flat, 0.5, 300.0) == 0.0


def _shift_kernels_in_decimal(f, delta, p, lo, hi):
    """Nikolskii, refined Nikolskii and fractional Sobolev of ``f`` over [lo, hi],
    each definition evaluated in 80-digit decimals on the path's own
    ``shift_distances``, with the kernels' mesh (t_hi - t_lo) / span and gaps m mesh."""
    with decimal.localcontext(decimal.Context(prec=80)):
        span, dp = hi - lo, Decimal(delta) * Decimal(p)
        dt = Decimal((f.grid.times[hi] - f.grid.times[lo]) / span)
        powers = {m: [Decimal(float(d)) ** Decimal(p) for d in f.shift_distances(m, lo, hi)]
                  for m in range(1, span + 1)}
        coef = {m: (m * dt) ** -dp * dt for m in powers}
        # Nikolskii: a left Riemann sum per shift, the last column left out
        nik = max(coef[m] * sum(powers[m][:-1], Decimal(0)) for m in powers)
        sob = 2 * dt * dt * sum(((m * dt) ** -(1 + dp) * sum(powers[m], Decimal(0))
                                 for m in powers), Decimal(0))
        # refined: prefix sums S_m[k] of shift m over the rows lo..k-1, the
        # inner table T[i, j] = max_m c_m (S_m[j-m] - S_m[i]), then the partition DP
        prefix = {m: [Decimal(0)] for m in powers}
        for m, row in powers.items():
            for x in row:
                prefix[m].append(prefix[m][-1] + x)
        best = [Decimal(0)] * (span + 1)
        for j in range(1, span + 1):
            best[j] = max(best[i] + max(coef[m] * (prefix[m][j - m] - prefix[m][i])
                                        for m in range(1, j - i + 1))
                          for i in range(j))
        root = 1 / Decimal(p)
        return [float(v**root) for v in (nik, best[span], sob)]


@pytest.mark.parametrize("p, scale", [(300.0, 1e-3), (300.0, 1e3), (8.0, 1e-60), (8.0, 1e60)])
@pytest.mark.parametrize("dim, depth, lo, hi", [(1, 0, 0, 64), (2, 0, 9, 64), (3, 0, 0, 64),
                                                (3, 0, 5, 51), (2, 2, 0, 64), (2, 2, 7, 58)])
def test_nikolskii_out_of_range_is_the_per_shift_rescale(monkeypatch, p, scale, dim, depth, lo,
                                                         hi):
    # at delta = 0.5 the powers of these walks leave the float range, so no
    # sum is kept and each shift kernel reruns on its source folded in units
    # of the mesh (shift m at gap m): Nikolskii, refined Nikolskii and
    # fractional Sobolev lie within 1e-15 of their definitions evaluated in
    # decimals; at p = 8 every distance of a diagonal counts, at p = 300 its
    # largest ones
    f = random_walk_path(np.random.default_rng([dim, depth, lo]), 64, dim, scale)
    path = lift(f, depth) if depth else f
    kept = []
    sum_kept = norms_module._sum_kept
    monkeypatch.setattr(norms_module, "_sum_kept",
                        lambda *args: kept.append(sum_kept(*args)) or kept[-1])
    span = (f.grid.times[lo], f.grid.times[hi])
    got = [norm(path, 0.5, p, span)
           for norm in (nikolskii_norm, refined_nikolskii_norm, frac_sobolev_norm)]
    assert kept == [False] * 3
    for value, want in zip(got, _shift_kernels_in_decimal(path, 0.5, p, lo, hi)):
        assert abs(value - want) <= 1e-15 * want


def test_nikolskii_reads_a_group_path_one_block_of_shifts_per_call(monkeypatch):
    # each pass over the diagonals makes one level-norm call per block of
    # shifts, not one per shift (256 a pass here): p = 4 sums in range, p = inf
    # takes maxima over the diagonals to hi, and p = 300 leaves the float range
    # and reruns on the folded source: its first pass reads the columns of
    # [0, 255] in blocks, then its diagonals are read again
    x = lift(random_walk_path(np.random.default_rng(34), 256, 2), 2)
    calls = []
    distances = GroupPath._distances
    monkeypatch.setattr(GroupPath, "_distances",
                        lambda self, *args: calls.append(1) or distances(self, *args))
    list(norms_module._columns([x], 0, 255))
    columns = len(calls)
    for p, passes, last, first in ((4.0, 1, 255, 0), (P_INF, 1, 256, 0),
                                   (300.0, 2, 255, columns)):
        calls.clear()
        nikolskii_norm(x, 0.5, p)
        width = norms_module._width([x], 0, last, norms_module._BLOCK_CELLS)
        assert len(calls) == passes * -(-256 // width) + first
