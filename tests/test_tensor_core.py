import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughpaths import (
    DimensionMismatchError,
    GroupElement,
    ParameterError,
    TimeGrid,
    TruncatedTensor,
    dilate,
    group_distance,
    group_inverse,
    group_mul,
    grouplike_defect,
    homogeneous_norm,
    identity_element,
    segment_exp,
    tensor_mul,
    unit_tensor,
    zero_tensor,
)
from roughpaths import tensor_core
from roughpaths.tensor_core import (
    level_norms,
    stacked_dilate,
    stacked_distance,
    stacked_exp,
    stacked_homogeneous_norm,
    stacked_inverse,
    stacked_level_norms,
    stacked_mul,
)
from conftest import random_group_element, random_tensor


def levels_close(a, b, rtol=1e-12):
    for x, y in zip(a.levels, b.levels):
        scale = max(np.abs(x).max(), np.abs(y).max(), 1.0)
        assert np.abs(x - y).max() <= rtol * scale


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_level_block_sizes_enforced():
    with pytest.raises(ParameterError):
        TruncatedTensor(2, 2, (np.array(1.0), np.zeros(3), np.zeros((2, 2))))


def test_non_finite_entries_rejected():
    with pytest.raises(ParameterError):
        TruncatedTensor(1, 1, (np.array(1.0), np.array([np.nan])))


def test_depth_cap():
    with pytest.raises(ParameterError):
        unit_tensor(2, 5)


def test_entry_cap_is_checked_at_its_boundary(monkeypatch):
    # level 2 of dim 2 holds 4 entries, a 3-interval grid 4 points
    monkeypatch.setattr(tensor_core, "MAX_ENTRIES", 4)
    assert zero_tensor(2, 2).depth == unit_tensor(2, 2).depth == identity_element(2, 2).depth
    assert len(TimeGrid.uniform(3)) == 4
    for fn, args in ((zero_tensor, (2, 3)), (unit_tensor, (3, 2)),
                     (identity_element, (5, 1)), (TimeGrid.uniform, (4,))):
        with pytest.raises(ParameterError, match="more than 4"):
            fn(*args)


def test_group_element_needs_unit_scalar():
    with pytest.raises(ParameterError):
        GroupElement(TruncatedTensor(1, 1, (np.array(0.5), np.zeros(1))))


# ---------------------------------------------------------------------------
# tensor_mul
# ---------------------------------------------------------------------------

def test_mul_identity_is_unit(rng):
    g = random_tensor(rng, 2, 3)
    one = unit_tensor(2, 3)
    levels_close(tensor_mul(one, g), g)
    levels_close(tensor_mul(g, one), g)


def test_mul_scalar_example():
    a = TruncatedTensor(1, 2, (np.array(1.0), np.array([2.0]), np.array([[3.0]])))
    b = TruncatedTensor(1, 2, (np.array(1.0), np.array([5.0]), np.array([[7.0]])))
    c = tensor_mul(a, b)
    assert c.level(0) == 1.0
    np.testing.assert_allclose(c.level(1), [7.0])
    np.testing.assert_allclose(c.level(2), [[20.0]])  # 3*1 + 2*5 + 1*7


def test_mul_level1_additive_for_group_elements(rng):
    g = random_group_element(rng, 3, 2)
    h = random_group_element(rng, 3, 2)
    np.testing.assert_allclose(
        group_mul(g, h).level(1), g.level(1) + h.level(1), rtol=1e-14
    )


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        tensor_mul(unit_tensor(2, 2), unit_tensor(3, 2))
    with pytest.raises(DimensionMismatchError):
        tensor_mul(unit_tensor(2, 2), unit_tensor(2, 3))


def test_associativity_random(rng):
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        a, b, c = (random_tensor(rng, dim, depth) for _ in range(3))
        levels_close(tensor_mul(tensor_mul(a, b), c), tensor_mul(a, tensor_mul(b, c)))


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def test_inverse_of_identity():
    e = identity_element(2, 3)
    levels_close(group_inverse(e).tensor, e.tensor)


def test_inverse_of_segment_is_reversed_segment():
    g = segment_exp([1.5, -0.5], 3)
    levels_close(group_inverse(g).tensor, segment_exp([-1.5, 0.5], 3).tensor)


def test_inverse_random(rng):
    for _ in range(30):
        g = random_group_element(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        prod = group_mul(g, group_inverse(g))
        for k in range(1, g.depth + 1):
            assert np.abs(prod.level(k)).max() <= 1e-12 * (1 + homogeneous_norm(g)) ** k


def test_product_stays_grouplike(rng):
    for _ in range(20):
        g = random_group_element(rng, 2, 2)
        h = random_group_element(rng, 2, 2)
        assert grouplike_defect(group_mul(g, h)) < 1e-12


# ---------------------------------------------------------------------------
# segment_exp
# ---------------------------------------------------------------------------

def test_segment_exp_formula():
    g = segment_exp([1.0, 0.0], 2)
    np.testing.assert_allclose(g.level(1), [1.0, 0.0])
    np.testing.assert_allclose(g.level(2), [[0.5, 0.0], [0.0, 0.0]])


def test_segment_exp_zero_is_identity():
    levels_close(segment_exp([0.0, 0.0], 3).tensor, identity_element(2, 3).tensor)


def test_segment_exp_powers_of_two():
    g = segment_exp([2.0], 3)
    assert g.level(0) == 1.0
    assert float(g.level(1)[0]) == pytest.approx(2.0)
    assert float(g.level(2)[0, 0]) == pytest.approx(2.0)
    assert float(g.level(3)[0, 0, 0]) == pytest.approx(4.0 / 3.0)


# ---------------------------------------------------------------------------
# dilation and homogeneous norm
# ---------------------------------------------------------------------------

def test_dilate_one_is_identity_map(rng):
    g = random_group_element(rng, 2, 3)
    levels_close(dilate(g, 1.0).tensor, g.tensor)


def test_dilate_zero_is_identity_element(rng):
    g = random_group_element(rng, 2, 3)
    levels_close(dilate(g, 0.0).tensor, identity_element(2, 3).tensor)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_dilation_homogeneity(rng, lam):
    for _ in range(10):
        g = random_group_element(rng, 2, 3)
        assert homogeneous_norm(dilate(g, lam)) == pytest.approx(
            lam * homogeneous_norm(g), rel=1e-12
        )


def test_homogeneous_norm_identity_zero():
    assert homogeneous_norm(identity_element(3, 3)) == 0.0


def test_homogeneous_norm_segment():
    # level 1 dominates: max(5, sqrt(|d x d| / 2)) = max(5, sqrt(12.5)) = 5
    assert homogeneous_norm(segment_exp([3.0, 4.0], 2)) == pytest.approx(5.0)


def test_homogeneous_norm_pure_area():
    l2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = GroupElement(TruncatedTensor(2, 2, (np.array(1.0), np.zeros(2), l2)))
    assert homogeneous_norm(g) == pytest.approx(2.0 ** 0.25)


def test_norm_symmetric_under_inverse(rng):
    for _ in range(20):
        g = random_group_element(rng, 3, 3)
        assert homogeneous_norm(g) == pytest.approx(
            homogeneous_norm(group_inverse(g)), rel=1e-12
        )


# ---------------------------------------------------------------------------
# group distance
# ---------------------------------------------------------------------------

def test_distance_to_self_zero(rng):
    g = random_group_element(rng, 2, 2)
    assert group_distance(g, g) == 0.0


def test_distance_level1_is_euclidean():
    g = segment_exp([1.0, 2.0], 1)
    h = segment_exp([4.0, -2.0], 1)
    assert group_distance(g, h) == pytest.approx(5.0)


def test_distance_symmetry_and_left_invariance(rng):
    for _ in range(30):
        g = random_group_element(rng, 2, 3)
        h = random_group_element(rng, 2, 3)
        a = random_group_element(rng, 2, 3)
        d = group_distance(g, h)
        assert group_distance(h, g) == pytest.approx(d, rel=1e-12)
        assert group_distance(group_mul(a, g), group_mul(a, h)) == pytest.approx(
            d, rel=1e-10
        )


def test_quasi_triangle_with_frozen_constant(rng):
    # the max-over-levels surrogate is genuinely subadditive; K = 1 frozen
    from roughpaths.verify import TRIANGLE_K

    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        g, h, k = (random_group_element(rng, dim, depth) for _ in range(3))
        denom = group_distance(g, h) + group_distance(h, k)
        if denom > 0:
            worst = max(worst, group_distance(g, k) / denom)
    assert worst <= TRIANGLE_K * (1 + 1e-9)


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        group_distance(identity_element(2, 2), identity_element(3, 2))


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------

def _loop_mul(a, b, dim):
    """Element by element: level k = 0 + sum_i multiply.outer(a_i, b_{k-i}), batch axes of 1 broadcast."""
    batch = np.broadcast_shapes(a[0].shape[:-1], b[0].shape[:-1])
    out = [np.empty(batch + (dim**k,)) for k in range(len(a))]
    for idx in np.ndindex(batch):
        ra = tuple(min(r, n - 1) for r, n in zip(idx, a[0].shape))
        rb = tuple(min(r, n - 1) for r, n in zip(idx, b[0].shape))
        for k in range(len(a)):
            acc = np.zeros((dim,) * k)
            for i in range(k + 1):
                acc = acc + np.multiply.outer(a[i][ra].reshape((dim,) * i),
                                              b[k - i][rb].reshape((dim,) * (k - i)))
            out[k][idx] = acc.ravel()
    return out


def _loop_inverse(g, dim):
    """Element by element: the Neumann series sum_k (1 - g)^(x)k with ``_loop_mul``."""
    batch, depth = g[0].shape[:-1], len(g) - 1
    unit = [np.ones(batch + (1,))] + [np.zeros(batch + (dim**k,)) for k in range(1, depth + 1)]
    u = [np.zeros(batch + (1,))] + [-g[k] for k in range(1, depth + 1)]
    acc, power = unit, unit
    for _ in range(depth):
        power = _loop_mul(power, u, dim)
        acc = [x + y for x, y in zip(acc, power)]
    return [np.ones(batch + (1,))] + acc[1:]


def _check_group_forms(dim, g, h, lam):
    """The stacked exponential, dilation, level norms, homogeneous norm and
    distance of group rows ``g`` and ``h`` (level 0 all ones) equal their
    public per-element functions row by row, and the level norms equal
    ``np.linalg.norm`` of each row as a 1-D vector, all bit for bit."""
    depth = len(g) - 1
    exp, dilated = stacked_exp(g[1], depth), stacked_dilate(g, lam)
    norms, hom = stacked_level_norms(g[1:]), stacked_homogeneous_norm(g)
    dist = stacked_distance(g, h)
    for r in range(g[0].shape[0]):
        x, y = (GroupElement(TruncatedTensor(dim, depth, [lv[r] for lv in v])) for v in (g, h))
        for got, want in ((exp, segment_exp(g[1][r], depth)), (dilated, dilate(x, lam))):
            assert all(np.array_equal(lv[r], w.ravel()) for lv, w in zip(got, want.tensor.levels))
        assert np.array_equal(norms[r], level_norms(x))
        assert np.array_equal(norms[r], [np.linalg.norm(lv[r]) for lv in g[1:]])
        assert hom[r] == homogeneous_norm(x) and dist[r] == group_distance(x, y)


@st.composite
def stacked_operands(draw):
    dim, depth = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.integers(1, 40))
    layout = draw(st.sampled_from([None, "a", "b", "block"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def levels(*batch):
        return [rng.standard_normal(batch + (dim**k,)) for k in range(depth + 1)]

    if layout == "block":  # a block of rows against a block of columns, as the row pass
        return dim, levels(draw(st.integers(1, 12)), 1), levels(1, rows)
    return dim, levels(1 if layout == "a" else rows), levels(1 if layout == "b" else rows)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stacked_operands())
def test_stacked_kernels_equal_per_element_loops(case):
    dim, a, b = case
    for got, want in zip(stacked_mul(a, b), _loop_mul(a, b, dim)):
        assert np.array_equal(got, want)
    for got, want in zip(stacked_inverse(b), _loop_inverse(b, dim)):
        assert np.array_equal(got, want)
    # b's rows as group elements, against the same rows reversed, in a batch of more and of one
    g = [np.ones((b[0].size, 1))] + [lv.reshape(b[0].size, -1) for lv in b[1:]]
    h = [lv[::-1] for lv in g]
    lam = float(a[0].flat[0])
    for rows in (slice(None), slice(1)):
        _check_group_forms(dim, [lv[rows] for lv in g], [lv[rows] for lv in h], lam)


@pytest.mark.parametrize("shapes", [((0,), (0,)), ((0, 1), (1, 5)), ((3, 1), (3, 0)),
                                    ((1,), (0,))],
                         ids=["empty", "empty-rows", "empty-columns", "broadcast-empty"])
def test_stacked_kernels_on_an_empty_batch_return_empty_levels(shapes):
    # a shift as long as the interval asks for an empty diagonal of increments
    (sa, sb), dim, depth = shapes, 2, 3
    a = [np.ones(sa + (dim**k,)) for k in range(depth + 1)]
    b = [np.ones(sb + (dim**k,)) for k in range(depth + 1)]
    batch = np.broadcast_shapes(sa, sb)
    assert [lv.shape for lv in stacked_mul(a, b)] == [batch + (dim**k,) for k in range(depth + 1)]
    assert [lv.shape for lv in stacked_inverse(b)] == [sb + (dim**k,) for k in range(depth + 1)]
