import numpy as np
import pytest

from roughpaths import (
    GroupElement,
    ParameterError,
    PartitionSizeError,
    TruncatedTensor,
    group_mul,
    homogeneous_norm,
    identity_element,
    segment_exp,
)
from roughpaths.norms import dp_partition_sup
from roughpaths.oracle import (
    cc_norm_bruteforce,
    enumerate_partition_supremum,
)
from roughpaths.verify import dense_columns


def pure_area_element(a):
    l2 = np.array([[0.0, a], [-a, 0.0]])
    return GroupElement(TruncatedTensor(2, 2, (np.array(1.0), np.zeros(2), l2)))


# ---------------------------------------------------------------------------
# partition enumeration
# ---------------------------------------------------------------------------

def test_two_point_interval():
    w = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert enumerate_partition_supremum(w, 0, 1) == 3.0


def test_three_point_interval_lists_both_partitions():
    w = np.zeros((3, 3))
    w[0, 2], w[0, 1], w[1, 2] = 5.0, 2.0, 4.0
    assert enumerate_partition_supremum(w, 0, 2) == max(5.0, 2.0 + 4.0)


def test_size_cap():
    w = np.zeros((14, 14))
    with pytest.raises(PartitionSizeError):
        enumerate_partition_supremum(w, 0, 13)


def test_callable_weights():
    assert enumerate_partition_supremum(lambda i, j: (j - i) ** 2, 0, 4) == 16.0
    assert enumerate_partition_supremum(lambda i, j: float(j - i), 0, 4) == 4.0


def test_enumeration_matches_dp_random(rng):
    for _ in range(200):
        m = int(rng.integers(2, 11))
        w = np.triu(rng.uniform(0.0, 1.0, (m + 1, m + 1)), k=1)
        a = enumerate_partition_supremum(w, 0, m)
        b = dp_partition_sup([dense_columns(w, 0, m)], 0, m)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# Carnot-Caratheodory brute force
# ---------------------------------------------------------------------------

def test_cc_identity_zero():
    assert cc_norm_bruteforce(identity_element(2, 2)) == 0.0


def test_cc_straight_segment_within_one_percent():
    g = segment_exp([3.0, 4.0], 2)
    assert cc_norm_bruteforce(g, segments=16, starts=4) == pytest.approx(5.0, rel=0.01)


def test_cc_pure_area_isoperimetric():
    a = 0.25
    val = cc_norm_bruteforce(pure_area_element(a), segments=32, starts=6)
    assert val == pytest.approx(2.0 * np.sqrt(np.pi * a), rel=0.05)
    # polygonal length can only overshoot the smooth minimizer
    assert val >= 2.0 * np.sqrt(np.pi * a) * (1 - 1e-9)


def test_cc_requires_planar_depth_two():
    with pytest.raises(ParameterError):
        cc_norm_bruteforce(segment_exp([1.0, 0.0, 0.0], 2))
    with pytest.raises(ParameterError):
        cc_norm_bruteforce(segment_exp([1.0, 0.0], 1))


def test_cc_rejects_non_grouplike():
    bad = GroupElement(
        TruncatedTensor(2, 2, (np.array(1.0), np.array([1.0, 0.0]), np.zeros((2, 2))))
    )
    with pytest.raises(ParameterError):
        cc_norm_bruteforce(bad)


def test_cc_vs_homogeneous_norm_loose_equivalence(rng):
    # surrogate and CC norm agree within a loose factor 10 on mixed elements
    for _ in range(3):
        g = group_mul(segment_exp(rng.uniform(-1, 1, 2), 2),
                      pure_area_element(float(rng.uniform(0.05, 0.4))))
        cc = cc_norm_bruteforce(g, segments=16, starts=4, seed=1)
        hom = homogeneous_norm(g)
        assert cc <= 10.0 * hom
        assert hom <= 10.0 * cc


def test_cc_with_info_reports_feasibility():
    res = cc_norm_bruteforce(pure_area_element(0.1), segments=16, starts=4,
                             with_info=True)
    assert res.converged
    assert res.residual < 1e-6
