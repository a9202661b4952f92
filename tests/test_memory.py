"""Memory a distance call still holds after it returns."""

import gc
import tracemalloc

import pytest

from roughpaths import EuclideanPath, lift, rho_riesz_level
from conftest import random_walk_path


@pytest.mark.parametrize("intervals", [256, 512])
def test_a_single_level_distance_holds_only_its_level(rng, intervals):
    # a level-1 call builds and keeps the level-1 differences of the pair, one
    # (M+1)^2 float64 matrix, and not those of levels 2 and 3 beside it
    f1 = random_walk_path(rng, intervals, 2)
    f2 = EuclideanPath(f1.grid, f1.values + 0.1 * random_walk_path(rng, intervals, 2).values)
    x1, x2 = lift(f1, 3), lift(f2, 3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert rho_riesz_level(x1, x2, 0.45, 4.0, 1) > 0.0
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1.5 * 8 * (intervals + 1) ** 2
