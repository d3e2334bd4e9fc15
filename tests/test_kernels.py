"""The gamma sampler must stay deterministic."""

import numpy as np

from precursor_lab import _kernels as k


def test_uniform_hash_is_in_unit_interval_and_deterministic():
    u = k._u01(123, np.arange(100000, dtype=np.uint64))
    assert (u > 0.0).all() and (u <= 1.0).all()
    assert np.array_equal(u, k._u01(123, np.arange(100000, dtype=np.uint64)))
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_gamma_draws_counter_based_slicing():
    long = k.gamma_draws(99, 1000, 2, 3.0)
    short = k.gamma_draws(99, 10, 2, 3.0)
    assert np.array_equal(long[:10], short)

