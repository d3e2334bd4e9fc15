"""The gamma sampler must stay deterministic."""

import tracemalloc

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



def test_gamma_draws_peak_memory_is_the_result_and_one_chunk():
    # 10^6 draws take 8 MB; unchunked, the temporaries took 48 bytes a draw
    tracemalloc.start()
    try:
        k.gamma_draws(5, 10**6, 2, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_gamma_draws_across_chunks_match_the_unchunked_formula():
    count, shape_k, rate = 2 * k._CHUNK + 123, 3, 2.5
    idx = np.arange(count, dtype=np.uint64)
    acc = np.zeros(count)
    with np.errstate(over="ignore"):
        for j in range(shape_k):
            acc -= np.log(k._u01(77, idx * np.uint64(shape_k) + np.uint64(j)))
    assert k.gamma_draws(77, count, shape_k, rate).tobytes() == (acc / rate).tobytes()
