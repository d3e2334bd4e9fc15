"""Hot numeric kernels: numba-JIT versions with pure-numpy fallbacks.

The two inner loops that dominate ensemble runs live here:

* ``gamma_draws`` -- counter-based gamma sampling (sum of exponentials driven
  by a splitmix64 hash, so draw ``i`` depends only on ``(seed, i)``);
* ``mean_exp_kernel`` -- the per-frequency average of exp(-x_i * w) over all
  draws, the ensemble-averaged transfer kernel.

Both exist in two implementations.  At import time one is selected:
the numba JIT path by default, or the numpy path when numba is unavailable
or the environment variable ``PRECURSOR_LAB_DISABLE_NUMBA`` is set to a
non-empty value other than ``0``.  The two paths use identical summation
order per output element, so they agree to floating-point rounding (not
necessarily bit-for-bit: libm implementations of exp/log may differ in the
last ulp).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "USING_NUMBA",
    "gamma_draws",
    "mean_exp_kernel",
    "mean_var_exp_kernel",
    "gamma_draws_numpy",
    "mean_exp_kernel_numpy",
    "mean_var_exp_kernel_numpy",
]

# splitmix64 constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_U53 = 2.0**-53


def _numba_disabled_by_env() -> bool:
    return os.environ.get("PRECURSOR_LAB_DISABLE_NUMBA", "0") not in ("", "0")


# ---------------------------------------------------------------------------
# numpy implementations (always available)
# ---------------------------------------------------------------------------

def _u01_numpy(seed: int, counter: np.ndarray) -> np.ndarray:
    """Uniform draws in (0, 1] from (seed, counter) via the splitmix64 finalizer."""
    with np.errstate(over="ignore"):
        h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counter + np.uint64(1)) * np.uint64(_GOLDEN)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_1)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_2)
        h = h ^ (h >> np.uint64(31))
    # +1 keeps the value strictly positive so log() below is always finite
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * _U53


def gamma_draws_numpy(seed: int, count: int, shape_k: int, rate: float) -> np.ndarray:
    """``count`` gamma(shape_k, rate) draws; draw i is a pure function of (seed, i).

    Integer shape only: each draw is the sum of ``shape_k`` exponentials,
    which is exact (no rejection loop, so the counter budget per draw is
    fixed and parallel-safe).
    """
    idx = np.arange(count, dtype=np.uint64)
    acc = np.zeros(count, dtype=np.float64)
    with np.errstate(over="ignore"):
        for j in range(shape_k):
            counter = idx * np.uint64(shape_k) + np.uint64(j)
            acc -= np.log(_u01_numpy(seed, counter))
    return acc / rate


def mean_exp_kernel_numpy(x: np.ndarray, w: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Mean over draws i of exp(-x[i] * w[k]), evaluated per frequency point k."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    acc = np.zeros_like(w)
    for i0 in range(0, x.size, chunk):
        acc += np.exp(-np.outer(x[i0 : i0 + chunk], w)).sum(axis=0)
    return acc / x.size


def mean_var_exp_kernel_numpy(x: np.ndarray, w: np.ndarray, chunk: int = 512):
    """Mean and population variance over draws of exp(-x[i] * w[k])."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    acc = np.zeros_like(w)
    acc2 = np.zeros_like(w)
    for i0 in range(0, x.size, chunk):
        block = np.exp(-np.outer(x[i0 : i0 + chunk], w))
        acc += block.sum(axis=0)
        acc2 += (block * block).sum(axis=0)
    mean = acc / x.size
    var = np.maximum(acc2 / x.size - mean**2, 0.0)
    return mean, var


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

NUMBA_AVAILABLE = False
USING_NUMBA = False

gamma_draws = gamma_draws_numpy
mean_exp_kernel = mean_exp_kernel_numpy
mean_var_exp_kernel = mean_var_exp_kernel_numpy

gamma_draws_numba = None
mean_exp_kernel_numba = None
mean_var_exp_kernel_numba = None

try:
    import numba  # noqa: F401
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via the env-flag path
    pass

if NUMBA_AVAILABLE:

    @njit(cache=True, inline="always")
    def _u01_nb(seed: np.uint64, counter: np.uint64) -> float:
        h = seed + (counter + np.uint64(1)) * np.uint64(_GOLDEN)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_1)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_2)
        h = h ^ (h >> np.uint64(31))
        return (np.float64(h >> np.uint64(11)) + 1.0) * _U53

    @njit(cache=True, parallel=True)
    def _gamma_draws_nb(seed: np.uint64, count: int, shape_k: int, rate: float) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        for i in prange(count):
            base = np.uint64(i) * np.uint64(shape_k)
            acc = 0.0
            for j in range(shape_k):
                acc -= np.log(_u01_nb(seed, base + np.uint64(j)))
            out[i] = acc / rate
        return out

    @njit(cache=True, parallel=True)
    def _mean_exp_kernel_nb(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        out = np.empty(w.size, dtype=np.float64)
        # parallel over frequency points: each out[k] is a fixed-order sum,
        # so results do not depend on the thread count
        for k in prange(w.size):
            s = 0.0
            for i in range(x.size):
                s += np.exp(-x[i] * w[k])
            out[k] = s / x.size
        return out

    @njit(cache=True, parallel=True)
    def _mean_var_exp_kernel_nb(x: np.ndarray, w: np.ndarray):
        mean = np.empty(w.size, dtype=np.float64)
        var = np.empty(w.size, dtype=np.float64)
        for k in prange(w.size):
            s = 0.0
            s2 = 0.0
            for i in range(x.size):
                e = np.exp(-x[i] * w[k])
                s += e
                s2 += e * e
            mu = s / x.size
            mean[k] = mu
            var[k] = max(s2 / x.size - mu * mu, 0.0)
        return mean, var

    def gamma_draws_numba(seed: int, count: int, shape_k: int, rate: float) -> np.ndarray:
        return _gamma_draws_nb(np.uint64(seed & 0xFFFFFFFFFFFFFFFF), count, shape_k, rate)

    def mean_exp_kernel_numba(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _mean_exp_kernel_nb(
            np.ascontiguousarray(x, dtype=np.float64),
            np.ascontiguousarray(w, dtype=np.float64),
        )

    def mean_var_exp_kernel_numba(x: np.ndarray, w: np.ndarray):
        return _mean_var_exp_kernel_nb(
            np.ascontiguousarray(x, dtype=np.float64),
            np.ascontiguousarray(w, dtype=np.float64),
        )

    if not _numba_disabled_by_env():
        USING_NUMBA = True
        gamma_draws = gamma_draws_numba
        mean_exp_kernel = mean_exp_kernel_numba
        mean_var_exp_kernel = mean_var_exp_kernel_numba
