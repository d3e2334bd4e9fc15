"""Counter-based gamma sampling for the ensemble runs, in vectorised numpy.

``gamma_draws`` sums exponentials driven by a splitmix64 hash, so draw ``i``
depends only on ``(seed, i)``, never on which slice of the sequence is
asked for.  The kernels averaged over those draws are formed in
:mod:`precursor_lab.stochastic`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gamma_draws"]

# splitmix64 constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_U53 = 2.0**-53
_CHUNK = 1 << 16  # draws formed at once by gamma_draws


def _u01(seed: int, counter: np.ndarray) -> np.ndarray:
    """Uniform draws in (0, 1] from (seed, counter) via the splitmix64 finalizer."""
    with np.errstate(over="ignore"):
        h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counter + np.uint64(1)) * np.uint64(_GOLDEN)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_1)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_2)
        h = h ^ (h >> np.uint64(31))
    # +1 keeps the value strictly positive so log() below is always finite
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * _U53


def gamma_draws(seed: int, count: int, shape_k: int, rate: float) -> np.ndarray:
    """``count`` gamma(shape_k, rate) draws; draw i is a pure function of (seed, i).

    Integer shape only: each draw is the sum of ``shape_k`` exponentials,
    which is exact (no rejection loop, so the counter budget per draw is
    fixed and parallel-safe).  The draws are formed ``_CHUNK`` at a time in
    the result, so beyond its 8 bytes a draw the temporaries stay bounded.
    """
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count), dtype=np.uint64)
        acc = out[start : start + idx.size]
        acc.fill(0.0)
        with np.errstate(over="ignore"):
            for j in range(shape_k):
                acc -= np.log(_u01(seed, idx * np.uint64(shape_k) + np.uint64(j)))
        acc /= rate
    return out
