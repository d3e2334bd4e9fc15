"""Input pulses (Gaussian, rectangular, chirped), sampled on a grid, and their temporal moments."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import SampledSignal, TimeGrid

__all__ = ["PulseSpec", "sample_pulse", "moment"]

PULSE_KINDS = ("gaussian", "rect", "chirp-gaussian")
ENVELOPE_REACH = 1491.0  # t^2/T^2 past which exp(-t^2/2T^2) rounds to 0 (exp(-x) does past x = 745.13)
_EDGE_TOLERANCE = 1e-12  # a rect's samples this close to its edge, times max(T, 1), take half its carrier


@dataclass(frozen=True)
class PulseSpec:
    """Pulse parameters: envelope width ``T``, carrier ``omega0``, chirp rate ``alpha``.

    ``alpha`` is the linear rate of change of instantaneous frequency and is
    only meaningful for ``kind="chirp-gaussian"``.
    """

    kind: str
    T: float
    omega0: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}; expected one of {PULSE_KINDS}")
        if not all(math.isfinite(x) for x in (self.T, self.omega0, self.alpha)):
            raise ValueError(
                f"pulse parameters must be finite, got T={self.T}, "
                f"omega0={self.omega0}, alpha={self.alpha}"
            )
        if self.T <= 0:
            raise ValueError(f"pulse width must be positive, got T={self.T}")
        # the envelope exp(-t^2/2T^2) divides by 2T^2, which must be normal and finite
        if not (sys.float_info.min <= self.T * self.T and math.isfinite(2.0 * self.T * self.T)):
            raise ValueError(
                f"pulse width needs T^2 >= {sys.float_info.min:g} and a finite 2T^2, got T={self.T}"
            )
        if self.omega0 < 0:
            raise ValueError(f"carrier frequency must be >= 0, got omega0={self.omega0}")
        if self.kind != "chirp-gaussian" and self.alpha != 0.0:
            raise ValueError("alpha is only meaningful for chirp-gaussian pulses")

    @property
    def strong_chirp(self) -> bool:
        """True when alpha*T^2 > 10, the regime the chirp estimates assume."""
        return self.alpha * self.T**2 > 10.0

    @property
    def reach(self) -> float:
        """The |t| past which the sampled pulse is 0: a rect's edge, or where exp(-t^2/2T^2) rounds to 0 or t^2 overflows."""
        if self.kind == "rect":
            return self.T / 2.0 + _EDGE_TOLERANCE * max(self.T, 1.0)
        return min(self.T * math.sqrt(ENVELOPE_REACH), math.sqrt(sys.float_info.max))


def _carried(spec: PulseSpec, t):
    """exp(-t^2/2T^2) * cos(omega0 t + alpha t^2/2), the envelope times the carrier.

    Far out the envelope's exponent overflows to -inf, near the least width T,
    and exp(-inf) = 0 is right.  On a wide grid the phase overflows to inf too,
    whose cosine is nan; where the envelope is 0, so is the pulse.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(-(t * t) / (2.0 * spec.T**2))
        vanished = vals == 0.0
        phase = spec.omega0 * t
        if spec.alpha:
            phase += 0.5 * spec.alpha * t * t
        vals *= np.cos(phase, out=phase)
    vals[vanished & np.isnan(vals)] = 0.0
    return vals


def sample_pulse(spec: PulseSpec, grid: TimeGrid) -> SampledSignal:
    """The pulse ``spec`` sampled on ``grid``: its envelope times its carrier.

    ``gaussian`` and ``chirp-gaussian`` are exp(-t^2/2T^2) * cos(omega0 t +
    alpha t^2 / 2), so a chirp with alpha = 0 is the Gaussian bit for bit.
    ``rect`` is the rectangular envelope times cos(omega0 t), half amplitude
    exactly at |t| = T/2: the midpoint edge convention keeps Riemann-sum
    moments first-order accurate, so samples landing on the edges (to within
    grid round-off) contribute cos(omega0 t)/2.
    """
    t = grid.times()
    if spec.kind != "rect":
        return SampledSignal(grid, _carried(spec, t))
    half = spec.T / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # a nan carrier far out lies outside the pulse
        carrier = np.cos(spec.omega0 * t)
    vals = np.where(np.abs(t) < half, carrier, 0.0)
    edge = np.isclose(np.abs(t), half, rtol=0.0, atol=_EDGE_TOLERANCE * max(spec.T, 1.0))
    vals[edge] = carrier[edge] / 2.0
    return SampledSignal(grid, vals)


def moment(f: SampledSignal, k: int) -> float:
    """k-th temporal moment, the Riemann sum dt * sum(t^k * f(t)).

    Plain Riemann summation on the signal's own grid, deliberately matching
    the discretization of the transform path so cross-checks share one
    quadrature.  Orders above 4 are rejected.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {k}")
    if k > 4:
        raise ValueError(f"moment order {k} not supported (max 4)")
    t = f.grid.times()
    return float(f.grid.dt * np.sum(t**k * f.values))
