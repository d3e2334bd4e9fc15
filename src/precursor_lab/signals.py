"""Input waveform generators (Gaussian, rectangular, chirped) and temporal moments."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import SampledSignal, TimeGrid

__all__ = ["PulseSpec", "gaussian_pulse", "rect_pulse", "chirp_pulse", "moment"]

PULSE_KINDS = ("gaussian", "rect", "chirp-gaussian")


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


def _envelope(t, T):
    """exp(-t^2/2T^2); near the least width T, t^2/2T^2 overflows to inf far out, and exp(-inf) = 0 is right."""
    with np.errstate(over="ignore"):
        return np.exp(-(t * t) / (2.0 * T**2))


def gaussian_pulse(spec: PulseSpec, grid: TimeGrid) -> SampledSignal:
    """Gaussian envelope times carrier: exp(-t^2/2T^2) * cos(omega0 t)."""
    if spec.kind != "gaussian":
        raise ValueError(f"expected kind 'gaussian', got {spec.kind!r}")
    t = grid.times()
    vals = _envelope(t, spec.T) * np.cos(spec.omega0 * t)
    return SampledSignal(grid, vals)


def rect_pulse(spec: PulseSpec, grid: TimeGrid) -> SampledSignal:
    """Rectangular envelope times carrier, half amplitude exactly at |t| = T/2.

    The midpoint edge convention keeps Riemann-sum moments first-order
    accurate: samples landing on the edges (to within grid round-off)
    contribute cos(omega0 t)/2.
    """
    if spec.kind != "rect":
        raise ValueError(f"expected kind 'rect', got {spec.kind!r}")
    t = grid.times()
    half = spec.T / 2.0
    carrier = np.cos(spec.omega0 * t)
    vals = np.where(np.abs(t) < half, carrier, 0.0)
    edge = np.isclose(np.abs(t), half, rtol=0.0, atol=1e-12 * max(spec.T, 1.0))
    vals[edge] = carrier[edge] / 2.0
    return SampledSignal(grid, vals)


def chirp_pulse(spec: PulseSpec, grid: TimeGrid) -> SampledSignal:
    """Linearly chirped Gaussian: exp(-t^2/2T^2) * cos(omega0 t + alpha t^2 / 2).

    With alpha = 0 this reproduces :func:`gaussian_pulse` bit for bit.
    """
    if spec.kind != "chirp-gaussian":
        raise ValueError(f"expected kind 'chirp-gaussian', got {spec.kind!r}")
    t = grid.times()
    phase = spec.omega0 * t + 0.5 * spec.alpha * t * t
    vals = _envelope(t, spec.T) * np.cos(phase)
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
