"""Pulse metrics: peak extraction, width, decay-exponent fits, energy, causality."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SampledSignal

__all__ = [
    "SweepRecord",
    "peak",
    "rms_width",
    "fit_decay_exponent",
    "energy_ratio",
    "causality_metric",
]


@dataclass(frozen=True)
class SweepRecord:
    """Per-depth metrics collected over a propagation sweep."""

    z: float
    t_peak: float
    peak_amp: float
    rms_width: float
    energy_ratio: float

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError(f"depth must be positive, got z={self.z}")
        if self.rms_width <= 0:
            raise ValueError("rms width must be positive")
        if self.energy_ratio < 0:
            raise ValueError("energy ratio must be >= 0")


def peak(signal: SampledSignal) -> tuple[float, float]:
    """Location and height of the envelope maximum of |f|.

    Sub-sample refinement by a parabola through the three samples around the
    discrete maximum (skipped at grid edges or for a degenerate parabola).
    Ties resolve toward smaller t via the first discrete maximum.
    """
    mag = np.abs(signal.values)
    i = int(np.argmax(mag))
    if mag[i] == 0.0:
        raise ValueError("signal is identically zero")
    t = signal.grid.times()
    if i == 0 or i == signal.grid.n - 1:
        return float(t[i]), float(mag[i])
    y1, y2, y3 = mag[i - 1], mag[i], mag[i + 1]
    den = y1 - 2.0 * y2 + y3
    if den >= 0.0:
        # flat or non-concave triple: keep the discrete sample
        return float(t[i]), float(y2)
    offset = 0.5 * (y1 - y3) / den
    amp = y2 - 0.25 * (y1 - y3) * offset
    return float(t[i] + offset * signal.grid.dt), float(amp)


def rms_width(signal: SampledSignal) -> float:
    """Energy-weighted RMS duration: sqrt(<t^2> - <t>^2) under weight |f|^2.

    Carrier-robust when many cycles fit under the envelope.  A pure Gaussian
    envelope exp(-t^2/2s^2) gives s/sqrt(2); what matters for broadening
    checks is the scaling in z, not the absolute constant.
    """
    w = signal.values**2
    total = w.sum()
    if total <= 0.0:
        raise ValueError("signal has zero energy")
    t = signal.grid.times()
    mean = (t * w).sum() / total
    second = (t * t * w).sum() / total
    return float(np.sqrt(max(second - mean * mean, 0.0)))


def fit_decay_exponent(records) -> tuple[float, float]:
    """Least-squares slope of log(peak amplitude) against log(depth), with stderr.

    When every amplitude is equal the fit is exact: slope 0 and stderr 0.
    """
    records = list(records)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records, got {len(records)}")
    zs = np.array([r.z for r in records])
    if np.unique(zs).size != zs.size:
        raise ValueError("depths must be distinct")
    amps = np.array([r.peak_amp for r in records])
    if np.any(amps <= 0):
        raise ValueError("peak amplitudes must be positive")
    # scipy.stats.linregress's own formulas, so the values stay bit-identical
    # without importing scipy.stats
    ssxm, ssxym, _, ssym = np.cov(np.log(zs), np.log(amps), bias=1).flat
    if ssym == 0.0:
        # linregress's correlation would be 0/0; the residual is zero
        return float(ssxym / ssxm), 0.0
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (zs.size - 2))
    return float(slope), float(stderr)


def energy_ratio(f_z: SampledSignal, f0: SampledSignal) -> float:
    """Discrete output/input energy ratio, dt*sum(f_z^2) / dt*sum(f0^2)."""
    e0 = f0.energy()
    if e0 <= 0.0:
        raise ValueError("input signal has zero energy")
    return f_z.energy() / e0


def causality_metric(m: SampledSignal) -> float:
    """Fraction of L1 mass at strictly negative times, in [0, 1].

    Zero for an exactly causal response; bounds the worst-case acausal
    contribution to any bounded input.
    """
    mag = np.abs(m.values)
    total = mag.sum()
    if total <= 0.0:
        raise ValueError("response is identically zero")
    return float(mag[m.grid.times() < 0.0].sum() / total)
