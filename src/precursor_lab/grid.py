"""Uniform time grids and Fourier transforms under the e^{+i w t} forward kernel.

All spectra in this package use the convention

    F(w) = integral e^{+i w t} f(t) dt,
    f(t) = (1/2pi) integral e^{-i w t} F(w) dw,

i.e. the *plus* sign in the forward kernel.  numpy's ``fft`` uses the
opposite sign, so the forward transform here maps onto ``numpy.fft.ifft``
(scaled by ``n*dt`` and a phase accounting for the grid origin ``t0``) and
the inverse maps onto ``numpy.fft.fft``.  Spectra are stored in natural
signed-frequency order (-Nyquist ... +Nyquist), not FFT wrap-around order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "SampledSignal",
    "Spectrum",
    "NonHermitianSpectrumWarning",
    "forward_transform",
    "inverse_transform",
    "sample_spacing",
    "covering_grid",
    "recommend_grid",
    "grid_is_adequate",
]


class NonHermitianSpectrumWarning(UserWarning):
    """Inverse transform discarded a non-negligible imaginary part."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: ``n`` samples, spacing ``dt``, first sample at ``t0``.

    Powers of two for ``n`` are recommended for FFT speed but not required.
    """

    n: int
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"grid needs at least 2 samples, got n={self.n}")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"sample spacing must be positive, got dt={self.dt}")
        if not np.isfinite(self.t0):
            raise ValueError(f"grid origin must be finite, got t0={self.t0}")

    @property
    def span(self) -> float:
        return self.n * self.dt

    @property
    def domega(self) -> float:
        """Angular-frequency bin spacing, 2*pi/(n*dt)."""
        return 2.0 * np.pi / (self.n * self.dt)

    @property
    def nyquist(self) -> float:
        """Largest resolvable angular frequency, pi/dt."""
        return np.pi / self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def omegas(self) -> np.ndarray:
        """Angular frequencies in natural signed order, -Nyquist ... +Nyquist."""
        return np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(self.n, self.dt))

    def _omegas_wrapped(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dt)


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Real-valued time series on a :class:`TimeGrid`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, np.float64)
        if vals.ndim != 1 or vals.size != self.grid.n:
            raise ValueError(
                f"signal length {vals.size} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "values", vals)

    def energy(self) -> float:
        """dt * sum(f^2), the discrete signal energy."""
        return float(self.grid.dt * np.sum(self.values**2))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex frequency series on the signed-frequency bins of a grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, np.complex128)
        if vals.ndim != 1 or vals.size != self.grid.n:
            raise ValueError(
                f"spectrum length {vals.size} does not match grid n={self.grid.n}"
            )
        object.__setattr__(self, "values", vals)


def forward_transform(signal: SampledSignal) -> Spectrum:
    """Riemann-sum Fourier transform, F(w_k) = dt * sum_j e^{+i w_k t_j} f(t_j).

    The +i kernel maps to ``numpy.fft.ifft`` scaled by ``n*dt`` plus a phase
    ramp carrying the grid origin; the result is then reordered to natural
    signed-frequency layout.
    """
    g = signal.grid
    w = g._omegas_wrapped()
    vals = np.fft.ifft(signal.values) * (g.n * g.dt)
    vals *= np.exp(1j * w * g.t0)
    return Spectrum(g, np.fft.fftshift(vals))


def inverse_transform(spectrum: Spectrum, imag_tol: float = 1e-8) -> SampledSignal:
    """Inverse transform, f(t_j) = (dw/2pi) * sum_k e^{-i w_k t_j} F(w_k).

    Returns the real part.  Warns (``NonHermitianSpectrumWarning``) when the
    discarded imaginary part exceeds ``imag_tol`` of the real-part norm,
    which signals a spectrum without Hermitian symmetry.
    """
    g = spectrum.grid
    w = g._omegas_wrapped()
    wrapped = np.fft.ifftshift(spectrum.values)
    f = np.fft.fft(wrapped * np.exp(-1j * w * g.t0)) / (g.n * g.dt)
    real_norm = np.linalg.norm(f.real)
    imag_norm = np.linalg.norm(f.imag)
    if imag_norm > imag_tol * max(real_norm, np.finfo(float).tiny):
        warnings.warn(
            f"discarded imaginary part ({imag_norm:.3e}) exceeds {imag_tol:g} "
            f"of the real-part norm ({real_norm:.3e}); spectrum is not Hermitian",
            NonHermitianSpectrumWarning,
            stacklevel=2,
        )
    return SampledSignal(g, f.real)


def sample_spacing(T: float, omega0: float) -> float:
    """Largest spacing the grid rule allows: 0.1*T, and 0.1*pi/omega0 under a carrier."""
    return min(0.1 * T, 0.1 * np.pi / omega0) if omega0 > 0 else 0.1 * T


def covering_grid(dt: float, t0: float, span: float) -> TimeGrid:
    """Grid of spacing ``dt`` from ``t0`` whose power-of-two length (at least 2) covers ``span``."""
    n = 1 << int(np.ceil(np.log2(span / dt)))
    return TimeGrid(n=max(n, 2), dt=dt, t0=t0)


def recommend_grid(
    T: float,
    omega0: float,
    a: float,
    v: float,
    z: float,
    margin_sigmas: float = 5.0,
) -> TimeGrid:
    """Pick a grid adequate for propagating a pulse of width ``T`` to depth ``z``.

    Spacing :func:`sample_spacing`; the span covers the shifted pulse center
    z/v plus ``2*margin_sigmas`` times the larger of the input width and the
    broadened output width sqrt(z/a).
    """
    if T <= 0 or v <= 0 or a <= 0 or z < 0:
        raise ValueError("recommend_grid needs T > 0, a > 0, v > 0, z >= 0")
    margin = max(T, np.sqrt(z / a))
    span = z / v + 2.0 * margin_sigmas * margin
    return covering_grid(sample_spacing(T, omega0), -margin_sigmas * margin, span)


def grid_is_adequate(grid: TimeGrid, T: float, omega0: float, a: float, v: float, z: float) -> bool:
    """Check a grid against the same spacing/span rule used by :func:`recommend_grid`."""
    margin = max(T, np.sqrt(z / a)) if a > 0 else T
    return grid.dt <= sample_spacing(T, omega0) and grid.span >= z / v + 10.0 * margin
