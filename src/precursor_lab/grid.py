"""Uniform time grids and Fourier transforms under the e^{+i w t} forward kernel.

All spectra in this package use the convention

    F(w) = integral e^{+i w t} f(t) dt,
    f(t) = (1/2pi) integral e^{-i w t} F(w) dw,

i.e. the *plus* sign in the forward kernel.  Every signal is real, so
F(-w) = conj F(w) and a :class:`Spectrum` holds only the half w >= 0: the
``n//2 + 1`` bins 0 ... Nyquist of :meth:`TimeGrid.omegas`.  numpy's ``fft``
uses the opposite sign, so the forward transform maps onto
``numpy.fft.ihfft`` (scaled by ``n*dt``, with a phase for the grid origin
``t0``) and the inverse onto ``numpy.fft.irfft`` of the conjugate.  This
module is the only place that calls ``numpy.fft``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "SampledSignal",
    "Spectrum",
    "forward_transform",
    "inverse_transform",
    "inverse_rows",
]


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
    def nyquist(self) -> float:
        """Largest resolvable angular frequency, pi/dt."""
        return np.pi / self.dt

    def times(self) -> np.ndarray:
        """t0 + dt * arange(n), byte for byte, formed in place without an integer temporary."""
        t = np.arange(self.n, dtype=np.float64)
        t *= self.dt
        t += self.t0
        return t

    def omegas(self) -> np.ndarray:
        """Angular frequencies of the half spectrum, 0 ... Nyquist (``n//2 + 1`` bins).

        For odd ``n`` the last bin lies half a bin below Nyquist.
        """
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, self.dt)

    @functools.cached_property
    def origin_phase(self) -> np.ndarray:
        """The grid origin's phase e^{-i w t0} on the bins of :meth:`omegas`.

        Formed on first use and kept, read-only, for every inverse transform
        on this grid.
        """
        return _frozen_array(np.exp(-1j * self.omegas() * self.t0), np.complex128)


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
    """Half spectrum of a real signal: complex values on the bins of :meth:`TimeGrid.omegas`."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, np.complex128)
        bins = self.grid.n // 2 + 1
        if vals.ndim != 1 or vals.size != bins:
            raise ValueError(
                f"spectrum length {vals.size} does not match the {bins} bins of grid n={self.grid.n}"
            )
        object.__setattr__(self, "values", vals)


def forward_transform(signal: SampledSignal) -> Spectrum:
    """Riemann-sum Fourier transform, F(w_k) = dt * sum_j e^{+i w_k t_j} f(t_j), w_k >= 0.

    The +i kernel maps to ``numpy.fft.ihfft`` scaled by ``n*dt``, times a
    phase ramp carrying the grid origin.
    """
    g = signal.grid
    vals = np.fft.ihfft(signal.values) * (g.n * g.dt)
    vals *= np.exp(1j * g.omegas() * g.t0)
    return Spectrum(g, vals)


def inverse_rows(spectrum: Spectrum, rows=1.0) -> np.ndarray:
    """Inverse transforms of ``spectrum`` times each real row of ``rows``.

    f(t_j) = (dw/2pi) * sum_k e^{-i w_k t_j} F(w_k), summed over both signs
    of w, is ``irfft(conj(F e^{-i w t0}) / dt, n)``.  The origin phase, the
    conjugate and the 1/dt are applied to the spectrum once; each row of
    ``rows`` (real, last axis on the bins of ``spectrum``) then costs one
    real-by-complex product and one ``irfft``.  ``rows = 1`` is the plain
    inverse.  Rows narrower than the bins cover the leading ones, and the
    bins past them count as 0 (``irfft``'s zero padding; at least one bin
    wide).  Returns an array of shape ``rows.shape[:-1] + (n,)``.

    The phase is the grid's cached :attr:`TimeGrid.origin_phase`, multiplied
    as a fresh copy: numpy then reuses that temporary for the product, as it
    did the freshly formed phase, so every grid rounds the product as before.
    """
    g = spectrum.grid
    base = np.conj(spectrum.values * np.array(g.origin_phase)) / g.dt
    width = np.shape(rows)[-1] if np.ndim(rows) else None
    return np.fft.irfft(rows * base[:width], n=g.n)


def inverse_transform(spectrum: Spectrum) -> SampledSignal:
    """Inverse transform, f(t_j) = (dw/2pi) * sum_k e^{-i w_k t_j} F(w_k).

    Real by construction: the half spectrum stands for F(-w) = conj F(w).
    On an even grid the Nyquist bin is its own mirror, and only the real
    part of conj(F e^{-i w t0}) there, its Hermitian projection, counts.
    """
    return SampledSignal(spectrum.grid, inverse_rows(spectrum))
