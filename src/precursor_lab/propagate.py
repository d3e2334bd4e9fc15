"""Numerical pulse propagation and the matching closed-form outputs.

The workhorse is :func:`propagate_fft`: multiply the input spectrum by the
medium transfer function and invert, returning the output signal.  It is
:func:`input_spectrum` followed by :func:`apply_transfer`; a run over many
depths calls the first once and the second per depth.  The ensemble outputs
take that same input spectrum: ``stochastic.observed_output(spectrum, spec,
z)``, ``draw_std(spectrum, spec, z)`` and ``monte_carlo_output(spectrum,
spec, z, draws)``.  Everything else in this module is an analytic expression
for special cases (Gaussian input, zero-DC rectangular input at long range,
thin slabs, chirped inputs), kept separate so the two routes can cross-validate
each other.  Where a standard closed form disagrees with the
value rebuilt from first principles, both are exposed and the batch runner
reports the ratio; nothing is silently corrected.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import SampledSignal, Spectrum, forward_transform, inverse_transform
from .media import SPEED_OF_LIGHT, transfer_function

__all__ = [
    "GridAdequacyWarning",
    "input_spectrum",
    "apply_transfer",
    "propagate_fft",
    "impulse_response_fft",
    "gaussian_impulse_response",
    "gaussian_impulse_derivatives",
    "analytic_gaussian_output",
    "zero_dc_rect_output",
    "zero_dc_rect_output_series",
    "thin_slab_output",
    "chirp_dc_content",
    "chirp_dc_exact",
    "chirp_dc_quadrature",
    "ChirpDCContent",
]

class GridAdequacyWarning(UserWarning):
    """The sampling grid looks too small or too coarse for the requested run."""


def _edge_mass_ok(values: np.ndarray) -> bool:
    peak = np.abs(values).max()
    if peak == 0.0:
        return True
    edge = max(np.abs(values[0]), np.abs(values[-1]))
    return edge <= 1e-6 * peak


def input_spectrum(f0: SampledSignal) -> Spectrum:
    """Forward transform of an input pulse, checked once for every depth it serves.

    Emits a :class:`GridAdequacyWarning` when ``f0`` carries visible
    amplitude at the grid edges.
    """
    if not _edge_mass_ok(f0.values):
        warnings.warn(
            "input signal has significant amplitude at the grid edges",
            GridAdequacyWarning,
            stacklevel=2,
        )
    return forward_transform(f0)


def apply_transfer(spectrum: Spectrum, H) -> SampledSignal:
    """Inverse transform of ``spectrum`` times the transfer values ``H``.

    ``H`` is sampled on ``spectrum.grid.omegas()``.  Emits a
    :class:`GridAdequacyWarning` when the output carries visible amplitude at
    the grid edges, the symptom of a grid too short for the travel time or
    too narrow for the broadened pulse.
    """
    # multiply by a fresh copy of H: numpy multiplies in place into a large
    # fresh operand (temporary elision), which swaps the operands of the
    # complex product and so its rounding; with the copy every caller rounds
    # as ``spectrum.values * transfer_function(...)`` does
    out = inverse_transform(Spectrum(spectrum.grid, spectrum.values * np.array(H)))
    if not _edge_mass_ok(out.values):
        warnings.warn(
            "propagated signal has significant amplitude at the grid edges; "
            "increase the grid span",
            GridAdequacyWarning,
            stacklevel=2,
        )
    return out


def propagate_fft(f0: SampledSignal, medium, z: float) -> SampledSignal:
    """Propagate ``f0`` to depth ``z``: inverse transform of transfer * spectrum.

    Emits a :class:`GridAdequacyWarning` (never an error) when the input or
    output carries visible amplitude at the grid edges.  A run over many
    depths calls :func:`input_spectrum` once and :func:`apply_transfer` per
    depth instead.
    """
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    return apply_transfer(input_spectrum(f0), transfer_function(medium, z, f0.grid.omegas()))


def impulse_response_fft(medium, z: float, grid) -> SampledSignal:
    """Numerical impulse response: inverse transform of the transfer function."""
    vals = transfer_function(medium, z, grid.omegas())
    return inverse_transform(Spectrum(grid, vals))


def gaussian_impulse_response(a: float, v: float, z: float, t):
    """Long-range impulse response of a quadratic medium.

    A normalized Gaussian of width sqrt(z/a) centered on the arrival time
    z/v:  sqrt(a/2pi z) * exp(-a (t - z/v)^2 / 2z).  Unit area; peak height
    sqrt(a/2pi z).
    """
    if z <= 0:
        raise ValueError(f"depth must be positive, got z={z}")
    t = np.asarray(t, dtype=np.float64)
    tau = t - z / v
    return np.sqrt(a / (2.0 * np.pi * z)) * np.exp(-a * tau**2 / (2.0 * z))


def gaussian_impulse_derivatives(a: float, v: float, z: float, t):
    """Impulse response and its first two time derivatives, in closed form.

    The derivatives are analytic (never finite-differenced):
        m'(t)  = -(a/z) (t - z/v) m(t)
        m''(t) = (a/z^2) (a (t - z/v)^2 - z) m(t)
    """
    t = np.asarray(t, dtype=np.float64)
    m = gaussian_impulse_response(a, v, z, t)
    tau = t - z / v
    m1 = -(a / z) * tau * m
    m2 = (a / z**2) * (a * tau**2 - z) * m
    return m, m1, m2


def analytic_gaussian_output(T: float, omega0: float, a: float, v: float, z: float, t):
    """Exact output of a Gaussian pulse through a lossless-at-DC quadratic medium.

    Evaluated in a form stable for all z > 0:

        sqrt(aT^2/(aT^2+z))
        * exp(-(a tau^2 + omega0^2 T^2 z) / (2 (z + aT^2)))
        * cos(omega0 tau * aT^2 / (aT^2 + z)),    tau = t - z/v.

    As z -> 0 this tends to the input pulse; for z >> aT^2 it reduces to
    sqrt(aT^2/z) * exp(-a tau^2/2z - (omega0 T)^2/2).
    """
    if z <= 0:
        raise ValueError(f"depth must be positive, got z={z}")
    t = np.asarray(t, dtype=np.float64)
    tau = t - z / v
    aT2 = a * T * T
    pre = np.sqrt(aT2 / (aT2 + z))
    expo = -(a * tau**2 + omega0**2 * T * T * z) / (2.0 * (z + aT2))
    return pre * np.exp(expo) * np.cos(omega0 * tau * aT2 / (aT2 + z))


def zero_dc_rect_output(n: int, T: float, a: float, v: float, z: float, t):
    """Closed-form long-range output of a zero-DC rectangular pulse (omega0*T = 2n*pi).

    Returns the reference closed form as written:

        (-1)^n/(2 (n pi)^2) * sqrt(aT^2/2pi z) * (aT^2/z^2)
        * [a (t-z/v)^2 - z] * exp(-a (t-z/v)^2 / 2z).

    See :func:`zero_dc_rect_output_series` for the value rebuilt from the
    moment expansion; the two differ by a constant factor and the batch
    runner reports their ratio against the FFT route.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if z <= 0:
        raise ValueError(f"depth must be positive, got z={z}")
    t = np.asarray(t, dtype=np.float64)
    tau = t - z / v
    pre = (-1.0) ** n / (2.0 * (n * np.pi) ** 2)
    return (
        pre
        * np.sqrt(a * T * T / (2.0 * np.pi * z))
        * (a * T * T / z**2)
        * (a * tau**2 - z)
        * np.exp(-a * tau**2 / (2.0 * z))
    )


def zero_dc_rect_output_series(n: int, T: float, a: float, v: float, z: float, t):
    """Same case as :func:`zero_dc_rect_output`, rebuilt from the moment expansion.

    Uses the analytic second moment of the zero-DC rectangular pulse,
    integral of s^2 f0(s) ds = (-1)^n T^3 / (2 n^2 pi^2), in
    (1/2) m''(t) * that moment.  Carries prefactor (-1)^n/(4 (n pi)^2),
    half the closed form above.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = np.asarray(t, dtype=np.float64)
    _, _, m2 = gaussian_impulse_derivatives(a, v, z, t)
    second_moment = (-1.0) ** n * T**3 / (2.0 * n**2 * np.pi**2)
    return 0.5 * m2 * second_moment


def thin_slab_output(ell: float, a_eff: float, v_eff: float, z: float, dc_moment: float, t):
    """Output beyond a thin absorbing slab followed by free space.

    A Gaussian of *fixed* width sqrt(ell/a_eff) (it does not grow past the
    slab) centered on the arrival time (z - ell)/c + ell/v_eff, scaled by the
    input DC moment:

        sqrt(a_eff / 2pi ell) * exp(-a_eff (t - t_d)^2 / 2 ell) * dc_moment.

    A zero DC moment gives a zero output: the form keeps only the leading,
    DC term of the moment expansion.
    """
    if z <= ell:
        raise ValueError(f"defined beyond the slab only: need z > ell, got z={z}, ell={ell}")
    if ell <= 0 or a_eff <= 0:
        raise ValueError("slab thickness and curvature scale must be positive")
    t = np.asarray(t, dtype=np.float64)
    tau = t - ((z - ell) / SPEED_OF_LIGHT + ell / v_eff)  # t - t_d
    # tau^2 overflows only where the Gaussian lies far below the least double:
    # the exponent is then -inf, and exp(-inf) = 0 exactly, which
    # experiments.run_slab reports as a closed form that misses the grid
    with np.errstate(over="ignore"):
        exponent = -a_eff * tau**2 / (2.0 * ell)
    return np.sqrt(a_eff / (2.0 * np.pi * ell)) * np.exp(exponent) * dc_moment


@dataclass(frozen=True)
class ChirpDCContent:
    """Two estimates of a chirped pulse's zero-frequency content.

    ``closed_form`` uses the reference expression (oscillatory argument
    omega0^2/alpha); ``stationary_phase`` uses the stationary-phase argument
    omega0^2/(2*alpha).  The shared envelope factor
    exp(-omega0^2 / (2 alpha^2 T^2)) is what drives the enhancement over an
    unchirped pulse; the oscillatory factor is where the two differ.  The
    batch runner reports both against the exact value, :func:`chirp_dc_exact`.
    """

    closed_form: float
    stationary_phase: float


def chirp_dc_content(T: float, omega0: float, alpha: float) -> ChirpDCContent:
    """Zero-frequency spectral content of a chirped Gaussian pulse.

    Both returned estimates share sqrt(pi/alpha) * exp(-omega0^2/2 alpha^2 T^2)
    and differ only in the argument of the cos + sin factor.  Compare with
    the unchirped value sqrt(2pi) T exp(-(omega0 T)^2 / 2): for strong chirp
    (alpha T^2 >> 1) the envelope factor is enormously larger.
    """
    if alpha <= 0:
        raise ValueError(f"chirp rate must be positive, got alpha={alpha}")
    if alpha * T * T <= 1.0:
        warnings.warn(
            "chirp DC estimates assume alpha*T^2 >> 1; value may be unreliable",
            UserWarning,
            stacklevel=2,
        )
    envelope = np.sqrt(np.pi / alpha) * np.exp(-(omega0**2) / (2.0 * alpha**2 * T**2))
    if envelope == 0.0:  # both estimates are 0; their arguments may overflow, and cos(inf) is nan
        return ChirpDCContent(closed_form=0.0, stationary_phase=0.0)
    arg_closed = omega0**2 / alpha
    arg_sp = omega0**2 / (2.0 * alpha)
    return ChirpDCContent(
        closed_form=float(envelope * (np.cos(arg_closed) + np.sin(arg_closed))),
        stationary_phase=float(envelope * (np.cos(arg_sp) + np.sin(arg_sp))),
    )


def chirp_dc_exact(T: float, omega0: float, alpha: float) -> tuple[float, float]:
    """Exact zero-frequency content of a chirped Gaussian pulse, and log10 of its magnitude.

    The integral of exp(-s^2/2T^2) cos(omega0 s + alpha s^2/2) over all s is Re e^L, with
    L = log(pi/A)/2 - omega0^2/(4A) and A = 1/(2T^2) - i alpha/2, formed from 2T^2 A = 1 - i alpha T^2
    so that it is finite wherever T^2, alpha^2 T^2 and (omega0 T)^2 are.  Returns e^(Re L) cos(Im L)
    and (Re L + log|cos Im L|)/ln 10, finite where the value underflows.
    """
    a = complex(1.0, -alpha * T * T)
    u = omega0 * T
    L = 0.5 * math.log(2.0 * math.pi) + math.log(T) - 0.5 * cmath.log(a) - 0.5 * u * u / a
    cos = math.cos(L.imag)
    return math.exp(L.real) * cos, (L.real + math.log(abs(cos))) / math.log(10.0)


def chirp_dc_quadrature(T: float, omega0: float, alpha: float) -> tuple[float, float]:
    """Zero-frequency content by direct quadrature, and ``quad``'s estimate of its absolute error.

    The estimate (near the requested 1e-12) is not a bound: the error has reached 4.2 times
    it.  The value agrees with ``chirp_dc_exact`` within 1e-10 |exact| + 10 times the estimate.
    """
    from scipy.integrate import quad  # only this oracle needs scipy

    if alpha < 0:
        raise ValueError(f"chirp rate must be >= 0, got alpha={alpha}")
    span = 12.0 * T  # the envelope is e^-72 there
    val, abserr = quad(
        lambda s: np.exp(-s * s / (2.0 * T * T)) * np.cos(omega0 * s + 0.5 * alpha * s * s),
        -span,
        span,
        limit=2000,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return float(val), float(abserr)
