"""Closed forms and metrics that tests compare the package against.

Nothing in the program runs these; each is a reference for a test, so it
lives beside the tests rather than in the package.  Tests import it as
``reference`` (the ``tests`` directory is on their path); pytest collects
nothing from it.
"""

from __future__ import annotations

import numpy as np

from precursor_lab import QuadraticMedium, SampledSignal, gaussian_impulse_derivatives, moment
from precursor_lab.stochastic import RULE_STEP, _gamma_rule


def shape_rms_diff(f: SampledSignal, g: SampledSignal) -> float:
    """Relative RMS difference of the peak-normalized signals.

    ||f/max|f| - g/max|g||_2 / ||g/max|g||_2 on a shared grid; the metric for
    "same shape up to amplitude" comparisons.
    """
    if f.grid != g.grid:
        raise ValueError("signals must share a grid")
    fp = np.abs(f.values).max()
    gp = np.abs(g.values).max()
    if fp == 0.0 or gp == 0.0:
        raise ValueError("cannot normalize an identically zero signal")
    a = f.values / fp
    b = g.values / gp
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def quadratic_approximation(medium, omega_probe: float) -> QuadraticMedium:
    """The quadratic model a homogeneous medium shows at ``omega_probe``, read numerically.

    Reads the absorption curvature and phase slope at ``omega_probe``:
    a = w^2 / (2*absorption), v = -w / phase_rate.  The exact reduction is
    ``medium.quadratic_reduction()``; for an exponential kernel this gives its
    a and v times 1 + (w/K)^2, a numerical check of that relation.
    """
    if omega_probe <= 0:
        raise ValueError("probe frequency must be positive")
    gamma = medium.propagation_constant(omega_probe)
    absorption = float(np.real(gamma))
    phase = float(np.imag(gamma))
    gamma0 = float(np.real(medium.propagation_constant(0.0)))
    if absorption - gamma0 <= 0 or phase >= 0:
        raise ValueError("medium has no quadratic absorption minimum at this probe")
    a = omega_probe**2 / (2.0 * (absorption - gamma0))
    v = -omega_probe / phase
    return QuadraticMedium(a=a, v=v, ell_inv=gamma0)


def analytic_rect_output_largez(T: float, omega0: float, a: float, v: float, z: float, t):
    """Long-range output of a rectangular pulse: Gaussian times the DC sinc factor.

    sqrt(aT^2/2pi z) * [sin(omega0 T/2)/(omega0 T/2)] * exp(-a (t-z/v)^2 / 2z),
    valid for z >> a*T^2; vanishes identically when omega0*T is a multiple
    of 2*pi.
    """
    t = np.asarray(t, dtype=np.float64)
    tau = t - z / v
    sinc = np.sinc(omega0 * T / (2.0 * np.pi))  # sin(x)/x with x = omega0*T/2
    return np.sqrt(a * T * T / (2.0 * np.pi * z)) * sinc * np.exp(-a * tau**2 / (2.0 * z))


def moment_expansion_output(f0: SampledSignal, a: float, v: float, z: float, order: int, t):
    """Narrow-input expansion of the propagated signal in impulse-response derivatives.

    Sum over k <= order of (-1)^k/k! * m^(k)(t) * (k-th moment of f0).  Valid
    when the input is much narrower than the response width sqrt(z/a); each
    successive term is smaller by roughly that width ratio squared.
    """
    if order < 0 or order > 2:
        raise ValueError(f"expansion order must be 0, 1 or 2, got {order}")
    m, m1, m2 = gaussian_impulse_derivatives(a, v, z, t)
    out = m * moment(f0, 0)
    if order >= 1:
        out = out - m1 * moment(f0, 1)
    if order >= 2:
        out = out + 0.5 * m2 * moment(f0, 2)
    return out


def gaussian_draw_std(spec, T: float, z: float, t):
    """Pointwise standard deviation over the ensemble of one draw's output.

    A draw with inverse curvature x turns the unit Gaussian pulse
    exp(-t^2 / 2T^2) into sqrt(T^2/(T^2+zx)) exp(-tau^2/(2(T^2+zx))), with
    tau = t - z/v.  Its first two moments over x ~ Gamma(m+1, rate b) come
    from the same rule as ``stochastic.draw_std``, applied to this closed
    form instead of to FFT outputs; it serves as that function's oracle.
    """
    y, weights = _gamma_rule(spec.m, RULE_STEP)
    width2 = T * T + z * y / spec.b
    tau = np.asarray(t, dtype=np.float64) - z / spec.v
    draw = np.sqrt(T * T / width2) * np.exp(-(tau[..., None] ** 2) / (2.0 * width2))
    dev = draw - (draw @ weights)[..., None]
    return np.sqrt((dev * dev) @ weights)
