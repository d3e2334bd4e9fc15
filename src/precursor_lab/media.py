"""Passive-medium models and their transfer functions.

A medium is described by a complex propagation constant per unit depth,
``gamma(w) = absorption(w) + i * phase_rate(w)``, with transfer function
``exp(-z * gamma(w))`` after depth ``z``.  Passivity requires the absorption
(real) part to be nonnegative, so ``|transfer| <= 1`` everywhere.  Reality of
time-domain signals forces ``gamma(-w) = conj(gamma(w))``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "QuadraticMedium",
    "ExpKernelMedium",
    "LayerStack",
    "LorentzParams",
    "free_space",
    "propagation_constant",
    "transfer_function",
    "transfer_between",
    "quadratic_approximation",
    "effective_params",
    "lorentz_steady_state",
    "coupled_steady_state",
]

SPEED_OF_LIGHT = 2.99792458e8  # m/s; all units SI


@dataclass(frozen=True)
class QuadraticMedium:
    """Low-frequency medium: absorption ell_inv + w^2/(2a), phase rate -w/v.

    ``ell_inv`` is the residual absorption at zero frequency (1/m), ``a`` the
    curvature scale of the absorption minimum (m/s^2) and ``v`` the signal
    velocity (m/s).  ``a = math.inf`` gives a pure delay line.
    """

    a: float
    v: float
    ell_inv: float = 0.0

    def __post_init__(self):
        if math.isnan(self.a) or not (math.isfinite(self.v) and math.isfinite(self.ell_inv)):
            raise ValueError(
                f"medium parameters must be finite (a may be inf), got a={self.a}, "
                f"v={self.v}, ell_inv={self.ell_inv}"
            )
        if self.a <= 0:
            raise ValueError(f"curvature scale must be positive, got a={self.a}")
        if self.v <= 0:
            raise ValueError(f"velocity must be positive, got v={self.v}")
        if self.ell_inv < 0:
            raise ValueError(f"DC absorption must be >= 0, got ell_inv={self.ell_inv}")

    def propagation_constant(self, omega):
        omega = np.asarray(omega, dtype=np.float64)
        absorption = self.ell_inv + 0.5 * omega**2 / self.a
        return absorption - 1j * omega / self.v


@dataclass(frozen=True)
class ExpKernelMedium:
    """Strictly causal medium built from an exponential relaxation kernel.

    The propagation constant is the exact rational form

        absorption(w) = Kp * w^2 / (K * (K^2 + w^2)),
        phase_rate(w) = -Kp * w / (K^2 + w^2),

    analytic in the upper half plane, hence a causal impulse response.  For
    |w| << K it reduces to a QuadraticMedium with a = K^3/(2*Kp) and
    v = K^2/Kp (so a = K*v/2).

    It is evaluated as (Kp/K) w/(w + iK), which has no square to over- or
    underflow and is finite for every (K, Kp) the constructor accepts.
    """

    K: float
    Kp: float

    def __post_init__(self):
        normal_K = sys.float_info.min <= self.K < math.inf
        if not (normal_K and self.Kp > 0 and math.isfinite(self.Kp / self.K)):
            raise ValueError(
                f"kernel parameters need K >= {sys.float_info.min:g}, Kp > 0 and a finite "
                f"Kp/K, got K={self.K}, Kp={self.Kp}"
            )

    def propagation_constant(self, omega):
        omega = np.asarray(omega, dtype=np.float64)
        return self.Kp / self.K * (omega / (omega + 1j * self.K))


def free_space(v: float = SPEED_OF_LIGHT) -> QuadraticMedium:
    """Lossless pure-delay medium: zero absorption, velocity ``v``."""
    return QuadraticMedium(a=math.inf, v=v)


@dataclass(frozen=True)
class LayerStack:
    """Ordered stack of (thickness, medium) layers, optionally ending in free space.

    With ``free_space_tail`` set (the default), depths beyond the total stack
    thickness propagate at the speed of light with no absorption.
    """

    layers: tuple
    free_space_tail: bool = True

    def __init__(self, layers, free_space_tail: bool = True):
        norm = []
        for thickness, medium in layers:
            if thickness <= 0:
                raise ValueError(f"layer thickness must be positive, got {thickness}")
            if isinstance(medium, LayerStack):
                raise ValueError("layer stacks cannot be nested")
            norm.append((float(thickness), medium))
        if not norm:
            raise ValueError("a layer stack needs at least one layer")
        object.__setattr__(self, "layers", tuple(norm))
        object.__setattr__(self, "free_space_tail", bool(free_space_tail))

    @property
    def total_thickness(self) -> float:
        return sum(l for l, _ in self.layers)

    def _depth_exponent(self, z_from: float, z_to: float, omega) -> np.ndarray:
        """Integral of the propagation constant over depths [z_from, z_to].

        Piecewise-constant in depth; a partial layer contributes pro rata.
        """
        omega = np.asarray(omega, dtype=np.float64)
        acc = np.zeros(omega.shape, dtype=np.complex128)
        lo = 0.0
        for thickness, medium in self.layers:
            hi = lo + thickness
            seg = min(hi, z_to) - max(lo, z_from)
            if seg > 0:
                acc = acc + seg * medium.propagation_constant(omega)
            lo = hi
        if z_to > lo:
            seg = z_to - max(lo, z_from)
            if seg > 0:
                if not self.free_space_tail:
                    raise ValueError(
                        f"depth {z_to} exceeds stack thickness {lo} and no free-space tail is defined"
                    )
                acc = acc + seg * free_space().propagation_constant(omega)
        return acc


def propagation_constant(medium, omega):
    """Complex propagation constant per unit depth of a homogeneous medium.

    Layered media have no single per-depth constant; use
    :func:`transfer_function`, which integrates over depth.
    """
    if isinstance(medium, LayerStack):
        raise ValueError("layered media have no pointwise propagation constant; use transfer_function")
    return medium.propagation_constant(omega)


def transfer_function(medium, z: float, omega):
    """Transfer function exp(-z * gamma(w)) after depth ``z >= 0``.

    For a :class:`LayerStack` the exponent is the exact piecewise-constant
    depth integral, partial layers included pro rata.
    """
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    omega = np.asarray(omega, dtype=np.float64)
    if isinstance(medium, LayerStack):
        return np.exp(-medium._depth_exponent(0.0, float(z), omega))
    return np.exp(-float(z) * medium.propagation_constant(omega))


def transfer_between(medium, z_from: float, z_to: float, omega):
    """Transfer across the depth segment [z_from, z_to].

    Composing consecutive segments reproduces the full-path transfer exactly:
    transfer_between(0, z1) * transfer_between(z1, z2) == transfer_function(z2).
    """
    if z_from < 0 or z_to < z_from:
        raise ValueError(f"need 0 <= z_from <= z_to, got [{z_from}, {z_to}]")
    omega = np.asarray(omega, dtype=np.float64)
    if isinstance(medium, LayerStack):
        return np.exp(-medium._depth_exponent(float(z_from), float(z_to), omega))
    return np.exp(-(float(z_to) - float(z_from)) * medium.propagation_constant(omega))


def quadratic_approximation(medium, omega_probe: float) -> QuadraticMedium:
    """Extract the small-frequency quadratic model from any homogeneous medium.

    Reads the absorption curvature and phase slope at ``omega_probe``:
    a = w^2 / (2*absorption), v = -w / phase_rate.  Probe well inside the
    low-frequency regime (e.g. K/100 for an exponential-kernel medium).
    """
    if omega_probe <= 0:
        raise ValueError("probe frequency must be positive")
    gamma = propagation_constant(medium, omega_probe)
    absorption = float(np.real(gamma))
    phase = float(np.imag(gamma))
    gamma0 = float(np.real(propagation_constant(medium, 0.0)))
    if absorption - gamma0 <= 0 or phase >= 0:
        raise ValueError("medium has no quadratic absorption minimum at this probe")
    a = omega_probe**2 / (2.0 * (absorption - gamma0))
    v = -omega_probe / phase
    return QuadraticMedium(a=a, v=v, ell_inv=gamma0)


def effective_params(stack: LayerStack, ell: float) -> tuple[float, float]:
    """Depth-harmonic-mean reduction of a lossless-at-DC quadratic stack down to ``ell``.

    Returns (a_eff, v_eff) with 1/a_eff and 1/v_eff the thickness-weighted
    means of the per-layer inverses over the depths [0, ell], a partial layer
    pro rata.  ``ell`` may not exceed the total stack thickness.  Layers with
    DC absorption have no such reduction and are rejected.
    """
    total = stack.total_thickness
    if ell <= 0 or (ell > total and not math.isclose(ell, total, rel_tol=1e-12, abs_tol=0.0)):
        raise ValueError(f"ell={ell} does not lie within the stack thickness {total}")
    inv_a = inv_v = top = 0.0
    for thickness, medium in stack.layers:
        if not isinstance(medium, QuadraticMedium):
            raise ValueError("effective parameters are defined for quadratic layers only")
        if medium.ell_inv != 0.0:
            raise ValueError("layers with DC absorption have no quadratic reduction")
        seg = thickness if top + thickness <= ell else max(ell - top, 0.0)
        inv_a += seg / medium.a
        inv_v += seg / medium.v
        top += thickness
    a_eff = ell / inv_a if inv_a > 0 else math.inf
    v_eff = ell / inv_v
    return a_eff, v_eff


@dataclass(frozen=True)
class LorentzParams:
    """Damped driven oscillator: inertial, damping and restoring coefficients."""

    m_inertial: float
    b_damp: float
    k_spring: float

    def __post_init__(self):
        if self.m_inertial <= 0:
            raise ValueError("inertial coefficient must be positive")
        if self.b_damp < 0:
            raise ValueError("damping coefficient must be >= 0")
        if self.k_spring <= 0:
            raise ValueError("restoring coefficient must be positive")


def lorentz_steady_state(p: LorentzParams, U: float, omega: float) -> tuple[float, float]:
    """Steady-state response amplitudes (V, W) to a drive U*cos(omega*t).

    The response is V*cos(omega*t) + W*sin(omega*t).  At omega = 0 this is
    (U/k, 0) for any damping, which is why such media pass zero frequency
    without loss.  The exactly undamped resonance is rejected as singular.
    """
    detune = p.k_spring - p.m_inertial * omega**2
    damp = p.b_damp * omega
    den = detune**2 + damp**2
    if den == 0.0:
        raise ValueError("undamped resonance: steady state is singular")
    return detune * U / den, damp * U / den


def coupled_steady_state(masses, dampings, stiffness, U: float, omega: float) -> np.ndarray:
    """Phasor amplitudes of coupled damped oscillators under a common drive.

    Solves (-omega^2 * diag(masses) + i*omega*diag(dampings) + stiffness) q = U * ones.
    The drive is U*cos(omega*t); entry i of the result is the complex phasor
    q_i with physical response Re(q_i)*cos(omega*t) - Im(q_i)*sin(omega*t).
    At omega = 0 the damping term drops out exactly, so the solution is
    independent of the dissipation coefficients.
    """
    masses = np.asarray(masses, dtype=np.float64)
    dampings = np.asarray(dampings, dtype=np.float64)
    stiffness = np.asarray(stiffness, dtype=np.float64)
    J = masses.size
    if J > 32:
        raise ValueError(f"oscillator count {J} exceeds the supported maximum of 32")
    if dampings.size != J or stiffness.shape != (J, J):
        raise ValueError("masses, dampings and stiffness dimensions do not agree")
    system = (
        -(omega**2) * np.diag(masses)
        + 1j * omega * np.diag(dampings)
        + stiffness.astype(np.complex128)
    )
    if np.linalg.cond(system) > 1e12:
        raise np.linalg.LinAlgError("oscillator system matrix is numerically singular")
    return np.linalg.solve(system, U * np.ones(J, dtype=np.complex128))
