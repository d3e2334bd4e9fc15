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
    "free_space",
    "transfer_function",
    "transfer_between",
    "effective_params",
]

SPEED_OF_LIGHT = 2.99792458e8  # m/s; all units SI

# exp of a complex exponent whose real part is below this is 0: e^x rounds to 0
# for x below ln(2^-1075) = -745.13
_EXP_FLOOR = -746.0


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

    def quadratic_reduction(self) -> QuadraticMedium:  # the exact low-frequency reduction: itself
        return self


@dataclass(frozen=True)
class ExpKernelMedium:
    """Strictly causal medium built from an exponential relaxation kernel.

    The propagation constant is the exact rational form

        absorption(w) = Kp * w^2 / (K * (K^2 + w^2)),
        phase_rate(w) = -Kp * w / (K^2 + w^2),

    analytic in the upper half plane, hence a causal impulse response.  For
    |w| << K it reduces to the QuadraticMedium of :meth:`quadratic_reduction`.

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

    def quadratic_reduction(self) -> QuadraticMedium:
        """The exact |w| << K limit a = K^3/(2*Kp), v = K^2/Kp, in an order where K^3 cannot overflow."""
        v = self.K * (self.K / self.Kp)
        return QuadraticMedium(a=self.K * v / 2.0, v=v)


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
            if not 0 < thickness < math.inf:  # a nan thickness fails too
                raise ValueError(f"layer thickness must be positive and finite, got {thickness}")
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

    def segments(self, z_from: float, z_to: float) -> list:
        """The ``(length, medium)`` pieces of the depths [z_from, z_to], in order.

        A partial layer gives its share; the depths past the stack are one
        piece of free space, and a ValueError without a free-space tail.
        """
        pieces, lo = [], 0.0
        for thickness, medium in self.layers:
            hi = lo + thickness
            seg = min(hi, z_to) - max(lo, z_from)
            if seg > 0:
                pieces.append((seg, medium))
            lo = hi
        seg = z_to - max(lo, z_from)
        if seg > 0:
            if not self.free_space_tail:
                raise ValueError(f"depth {z_to:g} lies past the stack thickness {lo:g}, and tail = none")
            pieces.append((seg, free_space()))
        return pieces


def transfer_function(medium, z: float, omega):
    """Transfer function exp(-z * gamma(w)) after depth ``z >= 0``.

    For a :class:`LayerStack` the exponent is the exact piecewise-constant
    depth integral, partial layers included pro rata.
    """
    return transfer_between(medium, 0.0, z, omega)


def transfer_between(medium, z_from: float, z_to: float, omega):
    """Transfer across the depth segment [z_from, z_to].

    Composing consecutive segments reproduces the full-path transfer exactly:
    transfer_between(0, z1) * transfer_between(z1, z2) == transfer_function(z2).
    Where the exponent's real part is below -746, exp rounds to 0, and those
    bins are an exact +0 without evaluating it.
    """
    if not 0.0 <= z_from <= z_to:  # a nan depth fails too
        raise ValueError(f"need 0 <= z_from <= z_to, got [{z_from}, {z_to}]")
    omega = np.asarray(omega, dtype=np.float64)
    if isinstance(medium, LayerStack):
        pieces = medium.segments(float(z_from), float(z_to))
        exponent = -sum((seg * m.propagation_constant(omega) for seg, m in pieces), np.zeros(omega.shape, complex))
    else:
        exponent = -(float(z_to) - float(z_from)) * medium.propagation_constant(omega)
    # exp is evaluated only where it does not round to 0; a nan exponent stays nan
    out = np.exp(exponent, out=np.zeros_like(exponent), where=~(exponent.real < _EXP_FLOOR))
    # a scalar for a scalar omega, as np.exp gives; an array stays a fresh
    # owner of its data, which numpy may reuse in the product that follows
    return out if out.ndim else out[()]


def effective_params(stack: LayerStack, ell: float) -> tuple[float, float]:
    """Depth-harmonic-mean reduction of a stack lossless at DC down to ``ell``.

    Returns (a_eff, v_eff) with 1/a_eff and 1/v_eff the thickness-weighted
    means of the inverses of each layer's ``quadratic_reduction()`` over the
    depths [0, ell], a partial layer pro rata.  ``ell`` may not exceed the
    total stack thickness.  A layer whose reduction has DC absorption has no
    such mean and is rejected, as is a reduction or a mean out of range (a
    subnormal a or v can make a layer's inverse overflow, leaving a mean of 0,
    and a subnormal thickness can make it underflow, leaving a mean of inf).
    """
    total = stack.total_thickness
    if ell <= 0 or (ell > total and not math.isclose(ell, total, rel_tol=1e-12, abs_tol=0.0)):
        raise ValueError(f"ell={ell} does not lie within the stack thickness {total}")
    if any(medium.quadratic_reduction().ell_inv != 0.0 for _, medium in stack.layers):
        raise ValueError("layers with DC absorption have no quadratic reduction")
    inv_a = inv_v = 0.0
    for seg, medium in stack.segments(0.0, min(ell, total)):
        reduced = medium.quadratic_reduction()
        inv_a += seg / reduced.a
        inv_v += seg / reduced.v
    reduced = QuadraticMedium(a=ell / inv_a if inv_a > 0 else math.inf, v=ell / inv_v if inv_v > 0 else math.inf)
    return reduced.a, reduced.v
