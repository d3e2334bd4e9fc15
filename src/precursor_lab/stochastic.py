"""Ensemble-averaged propagation through a randomly fluctuating medium.

The absorption-curvature parameter of a quadratic medium is treated as
random: its inverse follows a gamma density with integer shape ``m + 1`` and
rate ``b`` (so the mean inverse is ``(m+1)/b``), while the velocity ``v``
stays deterministic.  Averaging the transfer function over the ensemble
replaces the Gaussian frequency kernel by an algebraic one, which passes far
more low-frequency content: the averaged impulse response has exponential
(not Gaussian) tails.

Two averaged kernels are provided and deliberately kept apart:

* the closed-form averaged kernel ``(1 + z w^2 / b)^-(m+1)`` and its exact
  impulse response (polynomial times exponential, integer coefficient table);
* the direct average of each draw's kernel ``exp(-z x w^2 / 2)`` over
  x ~ Gamma(m+1, rate b).  That average is the gamma Laplace transform,

      integral_0^inf exp(-z x w^2 / 2) b^(m+1) x^m e^(-b x) / m! dx
          = (1 + z w^2 / (2 b))^-(m+1),

  evaluated exactly by :func:`averaged_transfer_direct`.  Adaptive
  quadrature (:func:`averaged_transfer_quadrature`), the exp-sinh rule over
  the density and seeded Monte Carlo over sampled media all converge to it.
  The rule and the Monte Carlo draws share one weighted kernel sum,
  sum_i w_i exp(-x_i lambda_j), with the media x_i as rows and ascending
  lambda_j as columns, formed block by block (``_weighted_kernel``).

The two kernels differ by a factor of two inside the argument; both are
exposed so the batch runner can report the ratio.  The closed-form pair is
internally consistent (its impulse response really is the inverse transform
of its kernel) and is used as the primary model.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels, propagate
from .grid import SampledSignal, Spectrum, inverse_rows

__all__ = [
    "EnsembleSpec",
    "CoeffTable",
    "impulse_tail_coefficients",
    "stochastic_impulse",
    "averaged_transfer",
    "averaged_transfer_direct",
    "averaged_log_kernel_rule",
    "averaged_transfer_quadrature",
    "tail_decay_lengths",
    "gaussian_draw_std",
    "draw_std",
    "sample_inverse_a",
    "observed_output",
    "monte_carlo_output",
]

MAX_TABLE_ORDER = 30  # (2m-1)!! outgrows float64 usefulness quickly past this
RULE_STEP = 0.05  # spacing of the exp-sinh rule that takes moments over the ensemble


def __getattr__(name):
    """``quad``: scipy's, imported on first use and then kept as a module global.

    Only the quadrature oracle needs scipy, so importing the package does not.
    """
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad

    globals()["quad"] = quad
    return quad


@dataclass(frozen=True)
class EnsembleSpec:
    """Stochastic-medium description: gamma density (shape m+1, rate b) on 1/a.

    ``b`` sets the scale (units of depth times squared frequency), ``m`` the
    density shape, ``v`` the deterministic signal velocity.
    """

    b: float
    m: int
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and math.isfinite(self.v)):
            raise ValueError(f"ensemble parameters must be finite, got b={self.b}, v={self.v}")
        if self.b <= 0:
            raise ValueError(f"scale parameter must be positive, got b={self.b}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"shape order must be a nonnegative integer, got m={self.m}")
        if self.v <= 0:
            raise ValueError(f"velocity must be positive, got v={self.v}")


@dataclass(frozen=True)
class CoeffTable:
    """Integer coefficients of the averaged impulse response polynomial."""

    m: int
    coeffs: tuple  # exact Python ints, index l = 0 .. m

    def __post_init__(self):
        if len(self.coeffs) != self.m + 1:
            raise ValueError("coefficient table length must be m + 1")
        if self.coeffs[-1] != 1:
            raise ValueError("leading coefficient must be 1")
        if any(c <= 0 for c in self.coeffs):
            raise ValueError("coefficients must be positive integers")

    def as_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def impulse_tail_coefficients(m: int) -> CoeffTable:
    """Coefficient table for the order-m averaged impulse response.

    Built by the recurrence
        C[m][m] = 1,
        C[m][0] = (2m-1)!!,
        C[m][l] = (2m-1-l) * C[m-1][l] + C[m-1][l-1]   for 1 <= l <= m-1,
    in exact integer arithmetic.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"order must be a nonnegative integer, got {m}")
    if m > MAX_TABLE_ORDER:
        raise ValueError(f"order {m} exceeds the supported maximum {MAX_TABLE_ORDER}")
    coeffs = [1]
    for mm in range(1, m + 1):
        prev = coeffs
        coeffs = [0] * (mm + 1)
        coeffs[mm] = 1
        coeffs[0] = _double_factorial(2 * mm - 1)
        for l in range(1, mm):
            coeffs[l] = (2 * mm - 1 - l) * prev[l] + prev[l - 1]
    return CoeffTable(m=int(m), coeffs=tuple(coeffs))


def stochastic_impulse(spec: EnsembleSpec, z: float, t):
    """Ensemble-averaged impulse response in closed form.

    (1/2^{m+1} m!) sqrt(b/z) * P(sqrt(b/z) |t - z/v|) * exp(-sqrt(b/z) |t - z/v|)

    with P the integer-coefficient polynomial from
    :func:`impulse_tail_coefficients`.  Symmetric about the arrival time
    z/v, unit area, peak scaling exactly as z^{-1/2}.  The kink at the
    center is real (only the derivative is discontinuous); the formula is
    evaluated directly there.
    """
    if z <= 0:
        raise ValueError(f"depth must be positive, got z={z}")
    t = np.asarray(t, dtype=np.float64)
    c = np.sqrt(spec.b / z)
    x = c * np.abs(t - z / spec.v)
    poly = np.zeros_like(x)
    for coeff in reversed(impulse_tail_coefficients(spec.m).as_floats()):
        poly = poly * x + coeff
    return (c / (2.0 ** (spec.m + 1) * math.factorial(spec.m))) * poly * np.exp(-x)


def _algebraic_transfer(spec: EnsembleSpec, z: float, omega, scale: float):
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    omega = np.asarray(omega, dtype=np.float64)
    kernel = (1.0 + z * omega**2 / (scale * spec.b)) ** (-(spec.m + 1))
    return kernel * np.exp(1j * omega * z / spec.v)


def averaged_transfer(spec: EnsembleSpec, z: float, omega):
    """Closed-form ensemble-averaged transfer function.

    (1 + z w^2 / b)^-(m+1) times the deterministic delay phase e^{i w z / v}.
    Unity at w = 0 for every depth: the ensemble always passes DC.  Compare
    :func:`averaged_transfer_direct`, the direct average over the gamma
    density, which carries the same algebraic shape but half the argument.
    """
    return _algebraic_transfer(spec, z, omega, 1.0)


def averaged_transfer_direct(spec: EnsembleSpec, z: float, omega):
    """Direct ensemble average of exp(-z x w^2 / 2), in closed form.

    The gamma Laplace transform (1 + z w^2 / (2 b))^-(m+1) times the delay
    phase e^{i w z / v}: the limit of the Monte Carlo mean, and the value
    :func:`averaged_transfer_quadrature` and the rule of :func:`draw_std`
    compute numerically.
    """
    return _algebraic_transfer(spec, z, omega, 2.0)


def averaged_log_kernel_rule(spec: EnsembleSpec, z: float, omega):
    """Log of the directly averaged kernel on the rule of :func:`draw_std`, log1p(weights @ expm1(-lambda y)).

    With lambda = z w^2 / 2b and y = b x the rule's nodes
    (``_gamma_rule(m, RULE_STEP)``): numerical, independent of the closed
    forms, and without scipy.  Accurate to rounding near w = 0, where the
    kernel is close to 1 and the log of the rounded kernel would be off by
    that rounding over the kernel's distance from 1.  Scalar or array omega,
    in any order: the sum runs over lambda sorted, so a value's bytes do not
    depend on where its omega stands.
    """
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    y, weights = _gamma_rule(spec.m, RULE_STEP)
    lam = np.ravel(z * np.square(omega) / (2.0 * spec.b))
    order = np.argsort(lam, kind="stable")
    kernel = np.empty_like(lam)
    kernel[order] = _weighted_kernel(y, lam[order], weights, np.expm1)
    return np.log1p(kernel.reshape(np.shape(omega)))


def averaged_transfer_quadrature(spec: EnsembleSpec, z: float, omega):
    """Direct quadrature of the ensemble average of exp(-z x w^2 / 2).

    Integrates over y = b x, whose density y^m e^{-y} / m! is taken in log
    form so that it stays finite for any scale b, one adaptive ``quad`` per
    distinct |omega|, to 1e-12 relative; independent of both closed forms
    above, so it serves as their oracle.  Scalar or array omega.  scipy is
    imported on the first call, and ``quad`` is looked up as this module's
    attribute at every call.
    """
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    scalar = np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    b, m = spec.b, spec.m
    log_factorial = math.lgamma(m + 1)
    # kernel is even in omega: integrate unique |omega| values only
    mags, inverse = np.unique(np.abs(omega), return_inverse=True)
    vals = np.empty_like(mags)
    quad = sys.modules[__name__].quad
    for i, wm in enumerate(mags):
        vals[i] = quad(
            lambda y: np.exp(m * np.log(y) - y - log_factorial - z * (y / b) * wm * wm / 2.0),
            0.0,
            np.inf,
            epsabs=0.0,
            epsrel=1e-12,
        )[0]
    kernel = vals[inverse]
    out = kernel * np.exp(1j * omega * z / spec.v)
    return out[0] if scalar else out


def tail_decay_lengths(m: int, eps: float) -> float:
    """Decay lengths x past the arrival at which x^m e^{-x} falls to ``eps``.

    The larger root of x = ln(1/eps) + m ln x, found by fixed-point
    iteration from above m (the map is increasing and concave, so the
    iteration contracts onto that root).  It bounds the exponential tail of
    the averaged impulse response, whose decay length is sqrt(z/b).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got eps={eps}")
    log_inv = -math.log(eps)
    x = max(log_inv, float(m), 1.0)
    for _ in range(200):
        x_next = log_inv + m * math.log(x)
        if abs(x_next - x) <= 1e-12 * x_next:
            return x_next
        x = x_next
    return x


def sample_inverse_a(spec: EnsembleSpec, count: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. draws of the inverse curvature parameter.

    Counter-based: draw ``i`` depends only on ``(seed, i)``, so any slice of
    the sequence can be regenerated independently and results never depend
    on execution order.
    """
    if count < 1:
        raise ValueError(f"need at least one draw, got count={count}")
    return _kernels.gamma_draws(int(seed), int(count), spec.m + 1, spec.b)


def observed_output(spectrum: Spectrum, spec: EnsembleSpec, z: float) -> SampledSignal:
    """Propagate the input half spectrum through the closed-form averaged kernel."""
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    return propagate.apply_transfer(spectrum, averaged_transfer(spec, z, spectrum.grid.omegas()))


def _delayed(spectrum: Spectrum, spec: EnsembleSpec, z: float) -> Spectrum:
    """``spectrum`` times the delay phase e^{i w z / v}, common to every draw.

    Folded into the spectrum, the delay leaves each draw's kernel a real row
    for ``inverse_rows``.
    """
    return Spectrum(spectrum.grid, spectrum.values * np.exp(1j * spectrum.grid.omegas() * z / spec.v))


_BLOCK_BYTES = 1 << 20  # size of the one buffer in which every ensemble kernel is formed
# a kernel term exp(-s) with s > 700 is below e^-700 = 9.9e-305, 2^-1010 of the
# kernel's peak of 1, and is taken as 0; numpy's exp leaves its vector path
# only past s = 707.7, where results fall below 2^-1021, and is slowest on subnormals
_EXP_LIMIT = 700.0


def _exp_columns(x, lam) -> int:
    """How many leading columns of ascending ``lam`` have min(x) lam, as rounded, at most ``_EXP_LIMIT``."""
    return int(np.searchsorted(np.min(x) * lam, _EXP_LIMIT, side="right"))


def _kernel_blocks(x, lam, fn=np.exp):
    """Yield ``(r, fn(-x[r] lam[:c]))`` over slices r of whole rows, in row order.

    Blocks share one buffer of ``_BLOCK_BYTES`` (or of one row, if larger), as
    many rows as fit, so use each before asking for the next.  ``lam`` is
    ascending and x >= 0.  With ``fn = np.exp`` a term is kept where its own
    rounded product x lam is at most ``_EXP_LIMIT``, and is exactly 0
    elsewhere, so no term's fate depends on how the rows are split.  A block
    holds only the leading ``c`` columns, contiguous, where the row of least
    x keeps a term; the columns before ``a``, where the row of largest x
    still does, go through plain ``exp``, and the staircase between a and c
    evaluates only its kept terms.  c is 0 for a block wholly past the cut,
    which needs lam[0] > 0; the callers with ``fn = np.exp`` pass the bins,
    whose lam starts at 0, so there c >= 1.
    """
    cols = lam.size
    rows = max(1, _BLOCK_BYTES // (8 * cols))
    buf = np.empty(min(rows, x.size) * cols)
    for i0 in range(0, x.size, rows):
        r = slice(i0, min(i0 + rows, x.size))
        a = c = cols
        if fn is np.exp:
            a, c = _exp_columns(x[r].max(), lam), _exp_columns(x[r], lam)
        block = buf[: (r.stop - i0) * c].reshape(r.stop - i0, c)
        # the bytes of np.multiply.outer(-x[r], lam[:c]), signed zeros included, at vector speed
        np.copyto(block, lam[:c])
        block *= -x[r, None]
        fn(block[:, :a], out=block[:, :a])
        if a < c:
            stair = block[:, a:]
            np.exp(stair, out=stair, where=stair >= -_EXP_LIMIT)
            np.maximum(stair, 0.0, out=stair)
        yield r, block


def _weighted_kernel(x, lam, weights, fn=np.exp) -> np.ndarray:
    """sum_i weights[i] fn(-x[i] lam) per ascending lam, the media x as rows, block by block in row order."""
    kernel = np.zeros_like(lam)
    for r, block in _kernel_blocks(x, lam, fn):
        kernel[: block.shape[1]] += weights[r] @ block
    return kernel


def _mean_output(delayed: Spectrum, z: float, x, weights) -> np.ndarray:
    """Weighted mean over media x (ascending) of their outputs irfft(delayed exp(-x z w^2 / 2)).

    The outputs are linear in the kernel, so this is one inverse transform of
    the weighted kernel sum.
    """
    return inverse_rows(delayed, _weighted_kernel(x, 0.5 * z * delayed.grid.omegas() ** 2, weights))


def _spread(delayed: Spectrum, z: float, x, weights, mean) -> np.ndarray:
    """Weighted variance about ``mean`` of the outputs of :func:`_mean_output`, one transform per medium."""
    var = np.zeros_like(mean)
    for r, block in _kernel_blocks(x, 0.5 * z * delayed.grid.omegas() ** 2):
        var += weights[r] @ np.square(inverse_rows(delayed, block) - mean)
    return var


def monte_carlo_output(
    spectrum: Spectrum, spec: EnsembleSpec, z: float, draws: np.ndarray, return_stderr: bool = False
):
    """Ensemble average by brute force: mean over sampled media of the FFT output.

    ``spectrum`` is the input's half spectrum and ``draws`` the inverse
    curvatures x_i of the sampled media, ``sample_inverse_a(spec, count,
    seed)``.  Each draw propagates the input through a quadratic medium with
    inverse curvature x_i and velocity v; the returned signal is the sample
    mean.  The mean is linear in the spectrum, so it is one inverse transform
    of the delayed spectrum times the mean over draws of exp(-x_i z w^2 / 2),
    summed over the draws in ascending order, so the result depends neither
    on the order the draws come in nor on the degree of parallelism; sorted,
    each block forms fewer of the terms below e^-700, which are taken as 0
    (see ``_kernel_blocks``).  With ``return_stderr`` the pointwise sample
    standard error of the mean is returned alongside, from the centred spread
    of each draw's inverse transform, at a cost.
    """
    if draws.size < 100:
        raise ValueError(f"need at least 100 samples, got {draws.size}")
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    draws = np.sort(draws)
    weights = np.full(draws.size, 1.0 / draws.size)
    delayed = _delayed(spectrum, spec, z)
    mean = _mean_output(delayed, z, draws, weights)
    if not return_stderr:
        return SampledSignal(spectrum.grid, mean)
    var = _spread(delayed, z, draws, weights, mean)
    return SampledSignal(spectrum.grid, mean), np.sqrt(var / (draws.size - 1))


@functools.lru_cache(maxsize=None)
def _gamma_rule(m: int, step: float):
    """Nodes y and weights of expectations over y ~ Gamma(m+1, rate 1).

    An exp-sinh rule: the trapezoid rule with spacing ``step`` in t on
    [-5, 5], where y = (m+1) exp(pi/2 sinh t), weighted by the density
    y^m e^{-y} and by dy/dt.  Nodes below 1e-18 of the total weight are
    dropped and the rest normalised to sum to 1.  The nodes crowd towards
    y = 0 double-exponentially, so the rule integrates e^{-lambda y} to
    (1 + lambda)^-(m+1) within 2e-12 for 0 <= lambda <= 1e10, and within
    1e-13 relative for lambda <= 0.5 and m <= 30; a draw's output is a sum
    of such exponentials, with lambda up to z w^2 / 2b at the Nyquist
    frequency.  (A 120-node Gauss-Laguerre rule misses that identity by
    2.5e-3 at m = 0: its first node sits at y = 0.012.)
    Computed on first use per (m, step); the arrays are shared, read-only.
    """
    t = step * np.arange(-round(5.0 / step), round(5.0 / step) + 1)
    y = (m + 1) * np.exp(0.5 * np.pi * np.sinh(t))
    log_w = np.log(step * 0.5 * np.pi * np.cosh(t)) + (m + 1) * np.log(y) - y
    weights = np.exp(log_w - log_w.max())
    keep = weights >= 1e-18 * weights.sum()
    y, weights = y[keep], weights[keep] / weights[keep].sum()
    y.flags.writeable = False
    weights.flags.writeable = False
    return y, weights


def draw_std(spectrum: Spectrum, spec: EnsembleSpec, z: float) -> np.ndarray:
    """Pointwise standard deviation over the ensemble of one draw's output.

    A draw with inverse curvature x turns the input with half spectrum
    ``spectrum`` into the inverse transform of its delayed spectrum times
    exp(-z x w^2 / 2).  The first two moments of that output over
    x ~ Gamma(m+1, rate b) come from the exp-sinh rule in y = b x with
    spacing RULE_STEP (see ``_gamma_rule``), for any pulse: the mean is one
    inverse transform of the rule's kernel average, the centred second
    moment one per node.  Dividing by sqrt(draws) gives the exact standard
    error of a Monte Carlo mean, which the sample standard error
    underestimates in the tails, where the mean rests on a few rare wide
    draws.
    """
    if z < 0:
        raise ValueError(f"depth must be >= 0, got z={z}")
    y, weights = _gamma_rule(spec.m, RULE_STEP)
    x, delayed = y / spec.b, _delayed(spectrum, spec, z)
    return np.sqrt(_spread(delayed, z, x, weights, _mean_output(delayed, z, x, weights)))


def gaussian_draw_std(spec: EnsembleSpec, T: float, z: float, t):
    """Pointwise standard deviation over the ensemble of one draw's output.

    A draw with inverse curvature x turns the unit Gaussian pulse
    exp(-t^2 / 2T^2) into sqrt(T^2/(T^2+zx)) exp(-tau^2/(2(T^2+zx))), with
    tau = t - z/v.  Its first two moments over x ~ Gamma(m+1, rate b) come
    from the same rule as :func:`draw_std`, applied to this closed form
    instead of to FFT outputs; it serves as that function's oracle.
    """
    y, weights = _gamma_rule(spec.m, RULE_STEP)
    width2 = T * T + z * y / spec.b
    tau = np.asarray(t, dtype=np.float64) - z / spec.v
    draw = np.sqrt(T * T / width2) * np.exp(-(tau[..., None] ** 2) / (2.0 * width2))
    dev = draw - (draw @ weights)[..., None]
    return np.sqrt((dev * dev) @ weights)
