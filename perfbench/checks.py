"""Output checkers for the benchmark workloads, computed apart from the program.

Every checker reads the files one ``precursor_lab.cli.main`` call wrote and
compares them with values this module computes itself, at the ``t`` column
of each file, so an output on any grid passes as long as it is right.
Nothing here imports ``precursor_lab``.

* ``sweep-z``: the exact output of a Gaussian pulse through a quadratic
  medium, plus the fitted decay slope from ``summary.txt``.
* ``stochastic``: a composite Gauss-Legendre quadrature of the cosine
  transform of pulse spectrum times ensemble kernel, for the closed-form
  kernel (``signal_<z>.csv``) and for the gamma Laplace kernel that the
  Monte Carlo mean converges to (``mc_signal_<z>.csv``).  The Monte Carlo
  tolerance is a multiple of the standard error, with the ensemble's
  standard deviation from a Gauss-Laguerre quadrature over the gamma law.

A failed check raises :class:`CheckError` naming the file and the worst
deviation.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

# Deterministic outputs must match their reference to this share of the
# reference peak.  Every corruption the self-test applies moves an output by
# more than 1e-3 of its peak; grid choices move it by far less than 1e-6.
EXACT_REL_TOL = 1e-6
# The Monte Carlo mean may deviate from its limit by this many standard
# errors, sigma_max / sqrt(draws), where sigma_max is the largest pointwise
# standard deviation of one draw's output over the ensemble.
MC_SIGMAS = 6.0
# The decay slope of a Gaussian's peak amplitude tends to -1/2 at large depth.
SLOPE_TOL = 0.01


class CheckError(Exception):
    """An output differs from its independent reference."""


def read_params(config_path: Path) -> dict:
    """Workload parameters from a config file, read without the program's parser."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    parser.read_string("[root]\n" + Path(config_path).read_text())
    return {section: dict(parser[section]) for section in parser.sections()}


def _depths(params: dict) -> list[float]:
    return [float(z) for z in params["root"]["z-list"].replace(",", " ").split()]


def _load_signal(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise CheckError(f"{path.name}: expected two columns t,f")
    return data[:, 0], data[:, 1]


def _compare(name: str, f: np.ndarray, ref: np.ndarray, tol: float) -> None:
    peak = float(np.abs(ref).max())
    err = float(np.abs(f - ref).max())
    if not np.isfinite(err) or err > tol * peak:
        raise CheckError(f"{name}: max deviation {err:.3e} exceeds {tol:.1e} of peak {peak:.3e}")


def _summary(out_dir: Path) -> dict[str, str]:
    path = out_dir / "summary.txt"
    if not path.is_file():
        raise CheckError("summary.txt: missing")
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# sweep-z
# ---------------------------------------------------------------------------

def gaussian_quadratic_output(T, omega0, a, v, z, t):
    """Exact output of exp(-t^2/2T^2) cos(omega0 t) after depth z of a quadratic medium."""
    tau = np.asarray(t, dtype=np.float64) - z / v
    aT2 = a * T * T
    return (
        np.sqrt(aT2 / (aT2 + z))
        * np.exp(-(a * tau * tau + omega0 * omega0 * T * T * z) / (2.0 * (z + aT2)))
        * np.cos(omega0 * tau * aT2 / (aT2 + z))
    )


def check_sweep_z(out_dir: Path, params: dict) -> None:
    pulse, medium = params["pulse"], params["medium"]
    T, omega0 = float(pulse["T"]), float(pulse["omega0"])
    a, v = float(medium["a"]), float(medium["v"])
    for z in _depths(params):
        name = f"signal_{z:g}.csv"
        t, f = _load_signal(out_dir / name)
        _compare(name, f, gaussian_quadratic_output(T, omega0, a, v, z, t), EXACT_REL_TOL)
    if not (out_dir / "sweep.csv").is_file():
        raise CheckError("sweep.csv: missing")
    slope = float(_summary(out_dir).get("decay_slope", "nan"))
    if not abs(slope + 0.5) <= SLOPE_TOL:
        raise CheckError(f"summary.txt: decay_slope {slope} is not within {SLOPE_TOL} of -1/2")


# ---------------------------------------------------------------------------
# stochastic
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def ensemble_output(T: float, s2: float, order: int, tau: np.ndarray, floor: float) -> np.ndarray:
    """(1/pi) int_0^inf cos(w tau) sqrt(2 pi) T e^{-w^2 T^2/2} (1 + s2 w^2)^-order dw.

    The integrand continues analytically into |Im w| < 1/s, so shifting the
    contour by c = 1/(2s) bounds the result by
    B(tau) = exp(-|tau|/(2s) + T^2/(8 s^2)) * (4/3)^order.
    Where B(tau) <= ``floor`` the value is returned as 0, within ``floor``.
    Elsewhere a composite 20-point Gauss-Legendre rule on [0, 12/T] with
    panels narrow enough that w*tau turns by at most 2 radians per panel
    evaluates the integral; the Gaussian factor makes the rest below e^-72.
    """
    s = math.sqrt(s2)
    log_bound = -np.abs(tau) / (2.0 * s) + T * T / (8.0 * s2) + order * math.log(4.0 / 3.0)
    near = log_bound > math.log(floor)
    out = np.zeros_like(tau)
    if not near.any():
        return out
    tau_near = tau[near]
    w_max = 12.0 / T
    panels = max(1, math.ceil(w_max * float(np.abs(tau_near).max()) / 2.0))
    edges = np.linspace(0.0, w_max, panels + 1)
    half = 0.5 * np.diff(edges)
    w = (edges[:-1, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    g = weights * math.sqrt(2.0 * math.pi) * T * np.exp(-0.5 * (w * T) ** 2) * (1.0 + s2 * w * w) ** (-order)
    vals = np.empty_like(tau_near)
    # 32 rows at a time keep the checker's memory to a few MB, far below the
    # program's, so that peak_rss_mb measures the program
    for i0 in range(0, tau_near.size, 32):
        vals[i0 : i0 + 32] = np.cos(np.outer(tau_near[i0 : i0 + 32], w)) @ g
    out[near] = vals / math.pi
    return out


def ensemble_sigma_max(T: float, z: float, b: float, m: int, tau: np.ndarray) -> float:
    """Largest pointwise standard deviation of one draw's output over the ensemble.

    A draw with inverse curvature x ~ Gamma(m+1, rate b) turns
    exp(-t^2/2T^2) into sqrt(T^2/(T^2+zx)) exp(-tau^2/(2(T^2+zx))).  Its
    first two moments over x come from 80-point Gauss-Laguerre quadrature.
    """
    y, w = np.polynomial.laguerre.laggauss(80)
    w = w * y**m / math.factorial(m)
    var = T * T + z * y / b
    f = np.sqrt(T * T / var)[None, :] * np.exp(-(tau[:, None] ** 2) / (2.0 * var[None, :]))
    mean, second = f @ w, (f * f) @ w
    return float(np.sqrt(np.maximum(second - mean * mean, 0.0)).max())


class StochasticReference:
    """References for the stochastic workload, cached per depth and t column.

    The references depend on the grid and the workload parameters but not on
    the seed, so one run computes them once and reuses them for every op.
    """

    def __init__(self, params: dict):
        pulse, ens = params["pulse"], params["ensemble"]
        if float(pulse["omega0"]) != 0.0:
            raise ValueError("the stochastic reference assumes omega0 = 0")
        self.T = float(pulse["T"])
        self.b, self.m, self.v = float(ens["b"]), int(ens["m"]), float(ens["v"])
        self.draws = int(params["root"]["mc-samples"])
        self.depths = _depths(params)
        self._cache: dict = {}

    def reference(self, kind: str, z: float, t: np.ndarray) -> np.ndarray:
        key = (kind, z, t.tobytes())
        if key not in self._cache:
            # closed-form kernel (1 + z w^2/b)^-(m+1); Monte Carlo limit
            # (1 + z w^2/(2b))^-(m+1), the Laplace transform of Gamma(m+1, b)
            s2 = z / self.b if kind == "signal" else z / (2.0 * self.b)
            self._cache[key] = ensemble_output(self.T, s2, self.m + 1, t - z / self.v, 1e-14)
        return self._cache[key]

    def mc_tolerance(self, z: float, t: np.ndarray) -> float:
        """Allowed Monte Carlo deviation as a share of the reference peak."""
        key = ("mc_tol", z, t.tobytes())
        if key not in self._cache:
            peak = float(np.abs(self.reference("mc_signal", z, t)).max())
            # the deviation peaks near the arrival, within 10 widths of it
            tau = np.linspace(-10.0, 10.0, 2001) * math.sqrt(self.T**2 + z * (self.m + 1) / self.b)
            sigma = ensemble_sigma_max(self.T, z, self.b, self.m, tau)
            self._cache[key] = MC_SIGMAS * sigma / math.sqrt(self.draws) / peak
        return self._cache[key]

    def check(self, out_dir: Path) -> None:
        for z in self.depths:
            name = f"signal_{z:g}.csv"
            t, f = _load_signal(out_dir / name)
            _compare(name, f, self.reference("signal", z, t), EXACT_REL_TOL)
            name = f"mc_signal_{z:g}.csv"
            t, f = _load_signal(out_dir / name)
            _compare(name, f, self.reference("mc_signal", z, t), self.mc_tolerance(z, t))
        if not (out_dir / "sweep.csv").is_file():
            raise CheckError("sweep.csv: missing")

