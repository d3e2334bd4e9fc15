"""The experiments of the batch runner, each a function of ``(cfg, grid, f0)``.

An experiment computes a :class:`Run` and writes nothing.  :func:`plan_grid`
chooses the grid, :func:`load_pulse` samples the input on it, and
:func:`discrepancy_entries` gives the lines every summary ends with.
Package functions are called through their modules
(``propagate.apply_transfer``, never a name bound by ``from ... import``),
so that a wrapper set on a module attribute sees every call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, config, media, propagate, signals, stochastic
from . import grid as timegrid

__all__ = [
    "Run", "plan_grid", "read_pulse_csv", "load_pulse", "discrepancy_entries",
    "monte_carlo_deviation", "run_propagation", "run_stochastic", "run_chirp", "run_slab",
]


@dataclass
class Run:
    """What one experiment computed, as ``cli.run`` writes it."""

    entries: list  # summary lines between the experiment line and the discrepancy entries
    files: list = field(default_factory=list)  # (file name, values) on the grid's times
    records: list = field(default_factory=list)  # SweepRecords: sweep.csv, when there are any
    status: int = 0  # the exit status


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _grid_entry(grid: timegrid.TimeGrid):
    return ("grid", f"n={grid.n} dt={grid.dt:g} t0={grid.t0:g}")


def _signal_files(prefix: str, outputs):
    """``(file name, values)`` of each ``(z, signal)``, named ``<prefix>_<z>.csv``."""
    return [(f"{prefix}_{z:g}.csv", sig.values) for z, sig in outputs]


def _describe_medium(medium) -> str:
    if isinstance(medium, media.QuadraticMedium):
        return f"quadratic(a={medium.a:g}, v={medium.v:g}, ell_inv={medium.ell_inv:g})"
    if isinstance(medium, media.ExpKernelMedium):
        return f"exp-kernel(K={medium.K:g}, Kp={medium.Kp:g})"
    if isinstance(medium, media.LayerStack):
        inner = "; ".join(f"{l:g} of {_describe_medium(m)}" for l, m in medium.layers)
        tail = "free space" if medium.free_space_tail else "no tail"
        return f"layered[{inner}; then {tail}]"
    return repr(medium)


def _arrival_and_width(medium, z: float) -> tuple[float, float]:
    """Arrival and width sqrt(z/a) at depth ``z`` of the medium's quadratic reduction.

    A stack's is over its layers above ``z``; without a medium or depth, 0 and 0.
    """
    if medium is None or z == 0.0:
        return 0.0, 0.0
    if isinstance(medium, media.LayerStack):
        depth = min(z, medium.total_thickness)
        try:
            a, v = media.effective_params(medium, depth)
        except ValueError:
            raise config.ConfigValidationError(
                "grid", "automatic grid needs quadratic layers; give a [grid] section"
            ) from None
        return depth / v + (z - depth) / media.SPEED_OF_LIGHT, np.sqrt(depth / a)
    if isinstance(medium, media.ExpKernelMedium):
        # a probe whose square under- or overflows gives a, v or ell_inv out of range
        try:
            with np.errstate(all="ignore"):
                medium = media.quadratic_approximation(medium, np.float64(medium.K) / 100.0)
        except ValueError as exc:
            raise config.ConfigValidationError(
                "grid", f"automatic grid needs a quadratic reduction of the medium ({exc}); "
                "give a [grid] section"
            ) from None
    return z / medium.v, np.sqrt(z / medium.a)


MAX_AUTO_SAMPLES = 1 << 20  # 16 MB per complex array; a longer grid must be given
TAIL_TOLERANCE = 1e-16  # share of the peak an automatic grid leaves at its edges


def plan_grid(cfg: config.ExperimentConfig, rows) -> timegrid.TimeGrid | None:
    """The config's ``[grid]``, else the automatic grid; None without a pulse.

    This is the package's one grid rule.  The automatic grid leaves
    eps = ``TAIL_TOLERANCE`` of the peak at each edge: from a whole number
    of samples before zero to past the deepest arrival, each side holds the
    pulse's tail (sqrt(2 ln 1/eps) widths T, or a ``csv`` file's times) plus
    the medium's (sqrt(2 ln 1/eps) widths sqrt(z/a), or
    ``stochastic.tail_decay_lengths(m, eps)`` decay lengths sqrt(z/b)).  Its
    spacing is dt = 0.1 T, and min(0.1 T, 0.1 pi/omega0) under a carrier
    omega0 (a chirp's instantaneous frequency six widths out; T = 1 for a
    ``csv`` pulse), and its length n the next power of two, at least 2,
    that covers the span.  ``rows`` is ``read_pulse_csv(cfg)``.  A grid of
    more than ``MAX_AUTO_SAMPLES`` samples, or a span that overflows, is a
    config error.
    """
    if cfg.grid is not None:
        return cfg.grid
    if cfg.pulse is None and cfg.pulse_csv is None:
        return None
    eps = TAIL_TOLERANCE
    gaussian_tail = np.sqrt(2.0 * np.log(1.0 / eps))  # widths at which exp(-x^2/2) is eps
    z_max = max(cfg.z_values, default=0.0)
    if cfg.pulse is None:
        T, omega0 = 1.0, 0.0
        lead, trail = max(0.0, -rows[0, 0]), max(0.0, rows[-1, 0])
    else:
        # a chirp's instantaneous frequency six widths out
        T, omega0 = cfg.pulse.T, cfg.pulse.omega0 + 6.0 * cfg.pulse.alpha * cfg.pulse.T
        lead = trail = gaussian_tail * T
    if cfg.experiment == "stochastic":
        spec = cfg.ensemble
        arrival = z_max / spec.v
        spread = stochastic.tail_decay_lengths(spec.m, eps) * np.sqrt(z_max / spec.b)
    else:
        arrival, width = _arrival_and_width(cfg.medium, z_max)
        spread = gaussian_tail * width
    dt = min(0.1 * T, 0.1 * np.pi / omega0) if omega0 > 0 else 0.1 * T
    with np.errstate(all="ignore"):  # a span out of range gives inf or nan samples
        t0 = -np.ceil((lead + spread) / dt) * dt
        samples = (arrival + (trail + spread) - t0) / dt
    n = 1 << int(np.ceil(np.log2(max(samples, 2.0)))) if np.isfinite(samples) else math.inf
    if not n <= MAX_AUTO_SAMPLES:
        needs = f"{'infinitely many' if n == math.inf else n} samples, more than {MAX_AUTO_SAMPLES}"
        raise config.ConfigValidationError("grid", f"automatic grid needs {needs}; give a [grid] section")
    return timegrid.TimeGrid(n=n, dt=dt, t0=t0)


def read_pulse_csv(cfg: config.ExperimentConfig) -> np.ndarray | None:
    """The ``(t, f)`` rows of a ``csv`` pulse's file, sorted by t; None for any other pulse."""
    if cfg.pulse_csv is None:
        return None
    path = Path(cfg.pulse_csv)
    rows = []
    with path.open() as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.strip().replace(",", " ").split()
            if len(parts) < 2:
                continue
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError:
                continue  # header line
            if not (math.isfinite(row[0]) and math.isfinite(row[1])):
                raise config.ConfigValidationError(
                    "pulse.file", f"{path} line {line_no}: not a finite number"
                )
            rows.append(row)
    if not rows:
        raise config.ConfigError(f"no numeric (t, f) rows found in {path}")
    data = np.array(rows)
    return data[np.argsort(data[:, 0])]


def load_pulse(cfg: config.ExperimentConfig, grid, rows) -> timegrid.SampledSignal | None:
    """The input pulse sampled on ``grid``; None for an experiment without one.

    ``rows`` is ``read_pulse_csv(cfg)``.  A pulse that is zero at every grid
    sample, such as a CSV whose times miss a given grid or a ``rect``
    narrower than ``dt``, is a config error.
    """
    if cfg.pulse_csv is not None:
        vals = np.interp(grid.times(), rows[:, 0], rows[:, 1], left=0.0, right=0.0)
        f0 = timegrid.SampledSignal(grid, vals)
    elif cfg.pulse is None:
        return None
    elif cfg.pulse.kind == "gaussian":
        f0 = signals.gaussian_pulse(cfg.pulse, grid)
    elif cfg.pulse.kind == "rect":
        f0 = signals.rect_pulse(cfg.pulse, grid)
    else:
        f0 = signals.chirp_pulse(cfg.pulse, grid)
    if not np.any(f0.values):
        t = grid.times()
        raise config.ConfigValidationError(
            "pulse", f"zero at every sample of the grid (t from {t[0]:g} to {t[-1]:g})"
        )
    return f0


def _map_over_z(fn, z_values, threads: int):
    """Apply fn per depth; results come back in input order for any thread count."""
    if threads <= 1 or len(z_values) <= 1:
        return [fn(z) for z in z_values]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, z_values))


def _propagate_over_z(f0, medium, z_values, threads: int):
    """``(z, output)`` per depth from one checked forward transform of ``f0``."""
    if isinstance(medium, media.LayerStack) and not medium.free_space_tail:
        deepest, total = max(z_values), medium.total_thickness
        if deepest > total:
            raise config.ConfigValidationError(
                "z", f"depth {deepest:g} lies past the stack thickness {total:g}, and tail = none"
            )
    spectrum = propagate.input_spectrum(f0)
    omegas = f0.grid.omegas()

    def one(z):
        return z, propagate.apply_transfer(spectrum, media.transfer_function(medium, z, omegas))

    return _map_over_z(one, z_values, threads)


def _sweep_records(outputs, f0):
    """The metrics of each ``(z, output)``; an output of zero energy or zero rms width is a config error."""
    records = []
    for z, sig in outputs:
        if not sig.energy() > 0.0:
            raise config.ConfigValidationError(
                "z", f"the output at depth {z:g} has zero energy (every sample squares to 0)"
            )
        t_peak, amp = analysis.peak(sig)
        width, energy = analysis.rms_width(sig), analysis.energy_ratio(sig, f0)
        if not width > 0.0:
            raise config.ConfigValidationError("z", f"the output at depth {z:g} has zero rms width")
        records.append(analysis.SweepRecord(z, t_peak, amp, width, energy))
    return records


def monte_carlo_deviation(spectrum, spec, z: float, draws):
    """The Monte Carlo mean at depth ``z`` and its largest deviation in standard errors.

    ``spectrum`` is the input's half spectrum and ``draws`` the sampled
    inverse curvatures.  The largest |mean - limit| where the exact limit
    (``spectrum`` times the directly averaged kernel) exceeds 1e-6 of its
    peak, over the exact standard error, sigma / sqrt(draws): the sample
    standard error is too small in the tails, where the mean rests on a few
    rare wide draws.
    """
    mc = stochastic.monte_carlo_output(spectrum, spec, z, draws)
    kernel = stochastic.averaged_transfer_direct(spec, z, spectrum.grid.omegas())
    ref = propagate.apply_transfer(spectrum, kernel).values
    stderr = stochastic.draw_std(spectrum, spec, z) / np.sqrt(draws.size)
    peak = np.abs(ref).max()
    sel = np.abs(ref) > 1e-6 * peak
    return mc, float((np.abs(mc.values - ref)[sel] / (stderr[sel] + 1e-12 * peak)).max())


def discrepancy_entries(cfg: config.ExperimentConfig):
    """Standing diagnostics comparing reference closed forms against derivation.

    * ``zero_dc_closed_form_vs_series_ratio``: the zero-DC rectangular-pulse
      output from the closed form over the moment-series value, both evaluated
      at a fixed long-range probe (n=1, T=1, a=v=1, z=1e4, t=z).  The closed
      form as written is twice the series; the FFT route sides with the series.
    * ``ensemble_kernel_log_ratio_quadrature_vs_closed_form``: log of the
      directly averaged ensemble kernel over the log of the closed-form
      kernel, -(m+1) log(1 + s), at a low probe frequency (0.5 means the
      closed-form argument is twice the directly averaged one).  The direct
      average is a quadrature over the gamma density on the exp-sinh rule of
      the ensemble moments, never the gamma Laplace closed form; its log is
      ``stochastic.averaged_log_kernel_rule``, because the kernel is close
      to 1 at the probe (s = 2.5e-3), where the log of the rounded kernel
      would carry up to 4e-14 of rounding noise into the ratio.
    * ``ensemble_kernel_log_ratio_laplace_identity``: the same ratio from
      the gamma Laplace identity, log(1 + s/2) / log(1 + s) with
      s = z w^2 / b, which tends to 0.5 as s goes to 0.
    """
    closed = propagate.zero_dc_rect_output(1, 1.0, 1.0, 1.0, 1e4, 1e4)
    series = propagate.zero_dc_rect_output_series(1, 1.0, 1.0, 1.0, 1e4, 1e4)
    entries = [("zero_dc_closed_form_vs_series_ratio", _fmt(closed / series))]
    spec = cfg.ensemble if cfg.ensemble is not None else stochastic.EnsembleSpec(b=1.0, m=1, v=1.0)
    z_probe = max(cfg.z_values) if cfg.z_values else 1.0
    w_probe = 0.05 * np.sqrt(spec.b / z_probe)
    s = z_probe * w_probe**2 / spec.b
    ratio = stochastic.averaged_log_kernel_rule(spec, z_probe, w_probe) / (-(spec.m + 1) * np.log1p(s))
    entries.append(("ensemble_kernel_log_ratio_quadrature_vs_closed_form", _fmt(ratio)))
    identity = np.log1p(s / 2.0) / np.log1p(s)
    entries.append(("ensemble_kernel_log_ratio_laplace_identity", _fmt(identity)))
    return entries


def run_propagation(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """``propagate`` and ``sweep-z``: the pulse at each depth; ``sweep-z`` fits the decay."""
    outputs = _propagate_over_z(f0, cfg.medium, cfg.z_values, cfg.threads)
    records = _sweep_records(outputs, f0)
    entries = [("medium", _describe_medium(cfg.medium)), _grid_entry(grid)]
    for r in records:
        entries.append((f"peak_time[z={r.z:g}]", _fmt(r.t_peak)))
        entries.append((f"peak_amp[z={r.z:g}]", _fmt(r.peak_amp)))
        entries.append((f"rms_width[z={r.z:g}]", _fmt(r.rms_width)))
        entries.append((f"energy_ratio[z={r.z:g}]", _fmt(r.energy_ratio)))
    if cfg.experiment == "sweep-z":
        slope, stderr = analysis.fit_decay_exponent(records)
        entries.append(("decay_slope", _fmt(slope)))
        entries.append(("decay_slope_stderr", _fmt(stderr)))
    delay_line = isinstance(cfg.medium, media.QuadraticMedium) and np.isinf(cfg.medium.a)
    if not (delay_line or isinstance(cfg.medium, media.LayerStack)):
        resp = propagate.impulse_response_fft(cfg.medium, max(cfg.z_values), grid)
        entries.append(("causality_metric", _fmt(analysis.causality_metric(resp))))
    return Run(entries, _signal_files("signal", outputs), records)


def run_stochastic(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """The closed-form ensemble output at each depth, and the Monte Carlo mean beside it."""
    spec = cfg.ensemble
    spectrum = propagate.input_spectrum(f0)
    # every depth averages over the same media
    draws = stochastic.sample_inverse_a(spec, cfg.mc_samples, cfg.seed)

    def one(z):
        observed = stochastic.observed_output(spectrum, spec, z)
        mc, dev = monte_carlo_deviation(spectrum, spec, z, draws)
        return (z, observed), (z, mc), dev

    observed, mc, devs = zip(*_map_over_z(one, cfg.z_values, cfg.threads))
    records = _sweep_records(observed, f0)
    entries = [
        ("ensemble", f"b={spec.b:g} m={spec.m} v={spec.v:g}"),
        ("mc_samples", str(cfg.mc_samples)),
        ("seed", str(cfg.seed)),
        _grid_entry(grid),
    ]
    for r, dev in zip(records, devs):
        entries.append((f"peak_amp[z={r.z:g}]", _fmt(r.peak_amp)))
        entries.append((f"rms_width[z={r.z:g}]", _fmt(r.rms_width)))
        entries.append((f"mc_max_deviation_sigmas[z={r.z:g}]", _fmt(dev)))
    return Run(entries, _signal_files("signal", observed) + _signal_files("mc_signal", mc), records)


def run_chirp(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """DC content of a chirped pulse: quadrature against both closed-form estimates."""
    pulse = cfg.pulse
    numeric, abserr = propagate.chirp_dc_quadrature(pulse.T, pulse.omega0, pulse.alpha)
    est = propagate.chirp_dc_content(pulse.T, pulse.omega0, pulse.alpha)
    unchirped = np.sqrt(2.0 * np.pi) * pulse.T * np.exp(-((pulse.omega0 * pulse.T) ** 2) / 2.0)
    # log10 |numeric| / unchirped, in logs: finite where unchirped underflows
    orders = np.log10(abs(numeric)) - np.log10(np.sqrt(2.0 * np.pi) * pulse.T)
    orders += (pulse.omega0 * pulse.T) ** 2 / (2.0 * np.log(10.0))
    rel_sp = abs(abs(numeric) - abs(est.stationary_phase)) / abs(numeric)
    rel_cf = abs(abs(numeric) - abs(est.closed_form)) / abs(numeric)
    entries = [
        ("pulse", f"T={pulse.T:g} omega0={pulse.omega0:g} alpha={pulse.alpha:g}"),
        ("strong_chirp_regime", str(pulse.strong_chirp).lower()),
        ("chirp_dc_numeric", _fmt(numeric)),
        ("chirp_dc_numeric_abserr", _fmt(abserr)),
        ("chirp_dc_closed_form", _fmt(est.closed_form)),
        ("chirp_dc_stationary_phase", _fmt(est.stationary_phase)),
        ("chirp_dc_unchirped", _fmt(unchirped)),
        ("chirp_enhancement_orders", _fmt(orders)),
        ("chirp_dc_rel_err_stationary_phase", _fmt(rel_sp)),
        ("chirp_dc_rel_err_closed_form", _fmt(rel_cf)),
    ]
    return Run(entries, _signal_files("signal", [(0.0, f0)]))


def run_slab(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """The pulse past a layer stack against the thin-slab closed form."""
    stack = cfg.medium
    ell = stack.total_thickness
    a_eff, v_eff = media.effective_params(stack, ell)
    dc = signals.moment(f0, 0)
    t = grid.times()
    outputs = _propagate_over_z(f0, stack, cfg.z_values, cfg.threads)
    records = _sweep_records(outputs, f0)
    entries = [
        ("medium", _describe_medium(stack)),
        ("effective_a", _fmt(a_eff)),
        ("effective_v", _fmt(v_eff)),
        ("dc_moment", _fmt(dc)),
        _grid_entry(grid),
    ]
    for r in records:
        closed = propagate.thin_slab_output(ell, a_eff, v_eff, r.z, dc, t)
        closed_peak = float(np.abs(closed).max())
        rel = abs(r.peak_amp - closed_peak) / closed_peak if closed_peak > 0 else np.inf
        entries.append((f"peak_amp[z={r.z:g}]", _fmt(r.peak_amp)))
        entries.append((f"slab_closed_form_peak[z={r.z:g}]", _fmt(closed_peak)))
        entries.append((f"slab_peak_rel_err[z={r.z:g}]", _fmt(rel)))
        entries.append((f"rms_width[z={r.z:g}]", _fmt(r.rms_width)))
    return Run(entries, _signal_files("signal", outputs), records)
