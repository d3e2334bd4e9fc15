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
    "Run", "plan_grid", "load_pulse", "discrepancy_entries", "monte_carlo_deviation",
    "run_propagation", "run_stochastic", "run_chirp", "run_slab",
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


def _equivalent_quadratic(medium) -> media.QuadraticMedium:
    """Reduce any homogeneous medium to its low-frequency quadratic parameters."""
    if isinstance(medium, media.QuadraticMedium):
        return medium
    if isinstance(medium, media.ExpKernelMedium):
        # a K whose square underflows gives nan, which QuadraticMedium rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            return media.quadratic_approximation(medium, medium.K / 100.0)
    raise ValueError(f"no quadratic reduction for {type(medium).__name__}")


def _stochastic_grid(T: float, omega0: float, spec: stochastic.EnsembleSpec, z_max: float):
    """Grid whose edges sit where the averaged output has fallen to TAIL_TOLERANCE.

    The one-sided tail is the pulse's Gaussian tail, sqrt(2 ln 1/eps) widths
    T, plus the ensemble's exponential tail, x_eps decay lengths sqrt(z/b)
    (the closed-form output's; the Monte Carlo limit's, sqrt(z/2b), is shorter).
    t0 is a whole number of samples before zero.
    """
    eps = stochastic.TAIL_TOLERANCE
    x_eps = stochastic.tail_decay_lengths(spec.m, eps)
    tail = np.sqrt(2.0 * np.log(1.0 / eps)) * T + x_eps * np.sqrt(z_max / spec.b)
    dt = timegrid.sample_spacing(T, omega0)
    t0 = -np.ceil(tail / dt) * dt
    return timegrid.covering_grid(dt, t0, z_max / spec.v + tail - t0)


def plan_grid(cfg: config.ExperimentConfig) -> timegrid.TimeGrid | None:
    """The config's ``[grid]``, else the automatic grid; None without a pulse.

    The automatic grid resolves the pulse and its carrier (for a chirp, its
    instantaneous frequency six widths out) and spans the arrival at the
    deepest depth plus the broadened width on either side; a ``stochastic``
    run sizes the span by its tail tolerance instead.
    """
    if cfg.grid is not None:
        return cfg.grid
    pulse = cfg.pulse
    if pulse is None and cfg.pulse_csv is None:
        return None
    T, omega0 = (1.0, 0.0) if pulse is None else (pulse.T, pulse.omega0)
    if pulse is not None:
        omega0 += 6.0 * pulse.alpha * T  # alpha is 0 but for a chirp
    z_max = max(cfg.z_values) if cfg.z_values else 0.0

    if cfg.experiment == "stochastic":
        return _stochastic_grid(T, omega0, cfg.ensemble, z_max)
    if isinstance(cfg.medium, media.LayerStack):
        ell = cfg.medium.total_thickness
        try:
            a_eff, v_eff = media.effective_params(cfg.medium, ell)
        except ValueError:
            raise config.ConfigValidationError(
                "grid", "automatic grid needs quadratic layers; give a [grid] section"
            ) from None
        margin = 2.0 * (max(T, np.sqrt(ell / a_eff)) if np.isfinite(a_eff) else T)
        if z_max > ell:
            arrival = (z_max - ell) / media.SPEED_OF_LIGHT + ell / v_eff
        else:
            arrival = z_max / v_eff
        dt = timegrid.sample_spacing(T, omega0)
        return timegrid.covering_grid(dt, -5.0 * margin, arrival + 10.0 * margin)
    if cfg.medium is not None:
        try:
            q = _equivalent_quadratic(cfg.medium)
        except ValueError as exc:
            raise config.ConfigValidationError(
                "grid", f"automatic grid needs a quadratic reduction of the medium ({exc}); "
                "give a [grid] section"
            ) from None
        return timegrid.recommend_grid(T, omega0, q.a, q.v, z_max)
    return timegrid.recommend_grid(T, omega0, 1.0, 1.0, z_max)


def _read_two_column_csv(path: Path) -> np.ndarray:
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


def load_pulse(cfg: config.ExperimentConfig, grid) -> timegrid.SampledSignal | None:
    """The input pulse sampled on ``grid``; None for an experiment without one.

    A pulse that is zero at every grid sample, such as a CSV whose times
    miss the grid or a ``rect`` narrower than ``dt``, is a config error.
    """
    if cfg.pulse_csv is not None:
        data = _read_two_column_csv(Path(cfg.pulse_csv))
        vals = np.interp(grid.times(), data[:, 0], data[:, 1], left=0.0, right=0.0)
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
    records = []
    for z, sig in outputs:
        t_peak, amp = analysis.peak(sig)
        width, energy = analysis.rms_width(sig), analysis.energy_ratio(sig, f0)
        records.append(analysis.SweepRecord(z, t_peak, amp, width, energy))
    return records


def monte_carlo_deviation(
    f0, spec, z: float, draws: int, seed: int, spectrum, half_spectrum, inverse_a=None
):
    """The Monte Carlo mean at depth ``z`` and its largest deviation in standard errors.

    The largest |mean - limit| where the exact limit (``spectrum``, the
    forward transform of ``f0``, times the directly averaged kernel) exceeds
    1e-6 of its peak, over the exact standard error, sigma / sqrt(draws): the
    sample standard error is too small in the tails, where the mean rests on
    a few rare wide draws.  ``half_spectrum`` is ``np.fft.rfft(f0.values)``;
    ``inverse_a`` is ``stochastic.sample_inverse_a(spec, draws, seed)``,
    drawn here when not given.
    """
    mc = stochastic.monte_carlo_output(
        f0, spec, z, draws, seed, half_spectrum=half_spectrum, inverse_a=inverse_a
    )
    kernel = stochastic.averaged_transfer_direct(spec, z, f0.grid.omegas())
    ref = propagate.apply_transfer(spectrum, kernel).values
    stderr = stochastic.draw_std(f0, spec, z, half_spectrum=half_spectrum) / np.sqrt(draws)
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
      kernel at a low probe frequency (0.5 means the closed-form argument is
      twice the directly averaged one).  The direct average is a quadrature
      over the gamma density on the exp-sinh rule of the ensemble moments
      (``stochastic.averaged_transfer_rule``), never the gamma Laplace
      closed form.
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
    quad_k = np.abs(stochastic.averaged_transfer_rule(spec, z_probe, w_probe))
    closed_k = np.abs(stochastic.averaged_transfer(spec, z_probe, w_probe))
    ratio = np.log(quad_k) / np.log(closed_k)
    entries.append(("ensemble_kernel_log_ratio_quadrature_vs_closed_form", _fmt(ratio)))
    s = z_probe * w_probe**2 / spec.b
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
    if not isinstance(cfg.medium, media.LayerStack):
        q = _equivalent_quadratic(cfg.medium)
        if np.isfinite(q.a):
            resp = propagate.impulse_response_fft(cfg.medium, max(cfg.z_values), grid)
            entries.append(("causality_metric", _fmt(analysis.causality_metric(resp))))
    return Run(entries, _signal_files("signal", outputs), records)


def run_stochastic(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """The closed-form ensemble output at each depth, and the Monte Carlo mean beside it."""
    spec = cfg.ensemble
    spectrum = propagate.input_spectrum(f0)
    half = np.fft.rfft(f0.values)
    # every depth averages over the same media
    inverse_a = stochastic.sample_inverse_a(spec, cfg.mc_samples, cfg.seed)

    def one(z):
        observed = stochastic.observed_output(f0, spec, z, spectrum=spectrum)
        mc, dev = monte_carlo_deviation(
            f0, spec, z, cfg.mc_samples, cfg.seed, spectrum, half, inverse_a
        )
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
    numeric = propagate.chirp_dc_numeric(pulse.T, pulse.omega0, pulse.alpha)
    est = propagate.chirp_dc_content(pulse.T, pulse.omega0, pulse.alpha)
    unchirped = np.sqrt(2.0 * np.pi) * pulse.T * np.exp(-((pulse.omega0 * pulse.T) ** 2) / 2.0)
    orders = np.log10(abs(numeric) / unchirped) if unchirped > 0 else np.inf
    rel_sp = abs(abs(numeric) - abs(est.stationary_phase)) / abs(numeric)
    rel_cf = abs(abs(numeric) - abs(est.closed_form)) / abs(numeric)
    entries = [
        ("pulse", f"T={pulse.T:g} omega0={pulse.omega0:g} alpha={pulse.alpha:g}"),
        ("strong_chirp_regime", str(pulse.strong_chirp).lower()),
        ("chirp_dc_numeric", _fmt(numeric)),
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
