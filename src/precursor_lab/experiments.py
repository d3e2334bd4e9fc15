"""The experiments of the batch runner, each declared once in :data:`EXPERIMENTS`.

An :class:`Experiment` holds the runner, a function of ``(cfg, grid, f0)``
that computes a :class:`Run` and writes nothing, the config parts it needs
and its own check, which :func:`experiment` applies: adding an experiment is
one entry and its runner.  :func:`plan_grid` chooses the grid, :func:`check_ranges`
checks it, :func:`load_pulse` samples the input on it, and :func:`discrepancy_entries`
gives the lines every summary ends with.  Package functions are called through their
modules (``propagate.apply_transfer``, never a name bound by ``from ... import``),
so that a wrapper set on a module attribute sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, config, media, propagate, signals, stochastic
from . import grid as timegrid

__all__ = [
    "EXPERIMENTS", "Experiment", "Run", "experiment", "plan_grid", "read_pulse_csv", "load_pulse", "discrepancy_entries",
    "check_ranges", "monte_carlo_deviation", "run_propagation", "run_stochastic", "run_chirp", "run_slab", "run_verify",
]


@dataclass
class Run:
    """What one experiment computed, as ``cli.run`` writes it."""

    entries: list  # summary lines between the experiment line and the discrepancy entries
    files: list = field(default_factory=list)  # (file name, values) on the grid's times
    records: list = field(default_factory=list)  # SweepRecords: sweep.csv, when there are any
    status: int = 0  # the exit status


@dataclass(frozen=True)
class Experiment:
    run: object  # (cfg, grid, f0) -> Run
    needs: tuple = ()  # keys of _NEEDS, checked in this order
    check: object = lambda cfg: None  # then this, which raises a config error where cfg fails it


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _grid_entry(grid: timegrid.TimeGrid):
    return ("grid", f"n={grid.n} dt={grid.dt:g} t0={grid.t0:g}")


def _at_depth(z: float, **values):
    """The summary entries ``(<key>[z=<z:g>], value)`` of ``values`` at depth ``z``, in their order."""
    return [(f"{key}[z={z:g}]", _fmt(value)) for key, value in values.items()]


def _signal_files(prefix: str, outputs):
    """``(file name, values)`` of each ``(z, signal)``, named ``<prefix>_<z>.csv``."""
    return [(f"{prefix}_{z:g}.csv", sig.values) for z, sig in outputs]


def _describe_medium(medium) -> str:
    """One of the three media ``config`` builds: quadratic, layered or exp-kernel."""
    if isinstance(medium, media.QuadraticMedium):
        return f"quadratic(a={medium.a:g}, v={medium.v:g}, ell_inv={medium.ell_inv:g})"
    if isinstance(medium, media.LayerStack):
        inner = "; ".join(f"{l:g} of {_describe_medium(m)}" for l, m in medium.layers)
        tail = "free space" if medium.free_space_tail else "no tail"
        return f"layered[{inner}; then {tail}]"
    return f"exp-kernel(K={medium.K:g}, Kp={medium.Kp:g})"


def _arrival_and_width(medium, z: float) -> tuple[float, float]:
    """Arrival and width sqrt(z/a) at depth ``z`` of the medium's exact quadratic reduction.

    A stack's is ``media.effective_params`` over its layers above ``z``; one out
    of range is a config error.  Without a medium or depth, 0 and 0.
    """
    if medium is None or z == 0.0:
        return 0.0, 0.0
    try:
        if isinstance(medium, media.LayerStack):
            depth = min(z, medium.total_thickness)
            a, v = media.effective_params(medium, depth)
            return depth / v + (z - depth) / media.SPEED_OF_LIGHT, np.sqrt(depth / a)
        medium = medium.quadratic_reduction()
    except ValueError as exc:
        raise config.ConfigValidationError(
            "grid", f"automatic grid needs a quadratic reduction of the medium ({exc}); give a [grid] section"
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
    config error; :func:`check_ranges` checks the grid either way.
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
    if "ensemble" in EXPERIMENTS[cfg.experiment].needs:
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
        # n is a power of two, up to 2^1024, or inf
        needs = "infinitely many" if n == math.inf else f"2^{n.bit_length() - 1}"
        limit = f"2^{MAX_AUTO_SAMPLES.bit_length() - 1}"
        raise config.ConfigValidationError(
            "grid", f"automatic grid needs {needs} samples, more than {limit}; give a [grid] section"
        )
    return timegrid.TimeGrid(n=n, dt=dt, t0=t0)


def check_ranges(cfg: config.ExperimentConfig, grid: timegrid.TimeGrid | None):
    """Every rule that reads the grid, given or automatic: a number the run would form that overflows is a config error.

    From scalars at the grid's extremes, in order: w^2 at Nyquist, w = pi/dt;
    the last time t0 + (n-1) dt; the pulse's phase omega0 t + alpha t^2/2 out
    to ``PulseSpec.reach``; then the delay phase and the absorption of z gamma(w)
    at the deepest depth z, summed over a stack's ``segments``.  An ensemble's
    are formed as its run forms them: the delay i w z / v in numpy's complex
    arithmetic, which divides by v as a product with 1/v and so gives nan
    where 1/v overflows; the averaged kernel's z w^2; and a kernel block's
    largest exponent x lam, with x at most ``stochastic.largest_scaled_draw(m) / b``
    and lam = 0.5 z w^2, which bounds the kernel's z w^2 / b as well.
    """
    if grid is None:
        return
    w, t0, dt, needs = float(grid.nyquist), float(grid.t0), float(grid.dt), EXPERIMENTS[cfg.experiment].needs
    if not math.isfinite(w * w):
        automatic = ("grid", "automatic grid spacing", "; give a coarser [grid] section")
        key, what, advice = automatic if cfg.grid is None else ("grid.dt", "spacing", "")
        raise config.ConfigValidationError(key, f"{what} {dt:g} too small: the Nyquist frequency pi/dt squares to inf{advice}")
    last = float(grid.n - 1) * dt + t0  # as times() forms it
    if not math.isfinite(last):
        raise config.ConfigValidationError("grid", f"the last time t0 + (n-1) dt = {t0:g} + {grid.n - 1} x {dt:g} overflows")
    pulse = cfg.pulse
    if pulse is not None and -pulse.reach <= last and t0 <= pulse.reach:  # the grid meets the pulse
        t = min(max(-t0, last), pulse.reach)
        if not math.isfinite(pulse.omega0 * t + 0.5 * abs(pulse.alpha) * t * t):
            raise config.ConfigValidationError("pulse.omega0", f"carrier {pulse.omega0:g} too large: the phase omega0 t + "
                                               f"alpha t^2/2 overflows at |t| = {t:g}, where the pulse is not 0")
    z = max(cfg.z_values, default=0.0) if "z" in needs else 0.0  # 0 where nothing propagates
    if "ensemble" in needs:  # the delay i w z/v, the kernel's z w^2 and a block's largest x z w^2/2
        ens = cfg.ensemble
        with np.errstate(all="ignore"):  # |0 + i y| is |y|, and nan or inf where a part is
            phase = abs(np.complex128(1j * w) * z / ens.v)
        absorption = max(z * (w * w), stochastic.largest_scaled_draw(ens.m) / ens.b * (0.5 * z * (w * w)))
    else:
        path = cfg.medium.segments(0.0, z) if isinstance(cfg.medium, media.LayerStack) else [(z, cfg.medium)]
        with np.errstate(all="ignore"):  # a part that overflows is inf or nan
            gammas = [(seg, complex(m.propagation_constant(w))) for seg, m in path if seg > 0.0]
        phase, absorption = sum(seg * -g.imag for seg, g in gammas), sum(seg * g.real for seg, g in gammas)
    for part, value in (("delay phase z w/v", phase), ("absorption z Re gamma(w)", absorption)):
        if not math.isfinite(value):
            raise config.ConfigValidationError(
                "z", f"the {part} at depth {z:g} overflows at the grid's Nyquist frequency pi/dt = {w:g}")


def read_pulse_csv(cfg: config.ExperimentConfig) -> np.ndarray | None:
    """The ``(t, f)`` rows of a ``csv`` pulse's file, sorted by t; None for any other pulse.

    The file is UTF-8 text.  Lines before its first row of two numbers are
    headers; after that row, every non-blank line must be two finite
    numbers.  Anything else is a ``pulse.file`` error naming the line.
    """
    if cfg.pulse_csv is None:
        return None
    path = Path(cfg.pulse_csv)

    def bad_line(line_no, message):
        return config.ConfigValidationError("pulse.file", f"{path} line {line_no}: {message}")

    rows = []
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode().replace(",", " ").split()
            except UnicodeDecodeError:
                raise bad_line(line_no, "not UTF-8 text") from None
            try:
                row = tuple(map(float, parts))
            except ValueError:
                row = ()
            if len(row) != 2:
                if rows and parts:
                    raise bad_line(line_no, "not two numbers t, f")
                continue  # a blank line, or a header before the first row
            if not (math.isfinite(row[0]) and math.isfinite(row[1])):
                raise bad_line(line_no, "not a finite number")
            rows.append(row)
    if not rows:
        raise config.ConfigValidationError("pulse.file", f"no numeric (t, f) rows found in {path}")
    data = np.array(rows)
    return data[np.argsort(data[:, 0])]


def load_pulse(cfg: config.ExperimentConfig, grid, rows) -> timegrid.SampledSignal | None:
    """The input pulse sampled on ``grid``; None for an experiment without one.

    ``rows`` is ``read_pulse_csv(cfg)``.  A pulse that is zero at every grid
    sample, such as a CSV whose times miss a given grid or a ``rect``
    narrower than ``dt``, is a config error.  So, for an experiment that
    takes its outputs' rms widths (one that needs depths), is a grid, given
    or automatic, whose times square to inf: the width squares them.  That
    rule comes after the pulse is sampled, so that a pulse which misses a far
    grid is reported as such.
    """
    if cfg.pulse_csv is not None:
        vals = np.interp(grid.times(), rows[:, 0], rows[:, 1], left=0.0, right=0.0)
        f0 = timegrid.SampledSignal(grid, vals)
    elif cfg.pulse is None:
        return None
    else:
        f0 = signals.sample_pulse(cfg.pulse, grid)
    if not np.any(f0.values):
        t = grid.times()
        raise config.ConfigValidationError(
            "pulse", f"zero at every sample of the grid (t from {t[0]:g} to {t[-1]:g})"
        )
    reach = float(max(abs(grid.t0), abs(float(grid.n - 1) * grid.dt + grid.t0)))  # the last time, as times() forms it
    if "z" in EXPERIMENTS[cfg.experiment].needs and not math.isfinite(reach * reach):
        raise config.ConfigValidationError(
            "grid", f"times reach |t| = {reach:g}, whose square overflows in the rms width"
        )
    return f0


def _propagate_over_z(f0, medium, z_values):
    """``(z, output)`` per depth from one checked forward transform of ``f0``."""
    spectrum = propagate.input_spectrum(f0)
    omegas = f0.grid.omegas()
    return [(z, propagate.apply_transfer(spectrum, media.transfer_function(medium, z, omegas))) for z in z_values]


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
      kernel, -(m+1) log(1 + s), at the probe frequency w = 0.05 sqrt(b/z)
      of the deepest z, where s = z w^2 / b = 0.05^2; where b/z over- or
      underflows, at b = z = 1 and w = 0.05 (0.5 means the closed-form
      argument is twice the directly averaged one).  The direct
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
    if not 0.0 < s < np.inf:
        # b/z over- or underflows: probe the same s = 0.05^2 at unit scale and depth
        spec, z_probe, w_probe, s = stochastic.EnsembleSpec(b=1.0, m=spec.m, v=spec.v), 1.0, 0.05, 0.05**2
    ratio = stochastic.averaged_log_kernel_rule(spec, z_probe, w_probe) / (-(spec.m + 1) * np.log1p(s))
    entries.append(("ensemble_kernel_log_ratio_quadrature_vs_closed_form", _fmt(ratio)))
    identity = np.log1p(s / 2.0) / np.log1p(s)
    entries.append(("ensemble_kernel_log_ratio_laplace_identity", _fmt(identity)))
    return entries


def run_propagation(cfg: config.ExperimentConfig, grid, f0, fit_decay: bool = False) -> Run:
    """The pulse at each depth; with ``fit_decay``, the peak amplitude's decay exponent too."""
    outputs = _propagate_over_z(f0, cfg.medium, cfg.z_values)
    records = _sweep_records(outputs, f0)
    entries = [("medium", _describe_medium(cfg.medium)), _grid_entry(grid)]
    for r in records:
        entries += _at_depth(
            r.z, peak_time=r.t_peak, peak_amp=r.peak_amp, rms_width=r.rms_width, energy_ratio=r.energy_ratio
        )
    if fit_decay:
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

    observed, mc, devs = zip(*map(one, cfg.z_values))
    records = _sweep_records(observed, f0)
    entries = [
        ("ensemble", f"b={spec.b:g} m={spec.m} v={spec.v:g}"),
        ("mc_samples", str(cfg.mc_samples)),
        ("seed", str(cfg.seed)),
        _grid_entry(grid),
    ]
    for r, dev in zip(records, devs):
        entries += _at_depth(r.z, peak_amp=r.peak_amp, rms_width=r.rms_width, mc_max_deviation_sigmas=dev)
    return Run(entries, _signal_files("signal", observed) + _signal_files("mc_signal", mc), records)


def run_chirp(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """DC content of a chirped pulse: the exact value against both closed-form estimates."""
    pulse = cfg.pulse
    exact, log10_abs = propagate.chirp_dc_exact(pulse.T, pulse.omega0, pulse.alpha)
    est = propagate.chirp_dc_content(pulse.T, pulse.omega0, pulse.alpha)
    unchirped = np.sqrt(2.0 * np.pi) * pulse.T * np.exp(-((pulse.omega0 * pulse.T) ** 2) / 2.0)
    # log10 |exact| / unchirped, in logs: finite where either underflows
    orders = log10_abs - np.log10(np.sqrt(2.0 * np.pi) * pulse.T)
    orders += (pulse.omega0 * pulse.T) ** 2 / (2.0 * np.log(10.0))
    # | |estimate| / |exact| - 1 |, the ratio in logs; an estimate that underflows to 0 gives 1
    rel_sp, rel_cf = (
        abs(10 ** (math.log10(abs(e)) - log10_abs) - 1) if e else 1.0 for e in (est.stationary_phase, est.closed_form)
    )
    entries = [
        ("pulse", f"T={pulse.T:g} omega0={pulse.omega0:g} alpha={pulse.alpha:g}"),
        ("strong_chirp_regime", str(pulse.strong_chirp).lower()),
        ("chirp_dc_exact", _fmt(exact)),
        ("chirp_dc_exact_log10_abs", _fmt(log10_abs)),
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
    closed_peaks = [
        float(np.abs(propagate.thin_slab_output(ell, a_eff, v_eff, z, dc, t)).max()) for z in cfg.z_values
    ]
    for z, closed_peak in zip(cfg.z_values, closed_peaks):
        if not closed_peak > 0:
            raise config.ConfigValidationError(
                "z", f"the thin-slab closed form at depth {z:g} misses the grid (zero at every sample)"
            )
    outputs = _propagate_over_z(f0, stack, cfg.z_values)
    records = _sweep_records(outputs, f0)
    entries = [
        ("medium", _describe_medium(stack)),
        ("effective_a", _fmt(a_eff)),
        ("effective_v", _fmt(v_eff)),
        ("dc_moment", _fmt(dc)),
        _grid_entry(grid),
    ]
    for r, closed_peak in zip(records, closed_peaks):
        rel = abs(r.peak_amp - closed_peak) / closed_peak
        entries += _at_depth(
            r.z, peak_amp=r.peak_amp, slab_closed_form_peak=closed_peak, slab_peak_rel_err=rel, rms_width=r.rms_width
        )
    return Run(entries, _signal_files("signal", outputs), records)


def run_verify(cfg: config.ExperimentConfig, grid, f0) -> Run:
    """Run every check of :mod:`precursor_lab.verify`, printing one ``CHECK`` line each; status 2 when any fails."""
    # verify imports this module at its top (plan_grid, monte_carlo_deviation);
    # importing verify here, when a run starts, keeps the two out of an import cycle
    from . import verify
    entries, failures = [], 0
    for name, passed, detail in verify.checks(cfg.seed):
        print(f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        entries.append((f"verify_{name}", f"{'pass' if passed else 'fail'} ({detail})"))
        failures += not passed
    print(f"verify: {failures} failure(s)")
    return Run(entries, status=2 if failures else 0)


def _check_sweep(cfg: config.ExperimentConfig):
    if len(set(cfg.z_values)) < 3:
        raise config.ConfigValidationError("z-list", "sweep-z needs at least 3 distinct depths")


def _check_chirp(cfg: config.ExperimentConfig):
    if cfg.pulse is not None and cfg.pulse.kind != "chirp-gaussian":
        raise config.ConfigValidationError("pulse.kind", "chirp experiment needs kind = chirp-gaussian")
    if cfg.pulse is None:
        raise config.ConfigValidationError("pulse", "chirp experiment needs an explicit chirp pulse")
    if cfg.pulse.alpha <= 0:
        raise config.ConfigValidationError("pulse.alpha", "chirp experiment needs a positive chirp rate")
    alpha, T, omega0 = cfg.pulse.alpha, cfg.pulse.T, cfg.pulse.omega0
    divisor = 2.0 * (alpha * alpha) * (T * T)
    if divisor == 0.0:
        raise config.ConfigValidationError("pulse.alpha", f"chirp rate {alpha:g} too small: 2 alpha^2 T^2 underflows to 0")
    if not divisor < math.inf:
        raise config.ConfigValidationError("pulse.alpha", f"chirp rate {alpha:g} too large: 2 alpha^2 T^2 overflows")
    if not max(omega0 * omega0, (omega0 * T) * (omega0 * T)) < math.inf:
        raise config.ConfigValidationError("pulse.omega0", f"carrier {omega0:g} too large: omega0^2 or (omega0 T)^2 overflows")


def _check_slab(cfg: config.ExperimentConfig):
    if not isinstance(cfg.medium, media.LayerStack):
        raise config.ConfigValidationError("medium.variant", "slab experiment needs a layered medium")
    total = cfg.medium.total_thickness
    try:  # the closed form takes the stack's effective parameters, as run_slab does
        a_eff, _ = media.effective_params(cfg.medium, total)
    except ValueError as exc:
        raise config.ConfigValidationError("medium", f"slab experiment needs a quadratic reduction of the stack ({exc})") from None
    # the closed form's scale sqrt(a/(2 pi ell)), as propagate.thin_slab_output forms it
    if not math.isfinite(a_eff / (2.0 * np.pi * total)):
        raise config.ConfigValidationError(
            "medium.layer", f"slab experiment needs a finite a/(2 pi ell), got a={a_eff:g} over thickness ell={total:g}"
        )
    if any(zv <= total for zv in cfg.z_values):
        raise config.ConfigValidationError("z", f"slab depths must exceed the stack thickness {total}")


# each part of the config an experiment may need: what a config without it lacks, and the test for that
_NEEDS = {
    "pulse": ("a [pulse] section", lambda cfg: cfg.pulse is None and cfg.pulse_csv is None),
    "medium": ("a [medium] section", lambda cfg: cfg.medium is None),
    "ensemble": ("an [ensemble] section", lambda cfg: cfg.ensemble is None),
    "z": ("z or z-list", lambda cfg: not cfg.z_values),
}

# every experiment, in the order an unknown name's message lists them
EXPERIMENTS = {
    "propagate": Experiment(run_propagation, ("pulse", "medium", "z")),
    "sweep-z": Experiment(partial(run_propagation, fit_decay=True), ("pulse", "medium", "z"), _check_sweep),
    "stochastic": Experiment(run_stochastic, ("pulse", "ensemble", "z")),
    "chirp": Experiment(run_chirp, ("pulse",), _check_chirp),
    "slab": Experiment(run_slab, ("pulse", "medium", "z"), _check_slab),
    "verify": Experiment(run_verify),
}


def experiment(cfg: config.ExperimentConfig) -> Experiment:
    """The entry of ``cfg.experiment``; an unknown name, a missing need, a depth past a stack
    with no tail or a failed check is a config error."""
    entry = EXPERIMENTS.get(cfg.experiment)
    if entry is None:
        raise config.ConfigValidationError(
            "experiment", f"unknown experiment {cfg.experiment!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    for need in entry.needs:
        what, missing = _NEEDS[need]
        if missing(cfg):
            raise config.ConfigValidationError(need, f"experiment {cfg.experiment!r} needs {what}")
    if "medium" in entry.needs and isinstance(cfg.medium, media.LayerStack):
        try:  # a depth past a stack with no tail
            cfg.medium.segments(0.0, max(cfg.z_values))
        except ValueError as exc:
            raise config.ConfigValidationError("z", str(exc)) from None
    entry.check(cfg)
    return entry
