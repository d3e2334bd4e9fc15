"""Batch experiment runner.

``precursor-lab <config> [--output-dir PATH] [--experiment NAME] [--seed N]
[--threads N]`` reads a config file (format documented in
:mod:`precursor_lab.config`), runs the named experiment and writes:

* ``signal_<z>.csv`` -- propagated waveform per depth, columns ``t,f``;
* ``sweep.csv`` -- per-depth metrics, columns
  ``z,t_peak,peak_amp,rms_width,energy_ratio``;
* ``summary.txt`` -- one ``key: value`` line per reported metric, including
  the two standing closed-form-vs-derivation discrepancy diagnostics.

Exit status: 0 on success, 1 on configuration or I/O failure, 2 when the
``verify`` experiment finds a failing check.  Identical config and seed give
byte-identical outputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from . import analysis, propagate, signals, stochastic
from .config import ConfigError, ConfigValidationError, ExperimentConfig, parse_config
from .grid import (
    SampledSignal,
    TimeGrid,
    forward_transform,
    inverse_transform,
    recommend_grid,
)
from .media import (
    SPEED_OF_LIGHT,
    ExpKernelMedium,
    LayerStack,
    QuadraticMedium,
    effective_params,
    quadratic_approximation,
    transfer_between,
    transfer_function,
)
from .signals import PulseSpec
from .stochastic import EnsembleSpec

__all__ = ["main", "run"]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# rows formatted per write; keeps the transient strings and float objects
# O(block) instead of O(file)
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: str, columns) -> None:
    """Header line, then one ``%.17g`` field per column, ``,``-separated, per row.

    The bytes equal ``np.savetxt(fh, data, fmt="%.17g", delimiter=",")``:
    ``.tolist()`` yields Python floats, which ``%.17g`` formats exactly as
    it formats the ``np.float64`` rows savetxt passes, but a whole block of
    rows goes through one ``%`` instead of one Python call per row.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _signal_files(prefix: str, outputs):
    """``(file name, values)`` of each ``(z, signal)``, named ``<prefix>_<z>.csv``."""
    return [(f"{prefix}_{z:g}.csv", sig.values) for z, sig in outputs]


def _write_outputs(out_dir: Path, t: np.ndarray, files) -> None:
    """Write each ``(name, values)`` of ``files`` as a ``t,f`` CSV on the shared times ``t``.

    Each file holds the bytes ``_write_csv`` writes for ``(t, values)``.  Each
    block of ``t`` is formatted once into a row template, ``"<t>,%.17g\\n"``
    per row, which every file fills with its own values in one ``%``.  Blocks
    are the outer loop, so one template is alive at a time.
    """
    with contextlib.ExitStack() as stack:
        handles = []
        for name, values in files:
            fh = stack.enter_context((out_dir / name).open("w"))
            fh.write("t,f\n")
            handles.append((fh, values))
        for start in range(0, len(t), _CSV_BLOCK_ROWS):
            tb = t[start : start + _CSV_BLOCK_ROWS]
            rows = ("%.17g,%%.17g\n" * len(tb)) % tuple(tb.tolist())
            for fh, values in handles:
                fh.write(rows % tuple(values[start : start + _CSV_BLOCK_ROWS].tolist()))


def _write_summary(path: Path, entries) -> None:
    path.write_text("".join(f"{k}: {v}\n" for k, v in entries))


def _describe_medium(medium) -> str:
    if isinstance(medium, QuadraticMedium):
        return f"quadratic(a={medium.a:g}, v={medium.v:g}, ell_inv={medium.ell_inv:g})"
    if isinstance(medium, ExpKernelMedium):
        return f"exp-kernel(K={medium.K:g}, Kp={medium.Kp:g})"
    if isinstance(medium, LayerStack):
        inner = "; ".join(f"{l:g} of {_describe_medium(m)}" for l, m in medium.layers)
        tail = "free space" if medium.free_space_tail else "no tail"
        return f"layered[{inner}; then {tail}]"
    return repr(medium)


def _equivalent_quadratic(medium) -> QuadraticMedium:
    """Reduce any homogeneous medium to its low-frequency quadratic parameters."""
    if isinstance(medium, QuadraticMedium):
        return medium
    if isinstance(medium, ExpKernelMedium):
        return quadratic_approximation(medium, medium.K / 100.0)
    raise ValueError(f"no quadratic reduction for {type(medium).__name__}")


def _sample_spacing(T: float, omega0: float) -> float:
    dt = 0.1 * T
    if omega0 > 0:
        dt = min(dt, 0.1 * np.pi / omega0)
    return dt


def _grid_for(T: float, omega0: float, margin: float, arrival: float) -> TimeGrid:
    dt = _sample_spacing(T, omega0)
    span = arrival + 10.0 * margin
    n = 1 << int(np.ceil(np.log2(span / dt)))
    return TimeGrid(n=max(n, 2), dt=dt, t0=-5.0 * margin)


def _stochastic_grid(T: float, omega0: float, spec: EnsembleSpec, z_max: float) -> TimeGrid:
    """Grid whose edges sit where the averaged output has fallen to TAIL_TOLERANCE.

    The one-sided tail is the pulse's Gaussian tail, sqrt(2 ln 1/eps) widths
    T, plus the ensemble's exponential tail, x_eps decay lengths sqrt(z/b)
    (the closed-form output's; the Monte Carlo limit's, sqrt(z/2b), is shorter).
    t0 is a whole number of samples before zero.
    """
    eps = stochastic.TAIL_TOLERANCE
    x_eps = stochastic.tail_decay_lengths(spec.m, eps)
    tail = np.sqrt(2.0 * np.log(1.0 / eps)) * T + x_eps * np.sqrt(z_max / spec.b)
    dt = _sample_spacing(T, omega0)
    t0 = -np.ceil(tail / dt) * dt
    n = 1 << int(np.ceil(np.log2((z_max / spec.v + tail - t0) / dt)))
    return TimeGrid(n=max(n, 2), dt=dt, t0=t0)


def _auto_grid(cfg: ExperimentConfig) -> TimeGrid:
    pulse = cfg.pulse
    T = pulse.T if pulse is not None else 1.0
    omega0 = pulse.omega0 if pulse is not None else 0.0
    if pulse is not None and pulse.kind == "chirp-gaussian":
        # instantaneous frequency sweeps up to roughly omega0 + alpha * 6T
        omega0 = pulse.omega0 + 6.0 * pulse.alpha * T
    z_max = max(cfg.z_values) if cfg.z_values else 0.0

    if cfg.experiment == "stochastic":
        return _stochastic_grid(T, omega0, cfg.ensemble, z_max)
    if isinstance(cfg.medium, LayerStack):
        ell = cfg.medium.total_thickness
        try:
            a_eff, v_eff = effective_params(cfg.medium, ell)
        except ValueError:
            raise ConfigValidationError(
                "grid", "automatic grid needs quadratic layers; give a [grid] section"
            ) from None
        margin = max(T, np.sqrt(ell / a_eff)) if np.isfinite(a_eff) else T
        arrival = (z_max - ell) / SPEED_OF_LIGHT + ell / v_eff if z_max > ell else z_max / v_eff
        return _grid_for(T, omega0, 2.0 * margin, arrival)
    if cfg.medium is not None:
        q = _equivalent_quadratic(cfg.medium)
        if np.isfinite(q.a):
            return recommend_grid(T, omega0, q.a, q.v, z_max)
        return _grid_for(T, omega0, T, z_max / q.v)
    return recommend_grid(T, omega0, 1.0, 1.0, z_max)


def _read_two_column_csv(path: Path) -> np.ndarray:
    rows = []
    with path.open() as fh:
        for raw in fh:
            parts = raw.strip().replace(",", " ").split()
            if len(parts) < 2:
                continue
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue  # header line
    if not rows:
        raise ConfigError(f"no numeric (t, f) rows found in {path}")
    data = np.array(rows)
    return data[np.argsort(data[:, 0])]


def _load_pulse(cfg: ExperimentConfig, grid: TimeGrid) -> SampledSignal:
    if cfg.pulse_csv is not None:
        data = _read_two_column_csv(Path(cfg.pulse_csv))
        vals = np.interp(grid.times(), data[:, 0], data[:, 1], left=0.0, right=0.0)
        return SampledSignal(grid, vals)
    pulse = cfg.pulse
    if pulse.kind == "gaussian":
        return signals.gaussian_pulse(pulse, grid)
    if pulse.kind == "rect":
        return signals.rect_pulse(pulse, grid)
    return signals.chirp_pulse(pulse, grid)


def _sweep_records(outputs, f0: SampledSignal):
    records = []
    for z, sig in outputs:
        t_peak, amp = analysis.peak(sig)
        records.append(
            analysis.SweepRecord(
                z=z,
                t_peak=t_peak,
                peak_amp=amp,
                rms_width=analysis.rms_width(sig),
                energy_ratio=analysis.energy_ratio(sig, f0),
            )
        )
    return records


def _write_sweep(out_dir: Path, records) -> None:
    _write_csv(
        out_dir / "sweep.csv",
        "z,t_peak,peak_amp,rms_width,energy_ratio",
        (
            [r.z for r in records],
            [r.t_peak for r in records],
            [r.peak_amp for r in records],
            [r.rms_width for r in records],
            [r.energy_ratio for r in records],
        ),
    )


def _map_over_z(fn, z_values, threads: int):
    """Apply fn per depth; results come back in input order for any thread count."""
    if threads <= 1 or len(z_values) <= 1:
        return [fn(z) for z in z_values]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, z_values))


def _propagate_over_z(f0: SampledSignal, medium, z_values, threads: int):
    """``(z, output)`` per depth from one checked forward transform of ``f0``."""
    spectrum = propagate.input_spectrum(f0)
    omegas = f0.grid.omegas()

    def one(z):
        return z, propagate.apply_transfer(spectrum, transfer_function(medium, z, omegas))

    return _map_over_z(one, z_values, threads)


def _discrepancy_entries(cfg: ExperimentConfig):
    """Two standing diagnostics comparing reference closed forms against derivation.

    * ``zero_dc_closed_form_vs_series_ratio``: the zero-DC rectangular-pulse
      output from the closed form over the moment-series value, both evaluated
      at a fixed long-range probe (n=1, T=1, a=v=1, z=1e4, t=z).  The closed
      form as written is twice the series; the FFT route sides with the series.
    * ``ensemble_kernel_log_ratio_quadrature_vs_closed_form``: log of the
      directly averaged ensemble kernel over the log of the closed-form
      kernel at a low probe frequency (0.5 means the closed-form argument is
      twice the directly averaged one).  The direct average comes from a
      real ``quad``, never from the gamma Laplace closed form.
    * ``ensemble_kernel_log_ratio_laplace_identity``: the same ratio from
      the gamma Laplace identity, log(1 + s/2) / log(1 + s) with
      s = z w^2 / b, which tends to 0.5 as s goes to 0.
    """
    closed = propagate.zero_dc_rect_output(1, 1.0, 1.0, 1.0, 1e4, 1e4)
    series = propagate.zero_dc_rect_output_series(1, 1.0, 1.0, 1.0, 1e4, 1e4)
    entries = [("zero_dc_closed_form_vs_series_ratio", _fmt(closed / series))]
    spec = cfg.ensemble if cfg.ensemble is not None else EnsembleSpec(b=1.0, m=1, v=1.0)
    z_probe = max(cfg.z_values) if cfg.z_values else 1.0
    w_probe = 0.05 * np.sqrt(spec.b / z_probe)
    quad_k = np.abs(stochastic.averaged_transfer_quadrature(spec, z_probe, w_probe))
    closed_k = np.abs(stochastic.averaged_transfer(spec, z_probe, w_probe))
    ratio = np.log(quad_k) / np.log(closed_k)
    entries.append(("ensemble_kernel_log_ratio_quadrature_vs_closed_form", _fmt(ratio)))
    s = z_probe * w_probe**2 / spec.b
    identity = np.log1p(s / 2.0) / np.log1p(s)
    entries.append(("ensemble_kernel_log_ratio_laplace_identity", _fmt(identity)))
    return entries


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_propagation(cfg: ExperimentConfig, out_dir: Path, fit_slope: bool) -> None:
    grid = cfg.grid if cfg.grid is not None else _auto_grid(cfg)
    f0 = _load_pulse(cfg, grid)
    outputs = _propagate_over_z(f0, cfg.medium, cfg.z_values, cfg.threads)
    records = _sweep_records(outputs, f0)
    _write_outputs(out_dir, grid.times(), _signal_files("signal", outputs))
    _write_sweep(out_dir, records)

    entries = [
        ("experiment", cfg.experiment),
        ("medium", _describe_medium(cfg.medium)),
        ("grid", f"n={grid.n} dt={grid.dt:g} t0={grid.t0:g}"),
    ]
    for r in records:
        entries.append((f"peak_time[z={r.z:g}]", _fmt(r.t_peak)))
        entries.append((f"peak_amp[z={r.z:g}]", _fmt(r.peak_amp)))
        entries.append((f"rms_width[z={r.z:g}]", _fmt(r.rms_width)))
        entries.append((f"energy_ratio[z={r.z:g}]", _fmt(r.energy_ratio)))
    if fit_slope:
        slope, stderr = analysis.fit_decay_exponent(records)
        entries.append(("decay_slope", _fmt(slope)))
        entries.append(("decay_slope_stderr", _fmt(stderr)))
    if not isinstance(cfg.medium, LayerStack):
        q = _equivalent_quadratic(cfg.medium)
        if np.isfinite(q.a):
            resp = propagate.impulse_response_fft(cfg.medium, max(cfg.z_values), grid)
            entries.append(("causality_metric", _fmt(analysis.causality_metric(resp))))
    entries.extend(_discrepancy_entries(cfg))
    _write_summary(out_dir / "summary.txt", entries)


def _deviation_sigmas(mc: SampledSignal, ref: SampledSignal, stderr: np.ndarray) -> float:
    """Largest |mc - ref| in units of ``stderr`` where ``ref`` carries support.

    Only samples above 1e-6 of the reference peak count: in the far tails
    the sample mean rests on a few rare draws and normal theory breaks down.
    """
    peak = np.abs(ref.values).max()
    sel = np.abs(ref.values) > 1e-6 * peak
    return float((np.abs(mc.values - ref.values)[sel] / (stderr[sel] + 1e-12 * peak)).max())


def _run_stochastic(cfg: ExperimentConfig, out_dir: Path) -> None:
    grid = cfg.grid if cfg.grid is not None else _auto_grid(cfg)
    f0 = _load_pulse(cfg, grid)
    spec = cfg.ensemble
    F0 = forward_transform(f0)
    half = np.fft.rfft(f0.values)
    omegas = grid.omegas()

    def one(z):
        observed = stochastic.observed_output(f0, spec, z, spectrum=F0)
        mc = stochastic.monte_carlo_output(
            f0, spec, z, cfg.mc_samples, cfg.seed, half_spectrum=half
        )
        stderr = stochastic.draw_std(f0, spec, z, half_spectrum=half) / np.sqrt(cfg.mc_samples)
        ref = propagate.apply_transfer(F0, stochastic.averaged_transfer_direct(spec, z, omegas))
        return z, observed, mc, _deviation_sigmas(mc, ref, stderr)

    results = _map_over_z(one, cfg.z_values, cfg.threads)
    observed_outputs = [(z, obs) for z, obs, _, _ in results]
    records = _sweep_records(observed_outputs, f0)
    mc_outputs = [(z, mc) for z, _, mc, _ in results]
    _write_outputs(
        out_dir,
        grid.times(),
        _signal_files("signal", observed_outputs) + _signal_files("mc_signal", mc_outputs),
    )
    _write_sweep(out_dir, records)

    entries = [
        ("experiment", cfg.experiment),
        ("ensemble", f"b={spec.b:g} m={spec.m} v={spec.v:g}"),
        ("mc_samples", str(cfg.mc_samples)),
        ("seed", str(cfg.seed)),
        ("grid", f"n={grid.n} dt={grid.dt:g} t0={grid.t0:g}"),
    ]
    for (z, _, _, dev), r in zip(results, records):
        entries.append((f"peak_amp[z={z:g}]", _fmt(r.peak_amp)))
        entries.append((f"rms_width[z={z:g}]", _fmt(r.rms_width)))
        entries.append((f"mc_max_deviation_sigmas[z={z:g}]", _fmt(dev)))
    entries.extend(_discrepancy_entries(cfg))
    _write_summary(out_dir / "summary.txt", entries)


def _run_chirp(cfg: ExperimentConfig, out_dir: Path) -> None:
    pulse = cfg.pulse
    grid = cfg.grid if cfg.grid is not None else _auto_grid(cfg)
    f0 = _load_pulse(cfg, grid)
    _write_outputs(out_dir, grid.times(), _signal_files("signal", [(0.0, f0)]))

    numeric = propagate.chirp_dc_numeric(pulse.T, pulse.omega0, pulse.alpha)
    est = propagate.chirp_dc_content(pulse.T, pulse.omega0, pulse.alpha)
    unchirped = np.sqrt(2.0 * np.pi) * pulse.T * np.exp(-((pulse.omega0 * pulse.T) ** 2) / 2.0)
    orders = np.log10(abs(numeric) / unchirped) if unchirped > 0 else np.inf

    entries = [
        ("experiment", cfg.experiment),
        ("pulse", f"T={pulse.T:g} omega0={pulse.omega0:g} alpha={pulse.alpha:g}"),
        ("strong_chirp_regime", str(pulse.strong_chirp).lower()),
        ("chirp_dc_numeric", _fmt(numeric)),
        ("chirp_dc_closed_form", _fmt(est.closed_form)),
        ("chirp_dc_stationary_phase", _fmt(est.stationary_phase)),
        ("chirp_dc_unchirped", _fmt(unchirped)),
        ("chirp_enhancement_orders", _fmt(orders)),
        (
            "chirp_dc_rel_err_stationary_phase",
            _fmt(abs(abs(numeric) - abs(est.stationary_phase)) / abs(numeric)),
        ),
        (
            "chirp_dc_rel_err_closed_form",
            _fmt(abs(abs(numeric) - abs(est.closed_form)) / abs(numeric)),
        ),
    ]
    entries.extend(_discrepancy_entries(cfg))
    _write_summary(out_dir / "summary.txt", entries)


def _run_slab(cfg: ExperimentConfig, out_dir: Path) -> None:
    stack: LayerStack = cfg.medium
    grid = cfg.grid if cfg.grid is not None else _auto_grid(cfg)
    f0 = _load_pulse(cfg, grid)
    ell = stack.total_thickness
    a_eff, v_eff = effective_params(stack, ell)
    dc = signals.moment(f0, 0)
    t = grid.times()
    outputs = _propagate_over_z(f0, stack, cfg.z_values, cfg.threads)
    records = _sweep_records(outputs, f0)
    _write_outputs(out_dir, t, _signal_files("signal", outputs))
    _write_sweep(out_dir, records)

    entries = [
        ("experiment", cfg.experiment),
        ("medium", _describe_medium(stack)),
        ("effective_a", _fmt(a_eff)),
        ("effective_v", _fmt(v_eff)),
        ("dc_moment", _fmt(dc)),
        ("grid", f"n={grid.n} dt={grid.dt:g} t0={grid.t0:g}"),
    ]
    for (z, _), r in zip(outputs, records):
        closed = propagate.thin_slab_output(ell, a_eff, v_eff, z, dc, t)
        closed_peak = float(np.abs(closed).max())
        rel = abs(r.peak_amp - closed_peak) / closed_peak if closed_peak > 0 else np.inf
        entries.append((f"peak_amp[z={z:g}]", _fmt(r.peak_amp)))
        entries.append((f"slab_closed_form_peak[z={z:g}]", _fmt(closed_peak)))
        entries.append((f"slab_peak_rel_err[z={z:g}]", _fmt(rel)))
        entries.append((f"rms_width[z={z:g}]", _fmt(r.rms_width)))
    entries.extend(_discrepancy_entries(cfg))
    _write_summary(out_dir / "summary.txt", entries)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _semigroup_max_rel(medium, rng, n_triples: int = 10000) -> float:
    """Worst relative error of segment composition over random (z1, z2, omega).

    The sampling window keeps |z * absorption| small enough that the transfer
    magnitudes stay well inside double range, so relative error is meaningful.
    """
    per_block = 100
    worst = 0.0
    for _ in range(n_triples // per_block):
        z1 = float(rng.uniform(0.0, 1.5))
        z2 = float(rng.uniform(0.0, 1.5))
        w = rng.uniform(-10.0, 10.0, per_block)
        lhs = transfer_between(medium, 0.0, z1, w) * transfer_between(medium, z1, z1 + z2, w)
        rhs = transfer_between(medium, 0.0, z1 + z2, w)
        worst = max(worst, float((np.abs(lhs - rhs) / np.abs(rhs)).max()))
    return worst


def _verify_media():
    return {
        "quadratic": QuadraticMedium(a=1.0, v=1.0, ell_inv=0.1),
        "exp_kernel": ExpKernelMedium(K=10.0, Kp=100.0),
        "layered": LayerStack(
            [(0.7, QuadraticMedium(a=1.0, v=1.0)), (0.8, ExpKernelMedium(K=10.0, Kp=100.0))]
        ),
    }


def _verify_checks(cfg: ExperimentConfig):
    """Invariant suite; yields (name, passed, detail)."""
    rng = np.random.default_rng(cfg.seed)

    grid = TimeGrid(n=2048, dt=0.01, t0=-10.24)
    sig = SampledSignal(grid, rng.standard_normal(grid.n))
    back = inverse_transform(forward_transform(sig))
    err = float(np.abs(back.values - sig.values).max())
    yield "transform_round_trip", err < 1e-12, f"max abs err {err:.3e}"

    for name, medium in _verify_media().items():
        rel = _semigroup_max_rel(medium, rng)
        yield f"semigroup_{name}", rel < 1e-12, f"max rel err {rel:.3e}"

    worst = 0.0
    for medium in _verify_media().values():
        for _ in range(50):
            z = float(rng.uniform(0.0, 3.0))
            w = rng.uniform(-30.0, 30.0, 200)
            worst = max(worst, float(np.abs(transfer_function(medium, z, w)).max()))
    yield "passivity", worst <= 1.0 + 1e-15, f"max |transfer| {worst:.15f}"

    worst = 0.0
    medium = QuadraticMedium(a=1.0, v=1.0)
    for z in (10.0, 100.0, 1000.0):
        for T in (0.5, 1.0):
            for omega0 in (0.0, 2.0):
                g = recommend_grid(T, omega0, 1.0, 1.0, z, margin_sigmas=10.0)
                f0 = signals.gaussian_pulse(PulseSpec(kind="gaussian", T=T, omega0=omega0), g)
                out = propagate.propagate_fft(f0, medium, z).signal
                ref = propagate.analytic_gaussian_output(T, omega0, 1.0, 1.0, z, g.times())
                worst = max(worst, float(np.abs(out.values - ref).max()))
    yield "gaussian_closed_form_oracle", worst < 1e-8, f"max abs err {worst:.3e}"

    ok = True
    for m in range(0, 31):
        c = stochastic.impulse_tail_coefficients(m).coeffs
        if c[-1] != 1 or c[0] != stochastic._double_factorial(2 * m - 1):
            ok = False
        if m >= 1:
            prev = stochastic.impulse_tail_coefficients(m - 1).coeffs
            for l in range(1, m):
                if c[l] != (2 * m - 1 - l) * prev[l] + prev[l - 1]:
                    ok = False
    ok = ok and stochastic.impulse_tail_coefficients(2).coeffs == (3, 3, 1)
    yield "coefficient_recurrence", ok, "orders 0..30 exact"

    # adaptive quadrature: the averaged impulse has a kink at the arrival
    # time, where a uniform-grid sum stalls at O((c*dt)^2) accuracy
    areas = [quad(lambda t: propagate.gaussian_impulse_response(1.0, 1.0, 20.0, t), -40.0, 100.0)[0]]
    for m in range(0, 4):
        spec = EnsembleSpec(b=1.0, m=m, v=1.0)
        areas.append(
            quad(
                lambda t: stochastic.stochastic_impulse(spec, 4.0, t),
                -400.0, 400.0, points=[4.0], limit=400,
            )[0]
        )
    ok = all(abs(area - 1.0) < 1e-8 for area in areas)
    yield "impulse_normalization", ok, "; ".join(f"{area:.12f}" for area in areas)

    worst = 0.0
    for m in range(0, 4):
        spec = EnsembleSpec(b=1.0, m=m, v=1.0)
        z = 1.0
        for tau in (0.0, 0.3, 1.0, 2.5, 7.0):
            if tau == 0.0:
                ref = quad(
                    lambda w_: (1 + z * w_**2 / spec.b) ** (-(m + 1)) / np.pi,
                    0, np.inf, epsabs=1e-12,
                )[0]
            else:
                ref = quad(
                    lambda w_: (1 + z * w_**2 / spec.b) ** (-(m + 1)) / np.pi,
                    0, np.inf, weight="cos", wvar=tau, epsabs=1e-12,
                )[0]
            got = float(stochastic.stochastic_impulse(spec, z, z / spec.v + tau))
            worst = max(worst, abs(got - ref))
    yield "stochastic_closed_form_vs_quadrature", worst < 1e-8, f"max abs err {worst:.3e}"

    g = TimeGrid(n=1 << 15, dt=0.01, t0=-50.0)
    metric_far = analysis.causality_metric(
        SampledSignal(g, propagate.gaussian_impulse_response(1.0, 1.0, 100.0, g.times()))
    )
    g2 = TimeGrid(n=1 << 15, dt=0.001, t0=-10.0)
    metric_near = analysis.causality_metric(
        SampledSignal(g2, propagate.gaussian_impulse_response(1.0, 1.0, 1.0, g2.times()))
    )
    g3 = TimeGrid(n=1 << 13, dt=0.01, t0=-20.0)
    metric_exp = analysis.causality_metric(
        propagate.impulse_response_fft(ExpKernelMedium(K=10.0, Kp=100.0), 20.0, g3)
    )
    ok = metric_far < 1e-12 and metric_exp < 1e-3 and abs(metric_near - 0.159) < 0.01
    yield (
        "causality_regimes",
        ok,
        f"deep {metric_far:.3e}; exp-kernel {metric_exp:.3e}; shallow {metric_near:.4f}",
    )

    worst = 0.0
    w = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0])
    for m, z in ((0, 0.5), (1, 4.0), (3, 16.0)):
        spec = EnsembleSpec(b=2.0, m=m, v=1.0)
        direct = stochastic.averaged_transfer_direct(spec, z, w)
        oracle = stochastic.averaged_transfer_quadrature(spec, z, w)
        worst = max(worst, float(np.abs(direct - oracle).max()))
    yield "direct_average_closed_form_vs_quadrature", worst < 1e-12, f"max abs err {worst:.3e}"

    # the Monte Carlo mean against its exact limit, in units of the exact
    # standard error; the sample standard error is too small in the tails,
    # where the mean rests on a few rare wide draws
    spec = EnsembleSpec(b=2.0, m=1, v=1.0)
    n_draws = 10000
    gmc = TimeGrid(n=2048, dt=0.05, t0=-30.0)
    f0 = signals.gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), gmc)
    mc = stochastic.monte_carlo_output(f0, spec, 4.0, n_draws, cfg.seed)
    direct_kernel = stochastic.averaged_transfer_direct(spec, 4.0, gmc.omegas())
    ref = propagate.apply_transfer(forward_transform(f0), direct_kernel)
    stderr = stochastic.draw_std(f0, spec, 4.0) / np.sqrt(n_draws)
    dev = _deviation_sigmas(mc, ref, stderr)
    yield "monte_carlo_vs_quadrature", dev < 4.0, f"max deviation {dev:.2f} sigma"


def _run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    entries = [("experiment", "verify")]
    failures = 0
    for name, passed, detail in _verify_checks(cfg):
        status = "PASS" if passed else "FAIL"
        print(f"CHECK {name}: {status} ({detail})")
        entries.append((f"verify_{name}", f"{'pass' if passed else 'fail'} ({detail})"))
        if not passed:
            failures += 1
    entries.extend(_discrepancy_entries(cfg))
    _write_summary(out_dir / "summary.txt", entries)
    print(f"verify: {failures} failure(s)")
    return 2 if failures else 0


def run(cfg: ExperimentConfig) -> int:
    """Execute an experiment; returns the process exit status."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.experiment in ("propagate", "sweep-z"):
        _run_propagation(cfg, out_dir, fit_slope=(cfg.experiment == "sweep-z"))
        return 0
    if cfg.experiment == "stochastic":
        _run_stochastic(cfg, out_dir)
        return 0
    if cfg.experiment == "chirp":
        _run_chirp(cfg, out_dir)
        return 0
    if cfg.experiment == "slab":
        _run_slab(cfg, out_dir)
        return 0
    return _run_verify(cfg, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="precursor-lab",
        description="Batch pulse-propagation experiments for passive media",
    )
    parser.add_argument("config", help="path to a config file")
    parser.add_argument("--output-dir", help="override the config output directory")
    parser.add_argument("--experiment", help="override the experiment name")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--threads", type=int, help="override the thread count")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"io-error: cannot read config: {exc}", file=sys.stderr)
        return 1

    overrides = {}
    if args.experiment is not None:
        overrides["experiment"] = args.experiment
    if args.output_dir is not None:
        overrides["output-dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads

    try:
        cfg = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
