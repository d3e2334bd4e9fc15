"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expected values come from closed forms evaluated
independently of the code paths under test (direct quadrature, analytic
formulas, exact power laws).  Criteria 1, 5, 6, 10 and 12 call the checks of
:mod:`precursor_lab.verify`, which the ``verify`` experiment runs, so each of
those checks is written once, there.
"""

import numpy as np
import pytest

from precursor_lab import (
    EnsembleSpec,
    ExpKernelMedium,
    LayerStack,
    PulseSpec,
    QuadraticMedium,
    SampledSignal,
    SweepRecord,
    TimeGrid,
    chirp_dc_content,
    chirp_dc_exact,
    effective_params,
    energy_ratio,
    fit_decay_exponent,
    gaussian_impulse_response,
    moment,
    peak,
    propagate_fft,
    rms_width,
    sample_pulse,
    stochastic_impulse,
    thin_slab_output,
)
from precursor_lab import experiments, verify
from precursor_lab.cli import run
from precursor_lab.config import ExperimentConfig, parse_config
from reference import moment_expansion_output, quadratic_approximation, shape_rms_diff


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

SWEEP_Z = (100.0, 200.0, 400.0, 800.0, 1600.0)


@pytest.fixture(scope="module")
def gaussian_sweep():
    """FFT outputs for the standard Gaussian/quadratic setup, z in 100..1600 aT^2."""
    medium = QuadraticMedium(a=1.0, v=1.0)
    grid = TimeGrid(n=1 << 15, dt=0.1, t0=-200.0)
    f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), grid)
    outputs = {z: propagate_fft(f0, medium, z) for z in SWEEP_Z}
    return grid, f0, outputs


@pytest.fixture(scope="module")
def long_range_grid():
    # rect edges at +-1/2 land exactly on the binary grid spacing 1/256
    return TimeGrid(n=1 << 22, dt=1.0 / 256, t0=-1500.0)


def test_criterion_01_oracle_equivalence():
    ok, detail = verify.gaussian_closed_form_oracle()
    _report(1, "oracle_equivalence", ok, f"{detail} < 1e-8")


def test_criterion_02_inverse_sqrt_decay(gaussian_sweep):
    _, f0, outputs = gaussian_sweep
    records = []
    for z, sig in outputs.items():
        t_peak, amp = peak(sig)
        records.append(
            SweepRecord(z=z, t_peak=t_peak, peak_amp=amp, rms_width=rms_width(sig),
                        energy_ratio=energy_ratio(sig, f0))
        )
    slope, stderr = fit_decay_exponent(records)
    _report(2, "inverse_sqrt_decay", abs(slope + 0.5) <= 0.01,
            f"slope {slope:.4f} (stderr {stderr:.4f}) within -0.500 +- 0.01")


def test_criterion_03_pulse_broadening(gaussian_sweep):
    _, _, outputs = gaussian_sweep
    ratio = rms_width(outputs[1600.0]) / rms_width(outputs[400.0])
    _report(3, "pulse_broadening", abs(ratio - 2.0) <= 0.02,
            f"width ratio {ratio:.4f} within 2.00 +- 0.02")


def test_criterion_04_energy_ratio(gaussian_sweep):
    _, f0, outputs = gaussian_sweep
    measured = energy_ratio(outputs[400.0], f0)
    expected = 2.0 * np.sqrt(1.0 / 400.0) * np.exp(-4.0) / (1.0 + np.exp(-4.0))
    rel = abs(measured - expected) / expected
    _report(4, "energy_ratio", rel <= 0.02,
            f"measured {measured:.6e} vs formula {expected:.6e}, rel err {rel:.4f} <= 2%")


def test_criterion_05_semigroup():
    rng = np.random.default_rng(2024)
    results = [verify.semigroup(medium, rng) for medium in verify._MEDIA.values()]
    ok = all(passed for passed, _ in results)
    _, detail = max(results, key=lambda result: float(result[1].split()[-1]))
    _report(5, "semigroup", ok, f"{detail} < 1e-12 over 1e4 triples per variant")


def test_criterion_06_approximate_causality():
    ok, detail = verify.causality_regimes()
    bounds = ("< 1e-12", "< 1e-3", "~ 0.159")
    _report(6, "approximate_causality", ok,
            "; ".join(f"{part} {bound}" for part, bound in zip(detail.split("; "), bounds)))


def test_criterion_07_exp_kernel_moment_relations():
    # the medium's exact reduction, and the numerical probe at K/100 that checks it
    med = ExpKernelMedium(K=10.0, Kp=100.0)
    exact = med.quadratic_reduction()
    q = quadratic_approximation(med, med.K / 100.0)
    a_expected = med.K**3 / (2.0 * med.Kp)  # 5.0
    v_expected = med.K**2 / med.Kp  # 1.0
    rel_a = abs(q.a - a_expected) / a_expected
    rel_v = abs(q.v - v_expected) / v_expected
    ok = (exact.a, exact.v) == (a_expected, v_expected) and rel_a <= 0.01 and rel_v <= 0.01
    _report(7, "exp_kernel_moment_relations", ok,
            f"a {q.a:.4f} vs {a_expected} ({rel_a:.2e}); v {q.v:.6f} vs {v_expected} ({rel_v:.2e})")


def test_criterion_08_shape_universality(long_range_grid):
    g = long_range_grid
    medium = QuadraticMedium(a=1.0, v=1.0)
    z = 1e4
    out_gauss = propagate_fft(
        sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g), medium, z
    )
    out_rect = propagate_fft(
        sample_pulse(PulseSpec(kind="rect", T=1.0, omega0=2.0), g), medium, z
    )
    rel = shape_rms_diff(out_gauss, out_rect)
    _report(8, "shape_universality", rel <= 0.02,
            f"peak-normalized rms difference {rel:.4e} <= 2%")


def test_criterion_09_zero_dc_case(zero_dc_rect, small_run_summary):
    f0, out = zero_dc_rect
    g = f0.grid
    z = 1e4
    order0_peak = float(np.abs(
        gaussian_impulse_response(1.0, 1.0, z, g.times()) * moment(f0, 0)
    ).max())
    series = moment_expansion_output(f0, 1.0, 1.0, z, 2, g.times())
    rel = shape_rms_diff(out, SampledSignal(g, series))
    reported = "zero_dc_closed_form_vs_series_ratio: 2" in small_run_summary
    ok = order0_peak < 1e-10 and rel <= 0.02 and reported
    _report(9, "zero_dc_case", ok,
            f"order-0 peak {order0_peak:.2e} < 1e-10; order-2 vs fft rms {rel:.4e} <= 2%; "
            f"ratio reported: {reported}")


def test_criterion_10_chirp_enhancement():
    exact_ok, exact_detail = verify.chirp_dc_exact_vs_quadrature()
    T, omega0, alpha = 1.0, 10.0, 20.0
    exact = abs(chirp_dc_exact(T, omega0, alpha)[0])
    unchirped = np.sqrt(2.0 * np.pi) * T * np.exp(-((omega0 * T) ** 2) / 2.0)
    orders = np.log10(exact / unchirped)
    sp = abs(chirp_dc_content(T, omega0, alpha).stationary_phase)
    rel = abs(exact - sp) / exact
    _report(10, "chirp_enhancement", exact_ok and orders >= 10.0 and rel <= 0.15,
            f"exact vs quadrature {exact_detail} <= 1e-10; {orders:.1f} orders over unchirped (>= 10); "
            f"stationary-phase rel err {rel:.3f} <= 15%")


def test_criterion_11_composite_media():
    ell, pulse = 1.0, PulseSpec(kind="gaussian", T=1.0)
    depths = (2.0 * ell, 4.0 * ell, 8.0 * ell)
    quadratic = LayerStack([(ell, QuadraticMedium(a=0.01, v=2e8))])
    # an exp-kernel layer whose reduction is (a, v) = (0.01, 0.002): it arrives near
    # t = 500, past the fixed grid's end, so it takes the automatic grid
    exp_kernel = LayerStack([(ell, ExpKernelMedium(K=10.0, Kp=5e4))])
    cfg = ExperimentConfig(experiment="slab", z_values=depths, pulse=pulse, medium=exp_kernel)
    details, ok = [], True
    for name, stack, g in [
        ("quadratic", quadratic, TimeGrid(n=1 << 14, dt=0.01, t0=-60.0)),
        ("exp-kernel", exp_kernel, experiments.plan_grid(cfg, None)),
    ]:
        a_eff, v_eff = effective_params(stack, ell)
        f0 = sample_pulse(pulse, g)
        dc = moment(f0, 0)
        peaks_rel = []
        widths = []
        for z in depths:
            out = propagate_fft(f0, stack, z)
            closed_peak = float(np.abs(thin_slab_output(ell, a_eff, v_eff, z, dc, g.times())).max())
            peaks_rel.append(abs(np.abs(out.values).max() - closed_peak) / closed_peak)
            widths.append(rms_width(out))
        width_spread = max(widths) / min(widths) - 1.0
        ok = ok and max(peaks_rel) <= 0.05 and width_spread <= 0.01
        details.append(f"{name}: peak rel err {max(peaks_rel):.4f} <= 5%, width spread {width_spread:.2e} <= 1%")
    _report(11, "composite_media", ok, "; ".join(details))


def test_criterion_12_stochastic_closed_form(small_run_summary):
    closed_ok, closed_detail = verify.stochastic_closed_form_vs_quadrature()
    table_ok, table_detail = verify.coefficient_recurrence()
    direct_ok, direct_detail = verify.direct_average_closed_form_vs_quadrature()
    # the Monte Carlo mean against its exact limit, in exact standard errors
    mc_ok, mc_detail = verify.monte_carlo_vs_direct_average(42)

    reported = "ensemble_kernel_log_ratio_quadrature_vs_closed_form: 0.5" in small_run_summary
    ok = closed_ok and table_ok and direct_ok and mc_ok and reported
    _report(12, "stochastic_closed_form", ok,
            f"closed form vs quadrature {closed_detail} < 1e-8; table {table_detail}: {table_ok}; "
            f"direct average vs quadrature {direct_detail} < 1e-10; "
            f"monte carlo {mc_detail} < 4 sigma; kernel diagnostic reported: {reported}")


def test_criterion_13_exponential_tails():
    worst = 0.0
    for m, b, z, xlo, xhi in [(0, 1.0, 1.0, 1.0, 10.0), (1, 1.0, 1.0, 50.0, 150.0)]:
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        c = np.sqrt(b / z)
        tau = np.linspace(xlo / c, xhi / c, 200)
        vals = stochastic_impulse(spec, z, z / spec.v + tau)
        slope = np.polyfit(tau, np.log(vals), 1)[0]
        worst = max(worst, abs(slope + c) / c)
    _report(13, "exponential_tails", worst <= 0.02,
            f"log-envelope slope rel err {worst:.4f} <= 2%")


@pytest.fixture(scope="module")
def small_run_summary(tmp_path_factory):
    """summary.txt from a small batch run; carries the discrepancy reports."""
    out = tmp_path_factory.mktemp("accept_run")
    cfg = parse_config(
        "experiment = propagate\nz = 20\n\n"
        "[grid]\nn = 4096\ndt = 0.05\nt0 = -30\n\n"
        "[pulse]\nkind = gaussian\nT = 1\nomega0 = 0\n\n"
        "[medium]\nvariant = quadratic\na = 1\nv = 1\n",
        {"output-dir": str(out)},
    )
    assert run(cfg) == 0
    return (out / "summary.txt").read_text()
