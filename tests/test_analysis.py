import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import precursor_lab
from precursor_lab import (
    PulseSpec,
    QuadraticMedium,
    SampledSignal,
    SweepRecord,
    TimeGrid,
    analytic_gaussian_output,
    causality_metric,
    energy_ratio,
    fit_decay_exponent,
    gaussian_impulse_response,
    gaussian_pulse,
    peak,
    propagate_fft,
    rect_pulse,
    recommend_grid,
    rms_width,
    shape_rms_diff,
)


def _grid(n=4096, dt=0.01, t0=None):
    return TimeGrid(n=n, dt=dt, t0=-(n // 2) * dt if t0 is None else t0)


class TestPeak:
    def test_analytic_output_peaks_at_arrival_time(self):
        g = TimeGrid(n=1 << 13, dt=0.05, t0=-50.0)
        vals = analytic_gaussian_output(1.0, 2.0, 1.0, 1.0, 100.0, g.times())
        t_peak, amp = peak(SampledSignal(g, vals))
        assert abs(t_peak - 100.0) <= g.dt / 2
        assert amp > 0

    def test_input_gaussian(self):
        g = _grid()
        t_peak, amp = peak(gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g))
        assert t_peak == pytest.approx(0.0, abs=1e-9)
        assert amp == pytest.approx(1.0, rel=1e-9)

    def test_subsample_refinement(self):
        # envelope centered between grid points: parabola recovers the offset
        g = TimeGrid(n=256, dt=0.1, t0=-12.8 + 0.033)
        vals = np.exp(-(g.times() ** 2) / 2)
        t_peak, amp = peak(SampledSignal(g, vals))
        assert abs(t_peak) < 0.02  # much better than dt/2 = 0.05
        assert amp == pytest.approx(1.0, abs=1e-3)

    def test_zero_signal_rejected(self):
        g = _grid(n=64)
        with pytest.raises(ValueError):
            peak(SampledSignal(g, np.zeros(64)))

    def test_translation_covariance(self):
        g = _grid()
        base = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        shifted = SampledSignal(g, np.roll(base.values, 700))
        t1, a1 = peak(base)
        t2, a2 = peak(shifted)
        assert t2 - t1 == pytest.approx(700 * g.dt, abs=1e-9)
        assert a2 == pytest.approx(a1, rel=1e-12)


class TestRmsWidth:
    def test_gaussian_envelope(self):
        g = _grid(n=1 << 13, dt=0.005)
        f = SampledSignal(g, np.exp(-(g.times() ** 2) / 2))  # sigma = 1
        assert rms_width(f) == pytest.approx(0.7071067811865475, rel=1e-6)

    def test_rect_envelope(self):
        # half-weight edge samples bias the discrete second moment by O(dt/T)
        g = _grid(n=1 << 13, dt=0.001)
        f = rect_pulse(PulseSpec(kind="rect", T=2.0), g)
        assert rms_width(f) == pytest.approx(2.0 / (2 * np.sqrt(3.0)), rel=1e-3)

    def test_broadening_ratio_at_two_depths(self):
        medium = QuadraticMedium(a=1.0, v=1.0)
        g = recommend_grid(1.0, 2.0, 1.0, 1.0, 1600.0, margin_sigmas=8.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        w1 = rms_width(propagate_fft(f0, medium, 400.0))
        w2 = rms_width(propagate_fft(f0, medium, 1600.0))
        assert w2 / w1 == pytest.approx(2.0, abs=0.02)

    def test_translation_invariance(self):
        g = _grid()
        base = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=5.0), g)
        shifted = SampledSignal(g, np.roll(base.values, 512))
        assert rms_width(shifted) == pytest.approx(rms_width(base), rel=1e-9)

    def test_zero_energy_rejected(self):
        g = _grid(n=64)
        with pytest.raises(ValueError):
            rms_width(SampledSignal(g, np.zeros(64)))


def _records_from_power_law(exponent, amps_scale=1.0):
    zs = np.array([100.0, 200.0, 400.0, 800.0, 1600.0])
    return [
        SweepRecord(z=z, t_peak=z, peak_amp=amps_scale * z**exponent, rms_width=np.sqrt(z), energy_ratio=1.0)
        for z in zs
    ]


class TestDecayFit:
    def test_exact_inverse_sqrt(self):
        slope, stderr = fit_decay_exponent(_records_from_power_law(-0.5))
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_exact_inverse_linear(self):
        # the no-broadening strawman decays as 1/z, clearly distinguishable
        slope, _ = fit_decay_exponent(_records_from_power_law(-1.0))
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_amplitude_scaling_invariance(self):
        s1, _ = fit_decay_exponent(_records_from_power_law(-0.5, 1.0))
        s2, _ = fit_decay_exponent(_records_from_power_law(-0.5, 137.0))
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_bit_identical_to_linregress(self):
        from scipy.stats import linregress

        rng = np.random.default_rng(4)
        fits = [_records_from_power_law(-0.5), _records_from_power_law(-1.0, 137.0)]
        for _ in range(500):
            n = int(rng.integers(3, 13))
            zs = np.sort(rng.uniform(1.0, 2000.0, n))
            amps = zs ** rng.uniform(-1.5, 0.0) * np.exp(rng.normal(0.0, 0.1, n))
            fits.append(
                [
                    SweepRecord(z=z, t_peak=z, peak_amp=a, rms_width=1.0, energy_ratio=1.0)
                    for z, a in zip(zs, amps)
                ]
            )
        for recs in fits:
            ref = linregress(np.log([r.z for r in recs]), np.log([r.peak_amp for r in recs]))
            assert fit_decay_exponent(recs) == (float(ref.slope), float(ref.stderr))

    def test_equal_amplitudes_fit_exactly(self):
        # linregress's correlation is 0/0 here and its stderr nan
        recs = [
            SweepRecord(z=z, t_peak=1.0, peak_amp=0.25, rms_width=1.0, energy_ratio=1.0)
            for z in (7.54422, 107.286, 125.133, 233.894)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_decay_exponent(recs) == (0.0, 0.0)

    def test_needs_three_distinct_depths(self):
        recs = _records_from_power_law(-0.5)[:2]
        with pytest.raises(ValueError):
            fit_decay_exponent(recs)
        dup = _records_from_power_law(-0.5)
        dup[1] = SweepRecord(z=100.0, t_peak=1.0, peak_amp=1.0, rms_width=1.0, energy_ratio=1.0)
        with pytest.raises(ValueError):
            fit_decay_exponent(dup)


class TestEnergyRatio:
    def test_identity_at_zero_depth(self):
        g = _grid()
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        out = propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), 0.0)
        assert energy_ratio(out, f0) == pytest.approx(1.0, abs=1e-12)

    def test_uncarried_gaussian_at_100_widths(self):
        # omega0 = 0, z = 100 a T^2: ratio tends to sqrt(aT^2/z) = 0.1
        g = recommend_grid(1.0, 0.0, 1.0, 1.0, 100.0, margin_sigmas=8.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        out = propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), 100.0)
        assert energy_ratio(out, f0) == pytest.approx(0.1, rel=0.02)

    def test_zero_input_rejected(self):
        g = _grid(n=64)
        zero = SampledSignal(g, np.zeros(64))
        with pytest.raises(ValueError):
            energy_ratio(zero, zero)


class TestCausalityMetric:
    def test_deep_regime_negligible(self):
        g = TimeGrid(n=1 << 15, dt=0.01, t0=-50.0)
        m = SampledSignal(g, gaussian_impulse_response(1.0, 1.0, 100.0, g.times()))
        assert causality_metric(m) < 1e-12

    def test_marginal_regime_one_sided_tail(self):
        # a z / v^2 = 1: mass below zero is the one-sigma normal tail
        g = TimeGrid(n=1 << 15, dt=0.001, t0=-10.0)
        m = SampledSignal(g, gaussian_impulse_response(1.0, 1.0, 1.0, g.times()))
        assert causality_metric(m) == pytest.approx(0.15865525393145707, abs=1e-3)

    def test_monotone_in_depth_ratio(self):
        g = TimeGrid(n=1 << 15, dt=0.002, t0=-20.0)
        metrics = []
        for z in (0.5, 1.0, 2.0, 4.0, 8.0):  # a z / v^2 = z here
            m = SampledSignal(g, gaussian_impulse_response(1.0, 1.0, z, g.times()))
            metrics.append(causality_metric(m))
        assert all(m2 <= m1 + 1e-15 for m1, m2 in zip(metrics, metrics[1:]))

    def test_zero_response_rejected(self):
        g = _grid(n=64)
        with pytest.raises(ValueError):
            causality_metric(SampledSignal(g, np.zeros(64)))


class TestShapeRmsDiff:
    def test_identical_shapes_differing_by_amplitude(self):
        g = _grid()
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        scaled = SampledSignal(g, 17.0 * f.values)
        assert shape_rms_diff(f, scaled) == pytest.approx(0.0, abs=1e-14)

    def test_mismatched_grids_rejected(self):
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), _grid())
        h = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), _grid(n=2048))
        with pytest.raises(ValueError):
            shape_rms_diff(f, h)


def test_import_leaves_out_scipy_stats():
    # scipy.stats alone costs most of the import; nothing in the package needs it
    src = str(Path(precursor_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, precursor_lab; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
