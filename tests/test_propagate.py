import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precursor_lab import (
    ExpKernelMedium,
    GridAdequacyWarning,
    LayerStack,
    PulseSpec,
    QuadraticMedium,
    Spectrum,
    TimeGrid,
    analytic_gaussian_output,
    apply_transfer,
    chirp_dc_content,
    chirp_dc_exact,
    chirp_dc_quadrature,
    effective_params,
    forward_transform,
    free_space,
    gaussian_impulse_derivatives,
    gaussian_impulse_response,
    input_spectrum,
    inverse_transform,
    moment,
    propagate_fft,
    sample_pulse,
    thin_slab_output,
    transfer_function,
    zero_dc_rect_output,
    zero_dc_rect_output_series,
)
from precursor_lab import experiments
from precursor_lab.config import ExperimentConfig
from reference import analytic_rect_output_largez, moment_expansion_output


def _planned_grid(pulse, medium, z):
    """The automatic grid of a ``propagate`` run of ``pulse`` through ``medium`` to depth ``z``."""
    cfg = ExperimentConfig("propagate", z_values=(z,), pulse=pulse, medium=medium)
    return experiments.plan_grid(cfg, None)


class TestPropagateFFT:
    def test_zero_depth_identity(self):
        g = TimeGrid(n=1024, dt=0.05, t0=-25.0)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        out = propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), 0.0)
        assert np.abs(out.values - f0.values).max() < 1e-12

    def test_matches_gaussian_closed_form(self):
        pulse = PulseSpec(kind="gaussian", T=1.0, omega0=2.0)
        medium = QuadraticMedium(a=1.0, v=1.0)
        g = _planned_grid(pulse, medium, 10.0)
        f0 = sample_pulse(pulse, g)
        out = propagate_fft(f0, medium, 10.0)
        ref = analytic_gaussian_output(1.0, 2.0, 1.0, 1.0, 10.0, g.times())
        assert np.abs(out.values - ref).max() < 1e-8

    def test_pure_delay_shifts_input(self):
        g = TimeGrid(n=2048, dt=0.05, t0=-25.0)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        out = propagate_fft(f0, free_space(v=1.0), 5.0)
        expected = np.exp(-((g.times() - 5.0) ** 2) / 2)
        assert np.abs(out.values - expected).max() < 1e-10

    def test_warns_when_output_runs_off_grid(self):
        g = TimeGrid(n=512, dt=0.05, t0=-12.8)  # far too short for z = 50
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        with pytest.warns(GridAdequacyWarning):
            propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), 50.0)

    def test_negative_depth_rejected(self):
        g = TimeGrid(n=256, dt=0.05, t0=-6.4)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        with pytest.raises(ValueError):
            propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), -1.0)


class TestApplyTransfer:
    MEDIA = {
        "quadratic": QuadraticMedium(a=1.0, v=1.0, ell_inv=0.1),
        "exp_kernel": ExpKernelMedium(K=10.0, Kp=100.0),
        "layered": LayerStack(
            [(0.7, QuadraticMedium(a=1.0, v=1.0)), (0.8, ExpKernelMedium(K=10.0, Kp=100.0))]
        ),
    }

    # 32768 complex samples are large enough for numpy to multiply in place
    # into a temporary operand; 1024 are not
    @pytest.mark.parametrize("n", [1024, 32768])
    @pytest.mark.parametrize("name", sorted(MEDIA))
    def test_shared_spectrum_equals_propagate_fft(self, name, n):
        medium = self.MEDIA[name]
        g = TimeGrid(n=n, dt=0.05, t0=-20.0)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        spectrum = input_spectrum(f0)
        for z in (0.5, 1.0, 2.0, 5.0):
            got = apply_transfer(spectrum, transfer_function(medium, z, g.omegas())).values
            assert np.array_equal(got, propagate_fft(f0, medium, z).values)
            # one transform pair per depth, the product taken with a fresh transfer
            ref = inverse_transform(
                Spectrum(g, forward_transform(f0).values * transfer_function(medium, z, g.omegas()))
            )
            assert np.array_equal(got, ref.values)


class TestImpulseResponse:
    def test_peak_height(self):
        z = 2 * np.pi
        peak = gaussian_impulse_response(1.0, 1.0, z, z)
        assert peak == pytest.approx(0.15915494309189535, rel=1e-14)  # 1/(2 pi)

    def test_unit_area(self):
        g = TimeGrid(n=1 << 14, dt=0.01, t0=-60.0)
        m = gaussian_impulse_response(1.0, 1.0, 20.0, g.times())
        assert g.dt * m.sum() == pytest.approx(1.0, abs=1e-10)

    def test_acausal_mass_negligible_deep(self):
        # a z / v^2 = 100: the response sits 10 standard widths past t = 0
        g = TimeGrid(n=1 << 15, dt=0.01, t0=-50.0)
        m = gaussian_impulse_response(1.0, 1.0, 100.0, g.times())
        t = g.times()
        acausal = g.dt * m[t < 0].sum()
        assert acausal < 1e-12

    def test_derivatives_factor_forms(self):
        t = np.linspace(-3.0, 10.0, 301)
        a, v, z = 2.0, 0.7, 5.0
        m, m1, m2 = gaussian_impulse_derivatives(a, v, z, t)
        tau = t - z / v
        assert np.allclose(m1, -(a / z) * tau * m, rtol=1e-14)
        assert np.allclose(m2, (a / z**2) * (a * tau**2 - z) * m, rtol=1e-14)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            gaussian_impulse_response(1.0, 1.0, 0.0, 0.0)


class TestAnalyticGaussianOutput:
    def test_small_depth_limit_recovers_input(self):
        t = np.linspace(-4, 4, 401)
        out = analytic_gaussian_output(1.0, 2.0, 1.0, 1.0, 1e-12, t)
        ref = np.exp(-(t**2) / 2) * np.cos(2 * t)
        assert np.abs(out - ref).max() < 1e-9

    def test_large_depth_reduction(self):
        # z >> a T^2: peak tends to sqrt(aT^2/z) e^{-(w0 T)^2/2}
        val = analytic_gaussian_output(1.0, 2.0, 1.0, 1.0, 1e4, 1e4)
        assert val == pytest.approx(0.0013533528323661271, rel=0.01)


class TestRectLargeDepth:
    def test_value_at_center(self):
        val = analytic_rect_output_largez(1.0, np.pi, 1.0, 1.0, 1e4, 1e4)
        assert val == pytest.approx(0.002539745437369639, rel=1e-12)

    def test_vanishes_for_whole_period_carrier(self):
        # sin(n pi) in floats is ~1e-16, so "identically zero" means ~16
        # orders below the generic closed-form scale of 2.5e-3
        t = np.linspace(9000, 11000, 101)
        out = analytic_rect_output_largez(1.0, 2 * np.pi, 1.0, 1.0, 1e4, t)
        assert np.abs(out).max() < 1e-18

    def test_matches_fft_at_long_range(self):
        z, T, w0 = 200.0, 1.0, np.pi
        pulse, medium = PulseSpec(kind="rect", T=T, omega0=w0), QuadraticMedium(a=1.0, v=1.0)
        g = _planned_grid(pulse, medium, z)
        g = TimeGrid(n=g.n * 4, dt=g.dt / 4, t0=g.t0)  # fine dt for the sharp edges
        f0 = sample_pulse(pulse, g)
        out = propagate_fft(f0, medium, z)
        i = np.argmax(np.abs(out.values))
        ref = analytic_rect_output_largez(T, w0, 1.0, 1.0, z, g.times()[i])
        assert out.values[i] == pytest.approx(ref, rel=0.05)


class TestMomentExpansion:
    def _rect_zero_dc(self):
        g = TimeGrid(n=1 << 13, dt=1.0 / 1024, t0=-4.0)
        return sample_pulse(PulseSpec(kind="rect", T=1.0, omega0=2 * np.pi), g)

    def test_order0_equals_impulse_times_dc(self):
        g = TimeGrid(n=1 << 12, dt=1.0 / 512, t0=-4.0)
        f0 = sample_pulse(PulseSpec(kind="rect", T=1.0, omega0=np.pi), g)
        t_eval = np.linspace(9800.0, 10200.0, 64)
        got = moment_expansion_output(f0, 1.0, 1.0, 1e4, 0, t_eval)
        ref = gaussian_impulse_response(1.0, 1.0, 1e4, t_eval) * moment(f0, 0)
        assert np.array_equal(got, ref)
        # and the dedicated long-range formula is the same object analytically
        closed = analytic_rect_output_largez(1.0, np.pi, 1.0, 1.0, 1e4, t_eval)
        assert np.allclose(got, closed, rtol=1e-5)

    def test_order1_term_vanishes_for_even_input(self):
        f0 = self._rect_zero_dc()
        t_eval = np.linspace(9.0e3, 1.1e4, 33)
        o0 = moment_expansion_output(f0, 1.0, 1.0, 1e4, 0, t_eval)
        o1 = moment_expansion_output(f0, 1.0, 1.0, 1e4, 1, t_eval)
        assert np.abs(o1 - o0).max() < 1e-18

    def test_order2_leading_term_for_zero_dc(self):
        f0 = self._rect_zero_dc()
        t_eval = np.array([1e4, 1e4 + 50.0, 1e4 - 120.0])
        got = moment_expansion_output(f0, 1.0, 1.0, 1e4, 2, t_eval)
        _, _, m2 = gaussian_impulse_derivatives(1.0, 1.0, 1e4, t_eval)
        ref = 0.5 * m2 * moment(f0, 2)
        # orders 0 and 1 contribute only round-off here
        assert np.allclose(got, ref, rtol=1e-6)

    def test_order_cap(self):
        f0 = self._rect_zero_dc()
        with pytest.raises(ValueError):
            moment_expansion_output(f0, 1.0, 1.0, 1e4, 3, 0.0)

    def test_order0_gaussian_matches_large_depth_reduction(self):
        # impulse response times the DC moment reproduces the long-range
        # Gaussian amplitude sqrt(aT^2/z) e^{-(w0 T)^2/2}
        g = TimeGrid(n=1 << 12, dt=0.01, t0=-20.48)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        z = 1e4
        t_eval = np.linspace(z - 300.0, z + 300.0, 41)
        got = moment_expansion_output(f0, 1.0, 1.0, z, 0, t_eval)
        ref = (
            np.sqrt(1.0 / z)
            * np.exp(-((t_eval - z) ** 2) / (2 * z))
            * np.exp(-2.0)
        )
        assert np.allclose(got, ref, rtol=1e-8)


class TestZeroDCRect:
    def test_center_value(self):
        got = zero_dc_rect_output(1, 1.0, 1.0, 1.0, 1e4, 1e4)
        assert got == pytest.approx(2.0210652027623286e-08, rel=1e-12)

    def test_sign_alternates_in_n(self):
        v1 = zero_dc_rect_output(1, 1.0, 1.0, 1.0, 1e4, 1e4)
        v2 = zero_dc_rect_output(2, 1.0, 1.0, 1.0, 1e4, 1e4)
        assert np.sign(v1) == -np.sign(v2)

    def test_series_value_is_half_the_closed_form(self):
        t = np.linspace(9.5e3, 1.05e4, 101)
        closed = zero_dc_rect_output(1, 1.0, 1.0, 1.0, 1e4, t)
        series = zero_dc_rect_output_series(1, 1.0, 1.0, 1.0, 1e4, t)
        ratio = closed[np.abs(series) > 1e-18] / series[np.abs(series) > 1e-18]
        assert np.allclose(ratio, 2.0, rtol=1e-12)

    def test_fft_adjudicates_series_amplitude(self, zero_dc_rect):
        # propagated zero-DC rectangular pulse: the measured peak matches the
        # series value, not the doubled closed form
        z = 1e4
        _, out = zero_dc_rect
        g = out.grid
        fft_peak = np.abs(out.values).max()
        series_peak = np.abs(zero_dc_rect_output_series(1, 1.0, 1.0, 1.0, z, g.times())).max()
        closed_peak = np.abs(zero_dc_rect_output(1, 1.0, 1.0, 1.0, z, g.times())).max()
        assert fft_peak == pytest.approx(series_peak, rel=1e-3)
        assert closed_peak == pytest.approx(2.0 * series_peak, rel=1e-12)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            zero_dc_rect_output(0, 1.0, 1.0, 1.0, 1e4, 0.0)


class TestThinSlab:
    def _stack(self):
        return LayerStack([(1.0, QuadraticMedium(a=0.01, v=2e8))])

    def test_peak_is_depth_independent(self):
        t = np.linspace(-40.0, 40.0, 2001)
        peaks = [
            np.abs(thin_slab_output(1.0, 0.01, 2e8, z, 2.5, t)).max() for z in (2.0, 4.0, 8.0)
        ]
        assert np.ptp(peaks) < 1e-12 * peaks[0]

    def test_matches_layered_fft(self):
        stack = self._stack()
        a_eff, v_eff = effective_params(stack, 1.0)
        g = TimeGrid(n=1 << 14, dt=0.01, t0=-60.0)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        dc = moment(f0, 0)
        for z in (2.0, 8.0):
            out = propagate_fft(f0, stack, z)
            closed = thin_slab_output(1.0, a_eff, v_eff, z, dc, g.times())
            assert np.abs(out.values).max() == pytest.approx(np.abs(closed).max(), rel=0.05)

    def test_zero_dc_input_gives_zero(self):
        out = thin_slab_output(1.0, 0.01, 2e8, 4.0, 0.0, np.linspace(-30, 30, 101))
        assert np.abs(out).max() == 0.0

    def test_inside_slab_rejected(self):
        with pytest.raises(ValueError):
            thin_slab_output(1.0, 0.01, 2e8, 0.5, 1.0, 0.0)


class TestChirpDC:
    def test_numeric_oracle_vs_stationary_phase(self):
        numeric = chirp_dc_quadrature(1.0, 10.0, 20.0)[0]
        assert numeric == pytest.approx(-0.0800250490822739, abs=1e-9)
        est = chirp_dc_content(1.0, 10.0, 20.0)
        assert abs(abs(numeric) - abs(est.stationary_phase)) / abs(numeric) < 0.15

    def test_closed_form_argument_disagrees_with_quadrature(self):
        # the two oscillatory-argument conventions differ by 2; quadrature
        # sides with the stationary-phase one at this operating point
        numeric = abs(chirp_dc_quadrature(1.0, 10.0, 20.0)[0])
        est = chirp_dc_content(1.0, 10.0, 20.0)
        err_sp = abs(numeric - abs(est.stationary_phase)) / numeric
        err_cf = abs(numeric - abs(est.closed_form)) / numeric
        assert err_sp < 0.15 < err_cf

    def test_enhancement_over_unchirped(self):
        numeric = abs(chirp_dc_quadrature(1.0, 10.0, 20.0)[0])
        unchirped = np.sqrt(2 * np.pi) * np.exp(-50.0)
        assert numeric / unchirped > 1e10

    def test_decay_with_large_chirp_rate(self):
        # |F(0)| prefactor scales as alpha^{-1/2}
        e1 = chirp_dc_content(1.0, 0.0, 100.0)
        e2 = chirp_dc_content(1.0, 0.0, 400.0)
        assert abs(e2.stationary_phase / e1.stationary_phase) == pytest.approx(0.5, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            chirp_dc_content(1.0, 10.0, 0.0)

    def test_weak_chirp_warns(self):
        with pytest.warns(UserWarning):
            chirp_dc_content(1.0, 10.0, 0.5)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.1, 3.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    @example(1.0, 40.0, 20.0)
    @example(1.9976918805204442, 25.614804561229995, 1.8842310192655942)
    def test_exact_agrees_with_quadrature(self, T, omega0, alpha):
        # quad's error is absolute, near 1e-12, and up to 4.2 times its own
        # estimate: at the second example |exact| = 1.8e-10 is 217 times the
        # estimate, and the relative difference is 2.8e-4
        exact, log10_abs = chirp_dc_exact(T, omega0, alpha)
        numeric, abserr = chirp_dc_quadrature(T, omega0, alpha)
        assert abs(numeric - exact) <= 1e-10 * abs(exact) + 10.0 * abserr
        if exact:
            assert log10_abs == pytest.approx(np.log10(abs(exact)), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("omega0,closed_form_err", [(100.0, 1.8e-2), (300.0, 0.58)])
    def test_strong_chirp_limit_is_the_stationary_phase(self, omega0, closed_form_err):
        exact = abs(chirp_dc_exact(1.0, omega0, 1e4)[0])
        est = chirp_dc_content(1.0, omega0, 1e4)
        assert abs(exact - abs(est.stationary_phase)) / exact < 1e-4
        assert abs(exact - abs(est.closed_form)) / exact == pytest.approx(closed_form_err, rel=0.05)
