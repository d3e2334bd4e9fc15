import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from precursor_lab import (
    EnsembleSpec,
    PulseSpec,
    Spectrum,
    TimeGrid,
    averaged_transfer,
    averaged_transfer_direct,
    averaged_transfer_quadrature,
    draw_std,
    forward_transform,
    gaussian_draw_std,
    gaussian_pulse,
    impulse_tail_coefficients,
    inverse_transform,
    moment,
    monte_carlo_output,
    observed_output,
    rect_pulse,
    sample_inverse_a,
    stochastic_impulse,
    tail_decay_lengths,
)
from precursor_lab import stochastic
from precursor_lab.config import ExperimentConfig
from precursor_lab.experiments import plan_grid
from precursor_lab.grid import inverse_rows


class TestCoefficientTable:
    @pytest.mark.parametrize(
        "m,expected", [(0, (1,)), (1, (1, 1)), (2, (3, 3, 1)), (3, (15, 15, 6, 1))]
    )
    def test_small_orders(self, m, expected):
        assert impulse_tail_coefficients(m).coeffs == expected

    def test_relations_exact_up_to_cap(self):
        def dfact(k):
            out = 1
            while k > 1:
                out *= k
                k -= 2
            return out

        for m in range(31):
            c = impulse_tail_coefficients(m).coeffs
            assert c[-1] == 1
            assert c[0] == dfact(2 * m - 1)
            if m >= 1:
                prev = impulse_tail_coefficients(m - 1).coeffs
                for l in range(1, m):
                    assert c[l] == (2 * m - 1 - l) * prev[l] + prev[l - 1]

    def test_normalization_identity(self):
        # area of the closed form is sum_l C_l l! / (2^m m!) = 1
        for m in range(11):
            c = impulse_tail_coefficients(m).coeffs
            assert sum(cl * math.factorial(l) for l, cl in enumerate(c)) == 2**m * math.factorial(m)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            impulse_tail_coefficients(31)


class TestStochasticImpulse:
    def test_order0_center_value(self):
        # b/z = 4: (1/2) * sqrt(4) * e^0 = 1
        spec = EnsembleSpec(b=4.0, m=0, v=1.0)
        assert stochastic_impulse(spec, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_order1_center_value(self):
        # b/z = 1: (1/4) * 1 * C_0 = 0.25
        spec = EnsembleSpec(b=1.0, m=1, v=1.0)
        assert stochastic_impulse(spec, 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_unit_area(self, m):
        spec = EnsembleSpec(b=1.0, m=m, v=1.0)
        val, _ = quad(lambda t: stochastic_impulse(spec, 4.0, t), -400.0, 400.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_about_arrival(self):
        spec = EnsembleSpec(b=1.0, m=2, v=0.5)
        z = 3.0  # arrival at 6.0; quarter-step offsets keep 6 +- tau exact
        tau = np.arange(1, 60) * 0.25
        left = stochastic_impulse(spec, z, z / spec.v - tau)
        right = stochastic_impulse(spec, z, z / spec.v + tau)
        assert np.array_equal(left, right)

    def test_peak_scales_as_inverse_sqrt_depth(self):
        spec = EnsembleSpec(b=1.0, m=2, v=1.0)
        p1 = stochastic_impulse(spec, 2.0, 2.0)
        p4 = stochastic_impulse(spec, 8.0, 8.0)
        assert p1 / p4 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_kernel_quadrature(self, m):
        # independent route: numerically invert the averaged kernel
        spec = EnsembleSpec(b=1.0, m=m, v=1.0)
        z = 1.0
        for tau in (0.0, 0.3, 1.0, 2.5, 7.0):
            if tau == 0.0:
                ref = quad(
                    lambda w: (1 + z * w * w / spec.b) ** (-(m + 1)) / np.pi,
                    0, np.inf, epsabs=1e-12,
                )[0]
            else:
                ref = quad(
                    lambda w: (1 + z * w * w / spec.b) ** (-(m + 1)) / np.pi,
                    0, np.inf, weight="cos", wvar=tau, epsabs=1e-12,
                )[0]
            assert stochastic_impulse(spec, z, z + tau) == pytest.approx(ref, abs=1e-8)

    def test_exponential_tail_slope(self):
        for m, b, z, xlo, xhi, tol in [
            (0, 1.0, 1.0, 1.0, 10.0, 1e-10),
            (1, 1.0, 1.0, 50.0, 150.0, 0.02),
        ]:
            spec = EnsembleSpec(b=b, m=m, v=1.0)
            c = np.sqrt(b / z)
            tau = np.linspace(xlo / c, xhi / c, 200)
            vals = stochastic_impulse(spec, z, z / spec.v + tau)
            slope = np.polyfit(tau, np.log(vals), 1)[0]
            assert abs(slope + c) / c < tol


class TestAveragedTransfer:
    def test_dc_always_passes(self):
        spec = EnsembleSpec(b=1.0, m=3, v=1.0)
        for z in (0.0, 1.0, 1e6):
            assert averaged_transfer(spec, z, 0.0) == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_zero_depth_identity(self):
        spec = EnsembleSpec(b=1.0, m=1, v=1.0)
        w = np.linspace(-5, 5, 11)
        assert np.allclose(averaged_transfer(spec, 0.0, w), 1.0, atol=1e-15)

    def test_half_power_point(self):
        # m = 0 and z w^2 / b = 1 gives kernel 1/2
        spec = EnsembleSpec(b=2.0, m=0, v=1.0)
        got = averaged_transfer(spec, 2.0, 1.0)
        assert abs(got) == pytest.approx(0.5, rel=1e-14)

    def test_quadrature_average_has_half_the_argument(self):
        # direct averaging over the gamma density gives the same algebraic
        # form with half the argument; check against the analytic expectation
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        z = 4.0
        for w in (0.3, 1.0, 2.5):
            got = abs(averaged_transfer_quadrature(spec, z, w))
            expected = (1.0 + z * w * w / (2.0 * spec.b)) ** (-(spec.m + 1))
            assert got == pytest.approx(expected, rel=1e-9)
        # at small arguments the log-ratio against the closed form is 1/2
        w = 0.01
        ratio = np.log(abs(averaged_transfer_quadrature(spec, z, w))) / np.log(
            abs(averaged_transfer(spec, z, w))
        )
        assert ratio == pytest.approx(0.5, abs=1e-3)


class TestDirectAverage:
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("z", [0.5, 4.0, 16.0])
    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_gamma_laplace_identity_matches_quadrature(self, m, z, b):
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        w = np.array([0.0, 0.1, -0.7, 1.5, 4.0])
        direct = averaged_transfer_direct(spec, z, w)
        oracle = averaged_transfer_quadrature(spec, z, w)
        assert np.abs(direct - oracle).max() < 1e-12

    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    @pytest.mark.parametrize("b", [1e-3, 2.0, 1e12])
    def test_rule_matches_quadrature(self, m, b):
        # the weighted kernel sum on the rule's nodes y = b x, which draw_std
        # takes its moments from; the discrepancy probe sits at z w^2 / 2b = 1.25e-3
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        y, weights = stochastic._gamma_rule(m, stochastic.RULE_STEP)
        lam = np.array([0.0, 1e-6, 1.25e-3, 0.05, 0.2, 0.5])
        for z in (0.5, 4.0, 1600.0):
            w = np.sqrt(2.0 * b * lam / z) * np.array([1, -1, 1, -1, 1, 1])
            rule = stochastic._weighted_kernel(y, np.sort(z * np.square(w) / (2.0 * b)), weights)
            oracle = np.abs(averaged_transfer_quadrature(spec, z, w))
            assert (np.abs(rule - oracle) / oracle).max() < 1e-13
        w = np.sqrt(2.0 * b * 1.25e-3 / 4.0)
        rule = stochastic._weighted_kernel(y, np.array([4.0 * w * w / (2.0 * b)]), weights)[0]
        assert rule == pytest.approx(abs(averaged_transfer_quadrature(spec, 4.0, w)), rel=1e-13)

    def test_log_kernel_rule_takes_omega_in_any_order(self):
        # the sum runs over lambda sorted, so a shuffled, sign-flipped omega
        # gives the same values, permuted, byte for byte, in omega's shape;
        # unsorted, the vector-matrix product may round a column by its place
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0
        w = np.linspace(0.0, 20.0, 14)
        expected = stochastic.averaged_log_kernel_rule(spec, z, w)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            perm, signs = rng.permutation(w.size), rng.choice([-1.0, 1.0], w.size)
            got = stochastic.averaged_log_kernel_rule(spec, z, (signs * w[perm]).reshape(2, 7))
            assert got.shape == (2, 7) and got.tobytes() == expected[perm].tobytes()

    def test_half_the_closed_form_argument(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        w = np.linspace(-3.0, 3.0, 13)
        # halving z in the closed form halves the argument and the delay
        expected = averaged_transfer(spec, 2.0, w) * np.exp(2j * w)
        assert np.allclose(averaged_transfer_direct(spec, 4.0, w), expected, rtol=1e-14, atol=0)


class TestTailDecayLengths:
    @pytest.mark.parametrize("m", [0, 1, 3, 30])
    def test_root_of_tail_equation(self, m):
        eps = 1e-16
        x = tail_decay_lengths(m, eps)
        assert x > m
        assert x == pytest.approx(-math.log(eps) + m * math.log(x), rel=1e-12)
        assert m * math.log(x) - x == pytest.approx(math.log(eps), abs=1e-9)

    def test_order_zero_is_log_inverse_tolerance(self):
        assert tail_decay_lengths(0, 1e-10) == pytest.approx(10.0 * math.log(10.0), rel=1e-15)

    def test_rejects_tolerance_outside_unit_interval(self):
        for eps in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                tail_decay_lengths(1, eps)


class TestSampling:
    def test_draws_positive_and_deterministic(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        x = sample_inverse_a(spec, 10000, seed=42)
        assert (x > 0).all()
        assert np.array_equal(x, sample_inverse_a(spec, 10000, seed=42))
        assert not np.array_equal(x, sample_inverse_a(spec, 10000, seed=43))

    def test_draw_i_depends_only_on_seed_and_index(self):
        spec = EnsembleSpec(b=2.0, m=2, v=1.0)
        short = sample_inverse_a(spec, 100, seed=7)
        long = sample_inverse_a(spec, 10000, seed=7)
        assert np.array_equal(short, long[:100])

    def test_moments_at_one_million_draws(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        n = 1_000_000
        x = sample_inverse_a(spec, n, seed=123)
        mean, var = x.mean(), x.var()
        # mean (m+1)/b = 1, variance (m+1)/b^2 = 0.5
        assert abs(mean - 1.0) < 4 * np.sqrt(0.5 / n)
        assert abs(var - 0.5) < 4 * 0.5 * np.sqrt(5.0 / n)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_inverse_a(EnsembleSpec(b=1.0, m=0, v=1.0), 0, seed=1)


def _mc_fixture(n=2048, dt=0.05, t0=-30.0):
    g = TimeGrid(n=n, dt=dt, t0=t0)
    f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
    return g, f0


class TestObservedOutput:
    def test_zero_depth_identity(self):
        g, f0 = _mc_fixture()
        out = observed_output(forward_transform(f0), EnsembleSpec(b=1.0, m=1, v=1.0), 0.0)
        assert np.abs(out.values - f0.values).max() < 1e-12

    def test_narrow_input_reduces_to_impulse_response(self):
        spec = EnsembleSpec(b=1.0, m=1, v=1.0)
        g = TimeGrid(n=1 << 15, dt=0.005, t0=-80.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=0.1, omega0=0.0), g)
        out = observed_output(forward_transform(f0), spec, 4.0)
        ref = stochastic_impulse(spec, 4.0, g.times()) * moment(f0, 0)
        rel = np.linalg.norm(out.values - ref) / np.linalg.norm(ref)
        assert rel < 0.02

    def test_output_tails_are_exponential(self):
        # order 0 carries no polynomial factor, so the log-envelope slope of
        # the propagated output is exactly the impulse decay rate; higher
        # orders need window offsets beyond the FFT noise floor (covered by
        # the closed-form slope test above)
        spec = EnsembleSpec(b=1.0, m=0, v=1.0)
        g = TimeGrid(n=1 << 15, dt=0.005, t0=-80.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=0.1, omega0=0.0), g)
        z = 4.0
        out = observed_output(forward_transform(f0), spec, z)
        t = g.times()
        c = np.sqrt(spec.b / z)
        sel = (t > z + 10.0 / c) & (t < z + 28.0 / c)
        slope = np.polyfit(t[sel], np.log(np.abs(out.values[sel])), 1)[0]
        assert abs(slope + c) / c < 0.02


class TestMonteCarlo:
    def test_agrees_with_quadrature_average_within_4_sigma(self):
        # compared where the reference carries real support (> 1e-6 of peak):
        # in the far tails the sample mean is dominated by a handful of rare
        # draws and normal-theory intervals do not apply
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture()
        z = 4.0
        mc, stderr = monte_carlo_output(
            forward_transform(f0), spec, z, sample_inverse_a(spec, 10000, 42), return_stderr=True
        )
        F0 = forward_transform(f0)
        qk = averaged_transfer_quadrature(spec, z, g.omegas())
        ref = inverse_transform(Spectrum(g, F0.values * qk))
        peak = np.abs(ref.values).max()
        sel = np.abs(ref.values) > 1e-6 * peak
        dev = np.abs(mc.values - ref.values)[sel] / (stderr[sel] + 1e-12 * peak)
        assert dev.max() < 4.0

    def test_mc_mean_diverges_from_closed_form_kernel(self):
        # the closed-form kernel argument is twice the directly averaged one,
        # so the Monte Carlo mean must NOT match the closed-form output
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture()
        z = 4.0
        mc, stderr = monte_carlo_output(
            forward_transform(f0), spec, z, sample_inverse_a(spec, 10000, 42), return_stderr=True
        )
        closed = observed_output(forward_transform(f0), spec, z)
        peak = np.abs(closed.values).max()
        sel = np.abs(closed.values) > 1e-6 * peak
        dev = np.abs(mc.values - closed.values)[sel] / (stderr[sel] + 1e-12 * peak)
        assert dev.max() > 10.0

    def test_velocity_change_is_pure_time_shift(self):
        g, f0 = _mc_fixture()
        z = 4.0
        a_draws_shift = z * (1.0 / 0.5 - 1.0 / 1.0)  # 4.0 s = 80 samples
        spec1, spec2 = EnsembleSpec(b=2.0, m=1, v=1.0), EnsembleSpec(b=2.0, m=1, v=0.5)
        out1 = monte_carlo_output(forward_transform(f0), spec1, z, sample_inverse_a(spec1, 500, 3))
        out2 = monte_carlo_output(forward_transform(f0), spec2, z, sample_inverse_a(spec2, 500, 3))
        k = int(round(a_draws_shift / g.dt))
        assert np.abs(np.roll(out1.values, k) - out2.values).max() < 1e-12

    def test_error_halves_in_rms_when_samples_quadruple(self):
        # CLT scaling; the error field is nearly rank-one so 200 paired
        # repetitions are needed before the ratio stabilizes near sqrt(2)
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g = TimeGrid(n=512, dt=0.1, t0=-15.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
        F0 = forward_transform(f0)
        qk = averaged_transfer_quadrature(spec, 4.0, g.omegas())
        ref = inverse_transform(Spectrum(g, F0.values * qk)).values
        e1 = e2 = 0.0
        for r in range(200):
            m1 = monte_carlo_output(F0, spec, 4.0, sample_inverse_a(spec, 400, 100000 + r))
            m2 = monte_carlo_output(F0, spec, 4.0, sample_inverse_a(spec, 800, 150000 + r))
            e1 += np.mean((m1.values - ref) ** 2)
            e2 += np.mean((m2.values - ref) ** 2)
        ratio = np.sqrt(e1 / e2)
        assert 1.05 < ratio < 1.9

    def test_sample_floor(self):
        g, f0 = _mc_fixture()
        spec = EnsembleSpec(b=1.0, m=0, v=1.0)
        with pytest.raises(ValueError, match="at least 100 samples, got 50"):
            monte_carlo_output(forward_transform(f0), spec, 1.0, sample_inverse_a(spec, 50, 1))

    def test_rfft_stderr_path_matches_complex_fft_loop(self):
        # the per-draw complex-FFT loop the stderr path used before it moved
        # to irfft on the Hermitian half spectrum
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g = TimeGrid(n=512, dt=0.1, t0=-15.0)
        f0 = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
        z, n_draws = 4.0, 600
        draws = sample_inverse_a(spec, n_draws, 5)
        mc, stderr = monte_carlo_output(forward_transform(f0), spec, z, draws, return_stderr=True)

        # the full signed spectrum under the e^{+iwt} kernel, built on np.fft
        # and delayed by z/v; the grid origin's phase cancels between the
        # forward and the inverse transform
        w = 2.0 * np.pi * np.fft.fftfreq(g.n, g.dt)
        base = np.fft.ifft(f0.values) * (g.n * g.dt) * np.exp(1j * w * z / spec.v)
        outputs = np.array(
            [
                np.fft.fft(np.exp(-x * 0.5 * z * w**2) * base).real / (g.n * g.dt)
                for x in draws
            ]
        )
        ref_mean = outputs.mean(axis=0)
        ref_stderr = outputs.std(axis=0) / np.sqrt(n_draws - 1)
        peak = np.abs(ref_mean).max()
        assert np.abs(mc.values - ref_mean).max() < 1e-12 * peak
        assert np.abs(stderr - ref_stderr).max() < 1e-12 * peak

    def test_stderr_is_centred_for_nearly_equal_draws(self):
        # draws within 1e-9 of each other spread the outputs by about 1e-9 of
        # their size, far below the rounding of an uncentred sum of squares
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0
        g, f0 = _mc_fixture(n=1024)
        spectrum, draws = forward_transform(f0), 1.0 + 1e-9 * np.linspace(-1.0, 1.0, 200)
        _, stderr = monte_carlo_output(spectrum, spec, z, draws, return_stderr=True)
        delayed = Spectrum(g, spectrum.values * np.exp(1j * g.omegas() * z / spec.v))
        outputs = inverse_rows(delayed, np.exp(-np.outer(draws, 0.5 * z * g.omegas() ** 2)))
        ref = outputs.std(axis=0) / np.sqrt(draws.size - 1)
        assert np.abs(stderr - ref).max() <= 1e-5 * ref.max()

    def test_exact_draw_std_matches_sample_std(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture(n=1024)
        z, n_draws = 4.0, 20000
        draws = sample_inverse_a(spec, n_draws, 11)
        _, stderr = monte_carlo_output(forward_transform(f0), spec, z, draws, return_stderr=True)
        exact = gaussian_draw_std(spec, 1.0, z, g.times())
        # near the peak many draws contribute and the sample spread is close
        # to the exact one; further out it rests on a few rare wide draws
        sel = exact > 0.1 * exact.max()
        ratio = stderr[sel] * np.sqrt(n_draws) / exact[sel]
        assert np.abs(ratio - 1.0).max() < 0.04

    def test_fast_and_stderr_paths_agree(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture(n=1024)
        spectrum, draws = forward_transform(f0), sample_inverse_a(spec, 800, 9)
        fast = monte_carlo_output(spectrum, spec, 4.0, draws)
        slow, _ = monte_carlo_output(spectrum, spec, 4.0, draws, return_stderr=True)
        assert np.array_equal(fast.values, slow.values)

    def test_mean_matches_per_draw_loop_on_workload_grid(self):
        # one inverse transform of the averaged kernel against the mean of
        # every draw's own output, on the grid of the stochastic benchmark
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        pulse = PulseSpec(kind="gaussian", T=1.0, omega0=0.0)
        f0 = gaussian_pulse(pulse, _auto_grid(pulse, spec, 2.0))
        g, draws = f0.grid, sample_inverse_a(spec, 2000, seed=1)
        for z in (0.5, 1.0, 2.0):
            fast = monte_carlo_output(forward_transform(f0), spec, z, draws)
            delayed = Spectrum(g, forward_transform(f0).values * np.exp(1j * g.omegas() * z / spec.v))
            loop = np.zeros(g.n)
            for i0 in range(0, draws.size, 250):
                kernels = np.exp(-np.outer(draws[i0 : i0 + 250], 0.5 * z * g.omegas() ** 2))
                loop += inverse_rows(delayed, kernels).sum(axis=0)
            loop /= draws.size
            assert np.abs(fast.values - loop).max() < 2e-15 * np.abs(loop).max()


class TestLazyQuad:
    def test_import_loads_no_scipy(self):
        # scipy.integrate was most of the import; only the oracles need it
        code = (
            "import sys, precursor_lab, precursor_lab.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_quad_resolves_and_every_call_goes_through_it(self, monkeypatch):
        assert stochastic.quad is quad
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(stochastic, "quad", counted)
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        out = averaged_transfer_quadrature(spec, 4.0, np.array([0.0, 1.0, -1.0, 2.0]))
        assert calls == [(0.0, np.inf)] * 3  # one per distinct |omega|
        assert np.allclose(out, averaged_transfer_direct(spec, 4.0, [0.0, 1.0, -1.0, 2.0]))

    def test_other_missing_attributes_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'quadrature'"):
            stochastic.quadrature


class TestKernelBlocks:
    """Every ensemble kernel is formed in blocks of at most ``_BLOCK_BYTES``."""

    @pytest.mark.parametrize("n", [2048, 1023])
    @pytest.mark.parametrize("budget", [None, 3 * 8 * 1025])
    def test_mc_mean_bytes_match_whole_row_reference(self, monkeypatch, n, budget):
        # the weighted kernel sum of the sorted draws over the same whole-row
        # blocks, every exponential evaluated; the blocks past the first stop
        # at their cut, which must not change a byte
        if budget is not None:
            monkeypatch.setattr(stochastic, "_BLOCK_BYTES", budget)
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0
        g, f0 = _mc_fixture(n=n)
        draws = sample_inverse_a(spec, 1000, seed=3)
        ordered, weights = np.sort(draws), np.full(draws.size, 1.0 / draws.size)
        lam = 0.5 * z * g.omegas() ** 2
        blocks = [(r, block.shape[1]) for r, block in stochastic._kernel_blocks(ordered, lam)]
        rows = max(1, stochastic._BLOCK_BYTES // (8 * lam.size))
        assert [r.start for r, _ in blocks] == list(range(0, draws.size, rows))
        assert min(c for _, c in blocks) < lam.size
        kernel = np.zeros_like(lam)
        for r, _ in blocks:
            kernel += weights[r] @ np.exp(-np.outer(ordered[r], lam))
        delayed = Spectrum(g, forward_transform(f0).values * np.exp(1j * g.omegas() * z / spec.v))
        ref = inverse_rows(delayed, kernel)
        got = monte_carlo_output(forward_transform(f0), spec, z, draws).values
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("fn", [np.exp, np.expm1])
    def test_blocks_are_exact_and_leave_out_only_zeros(self, monkeypatch, order, fn):
        # four rows per block and a short last one; out of ascending order the
        # cut grows and shrinks between blocks in the one buffer.  exp keeps a
        # term where its own rounded x lam is at most _EXP_LIMIT, else it is 0
        monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 4 * 8 * 513)
        g, _ = _mc_fixture(n=1024)
        lam = 0.5 * 4.0 * g.omegas() ** 2
        x = np.sort(sample_inverse_a(EnsembleSpec(b=2.0, m=1, v=1.0), 203, seed=5))
        x = {"ascending": x, "descending": x[::-1], "shuffled": np.random.default_rng(1).permutation(x)}[order]
        limit = stochastic._EXP_LIMIT
        cuts, seen, staircases = [], 0, 0
        for r, block in stochastic._kernel_blocks(x, lam, fn):
            c = block.shape[1]
            s = np.outer(x[r], lam)
            if fn is np.exp:
                assert block.tobytes() == np.where(s <= limit, np.exp(-s), 0.0)[:, :c].tobytes()
                assert (s[:, c:] > limit).all()
                staircases += bool((s[:, :c] > limit).any())
            else:
                assert block.tobytes() == np.expm1(-s).tobytes()
            cuts.append(c)
            seen = r.stop
        assert seen == x.size and len(cuts) == 51
        if fn is np.expm1:
            assert set(cuts) == {lam.size}
            return
        assert staircases > 0
        if order == "ascending":
            assert cuts == sorted(cuts, reverse=True) and cuts[-1] < cuts[0] == lam.size
        else:
            assert any(a < b for a, b in zip(cuts, cuts[1:])) and min(cuts) < lam.size

    def test_in_place_product_matches_multiply_outer(self):
        # copy then multiply in place gives np.multiply.outer's bytes, the -0.0
        # of x = 0 or lam = 0 included; a matrix product would give +0.0 there
        x = np.array([0.0, 1e-300, 0.3, 1.0, 7.5, 1e300])
        lam = np.array([0.0, 1e-10, 0.5, 2.0, 1e8])
        blocks = list(stochastic._kernel_blocks(x, lam, np.positive))
        got = np.concatenate([block for _, block in blocks])
        ref = np.multiply.outer(-x, lam)
        assert got.tobytes() == ref.tobytes()
        assert np.signbit(got[got == 0.0]).all() and (got == 0.0).sum() == x.size + lam.size - 1

    def test_blocks_agree_term_for_term_under_two_budgets(self, monkeypatch):
        # a kept term depends only on its own product, not on its block's rows
        g, _ = _mc_fixture(n=1024)
        lam = 0.5 * 16.0 * g.omegas() ** 2
        x = np.sort(sample_inverse_a(EnsembleSpec(b=2.0, m=1, v=1.0), 600, seed=2))

        def terms():
            out = np.zeros((x.size, lam.size))
            for r, block in stochastic._kernel_blocks(x, lam):
                out[r, : block.shape[1]] = block
            return out

        ref = terms()
        monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 3 * 8 * 513)
        assert terms().tobytes() == ref.tobytes()
        assert len(set((ref > 0.0).sum(axis=1))) > 100  # the cut moves from row to row

    def test_mc_mean_bytes_do_not_depend_on_the_draw_order(self):
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 2.0
        g, f0 = _mc_fixture(n=1024)
        spectrum, draws = forward_transform(f0), sample_inverse_a(spec, 2000, seed=7)
        got = monte_carlo_output(spectrum, spec, z, draws).values
        for seed in (1, 2):
            shuffled = np.random.default_rng(seed).permutation(draws)
            assert monte_carlo_output(spectrum, spec, z, shuffled).values.tobytes() == got.tobytes()
        assert monte_carlo_output(spectrum, spec, z, draws[::-1]).values.tobytes() == got.tobytes()

    def test_dropped_terms_are_below_the_floor_and_kept_ones_normal(self):
        # every term the cut drops is below e^-700, and exp sees only inputs
        # whose results are normal, above numpy's vector-path floor 2^-1021
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 16.0
        g = _auto_grid(PulseSpec(kind="gaussian", T=1.0), spec, z)
        lam = 0.5 * z * g.omegas() ** 2
        y, _ = stochastic._gamma_rule(spec.m, stochastic.RULE_STEP)
        floor = np.exp(-stochastic._EXP_LIMIT)
        dropped = tiny = 0
        for x in (np.sort(sample_inverse_a(spec, 1000, seed=1)), y / spec.b):
            for r, block in stochastic._kernel_blocks(x, lam):
                full = np.exp(-np.outer(x[r], lam))
                kept = np.zeros(full.shape, bool)
                kept[:, : block.shape[1]] = block > 0.0
                assert (full[~kept] < floor).all()
                assert (full[kept] >= 2.0**-1021).all()
                dropped += (~kept).sum()
                tiny += (full[~kept] < sys.float_info.min).sum()
        assert floor == np.exp(-700.0) and tiny > 0 and dropped > tiny

    def test_skipped_exponentials_keep_the_rule_moments(self, monkeypatch):
        # on a grid where most kernel terms underflow, draw_std keeps every
        # byte of the same blocks with every np.exp evaluated
        spec, z, n = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0, 1 << 16
        g, f0 = _mc_fixture(n=n, t0=-1638.4)
        spectrum, w = forward_transform(f0), g.omegas()
        y, _ = stochastic._gamma_rule(spec.m, stochastic.RULE_STEP)
        lam = z * np.square(w) / (2.0 * spec.b)
        assert stochastic._exp_columns(y[-1:], lam) < lam.size // 10
        std = draw_std(spectrum, spec, z)
        monkeypatch.setattr(stochastic, "_EXP_LIMIT", np.inf)
        assert draw_std(spectrum, spec, z).tobytes() == std.tobytes()

    def test_skipped_exponentials_keep_the_reference_run_bytes(self, monkeypatch):
        # the deepest depth of the 10,000-draw reference run, on its grid
        # (n = 4,096): the Monte Carlo mean and draw_std keep every byte of the
        # same blocks with every np.exp evaluated
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 16.0
        pulse = PulseSpec(kind="gaussian", T=1.0)
        f0 = gaussian_pulse(pulse, _auto_grid(pulse, spec, z))
        spectrum, draws = forward_transform(f0), sample_inverse_a(spec, 2000, seed=1)
        assert f0.grid.n == 4096
        mean, std = monte_carlo_output(spectrum, spec, z, draws).values, draw_std(spectrum, spec, z)
        monkeypatch.setattr(stochastic, "_EXP_LIMIT", np.inf)
        assert monte_carlo_output(spectrum, spec, z, draws).values.tobytes() == mean.tobytes()
        assert draw_std(spectrum, spec, z).tobytes() == std.tobytes()

    def test_rule_blocks_wholly_past_the_cut_are_empty(self, monkeypatch):
        # with columns that start above 0, here the rule's nodes, a block of
        # rows can lie wholly past the cut: it has no columns
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0
        y, _ = stochastic._gamma_rule(spec.m, stochastic.RULE_STEP)
        w = np.array([0.0, 1.0, 3e4, 1e6, 2e6, 4e6])
        lam = z * np.square(w) / (2.0 * spec.b)
        monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 2 * 8 * y.size)
        shapes = [block.shape for _, block in stochastic._kernel_blocks(lam, y)]
        assert shapes[0] == (2, y.size) and 0 < shapes[1][1] < y.size and shapes[2] == (2, 0)

    def test_moments_do_not_depend_on_the_split(self, monkeypatch):
        spec, z = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0
        g, f0 = _mc_fixture(n=1024)
        spectrum = forward_transform(f0)
        std = draw_std(spectrum, spec, z)
        rule = stochastic.averaged_log_kernel_rule(spec, z, g.omegas())
        # one node or draw per block
        monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 4096)
        assert np.abs(draw_std(spectrum, spec, z) - std).max() <= 1e-14 * std.max()
        rule_split = stochastic.averaged_log_kernel_rule(spec, z, g.omegas())
        # compared as kernels (at most 1): far out the kernel is 1 plus a sum
        # of expm1 terms near -1, and its log magnifies that sum's rounding
        assert np.abs(np.exp(rule_split) - np.exp(rule)).max() <= 1e-14
        draws = sample_inverse_a(spec, 800, 9)
        fast = monte_carlo_output(spectrum, spec, z, draws)
        slow, _ = monte_carlo_output(spectrum, spec, z, draws, return_stderr=True)
        assert np.array_equal(fast.values, slow.values)

    def test_peak_memory_is_the_block_budget_plus_order_n(self):
        # one float64 block of 256 draws x 32,769 bins would take 67 MB, far above the bound
        spec, z, n = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0, 1 << 16
        g, f0 = _mc_fixture(n=n, t0=-1638.4)
        spectrum = forward_transform(f0)
        draws = sample_inverse_a(spec, 256, seed=1)
        bound = 8 * stochastic._BLOCK_BYTES + 64 * n
        calls = {
            "mean": lambda: monte_carlo_output(spectrum, spec, z, draws),
            "stderr": lambda: monte_carlo_output(spectrum, spec, z, draws, return_stderr=True),
            "draw_std": lambda: draw_std(spectrum, spec, z),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, peak, bound)


def _auto_grid(pulse, spec, z):
    """The automatic grid of a ``stochastic`` run of ``pulse`` to depth ``z``."""
    cfg = ExperimentConfig(experiment="stochastic", z_values=(z,), pulse=pulse, ensemble=spec)
    return plan_grid(cfg, None)


def _pulse_on_auto_grid(kind, T, spec, z):
    pulse = PulseSpec(kind=kind, T=T, omega0=0.0)
    return (gaussian_pulse if kind == "gaussian" else rect_pulse)(pulse, _auto_grid(pulse, spec, z))


class TestDrawStd:
    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    def test_rule_integrates_every_exponential(self, m):
        # a draw's output is a sum of exp(-lambda y) terms; the gamma Laplace
        # transform is the exact expectation of each, for any lambda
        y, weights = stochastic._gamma_rule(m, stochastic.RULE_STEP)
        lam = np.concatenate([[0.0], np.logspace(-3, 10, 300)])
        approx = np.exp(-np.outer(lam, y)) @ weights
        assert np.abs(approx - (1.0 + lam) ** -(m + 1)).max() < 2e-12

    def test_rule_is_cached_read_only_and_not_built_at_import(self):
        y, weights = stochastic._gamma_rule(3, stochastic.RULE_STEP)
        assert stochastic._gamma_rule(3, stochastic.RULE_STEP)[0] is y
        assert not y.flags.writeable and not weights.flags.writeable
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        code = (
            "import precursor_lab; from precursor_lab import stochastic; "
            "print(stochastic._gamma_rule.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        b=st.floats(0.5, 4.0),
        z=st.floats(0.1, 16.0),
        T=st.floats(0.5, 2.0),
        m=st.integers(0, 30),
    )
    def test_fft_std_equals_gaussian_closed_form(self, b, z, T, m):
        assume(z / (b * T * T) <= 64.0)
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        f0 = _pulse_on_auto_grid("gaussian", T, spec, z)
        exact = gaussian_draw_std(spec, T, z, f0.grid.times())
        got = draw_std(forward_transform(f0), spec, z)
        assert np.abs(got - exact).max() < 1e-10 * exact.max()

    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    @pytest.mark.parametrize("kind", ["gaussian", "rect"])
    @pytest.mark.parametrize("b,z", [(2.0, 0.5), (2.0, 2.0), (1.0, 16.0), (1.0, 64.0)])
    def test_converged_in_the_step(self, m, kind, b, z, monkeypatch):
        # 1.5 times the nodes; a standard deviation needs 1e-3 at most
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        f0 = _pulse_on_auto_grid(kind, 1.0, spec, z)
        coarse = draw_std(forward_transform(f0), spec, z)
        monkeypatch.setattr(stochastic, "RULE_STEP", stochastic.RULE_STEP / 1.5)
        fine = draw_std(forward_transform(f0), spec, z)
        assert not np.array_equal(coarse, fine)
        sel = fine > 1e-6 * fine.max()
        assert (np.abs(coarse - fine)[sel] / fine[sel]).max() < 1e-3

    def test_exact_std_matches_sample_std_for_rect_pulse(self):
        spec = EnsembleSpec(b=2.0, m=0, v=1.0)
        f0 = _pulse_on_auto_grid("rect", 1.0, spec, 2.0)
        n_draws = 20000
        spectrum = forward_transform(f0)
        draws = sample_inverse_a(spec, n_draws, 4)
        _, stderr = monte_carlo_output(spectrum, spec, 2.0, draws, return_stderr=True)
        exact = draw_std(spectrum, spec, 2.0)
        sel = exact > 0.1 * exact.max()
        ratio = stderr[sel] * np.sqrt(n_draws) / exact[sel]
        assert np.abs(ratio - 1.0).max() < 0.05
