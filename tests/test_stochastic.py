import math
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    impulse_tail_coefficients,
    inverse_transform,
    moment,
    monte_carlo_output,
    observed_output,
    sample_inverse_a,
    sample_pulse,
    stochastic_impulse,
    tail_decay_lengths,
)
from precursor_lab import stochastic
from precursor_lab.config import ExperimentConfig
from precursor_lab.experiments import plan_grid
from precursor_lab.grid import inverse_rows
from reference import gaussian_draw_std


class TestCoefficientTable:
    @pytest.mark.parametrize(
        "m,expected", [(0, (1,)), (1, (1, 1)), (2, (3, 3, 1)), (3, (15, 15, 6, 1))]
    )
    def test_small_orders(self, m, expected):
        assert impulse_tail_coefficients(m) == expected

    def test_relations_exact_up_to_cap(self):
        def dfact(k):
            out = 1
            while k > 1:
                out *= k
                k -= 2
            return out

        for m in range(31):
            c = impulse_tail_coefficients(m)
            assert c[-1] == 1
            assert c[0] == dfact(2 * m - 1)
            if m >= 1:
                prev = impulse_tail_coefficients(m - 1)
                for l in range(1, m):
                    assert c[l] == (2 * m - 1 - l) * prev[l] + prev[l - 1]

    def test_normalization_identity(self):
        # area of the closed form is sum_l C_l l! / (2^m m!) = 1, in exact integers at every order
        for m in range(stochastic.MAX_TABLE_ORDER + 1):
            c = impulse_tail_coefficients(m)
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
            rule = _rule_kernel(y, np.sort(z * np.square(w) / (2.0 * b)), weights)
            oracle = np.abs(averaged_transfer_quadrature(spec, z, w))
            assert (np.abs(rule - oracle) / oracle).max() < 1e-13
        w = np.sqrt(2.0 * b * 1.25e-3 / 4.0)
        rule = _rule_kernel(y, np.array([4.0 * w * w / (2.0 * b)]), weights)[0]
        assert rule == pytest.approx(abs(averaged_transfer_quadrature(spec, 4.0, w)), rel=1e-13)

    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    @pytest.mark.parametrize("b", [1e-3, 2.0, 1e12])
    def test_log_kernel_rule_is_the_laplace_identity(self, m, b):
        # the summary's probe w = 0.05 sqrt(b / z), where lambda = z w^2 / 2b
        # = 1.25e-3 as rounded; it meets -(m+1) log1p(lambda) within 1e-15
        # relative (7.2e-16 at worst, at m = 30)
        spec = EnsembleSpec(b=b, m=m, v=1.0)
        for z in (0.5, 4.0, 1600.0):
            w = 0.05 * np.sqrt(b / z)
            lam = z * w**2 / (2.0 * b)
            assert lam == pytest.approx(1.25e-3, rel=1e-15)
            got = stochastic.averaged_log_kernel_rule(spec, z, w)
            assert got == pytest.approx(-(m + 1) * np.log1p(lam), rel=1e-15)

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
    f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
    return g, f0


class TestObservedOutput:
    def test_zero_depth_identity(self):
        g, f0 = _mc_fixture()
        out = observed_output(forward_transform(f0), EnsembleSpec(b=1.0, m=1, v=1.0), 0.0)
        assert np.abs(out.values - f0.values).max() < 1e-12

    def test_narrow_input_reduces_to_impulse_response(self):
        spec = EnsembleSpec(b=1.0, m=1, v=1.0)
        g = TimeGrid(n=1 << 15, dt=0.005, t0=-80.0)
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=0.1, omega0=0.0), g)
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
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=0.1, omega0=0.0), g)
        z = 4.0
        out = observed_output(forward_transform(f0), spec, z)
        t = g.times()
        c = np.sqrt(spec.b / z)
        sel = (t > z + 10.0 / c) & (t < z + 28.0 / c)
        slope = np.polyfit(t[sel], np.log(np.abs(out.values[sel])), 1)[0]
        assert abs(slope + c) / c < 0.02


class TestMonteCarlo:
    def test_mc_mean_diverges_from_closed_form_kernel(self):
        # the closed-form kernel argument is twice the directly averaged one,
        # so the Monte Carlo mean must NOT match the closed-form output
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture()
        z = 4.0
        draws = sample_inverse_a(spec, 10000, 42)
        mc = monte_carlo_output(forward_transform(f0), spec, z, draws)
        stderr = draw_std(forward_transform(f0), spec, z) / np.sqrt(draws.size)
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
        f0 = sample_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
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

    def test_exact_draw_std_matches_sample_std(self):
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture(n=1024)
        z, draws = 4.0, sample_inverse_a(spec, 20000, 11)
        exact = gaussian_draw_std(spec, 1.0, z, g.times())
        # near the peak many draws contribute and the sample spread is close
        # to the exact one; further out it rests on a few rare wide draws
        sel = exact > 0.1 * exact.max()
        ratio = _sample_std(forward_transform(f0), spec, z, draws, sel) / exact[sel]
        assert np.abs(ratio - 1.0).max() < 0.04

    def test_mean_matches_per_draw_loop_on_workload_grid(self):
        # one inverse transform of the averaged kernel against the mean of
        # every draw's own output, on the grid of the stochastic benchmark
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        pulse = PulseSpec(kind="gaussian", T=1.0, omega0=0.0)
        f0 = sample_pulse(pulse, _auto_grid(pulse, spec, 2.0))
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
    def test_blocks_are_exact_and_leave_out_only_zeros(self, monkeypatch, order):
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
        for r, block in stochastic._kernel_blocks(x, lam):
            c = block.shape[1]
            s = np.outer(x[r], lam)
            assert block.tobytes() == np.where(s <= limit, np.exp(-s), 0.0)[:, :c].tobytes()
            assert (s[:, c:] > limit).all()
            staircases += bool((s[:, :c] > limit).any())
            cuts.append(c)
            seen = r.stop
        assert seen == x.size and len(cuts) == 51
        assert staircases > 0
        if order == "ascending":
            assert cuts == sorted(cuts, reverse=True) and cuts[-1] < cuts[0] == lam.size
        else:
            assert any(a < b for a, b in zip(cuts, cuts[1:])) and min(cuts) < lam.size

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
        f0 = sample_pulse(pulse, _auto_grid(pulse, spec, z))
        spectrum, draws = forward_transform(f0), sample_inverse_a(spec, 2000, seed=1)
        assert f0.grid.n == 4096
        mean, std = monte_carlo_output(spectrum, spec, z, draws).values, draw_std(spectrum, spec, z)
        monkeypatch.setattr(stochastic, "_EXP_LIMIT", np.inf)
        assert monte_carlo_output(spectrum, spec, z, draws).values.tobytes() == mean.tobytes()
        assert draw_std(spectrum, spec, z).tobytes() == std.tobytes()

    def test_relative_cut_halves_the_reference_run_terms(self, monkeypatch):
        # the 10,000-draw reference run (z = 4 8 16, n = 4,096): the uniform
        # mean forms fewer than half the terms that the floor at 700 alone
        # leaves, and keeps every byte
        spec, pulse, zs = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0), (4.0, 8.0, 16.0)
        grid = plan_grid(ExperimentConfig(experiment="stochastic", z_values=zs, pulse=pulse, ensemble=spec), None)
        assert grid.n == 4096
        spectrum, draws = forward_transform(sample_pulse(pulse, grid)), sample_inverse_a(spec, 10000, seed=1)
        cut, cut_terms = _counted_means(monkeypatch, spectrum, spec, draws, zs)
        monkeypatch.setattr(stochastic, "_relative_limit", lambda x, lam: stochastic._EXP_LIMIT)
        uncut, uncut_terms = _counted_means(monkeypatch, spectrum, spec, draws, zs)
        assert cut_terms < 0.5 * uncut_terms
        assert [m.tobytes() for m in cut] == [m.tobytes() for m in uncut]

    @pytest.mark.parametrize("count", [2000, 100])
    def test_relative_cut_keeps_the_mean_bytes_over_seeds(self, monkeypatch, count):
        # the stochastic workload (z = 0.5 1 2, n = 1,024) at seeds 1-20, and
        # at the least draw count, whose cut ln N + 60 ln 2 is the smallest
        spec, pulse, zs = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0), (0.5, 1.0, 2.0)
        grid = plan_grid(ExperimentConfig(experiment="stochastic", z_values=zs, pulse=pulse, ensemble=spec), None)
        assert grid.n == 1024
        spectrum = forward_transform(sample_pulse(pulse, grid))
        draws = [sample_inverse_a(spec, count, seed) for seed in range(1, 21)]
        cut = [monte_carlo_output(spectrum, spec, z, d).values.tobytes() for d in draws for z in zs]
        monkeypatch.setattr(stochastic, "_relative_limit", lambda x, lam: stochastic._EXP_LIMIT)
        assert cut == [monte_carlo_output(spectrum, spec, z, d).values.tobytes() for d in draws for z in zs]

    @pytest.mark.parametrize("rows", [1, 3, 4, 37, 255])
    def test_block_sums_at_any_cut_match_the_full_width_block(self, rows):
        # a limit of inf before column c and -1 from it on cuts the one block
        # at c; its weighted sum keeps the bytes of the same columns of the
        # full-width block with zeros from c on, as weights @ block rounds the
        # last columns of a width that is not a multiple of 4 differently
        lam = np.linspace(0.0, 3.0, 513)
        x = np.sort(sample_inverse_a(EnsembleSpec(b=2.0, m=1, v=1.0), rows, seed=4))
        weights = np.full(rows, 1.0 / rows)
        full, cols = np.exp(-np.outer(x, lam)), np.arange(lam.size)
        for c in range(1, lam.size + 1):
            [(_, block)] = stochastic._kernel_blocks(x, lam, np.where(cols < c, np.inf, -1.0))
            assert block.shape[1] == min(-(-c // 4) * 4, lam.size)
            ref = weights @ np.where(cols < c, full, 0.0)
            assert (weights @ block).tobytes() == ref[: block.shape[1]].tobytes(), c

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_blocks_are_exact_under_the_relative_limit(self, z):
        # the stochastic workload's draws on its grid (n = 1,024), under the
        # Monte Carlo mean's per-column limit: a term is exp(-s) where its
        # product s is at most its column's limit, and +0 elsewhere
        spec, pulse = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0)
        cfg = ExperimentConfig(experiment="stochastic", z_values=(0.5, 1.0, 2.0), pulse=pulse, ensemble=spec)
        lam = 0.5 * z * plan_grid(cfg, None).omegas() ** 2
        x = np.sort(sample_inverse_a(spec, 2000, seed=1))
        limit = stochastic._relative_limit(x, lam)
        staircases = 0
        for r, block in stochastic._kernel_blocks(x, lam, limit):
            c = block.shape[1]
            s = np.outer(x[r], lam[:c])
            assert block.tobytes() == np.where(s <= limit[:c], np.exp(-s), 0.0).tobytes()
            staircases += bool((s > limit[:c]).any())
        assert lam.size == 513 and staircases > 0 and (limit < stochastic._EXP_LIMIT).any()

    def test_blocks_are_exact_where_kept_products_pass_700(self):
        # a limit of inf on even columns and -1 on odd ones puts every column
        # from 1 on in the staircase; its kept products reach 705, and their
        # exp(-s), all normal, are not raised to e^-700
        x = np.sort(sample_inverse_a(EnsembleSpec(b=2.0, m=1, v=1.0), 37, seed=4))
        lam = np.linspace(0.0, 705.0 / x[-1], 513)
        limit = np.where(np.arange(lam.size) % 2 == 0, np.inf, -1.0)
        [(_, block)] = stochastic._kernel_blocks(x, lam, limit)
        s = np.outer(x, lam)
        assert block.tobytes() == np.where(s <= limit, np.exp(-s), 0.0).tobytes()
        assert (s[:, ::2] > stochastic._EXP_LIMIT).any()

    def test_blocks_formed_in_threads_at_once_stay_exact(self):
        # four threads on the workload's draws at three depths, each staircase
        # cut differently; a cut mask shared between calls would zero another
        # thread's terms
        spec, pulse = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0)
        cfg = ExperimentConfig(experiment="stochastic", z_values=(0.5, 1.0, 2.0), pulse=pulse, ensemble=spec)
        omegas = plan_grid(cfg, None).omegas()
        x = np.sort(sample_inverse_a(spec, 2000, seed=1))
        lams = [0.5 * z * omegas**2 for z in (0.5, 1.0, 2.0, 4.0)]

        def terms(lam):
            limit = stochastic._relative_limit(x, lam)
            return [block.tobytes() for _, block in stochastic._kernel_blocks(x, lam, limit)]

        refs = [terms(lam) for lam in lams]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(lambda k: [terms(lams[k]) for _ in range(10)], k) for k in range(4)]
                got = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(switch)
        for ref, repeats in zip(refs, got):
            assert all(blocks == ref for blocks in repeats)

    @pytest.mark.parametrize("count,clamped", [(2000, [False] * 24), (100, [True] * 3)])
    def test_exp_stays_on_its_vector_path_and_the_clamp_runs_only_where_needed(self, monkeypatch, count, clamped):
        # the workload's Monte Carlo mean (z = 0.5 1 2, n = 1,024, 8 blocks a
        # depth) has no product past 700, so no block is clamped; at 100 draws
        # each depth's one block reaches past 700 and is. σ's rule block is
        # clamped at every depth. Either way exp sees no argument below -700
        spec, pulse, zs = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0), (0.5, 1.0, 2.0)
        grid = plan_grid(ExperimentConfig(experiment="stochastic", z_values=zs, pulse=pulse, ensemble=spec), None)
        spectrum, draws = forward_transform(sample_pulse(pulse, grid)), sample_inverse_a(spec, count, seed=1)
        spy = _BlockSpy()
        monkeypatch.setattr(stochastic, "np", spy)
        for z in zs:
            monte_carlo_output(spectrum, spec, z, draws)
        assert spy.clamped == clamped
        assert min(spy.least) >= -stochastic._EXP_LIMIT
        spy.clamped, spy.least = [], []
        for z in zs:
            draw_std(spectrum, spec, z)
        assert spy.clamped == [True] * 3 and min(spy.least) >= -stochastic._EXP_LIMIT

    @pytest.mark.parametrize("count", [2000, 100])
    def test_blocks_keep_the_bytes_of_the_two_pass_clamped_flow(self, count):
        # the workload's draws and σ's rule nodes at z = 0.5 1 2, under the
        # relative limit, 700 and a limit of inf on even columns and -1 on odd
        spec, pulse, zs = EnsembleSpec(b=2.0, m=1, v=1.0), PulseSpec(kind="gaussian", T=1.0), (0.5, 1.0, 2.0)
        omegas = plan_grid(ExperimentConfig(experiment="stochastic", z_values=zs, pulse=pulse, ensemble=spec), None).omegas()
        y, _ = stochastic._gamma_rule(spec.m, stochastic.RULE_STEP)
        alternating = np.where(np.arange(omegas.size) % 2 == 0, np.inf, -1.0)
        for z in zs:
            lam = 0.5 * z * omegas**2
            for x in (np.sort(sample_inverse_a(spec, count, seed=1)), y / spec.b):
                for limit in (stochastic._relative_limit(x, lam), stochastic._EXP_LIMIT, alternating):
                    got = [(r, block.tobytes()) for r, block in stochastic._kernel_blocks(x, lam, limit)]
                    assert got == _two_pass_blocks(x, lam, limit), (z, x.size)

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
        _, f0 = _mc_fixture(n=1024)
        spectrum = forward_transform(f0)
        std = draw_std(spectrum, spec, z)
        # one node per block
        monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 4096)
        assert np.abs(draw_std(spectrum, spec, z) - std).max() <= 1e-14 * std.max()

    def test_peak_memory_is_the_block_budget_plus_order_n(self):
        # one float64 block of 256 draws x 32,769 bins would take 67 MB, far above the bound
        spec, z, n = EnsembleSpec(b=2.0, m=1, v=1.0), 4.0, 1 << 16
        g, f0 = _mc_fixture(n=n, t0=-1638.4)
        spectrum = forward_transform(f0)
        draws = sample_inverse_a(spec, 256, seed=1)
        bound = 8 * stochastic._BLOCK_BYTES + 64 * n
        calls = {
            "mean": lambda: monte_carlo_output(spectrum, spec, z, draws),
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


class _BlockSpy:
    """numpy, recording per kernel block (each in-place ``exp``) its least argument and whether ``maximum`` clamped it."""

    def __init__(self):
        self.clamped, self.least, self._clamp = [], [], False

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        self._clamp = True
        return np.maximum(*args, **kwargs)

    def exp(self, arg, *args, **kwargs):
        if "out" in kwargs:
            self.clamped.append(self._clamp)
            self.least.append(arg.min(initial=np.inf))
            self._clamp = False
        return np.exp(arg, *args, **kwargs)


def _two_pass_blocks(x, lam, limit):
    """``(r, bytes)`` of each block as formed by copying lam, scaling by -x in place and clamping every staircase."""
    cols, limit = lam.size, np.broadcast_to(limit, lam.shape)
    rows = max(1, stochastic._BLOCK_BYTES // (8 * cols))
    out = []
    for i0 in range(0, x.size, rows):
        r = slice(i0, min(i0 + rows, x.size))
        past = np.flatnonzero(x[r].max() * lam > limit)
        a = int(past[0]) if past.size else cols
        c = min(-(-stochastic._exp_columns(x[r], lam, limit) // 4) * 4, cols)
        block = np.empty((r.stop - i0, c))
        np.copyto(block, lam[:c])
        block *= -x[r, None]
        stair = block[:, a:]
        cut = stair < -limit[a:c]
        np.maximum(stair, -limit[a:c], out=stair)
        np.exp(block, out=block)
        stair[cut] = 0.0
        out.append((r, block.tobytes()))
    return out


def _sample_std(spectrum, spec, z, draws, sel):
    """The sample standard deviation (ddof 1) of the draws' outputs where ``sel``, one inverse transform per draw."""
    g = spectrum.grid
    delayed = Spectrum(g, spectrum.values * np.exp(1j * g.omegas() * z / spec.v))
    lam = 0.5 * z * g.omegas() ** 2
    outputs = [inverse_rows(delayed, np.exp(-np.outer(draws[i0 : i0 + 1000], lam)))[:, sel] for i0 in range(0, draws.size, 1000)]
    return np.std(np.concatenate(outputs), axis=0, ddof=1)


def _rule_kernel(x, lam, weights):
    """The weighted kernel sum sum_i weights[i] exp(-x[i] lam) over the blocks of x, as draw_std forms it."""
    return stochastic._weighted_kernel(stochastic._kernel_blocks(x, lam), lam, weights)


def _counted_means(monkeypatch, spectrum, spec, draws, zs):
    """The Monte Carlo means at depths ``zs``, and how many kernel terms they form: the blocks' nonzero terms."""
    blocks, formed = stochastic._kernel_blocks, []

    def counting(*args):
        for r, block in blocks(*args):
            formed.append(np.count_nonzero(block))
            yield r, block

    monkeypatch.setattr(stochastic, "_kernel_blocks", counting)
    means = [monte_carlo_output(spectrum, spec, z, draws).values for z in zs]
    monkeypatch.setattr(stochastic, "_kernel_blocks", blocks)
    return means, sum(formed)


def _auto_grid(pulse, spec, z):
    """The automatic grid of a ``stochastic`` run of ``pulse`` to depth ``z``."""
    cfg = ExperimentConfig(experiment="stochastic", z_values=(z,), pulse=pulse, ensemble=spec)
    return plan_grid(cfg, None)


def _pulse_on_auto_grid(kind, T, spec, z):
    pulse = PulseSpec(kind=kind, T=T, omega0=0.0)
    return sample_pulse(pulse, _auto_grid(pulse, spec, z))


class TestDrawStd:
    @pytest.mark.parametrize("n", [1024, 2728, 2730, 4096])
    def test_one_rule_block_keeps_the_two_pass_bytes(self, n):
        # the rule's 96 nodes at m = 1 fit one block up to 1,365 bins (n =
        # 2,728), which draw_std forms once per depth; from n = 2,730 they
        # take two, formed once for the mean and again for the spread
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        g, f0 = _mc_fixture(n=n, dt=0.04, t0=-0.02 * n)
        spectrum = forward_transform(f0)
        y, weights = stochastic._gamma_rule(spec.m, stochastic.RULE_STEP)
        x = y / spec.b
        for z in (0.5, 1.0, 2.0):
            delayed, lam = stochastic._delayed(spectrum, spec, z), 0.5 * z * g.omegas() ** 2
            mean = inverse_rows(delayed, _rule_kernel(x, lam, weights))
            two_pass = np.sqrt(stochastic._spread(delayed, stochastic._kernel_blocks(x, lam), weights, mean))
            assert draw_std(spectrum, spec, z).tobytes() == two_pass.tobytes()
        assert y.size == 96 and len(list(stochastic._kernel_blocks(x, lam))) == (1 if n <= 2728 else 2)

    @pytest.mark.parametrize("n,per_depth", [(1024, 1), (2730, 4)])
    def test_rule_blocks_formed_per_depth(self, monkeypatch, n, per_depth):
        # counted as the blocks are yielded: one rule block serves both
        # moments; two blocks are formed twice
        spec = EnsembleSpec(b=2.0, m=1, v=1.0)
        _, f0 = _mc_fixture(n=n, dt=0.04, t0=-0.02 * n)
        spectrum = forward_transform(f0)
        blocks, formed = stochastic._kernel_blocks, []

        def counting(*args):
            for r, block in blocks(*args):
                formed.append(r)
                yield r, block

        monkeypatch.setattr(stochastic, "_kernel_blocks", counting)
        for z in (0.5, 1.0, 2.0):
            draw_std(spectrum, spec, z)
        assert len(formed) == 3 * per_depth

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
        spectrum, draws = forward_transform(f0), sample_inverse_a(spec, 20000, 4)
        exact = draw_std(spectrum, spec, 2.0)
        sel = exact > 0.1 * exact.max()
        ratio = _sample_std(spectrum, spec, 2.0, draws, sel) / exact[sel]
        assert np.abs(ratio - 1.0).max() < 0.05
