import warnings

import numpy as np
import pytest

from precursor_lab import (
    PulseSpec,
    TimeGrid,
    chirp_pulse,
    forward_transform,
    gaussian_pulse,
    moment,
    rect_pulse,
)


def symmetric_grid(n, dt):
    return TimeGrid(n=n, dt=dt, t0=-(n // 2) * dt)


class TestGaussianPulse:
    def test_peak_at_origin(self):
        g = symmetric_grid(1024, 0.01)
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        assert f.values[np.argmin(np.abs(g.times()))] == 1.0

    def test_value_at_half_pi(self):
        # direct evaluation: exp(-(pi/2)^2/2) * cos(pi) for T=1, omega0=2
        g = TimeGrid(n=16, dt=np.pi / 8, t0=-np.pi)
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        j = np.argmin(np.abs(g.times() - np.pi / 2))
        assert f.values[j] == pytest.approx(-0.29121293321402086, abs=1e-12)

    def test_dc_content_matches_closed_form(self):
        # F(0) of exp(-t^2/2) cos(2t) is sqrt(2pi) e^{-2}
        g = symmetric_grid(4096, 0.01)
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        F = forward_transform(f)
        k = np.argmin(np.abs(g.omegas()))
        assert F.values[k].real == pytest.approx(0.33923524751608825, abs=1e-9)

    def test_wrong_kind_rejected(self):
        g = symmetric_grid(64, 0.1)
        with pytest.raises(ValueError):
            gaussian_pulse(PulseSpec(kind="rect", T=1.0), g)

    @pytest.mark.parametrize("kind", ["gaussian", "chirp-gaussian"])
    def test_least_width_warns_of_nothing(self, kind):
        # t^2/2T^2 overflows to inf away from t = 0, and exp(-inf) is the right 0
        g, T = TimeGrid(n=1024, dt=0.1, t0=-20.0), 2e-154
        spec = PulseSpec(kind=kind, T=T, omega0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = (gaussian_pulse if kind == "gaussian" else chirp_pulse)(spec, g)
        t = g.times()
        with np.errstate(over="ignore"):
            ref = np.exp(-(t * t) / (2.0 * T**2)) * np.cos(spec.omega0 * t)
        assert f.values.tobytes() == ref.tobytes()
        assert f.values[t == 0.0] == 1.0 and np.count_nonzero(f.values) == 1


class TestRectPulse:
    def test_plateau_and_exterior(self):
        g = symmetric_grid(512, 0.0125)
        f = rect_pulse(PulseSpec(kind="rect", T=2.0), g)
        t = g.times()
        assert f.values[np.argmin(np.abs(t))] == 1.0
        assert f.values[np.argmin(np.abs(t - 1.5))] == 0.0

    def test_edge_half_amplitude(self):
        g = symmetric_grid(512, 0.0125)  # edges at +-1.0 on grid
        f = rect_pulse(PulseSpec(kind="rect", T=2.0, omega0=1.0), g)
        t = g.times()
        j = np.argmin(np.abs(t - 1.0))
        assert f.values[j] == pytest.approx(np.cos(1.0) / 2, rel=1e-12)

    def test_zero_dc_when_carrier_period_matches_width(self):
        # one full carrier period inside the window: the area cancels
        g = symmetric_grid(1 << 12, 1.0 / 1024)
        f = rect_pulse(PulseSpec(kind="rect", T=1.0, omega0=2 * np.pi), g)
        assert abs(moment(f, 0)) < 1e-10

    def test_dc_moment_matches_sinc(self):
        # T sin(w0 T/2)/(w0 T/2) = 2/pi for T=1, omega0=pi; Riemann-sum
        # (trapezoid) error scales as dt^2, so dt = T/8192 reaches 1e-8
        g = symmetric_grid(1 << 15, 1.0 / 8192)
        f = rect_pulse(PulseSpec(kind="rect", T=1.0, omega0=np.pi), g)
        assert moment(f, 0) == pytest.approx(0.6366197723675814, abs=1e-8)

    def test_dc_moment_convergence_rate(self):
        # quantify the quadrature error at a coarser grid: O(dt^2)
        g = symmetric_grid(1 << 12, 1.0 / 1024)
        f = rect_pulse(PulseSpec(kind="rect", T=1.0, omega0=np.pi), g)
        err = abs(moment(f, 0) - 0.6366197723675814)
        assert err < np.pi / 6 * (1.0 / 1024) ** 2 * 1.5
        assert err > 1e-10  # genuinely first-order-summed, not exact


class TestChirpPulse:
    def test_zero_chirp_matches_gaussian_bitwise(self):
        g = symmetric_grid(2048, 0.01)
        a = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        b = chirp_pulse(PulseSpec(kind="chirp-gaussian", T=1.0, omega0=2.0, alpha=0.0), g)
        assert np.array_equal(a.values, b.values)

    def test_envelope_peak(self):
        g = symmetric_grid(4096, 0.002)
        f = chirp_pulse(PulseSpec(kind="chirp-gaussian", T=1.0, omega0=10.0, alpha=20.0), g)
        assert f.values[np.argmin(np.abs(g.times()))] == 1.0

    def test_strong_chirp_flag(self):
        assert PulseSpec(kind="chirp-gaussian", T=1.0, omega0=10.0, alpha=20.0).strong_chirp
        assert not PulseSpec(kind="chirp-gaussian", T=1.0, omega0=10.0, alpha=5.0).strong_chirp

    def test_alpha_rejected_for_other_kinds(self):
        with pytest.raises(ValueError):
            PulseSpec(kind="gaussian", T=1.0, alpha=1.0)


class TestMoments:
    def test_first_moment_of_even_signal_vanishes(self):
        g = symmetric_grid(4096, 0.01)
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=2.0), g)
        assert abs(moment(f, 1)) < 1e-12

    def test_second_moment_zero_dc_rect(self):
        # integral of s^2 cos(2 pi s) over [-1/2, 1/2] = -1/(2 pi^2)
        g = symmetric_grid(1 << 15, 1.0 / 8192)
        f = rect_pulse(PulseSpec(kind="rect", T=1.0, omega0=2 * np.pi), g)
        assert moment(f, 2) == pytest.approx(-0.05066059182116889, abs=1e-8)

    def test_order_cap(self):
        g = symmetric_grid(64, 0.1)
        f = gaussian_pulse(PulseSpec(kind="gaussian", T=1.0), g)
        with pytest.raises(ValueError):
            moment(f, 5)
        with pytest.raises(ValueError):
            moment(f, -1)


def test_generators_are_even_without_chirp():
    g = symmetric_grid(512, 0.01)
    for f in (
        gaussian_pulse(PulseSpec(kind="gaussian", T=1.0, omega0=3.0), g),
        rect_pulse(PulseSpec(kind="rect", T=2.0, omega0=3.0), g),
    ):
        v = f.values
        # t0 = -(n/2) dt puts the mirror of sample j at n - j
        assert np.abs(v[1:] - v[1:][::-1]).max() < 1e-15
