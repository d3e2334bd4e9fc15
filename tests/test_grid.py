import numpy as np
import pytest

from precursor_lab import (
    NonHermitianSpectrumWarning,
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_transform,
    inverse_transform,
    recommend_grid,
)


def test_grid_bin_spacing():
    g = TimeGrid(n=8, dt=1.0, t0=0.0)
    assert g.domega == pytest.approx(2 * np.pi / 8, rel=1e-15)


def test_grid_span_and_nyquist():
    g = TimeGrid(n=2, dt=0.5, t0=-0.5)
    assert g.span == pytest.approx(1.0)
    assert g.nyquist == pytest.approx(2 * np.pi)


@pytest.mark.parametrize("n,dt", [(0, 1.0), (1, 1.0), (8, 0.0), (8, -0.1)])
def test_grid_rejects_bad_arguments(n, dt):
    with pytest.raises(ValueError):
        TimeGrid(n=n, dt=dt, t0=0.0)


def test_signal_length_must_match_grid():
    g = TimeGrid(n=8, dt=1.0, t0=0.0)
    with pytest.raises(ValueError):
        SampledSignal(g, np.zeros(7))
    with pytest.raises(ValueError):
        SampledSignal(g, np.array([np.nan] * 8))


def _impulse_grid():
    return TimeGrid(n=256, dt=0.125, t0=-16.0)


def test_forward_transform_of_unit_impulse_is_flat():
    g = _impulse_grid()
    vals = np.zeros(g.n)
    vals[np.argmin(np.abs(g.times()))] = 1.0 / g.dt  # area-1 impulse at t=0
    F = forward_transform(SampledSignal(g, vals))
    assert np.abs(F.values - 1.0).max() < 1e-12


def test_forward_transform_gaussian_closed_form():
    # oracle: exact transform of exp(-t^2/2) is sqrt(2pi) exp(-w^2/2)
    g = TimeGrid(n=4096, dt=0.01, t0=-20.48)
    f = SampledSignal(g, np.exp(-g.times() ** 2 / 2))
    F = forward_transform(f)
    expected = np.sqrt(2 * np.pi) * np.exp(-g.omegas() ** 2 / 2)
    assert np.abs(F.values - expected).max() < 1e-9


def test_forward_transform_sign_convention():
    # one-sided decay exp(-t) for t > 0 transforms to 1/(1 - i w): the
    # imaginary part at w = +1 must be positive under the e^{+iwt} kernel
    g = TimeGrid(n=4096, dt=0.01, t0=-20.48)
    t = g.times()
    vals = np.where(t > 0, np.exp(-np.clip(t, 0, None)), 0.0)
    vals[np.argmin(np.abs(t))] = 0.5
    F = forward_transform(SampledSignal(g, vals))
    k = np.argmin(np.abs(g.omegas() - 1.0))
    expected = 1.0 / (1.0 - 1j * g.omegas()[k])
    assert F.values[k] == pytest.approx(expected, rel=1e-3)
    assert F.values[k].imag > 0


def test_hermitian_symmetry_of_real_signal_spectrum():
    rng = np.random.default_rng(11)
    g = TimeGrid(n=512, dt=0.1, t0=-25.6)
    F = forward_transform(SampledSignal(g, rng.standard_normal(g.n))).values
    # natural order: bin 0 is -Nyquist (no positive partner); mirror the rest
    scale = np.abs(F).max()
    sym = F[1:][::-1] - np.conj(F[1:])
    assert np.abs(sym).max() < 1e-12 * scale


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    g = TimeGrid(n=1024, dt=0.05, t0=-25.0)
    f = SampledSignal(g, rng.standard_normal(g.n))
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_inverse_of_flat_spectrum_is_unit_impulse():
    g = _impulse_grid()
    f = inverse_transform(Spectrum(g, np.ones(g.n, dtype=complex)))
    i0 = np.argmin(np.abs(g.times()))
    assert f.values[i0] == pytest.approx(1.0 / g.dt, rel=1e-12)
    mask = np.ones(g.n, bool)
    mask[i0] = False
    assert np.abs(f.values[mask]).max() < 1e-12 / g.dt


def test_inverse_of_analytic_gaussian_spectrum():
    g = TimeGrid(n=4096, dt=0.01, t0=-20.48)
    F = Spectrum(g, np.sqrt(2 * np.pi) * np.exp(-g.omegas() ** 2 / 2).astype(complex))
    f = inverse_transform(F)
    assert np.abs(f.values - np.exp(-g.times() ** 2 / 2)).max() < 1e-9


def test_parseval():
    rng = np.random.default_rng(7)
    g = TimeGrid(n=2048, dt=0.02, t0=-20.0)
    f = SampledSignal(g, rng.standard_normal(g.n))
    F = forward_transform(f)
    lhs = g.dt * np.sum(f.values**2)
    rhs = g.domega / (2 * np.pi) * np.sum(np.abs(F.values) ** 2)
    assert rhs == pytest.approx(lhs, rel=1e-10)


def test_non_hermitian_spectrum_warns():
    g = TimeGrid(n=64, dt=0.25, t0=-8.0)
    vals = np.zeros(g.n, dtype=complex)
    vals[40] = 1.0  # single positive-frequency bin, no mirror
    with pytest.warns(NonHermitianSpectrumWarning):
        inverse_transform(Spectrum(g, vals))


def test_recommend_grid_satisfies_adequacy_rule():
    for (T, w0, a, v, z) in [(1.0, 2.0, 1.0, 1.0, 100.0), (0.5, 0.0, 5.0, 2.0, 10.0)]:
        g = recommend_grid(T, w0, a, v, z)
        assert g.dt <= 0.1 * T
        if w0 > 0:
            assert g.dt <= 0.1 * np.pi / w0
        assert g.span >= z / v + 10 * max(T, np.sqrt(z / a))
        assert g.t0 < 0 < g.t0 + g.span
