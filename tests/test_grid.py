import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precursor_lab import (
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_transform,
    inverse_transform,
)
from precursor_lab.grid import inverse_rows


def test_grid_bin_spacing():
    g = TimeGrid(n=8, dt=1.0, t0=0.0)
    assert np.diff(g.omegas()) == pytest.approx(2 * np.pi / 8, rel=1e-15)


def test_grid_span_and_nyquist():
    g = TimeGrid(n=2, dt=0.5, t0=-0.5)
    assert np.array_equal(g.times(), [-0.5, 0.0])
    assert g.nyquist == pytest.approx(2 * np.pi)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 70000),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0]),
)
def test_times_are_the_bytes_of_the_integer_ramp(n, dt, t0):
    with np.errstate(over="ignore"):  # dt * (n - 1) may overflow, alike in both
        expected = t0 + dt * np.arange(n)
        got = TimeGrid(n=n, dt=dt, t0=t0).times()
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("n", [2, 3, 5, 1023, 1024])
def test_transform_is_the_riemann_sum_on_any_n(n):
    # t0 off the sample lattice, so the origin phase matters
    rng = np.random.default_rng(n)
    g = TimeGrid(n=n, dt=0.1, t0=-0.05 * n + 0.0371)
    f = SampledSignal(g, rng.standard_normal(n))
    assert g.omegas().size == n // 2 + 1
    direct = g.dt * np.exp(1j * np.outer(g.omegas(), g.times())) @ f.values
    F = forward_transform(f)
    assert np.abs(F.values - direct).max() < 1e-11
    back = inverse_transform(F)
    assert np.abs(back.values - f.values).max() < 1e-14


def test_spectrum_length_is_the_half_spectrum():
    g = TimeGrid(n=8, dt=1.0, t0=0.0)
    Spectrum(g, np.zeros(5))
    with pytest.raises(ValueError, match="5 bins"):
        Spectrum(g, np.zeros(8))


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    g = TimeGrid(n=1024, dt=0.05, t0=-25.0)
    f = SampledSignal(g, rng.standard_normal(g.n))
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_origin_phase_is_formed_once_and_read_only():
    g = TimeGrid(n=64, dt=0.1, t0=-3.2)
    phase = g.origin_phase
    assert phase is g.origin_phase
    assert not phase.flags.writeable
    assert phase.tobytes() == np.exp(-1j * g.omegas() * g.t0).tobytes()
    assert TimeGrid(n=64, dt=0.1, t0=-3.2) == g  # the cache is not a field


@pytest.mark.parametrize("n", [1024, 32768])
def test_inverse_keeps_the_bytes_of_a_freshly_formed_phase(n):
    # numpy reuses a temporary phase for the product at 256 KiB and above and
    # so rounds it phase-first there: a fresh copy of the cache does the same
    rng = np.random.default_rng(n)
    g = TimeGrid(n=n, dt=0.05, t0=-0.025 * n - 0.3)
    values = rng.standard_normal(g.n // 2 + 1) + 1j * rng.standard_normal(g.n // 2 + 1)
    ref = np.fft.irfft(np.conj(values * np.exp(-1j * g.omegas() * g.t0)) / g.dt, n=g.n)
    for _ in range(2):
        assert inverse_transform(Spectrum(g, values)).values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1024, 1023])
def test_inverse_rows_narrower_than_the_bins_are_zero_padded(n):
    # the bins past a row's width count as 0, to the byte
    rng = np.random.default_rng(n)
    g = TimeGrid(n=n, dt=0.05, t0=-0.025 * n)
    spectrum = Spectrum(g, rng.standard_normal(g.n // 2 + 1) + 1j * rng.standard_normal(g.n // 2 + 1))
    for width in (1, 2, 100, g.n // 2, g.n // 2 + 1):
        rows = rng.standard_normal((3, width))
        padded = np.zeros((3, g.n // 2 + 1))
        padded[:, :width] = rows
        assert inverse_rows(spectrum, rows).tobytes() == inverse_rows(spectrum, padded).tobytes()


def test_inverse_of_flat_spectrum_is_unit_impulse():
    g = _impulse_grid()
    f = inverse_transform(Spectrum(g, np.ones(g.n // 2 + 1, dtype=complex)))
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
    # the half spectrum stands for both signs of w: every bin but DC and
    # Nyquist (n is even) counts twice
    weights = np.full(F.values.size, 2.0)
    weights[[0, -1]] = 1.0
    rhs = np.sum(weights * np.abs(F.values) ** 2) / (g.n * g.dt)
    assert rhs == pytest.approx(lhs, rel=1e-10)

