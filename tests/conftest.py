"""Fixtures shared by more than one test module."""

import numpy as np
import pytest

from precursor_lab import PulseSpec, QuadraticMedium, TimeGrid, propagate_fft, sample_pulse


@pytest.fixture(scope="session")
def zero_dc_rect():
    """``(f0, out)``: a zero-DC rect pulse and its output at z = 1e4 through a = v = 1.

    The pulse has T = 1 and omega0 = 2 pi, one carrier period across its
    width, so its DC content is zero.  The n = 2^22 grid reaches past the
    arrival at t = 1e4, and its spacing 1/256 puts the rect edges at +-1/2
    exactly on samples.  One propagation serves every test that needs it.
    """
    grid = TimeGrid(n=1 << 22, dt=1.0 / 256, t0=-1500.0)
    f0 = sample_pulse(PulseSpec(kind="rect", T=1.0, omega0=2.0 * np.pi), grid)
    return f0, propagate_fft(f0, QuadraticMedium(a=1.0, v=1.0), 1e4)
