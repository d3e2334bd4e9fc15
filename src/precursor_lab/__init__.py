"""precursor-lab: pulse propagation through passive absorptive/dispersive media.

FFT transfer-function propagation cross-checked against closed forms:
long-range z^{-1/2} amplitude decay, Gaussian output shaping, pulse
broadening, chirp-enhanced DC content, layered-media reduction, and
stochastic-ensemble averaging with exponential tails.
"""

from .analysis import (
    SweepRecord,
    causality_metric,
    energy_ratio,
    fit_decay_exponent,
    peak,
    rms_width,
)
from .grid import (
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_transform,
    inverse_transform,
)
from .media import (
    SPEED_OF_LIGHT,
    ExpKernelMedium,
    LayerStack,
    QuadraticMedium,
    effective_params,
    free_space,
    transfer_between,
    transfer_function,
)
from .propagate import (
    ChirpDCContent,
    GridAdequacyWarning,
    analytic_gaussian_output,
    apply_transfer,
    chirp_dc_content,
    chirp_dc_exact,
    chirp_dc_quadrature,
    gaussian_impulse_derivatives,
    gaussian_impulse_response,
    impulse_response_fft,
    input_spectrum,
    propagate_fft,
    thin_slab_output,
    zero_dc_rect_output,
    zero_dc_rect_output_series,
)
from .signals import PulseSpec, moment, sample_pulse
from .stochastic import (
    EnsembleSpec,
    averaged_transfer,
    averaged_transfer_direct,
    averaged_transfer_quadrature,
    draw_std,
    impulse_tail_coefficients,
    monte_carlo_output,
    observed_output,
    sample_inverse_a,
    stochastic_impulse,
    tail_decay_lengths,
)

__version__ = "0.1.0"
