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
    shape_rms_diff,
)
from .grid import (
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_transform,
    inverse_transform,
    recommend_grid,
)
from .media import (
    SPEED_OF_LIGHT,
    ExpKernelMedium,
    LayerStack,
    LorentzParams,
    QuadraticMedium,
    coupled_steady_state,
    effective_params,
    free_space,
    lorentz_steady_state,
    propagation_constant,
    quadratic_approximation,
    transfer_between,
    transfer_function,
)
from .propagate import (
    ChirpDCContent,
    GridAdequacyWarning,
    RegimeError,
    analytic_gaussian_output,
    analytic_rect_output_largez,
    apply_transfer,
    chirp_dc_content,
    chirp_dc_numeric,
    gaussian_impulse_derivatives,
    gaussian_impulse_response,
    impulse_response_fft,
    input_spectrum,
    moment_expansion_output,
    propagate_fft,
    thin_slab_output,
    zero_dc_rect_output,
    zero_dc_rect_output_series,
)
from .signals import PulseSpec, chirp_pulse, gaussian_pulse, moment, rect_pulse
from .stochastic import (
    CoeffTable,
    EnsembleSpec,
    averaged_transfer,
    averaged_transfer_direct,
    averaged_transfer_quadrature,
    averaged_transfer_rule,
    draw_std,
    gaussian_draw_std,
    impulse_tail_coefficients,
    mean_inverse_a,
    monte_carlo_output,
    observed_output,
    sample_inverse_a,
    stochastic_impulse,
    tail_decay_lengths,
)

__version__ = "0.1.0"
