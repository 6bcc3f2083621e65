"""Variational bounds on quantum Fisher information for noisy phase estimation.

Closed-form upper bounds for phase estimation under photon loss into a
thermal environment and Gaussian phase diffusion, an independent
brute-force oracle on truncated Fock spaces that validates them, and the
spectral machinery that extends the single-parameter bounds to waveform
estimation.
"""

from .bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    cq_min_loss_zero_T,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
    raw_cq_loss_diffusion,
    raw_cq_loss_thermal,
)
from .channels import (
    lossy_thermal_channel_pure,
    phase_diffusion,
    phase_diffusion_by_quadrature,
    phase_shift,
)
from .fock_core import (
    DensityMatrix,
    FockVector,
    InputMoments,
    TruncationError,
    beam_splitter_apply,
    moments,
    squeezed_dim,
    squeezed_vacuum,
    thermal_dim,
)
from .numerics import (
    AccuracyError,
    OptimizationError,
    integrate,
    integrate_semi_infinite,
    loglog_slope,
    maximize_scalar,
)
from .qfi_oracle import (
    minimize_raw_cq,
    oracle_dim,
    qfi_phase_covariant,
    squeezed_probe_qfi,
)
from .waveform import (
    Fig3Row,
    OpoSpectrumModel,
    OptimizedBound,
    PriorSpectrum,
    ScalingConstruction,
    SpectralCqParams,
    fig3_curve,
    mse_bound,
    mse_bound_optimized,
    scaling_construction_D,
    sigma_tilde,
    solve_gamma,
    spectral_cq,
)

__version__ = "0.1.0"
