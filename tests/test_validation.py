"""Every public entry point rejects a bad parameter the same way.

Both routes, the closed forms and the Fock oracle, must refuse the same
inputs, NaN included, with a plain ValueError raised before any work is
done.  TruncationError subclasses ValueError, so the check is on the exact
type: a NaN that slips into a truncation loop and fails there does not pass.
"""

import math

import numpy as np
import pytest

from varqfi.bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
    raw_cq_loss_diffusion,
    raw_cq_loss_thermal,
)
from varqfi.channels import (
    lossy_thermal_channel_pure,
    phase_diffusion,
    phase_diffusion_by_quadrature,
)
from varqfi.fock_core import (
    InputMoments,
    beam_splitter_apply,
    squeezed_dim,
    squeezed_vacuum,
    thermal_dim,
)
from varqfi.numerics import integrate, integrate_semi_infinite, maximize_scalar
from varqfi.qfi_oracle import probe_qfi, squeezed_probe_qfi
from varqfi.waveform import (
    OpoSpectrumModel,
    PriorSpectrum,
    SpectralCqParams,
    fig3_curve,
    mse_bound_optimized,
    scaling_construction_D,
)

M = InputMoments(1.0, 4.0)


def _no_work(x):
    raise AssertionError("called before the endpoints were checked")


PSI = squeezed_vacuum(0.2, 12)
RHO = PSI.density()
PRIOR = PriorSpectrum(1.0, 2.0, 1.0)
MODEL = OpoSpectrumModel(16.0 * 1e4 ** (1.0 / 3.0), 1e4)

# (entry point:parameter, kind of parameter, the call with it set to x)
ENTRY_POINTS = [
    ("eq15:eta", "eta", lambda x: cq_min_loss_thermal(M, x, 0.5)),
    ("eq15:n_T", "finite", lambda x: cq_min_loss_thermal(M, 0.8, x)),
    ("eq17:r", "finite", lambda x: exact_qfi_squeezed(x, 0.8, 0.5)),
    ("eq17:eta", "eta", lambda x: exact_qfi_squeezed(0.5, x, 0.5)),
    ("eq17:n_T", "finite", lambda x: exact_qfi_squeezed(0.5, 0.8, x)),
    ("eq21:eta", "eta", lambda x: cq_min_loss_diffusion(M, x, 0.1)),
    ("eq21:lam", "finite", lambda x: cq_min_loss_diffusion(M, 0.8, x)),
    ("eq22:eta", "eta", lambda x: phase_variance_bound_full(M, x, 0.5, 0.1)),
    ("eq22:n_T", "finite", lambda x: phase_variance_bound_full(M, 0.8, x, 0.1)),
    ("eq22:lam", "finite", lambda x: phase_variance_bound_full(M, 0.8, 0.5, x)),
    ("eq25:r", "finite", lambda x: im_opt_squeezed(x, 0.8, 0.1)),
    ("eq25:eta", "eta", lambda x: im_opt_squeezed(0.5, x, 0.1)),
    ("eq25:lam", "finite", lambda x: im_opt_squeezed(0.5, 0.8, x)),
    ("raw_thermal:eta", "eta", lambda x: raw_cq_loss_thermal(M, x, 0.5, 0, 0, 0)),
    ("raw_thermal:n_T", "finite", lambda x: raw_cq_loss_thermal(M, 0.8, x, 0, 0, 0)),
    ("raw_diffusion:eta", "eta", lambda x: raw_cq_loss_diffusion(M, x, 0.1, 0, 0)),
    ("raw_diffusion:lam", "finite", lambda x: raw_cq_loss_diffusion(M, 0.8, x, 0, 0)),
    ("loss_pure:eta", "eta", lambda x: lossy_thermal_channel_pure(PSI, x, 0.0, 12)),
    ("loss_pure:n_T", "finite", lambda x: lossy_thermal_channel_pure(PSI, 0.8, x, 12)),
    ("loss_pure:bath_dim", "dim", lambda x: lossy_thermal_channel_pure(PSI, 0.8, 0.0, x)),
    ("phase_diffusion:lam", "finite", lambda x: phase_diffusion(RHO, x)),
    ("diffusion_quad:lam", "finite", lambda x: phase_diffusion_by_quadrature(RHO, x)),
    ("squeezed_dim:r", "finite", lambda x: squeezed_dim(x)),
    ("squeezed_vacuum:r", "finite", lambda x: squeezed_vacuum(x, 12)),
    ("thermal_dim:n_T", "finite", lambda x: thermal_dim(x)),
    ("beam_splitter_apply:theta", "real", lambda x: beam_splitter_apply(x, np.ones(9), 3, 3)),
    ("beam_splitter_apply:joint_vec", "joint_shape",
     lambda x: beam_splitter_apply(0.3, np.ones(x), 3, 3)),
    ("InputMoments:mean_n", "nonneg", lambda x: InputMoments(x, 1.0)),
    ("InputMoments:var_n", "nonneg", lambda x: InputMoments(1.0, x)),
    ("oracle:r", "finite", lambda x: squeezed_probe_qfi(x, 0.8)),
    ("oracle:eta", "eta", lambda x: squeezed_probe_qfi(0.3, x)),
    ("oracle:n_T", "finite", lambda x: squeezed_probe_qfi(0.3, 0.8, x)),
    ("oracle:lam", "finite", lambda x: squeezed_probe_qfi(0.3, 0.8, 0.0, x)),
    ("probe_qfi:eta", "eta", lambda x: probe_qfi(PSI, x, 0.0, 0.0)),
    ("probe_qfi:n_T", "finite", lambda x: probe_qfi(PSI, 0.8, x, 0.0)),
    ("probe_qfi:lam", "finite", lambda x: probe_qfi(PSI, 0.8, 0.0, x)),
    ("oracle:dim", "dim", lambda x: squeezed_probe_qfi(0.3, 0.8, dim=x)),
    ("oracle:bath_dim", "dim", lambda x: squeezed_probe_qfi(0.3, 0.8, bath_dim=x)),
    # a given size, eta, n_T and lam are checked before automatic sizing,
    # which fails at r = 5 with a TruncationError
    ("oracle:dim,r=5", "dim", lambda x: squeezed_probe_qfi(5.0, 0.8, dim=x)),
    ("oracle:bath_dim,r=5", "dim", lambda x: squeezed_probe_qfi(5.0, 0.8, bath_dim=x)),
    ("oracle:eta,r=5", "eta", lambda x: squeezed_probe_qfi(5.0, x)),
    ("oracle:n_T,r=5", "finite", lambda x: squeezed_probe_qfi(5.0, 0.8, x)),
    ("oracle:lam,r=5", "finite", lambda x: squeezed_probe_qfi(5.0, 0.8, 0.0, x)),
    ("PriorSpectrum:kappa", "finite", lambda x: PriorSpectrum(x, 2.0, 1.0)),
    ("PriorSpectrum:p", "finite", lambda x: PriorSpectrum(1.0, x)),
    ("PriorSpectrum:lambda_c", "finite", lambda x: PriorSpectrum(1.0, 2.0, x)),
    # kappa^(p-1), the divisor of info_deficit, must be a positive finite float
    ("PriorSpectrum:kappa,p=200", "underflow_kappa", lambda x: PriorSpectrum(x, 200.0)),
    ("PriorSpectrum:kappa,p=400", "overflow_kappa", lambda x: PriorSpectrum(x, 400.0)),
    ("PriorSpectrum:p,kappa=1e-3", "underflow_p", lambda x: PriorSpectrum(1e-3, x)),
    ("SpectralCqParams:eta", "eta", lambda x: SpectralCqParams(x, 0.5)),
    ("SpectralCqParams:beta", "real", lambda x: SpectralCqParams(0.9, x)),
    ("mse_bound_optimized:eta", "eta", lambda x: mse_bound_optimized(PRIOR, MODEL, x)),
    ("scaling_D:flux_N", "finite", lambda x: scaling_construction_D(x, 1e3, 0.9, 1.0, 2.0)),
    ("scaling_D:mu", "finite", lambda x: scaling_construction_D(1e4, x, 0.9, 1.0, 2.0)),
    ("scaling_D:eta", "eta", lambda x: scaling_construction_D(1e4, 1e3, x, 1.0, 2.0)),
    ("scaling_D:kappa", "finite", lambda x: scaling_construction_D(1e4, 1e3, 0.9, x, 2.0)),
    ("scaling_D:p", "finite", lambda x: scaling_construction_D(1e4, 1e3, 0.9, 1.0, x)),
    ("scaling_D:kappa,p=400", "overflow_kappa",
     lambda x: scaling_construction_D(1e4, 1e3, 0.9, x, 400.0)),
    ("fig3_curve:eta", "eta", lambda x: fig3_curve(x, [1e4])),
    # the numerics endpoints: an integrand or objective that is called fails
    ("integrate:a", "real", lambda x: integrate(_no_work, x, 1.0)),
    ("integrate:b", "real", lambda x: integrate(_no_work, 0.0, x)),
    ("integrate_semi_infinite:a", "real", lambda x: integrate_semi_infinite(_no_work, x)),
    ("maximize_scalar:lo", "real", lambda x: maximize_scalar(_no_work, x, 1.0)),
    ("maximize_scalar:hi", "real", lambda x: maximize_scalar(_no_work, -1.0, x)),
]

# an infinite r, n_T or lam makes sinh and cosh inf, or meets 0 * inf,
# and turns results into NaN
BAD_VALUES = {
    "nonneg": (math.nan, -0.1),
    "finite": (math.nan, -0.1, math.inf),
    "eta": (math.nan, -0.1, 0.0, 1.5),
    # a non-finite beta makes the integrand NaN, or the search's endpoints infinite
    "real": (math.nan, math.inf, -math.inf),
    # a joint vector or column matrix is 1-d or 2-d with dim_a * dim_b rows
    "joint_shape": ((9, 1, 1), (8,), (8, 2), ()),
    # a register below 2 levels is misuse, not a truncation failure
    "dim": (math.nan, 2.5, -1, 0, 1),
    # kappa^(p-1) rounds to 0, and every info_deficit would be inf; a numpy
    # kappa must be refused the same way, without an overflow warning
    "underflow_kappa": (1e-3, np.float64(1e-3)),
    "underflow_p": (200.0, 400.0),
    # kappa^(p-1) passes float range: Python's ** raised a bare OverflowError
    "overflow_kappa": (10.0, np.float64(10.0)),
}

CASES = [
    pytest.param(call, value, id="%s=%r" % (name, value))
    for name, kind, call in ENTRY_POINTS
    for value in BAD_VALUES[kind]
]


@pytest.mark.parametrize("call, value", CASES)
def test_entry_point_rejects_bad_parameter(call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError, repr(info.value)
