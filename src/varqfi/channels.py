"""Phase-covariant noise maps on truncated density matrices.

Three maps: phase shift, loss into a thermal bath (realized by the two-mode
beam-splitter dilation, never by Kraus operators), and Gaussian phase
diffusion (entrywise damping of Fock coherences).  A quadrature evaluation
of the diffusion integral is provided as an independent cross-check route
for the entrywise map; tests compare the two, they must never be merged.
That route runs on the shared adaptive engine numerics.integrate, so it has
a panel budget and raises AccuracyError when it cannot reach its tolerance.
A kick multiplies entry (l, k) by a factor that depends only on the offset
l - k, so the route integrates one kick average per offset, dim values in
all, and applies them to the state.
"""

from __future__ import annotations

import math

import numpy as np

from .fock_core import (
    TAIL_MASS,
    DensityMatrix,
    TruncationError,
    beam_splitter_apply,
    check_dim,
    thermal_dim,
)
from .numerics import check_eta, check_finite_nonneg, integrate

__all__ = [
    "phase_shift",
    "lossy_thermal_channel_pure",
    "phase_diffusion",
    "phase_diffusion_by_quadrature",
]


def phase_shift(rho, phi):
    """rho_lk -> exp(-i phi (l-k)) rho_lk, the unitary exp(-i phi n)."""
    # exponentiate the index differences so the diagonal factor is exactly 1
    n = np.arange(rho.dim)
    factors = np.exp(-1j * phi * (n[:, None] - n[None, :]))
    return DensityMatrix(rho.dim, rho.elems * factors)


def lossy_thermal_channel_pure(psi, eta, n_T, bath_dim):
    """Mix a pure probe with a thermal bath on a transmission-eta beam splitter.

    The bath starts thermal with mean n_T on bath_dim levels, the two modes
    are mixed by the beam splitter at theta = arccos(sqrt(eta)), and the
    bath is traced out.  The thermal bath is diagonal in the number basis,
    so the joint input is a mixture of pure vectors |psi>|k> with weights
    w_k.  Each populated bath level gives one column sqrt(w_k) |psi>|k>,
    real where psi is, and one beam_splitter_apply call mixes all columns.
    Read as a dim x (bath_dim * columns) matrix X, whose rows are probe
    levels, the mixed columns give the output as the one Gram product
    X X^dag: the bath trace and the sum over k are its inner index.  Cost
    scales with the joint vector length instead of its square.  bath_dim
    must at least satisfy the thermal truncation rule; callers that push
    many probe photons into the bath should size it with the extra receive
    capacity on top of that floor; below it is a TruncationError, and
    below 2 levels a ValueError.
    """
    check_eta(eta)
    check_dim(bath_dim)
    floor = thermal_dim(n_T)  # rejects a negative or NaN n_T
    q = n_T / (n_T + 1.0)
    if bath_dim < floor:
        raise TruncationError(
            f"bath_dim={bath_dim} leaves thermal tail mass {q**bath_dim:.3e} "
            f"above {TAIL_MASS:g}",
            suggested_dim=floor,
        )
    if eta == 1.0:
        return psi.density()
    theta = math.acos(math.sqrt(eta))
    weights = q ** np.arange(bath_dim, dtype=float)
    weights = weights / weights.sum()
    dim = psi.dim
    amps = psi.amps if psi.amps.imag.any() else psi.amps.real
    (levels,) = np.nonzero(weights)
    # column j holds sqrt(w_k) |psi>|k> for k = levels[j], at joint rows n * bath_dim + k
    cols = np.zeros((dim * bath_dim, levels.size), dtype=amps.dtype)
    rows = np.add.outer(np.arange(dim) * bath_dim, levels)
    cols[rows, np.arange(levels.size)] = np.multiply.outer(amps, np.sqrt(weights[levels]))
    mixed = beam_splitter_apply(theta, cols, dim, bath_dim).reshape(dim, -1)
    del cols  # not held while a complex Gram product copies mixed
    return DensityMatrix(dim, mixed @ mixed.conj().T)


def phase_diffusion(rho, lam):
    """Gaussian dephasing: rho_lk -> exp(-lam^2 (l-k)^2) rho_lk."""
    check_finite_nonneg(lam, "lam")
    k = np.arange(rho.dim)
    sq = np.subtract.outer(k, k) ** 2
    # lam * lam, not lam**2, which raises past 1.3e154; an inf there times the
    # diagonal's 0 would be NaN, so the diagonal exponent is left at 0
    damp = np.exp(np.multiply(-(lam * lam), sq, where=sq != 0, out=np.zeros(sq.shape)))
    return DensityMatrix(rho.dim, rho.elems * damp)


ABS_TOL = 1e-10  # error bound on each kick average, hence on each output entry


def phase_diffusion_by_quadrature(rho, lam):
    """Phase diffusion evaluated as a Gaussian average over phase kicks.

    Averages U(phi)^dag rho U(phi) over the kick density
    w(phi) = exp(-phi^2/(4 lam^2))/sqrt(4 pi lam^2).  The kick
    U(phi) = exp(-i phi n) multiplies entry (l, k) by exp(i phi (l - k)), so
    the average multiplies it by the kick average of offset d = |l - k|,
    c_d = integral of w(phi) cos(d phi) dphi: w is even and the window
    symmetric, so the sine part is exactly zero.  The dim averages
    c_0 ... c_{dim-1} are one vector integral on the shared adaptive
    quadrature numerics.integrate at rel_tol=ABS_TOL, so its error estimate
    ends at most ABS_TOL times the largest |c_d|: c_0, the Gaussian's mass
    inside the window, positive and at most 1.  So each c_d is within
    ABS_TOL, and as |rho_lk| <= 1 so is every output entry.  rho is read from
    its strict upper triangle, that triangle's conjugate and the real part of
    its diagonal, and the averages are real, so the output is exactly
    Hermitian.  The kick distribution has standard deviation lam*sqrt(2), so
    the window spans 8 of those sigmas, leaving truncated Gaussian mass below
    1e-14 (a [-8 lam, 8 lam] window would lose 1.5e-8 of the trace).  Raises
    AccuracyError when the panel budget cannot reach ABS_TOL.  Serves as the
    independent oracle for the entrywise phase_diffusion map.
    """
    check_finite_nonneg(lam, "lam")
    if lam == 0.0:
        return DensityMatrix(rho.dim, rho.elems.copy())
    norm = 1.0 / math.sqrt(4.0 * math.pi * lam**2)
    offsets = np.arange(rho.dim)

    def integrand(phi):
        # row j: w(phi_j) cos(d phi_j) for every offset d
        weight = norm * np.exp(-(phi**2) / (4.0 * lam**2))
        return weight[:, None] * np.cos(np.multiply.outer(phi, offsets))

    half_width = 8.0 * math.sqrt(2.0) * lam
    kicks, _ = integrate(integrand, -half_width, half_width, rel_tol=ABS_TOL)
    upper = np.triu(rho.elems, 1)
    hermitian = upper + upper.conj().T + np.diag(rho.elems.diagonal().real)
    spread = np.abs(np.subtract.outer(offsets, offsets))
    return DensityMatrix(rho.dim, hermitian * kicks[spread])
