"""Brute-force Fisher information on truncated Fock spaces.

Exact quantum Fisher information of a phase-covariant channel output by
eigendecomposition of the state, and a finite-difference Newton minimizer
for the raw variational costs.  These are the ground-truth routes the closed
forms in bounds are validated against, so nothing here shares code with them.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import lossy_thermal_channel_pure, phase_diffusion
from .fock_core import (
    MAX_PRODUCT_DIM,
    TAIL_MASS,
    FockVector,
    TruncationError,
    check_dim,
    squeezed_dim,
    squeezed_vacuum,
    thermal_dim,
)
from .numerics import OptimizationError, check_eta, check_finite_nonneg

__all__ = [
    "qfi_phase_covariant",
    "minimize_raw_cq",
    "oracle_dim",
    "probe_qfi",
    "squeezed_probe_qfi",
]


SUPPORT_CUTOFF = 1e-11  # eigenpair weight, relative to the top one, taken as support


def qfi_phase_covariant(rho):
    """Exact QFI for a phase shift generated by the number operator.

    The output of a phase-covariant channel obeys
    d rho / d phi = -i [n, rho], entrywise -i (l - k) rho_lk, so no
    finite-difference derivative is needed.  With rho = sum_i p_i |e_i><e_i|
    the value is 2 sum |<e_i| drho |e_j>|^2 / (p_i + p_j) over eigenpairs
    whose combined weight exceeds SUPPORT_CUTOFF times the top eigenvalue.
    rho is a DensityMatrix, whose construction already rejects a spectrum
    below -1e-8.

    Two reductions are read from the data and change no term of the sum.
    The factor -i only multiplies every <e_i| drho |e_j> by one phase, so
    |m_ij| is taken from m = V^dag ((l - k) o rho) V, which is real with V
    when rho is real: a real rho is decomposed by a real symmetric eigh.
    When rho has no entry between even and odd levels, neither has
    (l - k) o rho, so every m_ij between an even-block and an odd-block
    eigenvector is exactly zero: each block of rho.blocks is decomposed
    on its own and only its own pairs are summed, under the one cutoff set
    by the top eigenvalue of all blocks.  Where neither reduction applies,
    rho is one complex block: the full complex eigh, as without them.
    """
    spectra = [np.linalg.eigh(block) for _, block in rho.blocks]
    floor = SUPPORT_CUTOFF * max(float(w[-1]) for w, _ in spectra)  # eigh sorts ascending
    total = 0.0
    for (levels, block), (w, vecs) in zip(rho.blocks, spectra):
        m = vecs.conj().T @ (np.subtract.outer(levels, levels) * block) @ vecs
        pair_sums = np.add.outer(w, w)
        mask = pair_sums > floor
        total += float(np.sum(np.abs(m[mask]) ** 2 / pair_sums[mask]))
    return 2.0 * total


def _fd_stencil(f, x, f0):
    """Central-difference gradient and Hessian of f at x from one stencil.

    Evaluates f(x +- h_i e_i) and f(x +- h_i e_i +- h_j e_j), i < j, once
    each, with h_i = 1e-3 max(1, |x_i|); f0 = f(x) comes from the caller.
    Raises OptimizationError at x if any value is not finite, before any
    arithmetic on them.
    """
    k = x.size
    h = 1e-3 * np.maximum(1.0, np.abs(x))
    e = np.diag(h)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    axis = [(f(x + e[i]), f(x - e[i])) for i in range(k)]
    cross = [
        (f(x + e[i] + e[j]), f(x + e[i] - e[j]), f(x - e[i] + e[j]), f(x - e[i] - e[j]))
        for i, j in pairs
    ]
    if not all(map(math.isfinite, [f0, *(v for row in axis + cross for v in row)])):
        raise OptimizationError(
            "cost is not finite on the difference stencil", best_x=x, best_value=f0
        )
    grad = np.empty(k)
    hess = np.empty((k, k))
    for i, (fp, fm) in enumerate(axis):
        grad[i] = (fp - fm) / (2.0 * h[i])
        hess[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
    for (i, j), (pp, pm, mp, mm) in zip(pairs, cross):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return grad, hess


def minimize_raw_cq(raw_cq, start):
    """Minimize a quadratic variational cost, called as raw_cq(*x).

    Finite-difference Newton from start, reading only cost values.  The raw
    costs are sums of squares of terms affine in their parameters, hence
    quadratic, and central differences are exact on a quadratic up to
    roundoff, so the first full Newton step lands on the global minimum.
    Each of at most 12 steps solves the Hessian against the gradient, both
    from one central-difference stencil, and takes the full step if the
    cost does not rise (beyond a 1e-12 relative roundoff allowance) and
    either the cost or the gradient norm falls; otherwise the loop stops.

    Returns (minimum value, argmin) once the gradient norm is certified
    below 1e-7.  Raises OptimizationError carrying the best iterate if a
    stencil meets a non-finite cost, or if no point passes the certificate
    in budget.
    """
    best_x = np.asarray(start, dtype=float)
    if best_x.ndim != 1 or best_x.size == 0:
        raise ValueError("start must be a nonempty 1-d parameter vector")

    def f(x):
        return float(raw_cq(*x))

    best_val = f(best_x)
    grad, hess = _fd_stencil(f, best_x, best_val)
    for _ in range(12):
        step, *_ = np.linalg.lstsq(hess, -grad, rcond=1e-12)
        cand = best_x + step
        val = f(cand)
        if not val <= best_val + 1e-12 * max(1.0, abs(best_val)):
            break
        cand_grad, cand_hess = _fd_stencil(f, cand, val)
        if not (val < best_val or np.linalg.norm(cand_grad) < np.linalg.norm(grad)):
            break
        best_x, best_val, grad, hess = cand, val, cand_grad, cand_hess
    if np.linalg.norm(grad) <= 1e-7:
        return best_val, best_x
    raise OptimizationError(
        "no stationary point certified within the iteration budget",
        best_x=best_x,
        best_value=best_val,
    )


def oracle_dim(r, n_T):
    """Probe register size that lets the beam splitter move every photon.

    The squeezed probe's truncation plus the thermal bath's, less the shared
    vacuum level, so no populated sector is clipped by the mixer.
    """
    return squeezed_dim(r) + thermal_dim(n_T) - 1


def _dropped_mass(psi, n_T, bath_dim):
    """Probability the loss channel's truncated registers cannot hold.

    The thermal bath's tail beyond bath_dim, q^bath_dim with
    q = n_T/(n_T + 1), plus the clipped mass: bath level k, of weight
    (1 - q) q^k, lifts probe level n into photon-number sector n + k, and
    the registers hold that sector whole only below min(psi.dim, bath_dim).
    """
    q = n_T / (n_T + 1.0)
    levels = np.arange(bath_dim)
    # at_least[j] = P(n >= j), summed from the tail up; at_least[dim] = 0
    at_least = np.append(np.cumsum(np.abs(psi.amps[::-1]) ** 2)[::-1], 0.0)
    first_clipped = np.maximum(min(psi.dim, bath_dim) - levels, 0)
    clipped = (1.0 - q) * q**levels * at_least[first_clipped]
    return q**bath_dim + float(clipped.sum())


def _refuse_over_cap(dim, bath_dim, rule):
    """TruncationError, before anything is built, if the registers pass the cap."""
    if dim * bath_dim > MAX_PRODUCT_DIM:
        raise TruncationError(
            f"dim*bath_dim={dim * bath_dim} exceeds the cap {MAX_PRODUCT_DIM} "
            f"(the truncation rule sizes both registers at {rule})",
            suggested_dim=rule,
        )


def _noisy_qfi(psi, eta, n_T, lam, bath_dim, rule):
    """QFI of psi after loss into a bath_dim-level bath, then diffusion.

    Refuses registers that drop more than TAIL_MASS of the probability
    (_dropped_mass) with a TruncationError suggesting rule, the size the
    truncation rule gives both registers.
    """
    dropped = _dropped_mass(psi, n_T, bath_dim)
    if dropped > TAIL_MASS:
        raise TruncationError(
            f"dim={psi.dim}, bath_dim={bath_dim} drop probability {dropped:.3e} to the "
            f"bath tail and clipped sectors, above {TAIL_MASS:g} (the truncation "
            f"rule sizes both registers at {rule})",
            suggested_dim=rule,
        )
    rho = lossy_thermal_channel_pure(psi, eta, n_T, bath_dim)
    if lam != 0.0:
        rho = phase_diffusion(rho, lam)
    return qfi_phase_covariant(rho)


def probe_qfi(psi, eta, n_T, lam):
    """Oracle QFI of any pure probe psi (a FockVector) after loss and diffusion.

    Both registers get psi.dim + thermal_dim(n_T) - 1 levels, psi padded
    with zeros, so the beam splitter can move every photon between probe
    and bath.  An eta outside (0, 1] or an n_T or lam not finite and
    nonnegative is misuse (ValueError).  Sizes whose product exceeds
    MAX_PRODUCT_DIM, checked before anything is built, or that drop more
    than TAIL_MASS of the probability raise TruncationError.
    """
    check_eta(eta)
    check_finite_nonneg(n_T, "n_T")
    check_finite_nonneg(lam, "lam")
    size = psi.dim + thermal_dim(n_T) - 1
    _refuse_over_cap(size, size, size)
    padded = FockVector(size, np.concatenate([psi.amps, np.zeros(size - psi.dim)]))
    return _noisy_qfi(padded, eta, n_T, lam, size, size)


def squeezed_probe_qfi(r, eta, n_T=0.0, lam=0.0, dim=None, bath_dim=None):
    """Oracle QFI of a squeezed vacuum after loss and phase diffusion.

    Sizes the probe register so the beam splitter can move every photon
    between probe and bath without clipping a populated sector, applies
    loss then diffusion, and evaluates the QFI at the working point (the
    closing phase shift commutes with both noise maps and does not change
    the QFI).  dim and bath_dim override the automatic sizing, which is
    oracle_dim(r, n_T) for both.  An eta outside (0, 1], an n_T or lam not
    finite and nonnegative, and a given size that is not an integer >= 2
    are misuse (ValueError), refused before the automatic size is computed.
    Sizes whose product exceeds MAX_PRODUCT_DIM, checked before anything is
    built, or that drop more than TAIL_MASS of the probability
    (_dropped_mass) raise TruncationError suggesting oracle_dim(r, n_T).
    """
    check_eta(eta)
    check_finite_nonneg(n_T, "n_T")
    check_finite_nonneg(lam, "lam")
    for size in (dim, bath_dim):
        if size is not None:
            check_dim(size)
    rule = oracle_dim(r, n_T)
    dim = rule if dim is None else dim
    bath_dim = dim if bath_dim is None else bath_dim
    _refuse_over_cap(dim, bath_dim, rule)
    return _noisy_qfi(squeezed_vacuum(r, dim), eta, n_T, lam, bath_dim, rule)
