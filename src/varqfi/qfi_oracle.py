"""Brute-force Fisher information on truncated Fock spaces.

Exact quantum Fisher information of a phase-covariant channel output by
eigendecomposition of the state, and a finite-difference Newton minimizer
for the raw variational costs.  These are the ground-truth routes the closed
forms in bounds are validated against, so nothing here shares code with them.
"""

from __future__ import annotations

import numpy as np

from .channels import lossy_thermal_channel_pure, phase_diffusion
from .fock_core import squeezed_dim, squeezed_vacuum, thermal_dim
from .numerics import OptimizationError

__all__ = [
    "qfi_phase_covariant",
    "minimize_raw_cq",
    "oracle_dim",
    "squeezed_probe_qfi",
]


def qfi_phase_covariant(rho, support_cutoff=1e-11):
    """Exact QFI for a phase shift generated by the number operator.

    The output of a phase-covariant channel obeys
    d rho / d phi = -i [n, rho], entrywise -i (l - k) rho_lk, so no
    finite-difference derivative is needed.  With rho = sum_i p_i |e_i><e_i|
    the value is 2 sum |<e_i| drho |e_j>|^2 / (p_i + p_j) over eigenpairs
    whose combined weight exceeds support_cutoff times the top eigenvalue.
    rho is a DensityMatrix, whose construction already rejects a spectrum
    below -1e-8.
    """
    w, vecs = np.linalg.eigh(rho.elems)
    levels = np.arange(rho.dim)
    drho = -1j * np.subtract.outer(levels, levels) * rho.elems
    m = vecs.conj().T @ drho @ vecs
    pair_sums = np.add.outer(w, w)
    mask = pair_sums > support_cutoff * float(w.max())
    return float(2.0 * np.sum(np.abs(m[mask]) ** 2 / pair_sums[mask]))


def _fd_gradient(f, x, scale=1e-4):
    g = np.empty(x.size)
    for i in range(x.size):
        h = scale * max(1.0, abs(x[i]))
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hessian(f, x, scale=1e-3):
    k = x.size
    h = scale * np.maximum(1.0, np.abs(x))
    hess = np.empty((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def minimize_raw_cq(raw_cq, start):
    """Minimize a smooth coercive variational cost, called as raw_cq(*x).

    Finite-difference Newton from start, reading only cost values: each
    step solves the central-difference Hessian against the central-difference
    gradient, halving until the cost does not rise, and the loop stops when
    a step neither lowers the cost nor shrinks the gradient.  The raw costs
    are sums of squares of terms affine in their parameters, hence
    quadratic, and central differences are exact on a quadratic up to
    roundoff, so the first full step lands on the global minimum.  For
    general smooth inputs the result is a stationary point with gradient
    norm certified below 1e-7, and no accepted step raised the cost (beyond
    a 1e-12 relative roundoff allowance).

    Returns (minimum value, argmin).  Raises OptimizationError carrying the
    best iterate if no point passes the gradient certificate in budget.
    """
    best_x = np.asarray(start, dtype=float)
    if best_x.ndim != 1 or best_x.size == 0:
        raise ValueError("start must be a nonempty 1-d parameter vector")

    def f(x):
        return float(raw_cq(*x))

    best_val = f(best_x)
    grad = _fd_gradient(f, best_x)
    for _ in range(12):
        step, *_ = np.linalg.lstsq(_fd_hessian(f, best_x), -grad, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            break
        moved = False
        scale = 1.0
        for _ in range(20):
            cand = best_x + scale * step
            val = f(cand)
            if val <= best_val + 1e-12 * max(1.0, abs(best_val)):
                cand_grad = _fd_gradient(f, cand)
                if val < best_val or float(np.linalg.norm(cand_grad)) < float(
                    np.linalg.norm(grad)
                ):
                    best_x, best_val, grad = cand, val, cand_grad
                    moved = True
                break
            scale *= 0.5
        if not moved:
            break
    if float(np.linalg.norm(grad)) <= 1e-7:
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


def squeezed_probe_qfi(r, eta, n_T=0.0, lam=0.0, dim=None, bath_dim=None):
    """Oracle QFI of a squeezed vacuum after loss and phase diffusion.

    Sizes the probe register so the beam splitter can move every photon
    between probe and bath without clipping a populated sector, applies
    loss then diffusion, and evaluates the QFI at the working point (the
    closing phase shift commutes with both noise maps and does not change
    the QFI).  dim and bath_dim override the automatic sizing, which is
    oracle_dim(r, n_T) for both.
    """
    if dim is None:
        dim = oracle_dim(r, n_T)
    if bath_dim is None:
        bath_dim = dim
    psi = squeezed_vacuum(r, dim)
    rho = lossy_thermal_channel_pure(psi, eta, n_T, bath_dim)
    if lam != 0.0:
        rho = phase_diffusion(rho, lam)
    return qfi_phase_covariant(rho)
