"""Textbook references for tests only, sharing no code with varqfi.

Thermal loss on a truncated two-mode space, and the photon-flux noise
spectrum of an OPO squeezed vacuum.

Built from the definitions alone, sharing no code with varqfi: the
annihilation matrix, the thermal state, one dense exponential (scipy's
expm) of the full beam-splitter generator theta (a b^dag - a^dag b) on the
product space, the probe tensored with a thermal bath, and the bath traced
out.  Slow and exact, so the library's sector-by-sector pure route, built
from eigenbases of the sector couplings, can be checked against it.
"""

import math

import numpy as np
import scipy.linalg


def annihilation(dim):
    """Truncated a with entries a[k-1, k] = sqrt(k)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def thermal(n_T, dim):
    """Thermal state of mean n_T, geometric weights renormalized on dim levels."""
    q = n_T / (n_T + 1.0)
    weights = q ** np.arange(dim)
    return np.diag(weights / weights.sum())


def mixer(theta, dim_a, dim_b):
    """exp(theta (a b^dag - a^dag b)) on the dim_a*dim_b product space."""
    a = np.kron(annihilation(dim_a), np.eye(dim_b))
    b = np.kron(np.eye(dim_a), annihilation(dim_b))
    return scipy.linalg.expm(theta * (a @ b.T - a.T @ b))


def lossy_thermal(rho, eta, n_T, bath_dim):
    """Mix rho with a thermal bath at transmission eta, trace the bath out."""
    dim = rho.shape[0]
    bath = thermal(n_T, bath_dim)
    u = mixer(np.arccos(np.sqrt(eta)), dim, bath_dim)
    joint = u @ np.kron(rho, bath) @ u.conj().T
    return np.einsum("ijkj->ik", joint.reshape(dim, bath_dim, dim, bath_dim))


def opo_photon_flux_noise(r_plus, flux, omega):
    """Photon-flux noise spectrum S_nn(omega) of a degenerate OPO below threshold.

    From Collett and Gardiner's output quadrature spectra (PRA 30, 1386
    (1984)), S+-(omega) = 1 +- 4x/((1 -+ x)^2 + (omega/kappa)^2) with kappa
    the amplitude decay rate: S+(0) = r_plus fixes x, the flux
    N = x^2 kappa/(1 - x^2) fixes kappa, and the Gaussian moment
    factorization of <n(t) n(0)> gives
    S_nn = N + (x kappa)^2/2 sum+- 4a+-/((1 -+ x)^2 (4a+-^2 + omega^2)),
    a+- = (1 -+ x) kappa.
    """
    root = math.sqrt(r_plus)
    x = (root - 1.0) / (root + 1.0)
    kappa = flux * (1.0 - x * x) / (x * x)
    total = 0.0
    for width in (1.0 - x, 1.0 + x):
        a = width * kappa
        total += 4.0 * a / (width**2 * (4.0 * a * a + omega * omega))
    return flux + (x * kappa) ** 2 / 2.0 * total
