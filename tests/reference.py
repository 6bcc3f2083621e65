"""Textbook thermal loss on a truncated two-mode space, for tests only.

Built from the definitions alone, sharing no code with varqfi: the
annihilation matrix, the thermal state, one dense exponential (scipy's
expm) of the full beam-splitter generator theta (a b^dag - a^dag b) on the
product space, the probe tensored with a thermal bath, and the bath traced
out.  Slow and exact, so the library's sector-by-sector pure route, built
from eigenbases of the sector couplings, can be checked against it.
"""

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
