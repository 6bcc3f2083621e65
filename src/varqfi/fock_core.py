"""Dense states on truncated Fock spaces and the two-mode mixer.

Single- and two-mode plumbing for the oracle: squeezed vacuum states, the
thermal truncation rule, photon-number moments, and the beam splitter
applied to a joint pure-state vector.  Dense numpy throughout; the two-mode
product dimension is capped at 4096, so no sector block exceeds 64 x 64.
The beam splitter acts per photon-number sector; each sector block is
built on first use from an eigenbasis cached per sector shape and shared
by every transmission, and beam_splitter_apply builds and applies only the
sectors its input populates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_finite_nonneg, check_nonneg

__all__ = [
    "MAX_PRODUCT_DIM",
    "TruncationError",
    "FockVector",
    "DensityMatrix",
    "InputMoments",
    "squeezed_vacuum",
    "squeezed_dim",
    "thermal_dim",
    "beam_splitter_apply",
    "moments",
]

MAX_PRODUCT_DIM = 4096

# discarded probability mass allowed by the truncation rule
TAIL_MASS = 1e-8


class TruncationError(ValueError):
    """A truncated basis cannot hold the requested state to tolerance."""

    def __init__(self, message, suggested_dim=None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")


@dataclass(frozen=True)
class FockVector:
    """Pure state on a truncated number basis; amps[k] multiplies |k>.

    The amplitude vector is normalized at construction and stored read-only.
    """

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError("amps must be a length-dim vector")
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("state vector must have finite nonzero norm")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def density(self):
        """The rank-one density matrix |psi><psi|."""
        return DensityMatrix(self.dim, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite (to roundoff) operator."""

    dim: int
    elems: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        elems = np.asarray(self.elems, dtype=complex)
        if elems.shape != (self.dim, self.dim):
            raise ValueError("elems must be a dim x dim matrix")
        # each test is written so that a NaN fails it
        herm_defect = float(np.max(np.abs(elems - elems.conj().T)))
        if not herm_defect <= 1e-10:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e}")
        tr = complex(np.trace(elems))
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"trace {tr.real:.12g} differs from 1 beyond 1e-8")
        low = float(np.linalg.eigvalsh(elems).min())
        if not low >= -1e-8:
            raise ValueError(f"negative eigenvalue {low:.3e} beyond -1e-8")
        elems = elems.copy()
        elems.setflags(write=False)
        object.__setattr__(self, "elems", elems)


@dataclass(frozen=True)
class InputMoments:
    """Photon-number mean and variance of the probe."""

    mean_n: float
    var_n: float

    def __post_init__(self):
        check_nonneg(self.mean_n, "mean_n")
        check_nonneg(self.var_n, "var_n")


def _squeezed_amplitudes(r):
    """Yields a_0, a_2, a_4, ... of the untruncated squeezed vacuum.

    a_{2m} = (tanh r)^m sqrt((2m)!)/(2^m m!)/sqrt(cosh r), by the recurrence
    a_{2m+2} = a_{2m} tanh r sqrt((2m+1)/(2m+2)).
    """
    amp = 1.0 / math.sqrt(math.cosh(r))
    t = math.tanh(r)
    m = 0
    while True:
        yield amp
        amp *= t * math.sqrt((2 * m + 1) / (2 * m + 2))
        m += 1


def squeezed_dim(r):
    """Smallest dim holding all but TAIL_MASS of the squeezed vacuum.

    Sums the squares of _squeezed_amplitudes, the same kept mass that
    squeezed_vacuum checks, so squeezed_vacuum(r, squeezed_dim(r)) holds.
    """
    check_finite_nonneg(r, "r")
    cum = 0.0
    for m, amp in enumerate(_squeezed_amplitudes(r)):
        cum += amp * amp
        if 1.0 - cum <= TAIL_MASS:
            return max(2, 2 * m + 1)
        if 2 * m + 1 > MAX_PRODUCT_DIM:
            raise TruncationError(
                f"squeezing r={r} needs more than {MAX_PRODUCT_DIM} levels at "
                f"tail mass {TAIL_MASS:g}"
            )


def squeezed_vacuum(r, dim):
    """Squeezed vacuum on a truncated basis, real nonnegative amplitudes.

    The even levels below dim carry the amplitudes of _squeezed_amplitudes;
    the overall sign convention is a free global phase (moments and QFI are
    blind to it).  Raises TruncationError when the discarded probability
    mass exceeds the truncation rule, suggesting an adequate dim.
    """
    check_finite_nonneg(r, "r")
    _check_dim(dim)
    amps = np.zeros(dim, dtype=complex)
    kept = 0.0
    for n, amp in zip(range(0, dim, 2), _squeezed_amplitudes(r)):
        amps[n] = amp
        kept += amp * amp
    discarded = max(1.0 - kept, 0.0)
    if discarded > TAIL_MASS:
        raise TruncationError(
            f"dim={dim} discards probability {discarded:.3e} of the r={r} "
            f"squeezed vacuum (allowed {TAIL_MASS:g})",
            suggested_dim=squeezed_dim(r),
        )
    return FockVector(dim, amps)


def thermal_dim(n_T):
    """Smallest dim whose geometric tail mass is at most TAIL_MASS."""
    check_finite_nonneg(n_T, "n_T")
    if n_T == 0:
        return 2
    # log q = -log1p(1/n_T), q = n_T/(n_T + 1): nonzero where q rounds to 1
    return max(2, math.ceil(math.log(TAIL_MASS) / -math.log1p(1.0 / n_T)))


@functools.lru_cache(maxsize=1024)
def _sector_basis(total, lo, hi):
    """Eigenpairs of sector total's coupling matrix, mode a holding lo..hi.

    The matrix S is real symmetric tridiagonal with the couplings
    sqrt(n (total - n + 1)), n = lo+1..hi, on both off-diagonals; it
    depends on the sector's shape alone, so one eigh serves every
    transmission.  Row j of the eigenvectors is multiplied by
    (-1)^(j // 2), the sign _Sectors needs.  Both arrays are read-only.
    """
    n = np.arange(lo + 1, hi + 1, dtype=float)
    coup = np.sqrt(n * (total - n + 1.0))
    vals, vecs = np.linalg.eigh(np.diag(coup, 1) + np.diag(coup, -1))
    vecs *= (-1.0) ** (np.arange(hi - lo + 1) // 2)[:, None]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


class _Sectors(dict):
    """Sector blocks of the two-mode mixer, each built on first lookup.

    The generator theta (a b^dag - a^dag b) conserves the total photon
    number, so on the truncated product space it is block diagonal over
    sectors of fixed total N, and the blocks' exponentials together give
    the exponential of the full truncated generator.  A sector's generator
    is theta G with G real antisymmetric tridiagonal, and D^-1 G D = i S
    for D = diag(i^j) and S the coupling matrix of _sector_basis.  With
    S = V diag(lam) V^T, entry (j, l) of the block exp(theta G) is
    Re(i^(j-l) sum_m V[j, m] V[l, m] exp(i theta lam_m)): a cosine sum
    where j - l is even, a sine sum where it is odd.  The sign (-1)^(j // 2)
    folded into row j of V absorbs the signs of i^(j-l), all but a minus
    where j is odd and l even.  sectors[N] is the (flat indices, orthogonal
    block) pair of sector N, both read-only.
    """

    def __init__(self, theta, dim_a, dim_b):
        super().__init__()
        self.theta, self.dim_a, self.dim_b = theta, dim_a, dim_b

    def __missing__(self, total):
        lo = max(0, total - (self.dim_b - 1))
        hi = min(total, self.dim_a - 1)
        ns = np.arange(lo, hi + 1)
        idx = ns * self.dim_b + (total - ns)
        vals, vecs = _sector_basis(total, lo, hi)
        block = (vecs * np.cos(self.theta * vals)) @ vecs.T
        sin_part = (vecs * np.sin(self.theta * vals)) @ vecs.T
        block[0::2, 1::2] = sin_part[0::2, 1::2]
        block[1::2, 0::2] = -sin_part[1::2, 0::2]
        idx.setflags(write=False)
        block.setflags(write=False)
        self[total] = (idx, block)
        return idx, block


# one table per (theta, dim_a, dim_b), shared by every caller
_sectors = functools.lru_cache(maxsize=32)(_Sectors)


def beam_splitter_apply(theta, joint_vec, dim_a, dim_b):
    """Apply the two-mode mixer to a joint pure-state vector.

    The mixer is exp(theta (a b^dag - a^dag b)) on the dim_a*dim_b product
    space, applied sector by sector without materializing the full matrix.
    Only the sectors the input populates (the totals n + m of its nonzero
    entries) are built and applied; the mixer conserves n + m, so every
    other sector of the output is exactly zero.
    """
    _check_dim(dim_a)
    _check_dim(dim_b)
    if dim_a * dim_b > MAX_PRODUCT_DIM:
        raise TruncationError(
            f"product dimension {dim_a * dim_b} exceeds the cap {MAX_PRODUCT_DIM}"
        )
    vec = np.asarray(joint_vec)
    if vec.shape != (dim_a * dim_b,):
        raise ValueError("joint_vec must have length dim_a * dim_b")
    sectors = _sectors(float(theta), int(dim_a), int(dim_b))
    flat = np.flatnonzero(vec)
    out = np.zeros_like(vec)
    for total in np.unique(flat // dim_b + flat % dim_b).tolist():
        idx, block = sectors[total]
        out[idx] = block @ vec[idx]
    return out


def moments(state):
    """Photon-number mean and variance of a FockVector or DensityMatrix."""
    if isinstance(state, FockVector):
        p = np.abs(state.amps) ** 2
    elif isinstance(state, DensityMatrix):
        p = np.real(np.diag(state.elems))
    else:
        raise TypeError("moments expects a FockVector or DensityMatrix")
    k = np.arange(p.size, dtype=float)
    mean = float(k @ p)
    # about the mean, not <n^2> - <n>^2, which cancels to 0 for a narrow probe
    return InputMoments(mean, float(((k - mean) ** 2) @ p))
