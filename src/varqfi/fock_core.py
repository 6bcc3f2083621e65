"""Dense states on truncated Fock spaces and the two-mode mixer.

Single- and two-mode plumbing for the oracle: squeezed vacuum states, the
thermal truncation rule, photon-number moments, and the beam splitter
applied to a joint pure-state vector or to a matrix whose columns are joint
vectors, all mixed in one pass.  Dense numpy throughout; the two-mode
product dimension is capped at 4096, so no sector block exceeds 64 x 64.
The beam splitter acts per photon-number sector.  Each sector block is
built from an eigenbasis cached per sector shape and shared by every
transmission, and the latest 64 blocks are kept; beam_splitter_apply
looks up and applies only the sectors its input populates.
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
    "check_dim",
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


def check_dim(dim):
    """Reject a register size that is not an integer >= 2, NaN included."""
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
        check_dim(self.dim)
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
        check_dim(self.dim)
        elems = np.array(self.elems, dtype=complex)
        if elems.shape != (self.dim, self.dim):
            raise ValueError("elems must be a dim x dim matrix")
        elems.setflags(write=False)
        object.__setattr__(self, "elems", elems)
        # each test is written so that a NaN fails it
        herm_defect = float(np.max(np.abs(elems - elems.conj().T)))
        if not herm_defect <= 1e-10:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e}")
        tr = complex(np.trace(elems))
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"trace {tr.real:.12g} differs from 1 beyond 1e-8")
        low = min(float(np.linalg.eigvalsh(block).min()) for _, block in self.blocks)
        if not low >= -1e-8:
            raise ValueError(f"negative eigenvalue {low:.3e} beyond -1e-8")

    @functools.cached_property
    def blocks(self):
        """(levels, block) pairs of the diagonal blocks the matrix splits into.

        The even levels and the odd levels when every entry between the
        two is exactly zero, as in any state of an even probe under
        phase-covariant noise; otherwise all levels, one block.  Each
        block is a read-only view of elems[levels][:, levels], of its real
        part when the imaginary part of elems is exactly zero.  The
        spectrum is the union of the blocks' spectra, so each can be
        decomposed on its own, and in real arithmetic where it is real.
        Found once per matrix, by the positivity check.
        """
        elems = self.elems if self.elems.imag.any() else self.elems.real
        levels = np.arange(self.dim)
        if elems[0::2, 1::2].any() or elems[1::2, 0::2].any():
            return ((levels, elems),)
        return tuple((levels[p::2], elems[p::2, p::2]) for p in (0, 1))


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
            raise TruncationError(f"squeezing r={r} needs more than {MAX_PRODUCT_DIM} levels")


def squeezed_vacuum(r, dim):
    """Squeezed vacuum on a truncated basis, real nonnegative amplitudes.

    The even levels below dim carry the amplitudes of _squeezed_amplitudes;
    the overall sign convention is a free global phase (moments and QFI are
    blind to it).  Raises TruncationError when the discarded probability
    mass exceeds the truncation rule, suggesting an adequate dim.
    """
    check_finite_nonneg(r, "r")
    check_dim(dim)
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
    """Smallest dim whose geometric tail mass is at most TAIL_MASS, up to MAX_PRODUCT_DIM."""
    check_finite_nonneg(n_T, "n_T")
    if n_T == 0:
        return 2
    # log q = -log1p(1/n_T), q = n_T/(n_T + 1): nonzero where q rounds to 1
    levels = math.log(TAIL_MASS) / -math.log1p(1.0 / n_T)  # inf near float max
    if levels > MAX_PRODUCT_DIM:
        raise TruncationError(f"thermal bath n_T={n_T} needs more than {MAX_PRODUCT_DIM} levels")
    return max(2, math.ceil(levels))


@functools.lru_cache(maxsize=1024)
def _sector_basis(total, lo, hi):
    """Eigenpairs of sector total's coupling matrix, mode a holding lo..hi.

    The matrix S is real symmetric tridiagonal with the couplings
    sqrt(n (total - n + 1)), n = lo+1..hi, on both off-diagonals; it
    depends on the sector's shape alone, so one eigh serves every
    transmission.  Row j of the eigenvectors is multiplied by
    (-1)^(j // 2), the sign _sector_block needs.  Both arrays are read-only.
    One oracle pass of the benchmark, with its warm-up, forms 614, 664 and
    707 shapes and makes 1,559, 1,505 and 1,463 hits at seeds 7, 1 and 11,
    under the 1,024 bound.
    """
    n = np.arange(lo + 1, hi + 1, dtype=float)
    coup = np.sqrt(n * (total - n + 1.0))
    vals, vecs = np.linalg.eigh(np.diag(coup, 1) + np.diag(coup, -1))
    vecs *= (-1.0) ** (np.arange(hi - lo + 1) // 2)[:, None]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


@functools.lru_cache(maxsize=64)
def _sector_block(theta, dim_a, dim_b, total):
    """(flat indices, orthogonal block) of the mixer's sector total, both read-only.

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
    where j is odd and l even.

    Keyed on (theta, dim_a, dim_b, total), the latest 64 blocks are kept,
    twice the most one mixer call reuses from the call before it: 31, in
    the benchmark's oracle sweep at dim 62 (the even totals 0..60).  One
    seed-7 oracle pass of the benchmark, with its warm-up, builds 2,173
    blocks and makes 2,548 hits, the same at bounds 32 to 256 (0 hits at
    16); fig2 --with-oracle builds 21 and makes 105 hits.  The benchmark
    empties the cache between passes with cache_clear().
    """
    lo = max(0, total - (dim_b - 1))
    hi = min(total, dim_a - 1)
    ns = np.arange(lo, hi + 1)
    idx = ns * dim_b + (total - ns)
    vals, vecs = _sector_basis(total, lo, hi)
    block = (vecs * np.cos(theta * vals)) @ vecs.T
    sin_part = (vecs * np.sin(theta * vals)) @ vecs.T
    block[0::2, 1::2] = sin_part[0::2, 1::2]
    block[1::2, 0::2] = -sin_part[1::2, 0::2]
    idx.setflags(write=False)
    block.setflags(write=False)
    return idx, block


def beam_splitter_apply(theta, joint_vec, dim_a, dim_b):
    """Apply the two-mode mixer to a joint pure-state vector, or to columns of them.

    The mixer is exp(theta (a b^dag - a^dag b)) on the dim_a*dim_b product
    space, applied sector by sector without materializing the full matrix.
    joint_vec is one joint vector of length dim_a*dim_b, or a
    (dim_a*dim_b, m) matrix of m such columns, mixed together: each sector
    block multiplies the rows of all columns at once.  Only the sectors
    the input populates (the totals n + m of its nonzero rows) are built
    and applied; the mixer conserves n + m, so every other sector of the
    output is exactly zero.  The blocks are real, so a real input gives a
    real output, in float even for an integer input.  A non-finite theta
    raises ValueError before any block is looked up, and any other shape
    of joint_vec raises ValueError.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    check_dim(dim_a)
    check_dim(dim_b)
    if dim_a * dim_b > MAX_PRODUCT_DIM:
        raise TruncationError(
            f"product dimension {dim_a * dim_b} exceeds the cap {MAX_PRODUCT_DIM}"
        )
    vec = np.asarray(joint_vec)
    if vec.ndim not in (1, 2) or vec.shape[0] != dim_a * dim_b:
        raise ValueError(
            "joint_vec must have length dim_a * dim_b, or be a matrix of such columns"
        )
    key = float(theta), int(dim_a), int(dim_b)
    flat = np.flatnonzero(vec.reshape(vec.shape[0], -1).any(axis=1))
    out = np.zeros(vec.shape, np.result_type(vec, float))
    for total in np.unique(flat // dim_b + flat % dim_b).tolist():
        idx, block = _sector_block(*key, total)
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
