"""Closed-form variational bounds for noisy optical phase estimation.

Upper bounds on the quantum Fisher information of a phase-encoded probe
subject to photon loss into a thermal environment and to Gaussian phase
diffusion, the matching phase-variance floor, the exact Gaussian result for
a squeezed-vacuum probe, and the raw variational costs whose numerical
minima must reproduce the closed forms.  Everything here is pure float
arithmetic; probe states enter only through their photon-number moments.

All reciprocal-form bounds are evaluated as 4 / (sum of inverse terms) so
that degenerate probes (zero mean or zero variance) map to 0 and infinite
variance maps to the noise-limited ceiling, with inf sentinels instead of
NaN throughout.
"""

from __future__ import annotations

import math

from .numerics import check_eta, check_nonneg

__all__ = [
    "cq_min_loss_thermal",
    "exact_qfi_squeezed",
    "cq_min_loss_diffusion",
    "phase_variance_bound_full",
    "im_opt_squeezed",
    "raw_cq_loss_thermal",
    "raw_cq_loss_diffusion",
]


def _inv(x):
    """1/x with the conventions 1/0 = +inf and 1/inf = 0."""
    return math.inf if x == 0.0 else 1.0 / x


def _squeezed_aux(r, eta, n_T):
    """u and w = 1 + v^2 - u^2 of a squeezed probe after thermal loss.

    u = eta sinh 2r and v = eta cosh 2r + (1 - eta)(2 n_T + 1).  w is
    computed as 1 + (v - u)(v + u) with v - u = eta e^{-2r}
    + (1 - eta)(2 n_T + 1): every term is nonnegative, so nothing cancels.
    """
    check_nonneg(r, "r")
    check_eta(eta)
    check_nonneg(n_T, "n_T")
    u = eta * math.sinh(2.0 * r)
    thermal = (1.0 - eta) * (2.0 * n_T + 1.0)
    v = eta * math.cosh(2.0 * r) + thermal
    return u, 1.0 + (eta * math.exp(-2.0 * r) + thermal) * (v + u)


def _thermal_rate(mean_n, n_T):
    """Loss-induced decay bracket (n_T+1)/mean_n + n_T/(mean_n+1)."""
    return (n_T + 1.0) * _inv(mean_n) + n_T / (mean_n + 1.0)


def _noise_denominator(m, eta, n_T, lam):
    """1/var_n + ((1-eta)/eta)((n_T+1)/mean_n + n_T/(mean_n+1)) + 8 lam^2.

    The QFI bounds are 4/D and the phase-variance floor is D/4; scaling by
    4 is exact in binary floating point, so the two stay reciprocal.
    """
    check_eta(eta)
    check_nonneg(n_T, "n_T")
    check_nonneg(lam, "lam")
    denom = _inv(m.var_n)
    if eta < 1.0:
        denom += (1.0 - eta) / eta * _thermal_rate(m.mean_n, n_T)
    return denom + 8.0 * lam**2


def cq_min_loss_thermal(m, eta, n_T):
    """Variational QFI upper bound under photon loss into a thermal bath.

    4 / [1/var_n + ((1-eta)/eta)((n_T+1)/mean_n + n_T/(mean_n+1))], valid
    for any probe with the given moments.  A vacuum probe under loss
    (mean_n = 0, eta < 1) and a number eigenstate (var_n = 0) both give 0.
    """
    return 4.0 * _inv(_noise_denominator(m, eta, n_T, 0.0))


def exact_qfi_squeezed(r, eta, n_T):
    """Exact phase QFI of a squeezed vacuum after loss: 4u^2/w.

    w = 1 + v^2 - u^2 in the cancellation-free form of _squeezed_aux.
    """
    u, w = _squeezed_aux(r, eta, n_T)
    return 4.0 * u**2 / w


def cq_min_loss_diffusion(m, eta, lam):
    """QFI upper bound under zero-temperature loss plus phase diffusion.

    4 / [1/var_n + (1-eta)/(eta mean_n) + 8 lam^2].  The diffusion term
    caps the bound at 1/(2 lam^2) no matter how bright the probe is.
    """
    return 4.0 * _inv(_noise_denominator(m, eta, 0.0, lam))


def phase_variance_bound_full(m, eta, n_T, lam):
    """Phase-variance floor with thermal loss and diffusion combined.

    1/(4 var_n) + ((1-eta)/(4 eta))((n_T+1)/mean_n + n_T/(mean_n+1))
    + 2 lam^2.  Zero moments give +inf.  Term for term this is one quarter
    of the reciprocal of the matching QFI bound, so at n_T = 0 it equals
    1/cq_min_loss_diffusion exactly.
    """
    return 0.25 * _noise_denominator(m, eta, n_T, lam)


def im_opt_squeezed(r, eta, lam):
    """Fisher information of the optimal quadratic readout at the origin.

    Error-propagation information of the number-quadratic observable
    i(a^2 - a^dag^2) on a squeezed vacuum after zero-temperature loss and
    phase diffusion: 4 u^2 e^{-8 lam^2} / [w - 1.5 u^2 expm1(-16 lam^2)],
    with w = 1 + v^2 - u^2 from _squeezed_aux.  This is 4 u^2 e^{-8 lam^2}
    / [1 + v^2 + u^2 (1 - 3 e^{-16 lam^2}) / 2] with a denominator of
    nonnegative terms.  The mean of the observable rides on second-order
    coherences, damped by e^{-4 lam^2} and squared in the numerator; its
    variance picks up fourth-order coherences, damped by e^{-16 lam^2} in
    the denominator.  At lam = 0 it reduces to exact_qfi_squeezed(r, eta,
    0) identically.
    """
    check_nonneg(lam, "lam")
    u, w = _squeezed_aux(r, eta, 0.0)
    den = w - 1.5 * u**2 * math.expm1(-16.0 * lam**2)
    return 4.0 * u**2 * math.exp(-8.0 * lam**2) / den


def raw_cq_loss_thermal(m, eta, n_T, alpha, beta, gamma):
    """Raw variational cost for thermal loss, before minimization.

    Shorthands c1 = sqrt(eta), s1 = sqrt(1-eta), c2 = sqrt(n_T+1),
    s2 = sqrt(n_T).  Minimizing over (alpha, beta, gamma) reproduces
    cq_min_loss_thermal; the factor 4 keeps both on the same scale.
    """
    check_eta(eta)
    check_nonneg(n_T, "n_T")
    c1 = math.sqrt(eta)
    s1 = math.sqrt(1.0 - eta)
    c2 = math.sqrt(n_T + 1.0)
    s2 = math.sqrt(n_T)
    g1 = m.var_n * (c1**2 + alpha * s1**2) ** 2
    g2 = m.mean_n * s1**2 * (c1 * c2 * (1.0 - alpha) - gamma * s2) ** 2
    g3 = (m.mean_n + 1.0) * s1**2 * (c1 * s2 * (1.0 - alpha) - gamma * c2) ** 2
    g4 = ((s1**2 + alpha * c1**2 + beta) * c2 * s2 + gamma * c1 * (c2**2 + s2**2)) ** 2
    return 4.0 * (g1 + g2 + g3 + g4)


def raw_cq_loss_diffusion(m, eta, lam, alpha, beta):
    """Raw variational cost for loss plus diffusion, before minimization.

    4 var_n [eta + alpha(1-eta) - beta]^2 + 4 mean_n (1-alpha)^2 eta (1-eta)
    + beta^2/(2 lam^2).  Minimizing over (alpha, beta) reproduces
    cq_min_loss_diffusion.  At lam = 0 the last term is 0 for beta = 0 and
    +inf otherwise: an undiffused phase reference tolerates no beta.
    """
    check_eta(eta)
    check_nonneg(lam, "lam")
    out = 4.0 * m.var_n * (eta + alpha * (1.0 - eta) - beta) ** 2
    out += 4.0 * m.mean_n * (1.0 - alpha) ** 2 * eta * (1.0 - eta)
    if lam == 0.0:
        return out if beta == 0.0 else math.inf
    return out + beta**2 / (2.0 * lam**2)
