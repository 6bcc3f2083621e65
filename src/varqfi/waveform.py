"""Spectral variational bound on waveform-phase estimation error.

Extends the single-parameter bounds to a stationary phase signal: a prior
phase power spectrum, the photon-number fluctuation spectrum of an OPO
squeezed vacuum with its flux bookkeeping, the frequency-resolved
variational cost, the resulting mean-square-error lower bound with its
one-parameter maximization, and the mu/L/D construction whose exponents
separate the lossless and lossy scaling regimes.

The beta search calls mse_bound some 66 times with one prior and one OPO
model, and most of a call's quadrature panels repeat abscissae the call
before it evaluated.  So two functools.lru_cache functions memoize the
beta-independent integrand terms: _spectra keeps the hoisted info_deficit
and sigma_tilde evaluators of the latest (prior, model), and _terms their
read-only values on the latest 256 abscissa arrays, keyed on that pair
and the arrays' float64 bytes.  One call evaluates at most about 100
arrays, so on the fig3 row N = 1e8, eta = 0.95, 0.873 of the lookups hit,
against 0.876 with all 545 of the row's kept.  Both live as long as the
process; cache_clear() empties either, as the benchmark does between
passes.  A memoized term has the bits of a fresh one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import (
    check_eta,
    check_finite_nonneg,
    integrate,
    integrate_semi_infinite,
    maximize_scalar,
)

__all__ = [
    "PriorSpectrum",
    "OpoSpectrumModel",
    "SpectralCqParams",
    "OptimizedBound",
    "ScalingConstruction",
    "sigma_tilde",
    "spectral_cq",
    "mse_bound",
    "mse_bound_optimized",
    "scaling_construction_D",
    "fig3_curve",
]


@dataclass(frozen=True)
class PriorSpectrum:
    """Prior phase power spectrum kappa^(p-1)/(lambda_c^2 + |omega|^p).

    lambda_c = 0 gives the power law kappa^(p-1)/|omega|^p; a positive
    lambda_c gives the Lorentzian kappa/(lambda_c^2 + omega^2), the p = 2
    power law regularized at low frequency, so lambda_c > 0 demands p = 2.
    kappa carries rad^2 Hz^(p-1), lambda_c rad/s; all three must be finite,
    and kappa^(p-1), the divisor of info_deficit, a positive finite float.
    """

    kappa: float
    p: float
    lambda_c: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:  # NaN fails too
            raise ValueError("kappa must be positive and finite")
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must exceed 1 and be finite")
        check_finite_nonneg(self.lambda_c, "lambda_c")
        if self.lambda_c > 0.0 and self.p != 2.0:
            raise ValueError("a Lorentzian prior (lambda_c > 0) requires p = 2")
        with np.errstate(over="ignore"):  # inf past float range, refused below
            scale = np.float64(self.kappa) ** (self.p - 1.0)
        if not 0.0 < scale < math.inf:  # 0 would make every info_deficit inf
            raise ValueError("kappa^(p-1) must be a positive finite float")

    def info_deficit(self, omega):
        """Reciprocal spectrum (lambda_c^2 + |omega|^p)/kappa^(p-1).

        Finite at omega = 0 for both priors; vectorized over omega; +inf,
        without a warning, where it passes float range (its limit there).
        """
        return self._deficit()(omega, np.square(omega, dtype=float))

    def _deficit(self):
        """(w, w*w) -> info_deficit(w), hoisted; p = 2 uses w*w, the bits of |w| ** 2.0."""
        lam2, scale = map(np.array, (self.lambda_c**2, self.kappa ** (self.p - 1.0)))
        if self.p == 2.0:
            return lambda w, w2: (lam2 + w2) / scale
        # lambda_c is 0; past float range the value is +inf, its limit, quietly
        return np.errstate(over="ignore")(lambda w, w2: np.abs(w) ** self.p / scale)


def _pump_and_rate(R_plus, flux_N):
    """Pump amplitude x and cavity decay rate gamma of an OPO beam.

    gamma yields the requested total photon flux N: the flux equation
    gamma = 16 N / [(R+ - 1)(1 - x) + (R- - 1)(1 + x)], with R- = 1/R+ and
    x = (sqrt(R+) - 1)/(sqrt(R+) + 1), has the bracket
    2 (sqrt(R+) - 1)^2 / sqrt(R+).  g = sqrt(R+) - 1 is computed as
    (R+ - 1)/(sqrt(R+) + 1), which keeps its relative precision as R+ -> 1;
    then x = g/(sqrt(R+) + 1) and gamma = 16 N sqrt(R+)/(2 g^2).  Where x
    rounds to 1 (R+ above about 1e32) or gamma overflows, the spectrum has
    no representable shape, and ValueError is raised.
    """
    if not R_plus > 1.0:
        raise ValueError("R_plus must exceed 1")
    if not flux_N > 0.0:
        raise ValueError("flux_N must be positive")
    root = math.sqrt(R_plus)
    g = (R_plus - 1.0) / (root + 1.0)
    x, gamma = g / (root + 1.0), 16.0 * flux_N * root / (2.0 * g * g)
    if not (x < 1.0 and gamma < math.inf):
        raise ValueError("R_plus or flux_N so large that x rounds to 1 or gamma overflows")
    return x, gamma


@dataclass(frozen=True)
class OpoSpectrumModel:
    """OPO squeezed vacuum: anti-squeezing level R_plus and photon flux.

    The normalized pump amplitude x = (sqrt(R+) - 1)/(sqrt(R+) + 1) and the
    cavity decay rate gamma_cavity that yields the flux (_pump_and_rate) are
    derived at construction, finite and positive wherever _pump_and_rate
    accepts R_plus.  The squeezing level R- is 1/R+ and is not stored.
    """

    R_plus: float
    flux_N: float
    x: float = field(init=False)
    gamma_cavity: float = field(init=False)

    def __post_init__(self):
        x, gamma = _pump_and_rate(self.R_plus, self.flux_N)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gamma_cavity", gamma)


@dataclass(frozen=True)
class SpectralCqParams:
    """Transmission eta and the variational weight beta of the loss split."""

    eta: float
    beta: float

    def __post_init__(self):
        check_eta(self.eta)
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")


def sigma_tilde(omega, model):
    """Photon-number fluctuation spectrum of the OPO squeezed vacuum.

    4 N plus two Lorentzians of widths (1 -+ x) gamma carrying the
    anti-squeezed and squeezed quadrature weights.  Even in omega;
    vectorized over omega.  (R- - 1)^2 is taken as ((R+ - 1)/R+)^2, which
    keeps its relative precision as R+ -> 1.
    """
    return _sigma(model)(np.square(omega, dtype=float))


def spectral_cq(omega, model, params):
    """Frequency-resolved variational cost of the lossy OPO probe.

    sigma_tilde(omega) [eta + beta(1-eta)]^2 + 4 N (1-beta)^2 eta (1-eta).
    beta = eta/(eta-1) kills the spectral coefficient and leaves the flat
    value 4 N eta/(1-eta); beta = 1 returns sigma_tilde unchanged.
    """
    return _cost(sigma_tilde(omega, model), *_loss_split(model, params))


def _sigma(model):
    """omega^2 -> sigma_tilde(omega), coefficients hoisted."""
    g, x, shot = model.gamma_cavity, model.x, 4.0 * model.flux_N
    excess = model.R_plus - 1.0
    c_anti, a_anti = excess**2 * (1.0 - x) ** 3, (1.0 - x) ** 2 * g**2
    c_sq, a_sq = (excess / model.R_plus) ** 2 * (1.0 + x) ** 3, (1.0 + x) ** 2 * g**2
    # 0-d arrays (faster on an array than Python floats) and in-place + and *: same bits
    shot, height, c_anti, a_anti, c_sq, a_sq = map(np.array, (
        shot, g**3 / 16.0, c_anti, a_anti, c_sq, a_sq))

    def sigma(w2):
        lor = c_anti / (a_anti + w2)
        lor += c_sq / (a_sq + w2)
        lor *= height
        lor += shot
        return lor

    return sigma


def _loss_split(model, params):
    """The beta-dependent scalars of spectral_cq: (weight^2, flat), as 0-d arrays."""
    weight2 = (params.eta + params.beta * (1.0 - params.eta)) ** 2
    flat = 4.0 * model.flux_N * (1.0 - params.beta) ** 2 * params.eta * (1.0 - params.eta)
    return np.array(weight2), np.array(flat)


def _cost(sigma, weight2, flat):
    """sigma_tilde -> spectral_cq: times weight^2, plus flat, in a new array."""
    cost = sigma * weight2
    cost += flat
    return cost


@functools.lru_cache(maxsize=1)
def _spectra(prior, model):
    """The hoisted (info_deficit, sigma_tilde) evaluators of the latest (prior, model)."""
    return prior._deficit(), _sigma(model)


@functools.lru_cache(maxsize=256)
def _terms(spectra, key):
    """The pair spectra at the float64 array whose bytes are key, read-only (module notes)."""
    deficit, sigma = spectra
    omega = np.frombuffer(key)
    w2 = np.square(omega)
    info, sig = deficit(omega, w2), sigma(w2)
    info.flags.writeable = sig.flags.writeable = False
    return info, sig


def _mse_integrand(spectra, weight2, flat):
    """omega -> 1/(info_deficit(omega) + spectral_cq(omega)), omega a float64 array."""

    def integrand(omega):
        deficit, sigma = _terms(spectra, omega.tobytes())
        total = _cost(sigma, weight2, flat)
        total += deficit
        return np.reciprocal(total, out=total)

    return integrand


def _positive_knots(prior, model, spectra, split):
    """Frequencies where the MSE integrand changes character."""
    # the cost's plateaus at omega = 0 and omega = inf, where sigma_tilde is 4N
    plateaus = _cost(_terms(spectra, np.array([0.0, math.inf]).tobytes())[1], *split).tolist()
    knots = [
        (1.0 - model.x) * model.gamma_cavity,
        (1.0 + model.x) * model.gamma_cavity,
        prior.lambda_c,
    ]
    # where info_deficit crosses each plateau, rooted per factor: scale * cq may overflow
    scale, root = prior.kappa ** (prior.p - 1.0), 1.0 / prior.p
    for cq in plateaus:
        knots.append(scale**root * max(cq - prior.lambda_c**2 / scale, 0.0) ** root)
    return sorted({k for k in knots if k > 0.0})


def mse_bound(prior, model, params, rel_tol=1e-10):
    """Waveform-phase MSE lower bound at a fixed variational beta.

    (1/pi) integral over omega in [0, inf) of 1 / (info_deficit(omega) +
    spectral_cq(omega; beta)), the even-symmetry half of the full-line
    spectral inversion.  The reciprocal form keeps the integrand finite at
    omega = 0 for every admissible prior.  Integration is piecewise between
    the integrand's characteristic frequencies, then over the tail via the
    semi-infinite map.

    Only weight^2 = (eta + beta(1-eta))^2 and the flat term depend on beta.
    info_deficit and sigma_tilde come from the caches _spectra and _terms
    of the module notes.  The integrand forms weight^2 * sigma + flat +
    deficit with the same operations whether its terms are fresh or
    memoized, so the value is bit-identical either way.
    """
    spectra, split = _spectra(prior, model), _loss_split(model, params)
    integrand = _mse_integrand(spectra, *split)
    total = lo = 0.0
    for knot in _positive_knots(prior, model, spectra, split):
        value, _ = integrate(integrand, lo, knot, rel_tol=rel_tol)
        total += value
        lo = knot
    total += integrate_semi_infinite(integrand, lo, rel_tol=rel_tol)
    return total / math.pi


class OptimizedBound(NamedTuple):
    beta_star: float
    bound: float


def mse_bound_optimized(prior, model, eta, rel_tol=1e-10):
    """MSE bound maximized over the variational weight beta.

    Searches beta in [min(eta/(eta-1), 0) - 10, 1], which contains both
    analytically distinguished values (1 and the flat-channel
    eta/(eta-1)).  At eta = 1 the cost is beta-independent, so the bound
    is evaluated once, with beta_star = 1 by convention.
    """
    check_eta(eta)
    if eta == 1.0:
        value = mse_bound(prior, model, SpectralCqParams(1.0, 1.0), rel_tol=rel_tol)
        return OptimizedBound(1.0, value)
    ratio = eta / (eta - 1.0)
    lo = min(ratio, 0.0) - 10.0

    def objective(beta):
        return mse_bound(prior, model, SpectralCqParams(eta, beta), rel_tol=rel_tol)

    return OptimizedBound(*maximize_scalar(objective, lo, 1.0))


class ScalingConstruction(NamedTuple):
    D: float
    L: float


def scaling_construction_D(flux_N, mu, eta, kappa, p):
    """Effective information constant D of the block-measurement scheme.

    D = 4 kappa^(p-1) eta N (17 N + 4 mu) / (N (17 - eta) + 4 mu (1 - eta)),
    with the companion block length L = 8 pi N^2 / mu alongside.  The MSE
    of the scheme scales as D^((1-p)/p), so mu = N^(2p/(p+1)) recovers the
    lossless exponent and mu = N^(2-1/p) the lossy one.  A D or L beyond
    float range raises OverflowError, and only such a D or L: no partial
    result leaves float range while N and mu exceed 1e-307.
    """
    if not 0.0 < mu < math.inf:  # NaN fails too
        raise ValueError("mu must be positive and finite")
    if not 0.0 < flux_N < math.inf:
        raise ValueError("flux_N must be positive and finite")
    check_eta(eta)
    PriorSpectrum(kappa, p)  # the prior's checks on kappa and p
    # both sums of the ratio over 32, so neither passes float range
    num = 17.0 / 32.0 * flux_N + mu / 8.0
    den = (17.0 - eta) / 32.0 * flux_N + (1.0 - eta) / 8.0 * mu
    d = _product(4.0 * eta, kappa ** (p - 1.0), flux_N, num, 1.0 / den)
    return ScalingConstruction(d, _product(8.0 * math.pi, flux_N, flux_N, 1.0 / mu))


def _product(*factors):
    """Product of positive finite floats, no partial product leaving float range."""
    mantissas, exponents = zip(*map(math.frexp, factors))
    return math.ldexp(math.prod(mantissas), sum(exponents))


def fig3_curve(eta, N_grid, rel_tol=1e-8):
    """HL-to-SQL transition curve: optimized MSE bound per photon flux.

    For each flux value the anti-squeezing level is R = 16 N^(1/3), the
    cavity rate solves the flux equation, and the bound is maximized over
    beta, all under the unit-scale Lorentzian prior kappa = lambda_c = 1
    (p = 2).  Returns one OptimizedBound per flux, in grid order.
    """
    prior = PriorSpectrum(kappa=1.0, p=2.0, lambda_c=1.0)
    models = (OpoSpectrumModel(16.0 * float(n) ** (1.0 / 3.0), float(n)) for n in N_grid)
    return [mse_bound_optimized(prior, m, eta, rel_tol=rel_tol) for m in models]
