import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from varqfi import numerics, waveform
from varqfi.numerics import integrate, integrate_semi_infinite, loglog_slope
from varqfi.waveform import (
    OpoSpectrumModel,
    PriorSpectrum,
    SpectralCqParams,
    fig3_curve,
    mse_bound,
    mse_bound_optimized,
    scaling_construction_D,
    sigma_tilde,
    spectral_cq,
)
from varqfi.waveform import _loss_split, _mse_integrand, _Spectra


def test_prior_spectrum_validation():
    with pytest.raises(ValueError):
        PriorSpectrum(0.0, 2.0)
    with pytest.raises(ValueError):
        PriorSpectrum(1.0, 1.0)
    with pytest.raises(ValueError):
        PriorSpectrum(1.0, 2.0, -0.1)
    # a low-frequency cutoff only makes sense for the p = 2 power law
    with pytest.raises(ValueError):
        PriorSpectrum(1.0, 3.0, 0.5)
    PriorSpectrum(1.0, 3.0, 0.0)


def test_prior_spectrum_values():
    power = PriorSpectrum(4.0, 3.0)
    assert abs(power.info_deficit(2.0) - 8.0 / 16.0) < 1e-15
    assert power.info_deficit(0.0) == 0.0

    lorentz = PriorSpectrum(3.0, 2.0, 0.5)
    assert abs(lorentz.info_deficit(1.0) - 1.25 / 3.0) < 1e-15
    assert abs(lorentz.info_deficit(0.0) - 0.25 / 3.0) < 1e-15

    w = np.array([-2.0, -1.0, 1.0, 2.0])
    for prior in (power, lorentz):
        d = prior.info_deficit(w)
        assert d.shape == w.shape
        assert np.array_equal(d[:2], d[:1:-1])  # even in omega


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
    p=st.floats(1.0, 6.0, exclude_min=True),
    lambda_c=st.floats(0.0, 100.0),
    omega=st.floats(-1e4, 1e4),
)
def test_info_deficit_is_the_textbook_form(kappa, p, lambda_c, omega):
    lorentz = float(PriorSpectrum(kappa, 2.0, lambda_c).info_deficit(omega))
    want = (lambda_c**2 + omega**2) / kappa
    assert abs(lorentz - want) <= math.ulp(want)
    power = float(PriorSpectrum(kappa, p).info_deficit(omega))
    want = abs(omega) ** p / kappa ** (p - 1.0)
    assert abs(power - want) <= math.ulp(want)


def test_solve_gamma_worked_example():
    # R+ = 16: x = 3/5, bracket = 15*0.4 + (1/16 - 1)*1.6 = 4.5
    for flux in (1.0, 2.5, 1e6):
        gamma = OpoSpectrumModel(16.0, flux).gamma_cavity
        assert abs(gamma - 16.0 * flux / 4.5) < 1e-12 * flux


def test_solve_gamma_bracket_simplification():
    # (R+ - 1)(1 - x) + (R- - 1)(1 + x) = 2 (sqrt(R+) - 1)^2 / sqrt(R+),
    # the simplified bracket taken at 50 digits: in floats sqrt(R+) - 1
    # cancels as R+ -> 1
    rng = np.random.default_rng(3)
    for r_plus in 1.0 + 10.0 ** rng.uniform(-12.0, math.log10(50.0), size=20):
        with mpmath.workdps(50):
            root = mpmath.sqrt(mpmath.mpf(r_plus))
            simplified = float(2 * (root - 1) ** 2 / root)
        got = OpoSpectrumModel(r_plus, 7.0).gamma_cavity
        assert abs(got - 16.0 * 7.0 / simplified) < 1e-10 * got


@settings(max_examples=200, deadline=None)
@given(r_plus=st.floats(-15.0, 6.0).map(lambda u: 1.0 + 10.0**u))
@example(r_plus=1.0 + 2.0**-52)
@example(r_plus=1.0 + 2.0**-51)
@example(r_plus=1.0 + 1e-4)
def test_solve_gamma_matches_mpmath(r_plus):
    # the flux equation's own bracket at 50 digits, from the same float R+
    with mpmath.workdps(50):
        rp = mpmath.mpf(r_plus)
        x = (mpmath.sqrt(rp) - 1) / (mpmath.sqrt(rp) + 1)
        bracket = (rp - 1) * (1 - x) + (1 / rp - 1) * (1 + x)
        want = float(16 * 7 / bracket)
    got = OpoSpectrumModel(r_plus, 7.0).gamma_cavity
    assert abs(got - want) <= 1e-14 * want


def test_solve_gamma_linear_in_flux():
    g1 = OpoSpectrumModel(9.0, 1.0).gamma_cavity
    assert abs(OpoSpectrumModel(9.0, 250.0).gamma_cavity - 250.0 * g1) < 1e-9 * g1


def test_solve_gamma_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OpoSpectrumModel(1.0, 2.0)
    with pytest.raises(ValueError):
        OpoSpectrumModel(0.5, 2.0)
    with pytest.raises(ValueError):
        OpoSpectrumModel(4.0, 0.0)


def test_opo_model_derived_fields():
    m = OpoSpectrumModel(16.0, 2.0)
    assert abs(m.x - 0.6) < 1e-15
    assert 0.0 < m.x < 1.0
    assert abs(m.gamma_cavity - 32.0 / 4.5) < 1e-12
    # flux round trip, with R- = 1/R+
    bracket = (m.R_plus - 1.0) * (1.0 - m.x) + (1.0 / m.R_plus - 1.0) * (1.0 + m.x)
    assert abs(m.gamma_cavity * bracket / 16.0 - m.flux_N) < 1e-10 * m.flux_N

    rng = np.random.default_rng(8)
    for _ in range(10):
        m = OpoSpectrumModel(1.0 + rng.uniform(0.01, 100.0), rng.uniform(0.1, 1e8))
        bracket = (m.R_plus - 1.0) * (1.0 - m.x) + (1.0 / m.R_plus - 1.0) * (1.0 + m.x)
        assert abs(m.gamma_cavity * bracket / 16.0 - m.flux_N) < 1e-10 * m.flux_N
        assert 0.0 < m.x < 1.0

    # one ulp above R+ = 1 the cavity rate is huge but finite and positive
    m = OpoSpectrumModel(1.0 + 2.0**-52, 1.0)
    assert 0.0 < m.gamma_cavity < math.inf
    assert 0.0 < m.x < 1e-15


def test_opo_model_rejects_bad_parameters():
    with pytest.raises(ValueError):
        OpoSpectrumModel(1.0, 2.0)
    with pytest.raises(ValueError):
        OpoSpectrumModel(4.0, -1.0)


def test_sigma_tilde_hand_value():
    # R+ = 16, N = 2: gamma = 32/4.5, and at omega = 0 the Lorentzians give
    # (gamma/16) [ (R+ - 1)^2 (1 - x) + (R- - 1)^2 (1 + x) ]
    #   = (32/72) [ 225*0.4 + (15/16)^2*1.6 ] = 40.625, so 8 + 40.625
    m = OpoSpectrumModel(16.0, 2.0)
    v0 = float(sigma_tilde(0.0, m))
    assert abs(v0 - 48.625) < 1e-12


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-15.0, 2.0), width=st.sampled_from([0.0, 1.0, 10.0]))
@example(u=-8.0, width=0.0)
def test_sigma_tilde_matches_mpmath(u, width):
    # the same formula at 50 digits from the same float R+, N and omega;
    # with R- = 1/R+ rounded first, (R- - 1)^2 cancels as R+ -> 1
    m = OpoSpectrumModel(1.0 + 10.0**u, 1.0)
    omega = width * m.gamma_cavity
    with mpmath.workdps(50):
        rp, w2 = mpmath.mpf(m.R_plus), mpmath.mpf(omega) ** 2
        x = (mpmath.sqrt(rp) - 1) / (mpmath.sqrt(rp) + 1)
        g = 16 / ((rp - 1) * (1 - x) + (1 / rp - 1) * (1 + x))
        lor = (rp - 1) ** 2 * (1 - x) ** 3 / ((1 - x) ** 2 * g**2 + w2)
        lor += (1 / rp - 1) ** 2 * (1 + x) ** 3 / ((1 + x) ** 2 * g**2 + w2)
        want = float(4 + g**3 / 16 * lor)
    got = float(sigma_tilde(omega, m))
    assert abs(got - want) <= 1e-14 * want


@settings(max_examples=300, deadline=None)
@given(
    flux=st.floats(-2.0, 8.0).map(lambda x: 10.0**x),
    anti_squeezing=st.sampled_from([lambda n: 1.5, lambda n: 16.0 * n ** (1.0 / 3.0),
                                    lambda n: 100.0]),
    u=st.floats(0.0, 100.0),
)
def test_sigma_tilde_is_four_times_the_photon_flux_noise(flux, anti_squeezing, u):
    # Collett-Gardiner's S_nn shares no formula with the model's gamma or sigma_tilde
    r_plus = anti_squeezing(flux)
    model = OpoSpectrumModel(r_plus, flux)
    omega = u * model.gamma_cavity
    want = 4.0 * reference.opo_photon_flux_noise(r_plus, flux, omega)
    assert abs(float(sigma_tilde(omega, model)) - want) <= 1e-13 * want


def test_sigma_tilde_limits_and_symmetry():
    m = OpoSpectrumModel(7.0, 3.0)
    assert float(sigma_tilde(0.0, m)) > 4.0 * m.flux_N
    far = float(sigma_tilde(1e12, m))
    assert abs(far - 4.0 * m.flux_N) < 1e-6
    w = np.linspace(0.1, 40.0, 9)
    assert np.array_equal(sigma_tilde(w, m), sigma_tilde(-w, m))


def test_spectral_cq_distinguished_betas():
    m = OpoSpectrumModel(16.0, 2.0)
    w = np.linspace(0.0, 50.0, 7)

    # beta = 1 passes the fluctuation spectrum through untouched
    assert np.array_equal(
        spectral_cq(w, m, SpectralCqParams(0.95, 1.0)), sigma_tilde(w, m)
    )

    # beta = eta/(eta-1) kills the spectral term: flat 4 N eta/(1-eta)
    flat = spectral_cq(w, m, SpectralCqParams(0.8, 0.8 / (0.8 - 1.0)))
    expect = 4.0 * 2.0 * 0.8 / 0.2
    assert np.all(np.abs(flat - expect) < 1e-12 * expect)

    # eta = 1: beta does not matter at all
    a = spectral_cq(w, m, SpectralCqParams(1.0, -3.7))
    b = spectral_cq(w, m, SpectralCqParams(1.0, 0.9))
    assert np.array_equal(a, b)
    assert np.array_equal(a, sigma_tilde(w, m))


def _unhoisted_integrand(prior, model, params, omega):
    """The mse_bound integrand written out, every operation in closed-form order."""
    w2 = np.asarray(omega) ** 2
    g, x, excess = model.gamma_cavity, model.x, model.R_plus - 1.0
    lor = excess**2 * (1.0 - x) ** 3 / ((1.0 - x) ** 2 * g**2 + w2)
    lor = lor + (excess / model.R_plus) ** 2 * (1.0 + x) ** 3 / ((1.0 + x) ** 2 * g**2 + w2)
    sigma = 4.0 * model.flux_N + g**3 / 16.0 * lor
    eta, beta = params.eta, params.beta
    flat = 4.0 * model.flux_N * (1.0 - beta) ** 2 * eta * (1.0 - eta)
    cost = sigma * (eta + beta * (1.0 - eta)) ** 2 + flat
    deficit = (prior.lambda_c**2 + np.abs(omega) ** prior.p) / prior.kappa ** (prior.p - 1.0)
    return 1.0 / (deficit + cost)


@settings(max_examples=300, deadline=None)
@given(
    kappa=st.floats(-2.0, 2.0).map(lambda x: 10.0**x),
    p=st.floats(1.0, 4.0, exclude_min=True),
    lambda_c=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    r_plus=st.floats(1.0, 1e6, exclude_min=True),
    flux=st.floats(-4.0, 8.0).map(lambda x: 10.0**x),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    beta=st.floats(-30.0, 1.0),
    omega=st.lists(st.floats(0.0, 1e12), max_size=14).map(lambda w: np.array([0.0] + w)),
)
@example(kappa=1.0, p=2.0, lambda_c=1.0, r_plus=16.0, flux=1e2, eta=0.9, beta=-9.0,
         omega=np.array([0.0, 1.0, 1e3, 1e12]))
def test_hoisted_integrand_is_bit_identical(kappa, p, lambda_c, r_plus, flux, eta, beta, omega):
    # a positive lambda_c makes the prior Lorentzian, which demands p = 2
    prior = PriorSpectrum(kappa, 2.0 if lambda_c > 0.0 else p, lambda_c)
    model = OpoSpectrumModel(r_plus, flux)
    params = SpectralCqParams(eta, beta)
    # eta and beta near 0 shrink the cost to 0 or a subnormal, where 1/cost is
    # +inf on every route
    with np.errstate(divide="ignore", over="ignore"):
        integrand = _mse_integrand(_Spectra(prior, model), *_loss_split(model, params))
        got = integrand(omega)
        want = 1.0 / (prior.info_deficit(omega) + spectral_cq(omega, model, params))
        written_out = _unhoisted_integrand(prior, model, params, omega)
        memoized = integrand(omega)
    assert np.array_equal(got, want)
    assert np.array_equal(got, written_out)
    assert np.array_equal(memoized, got)


@settings(max_examples=30, deadline=None)
@given(
    kappa=st.floats(-1.0, 1.0).map(lambda x: 10.0**x),
    p=st.floats(2.0, 4.0),
    lambda_c=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    r_plus=st.floats(1.5, 1e3),
    flux=st.floats(0.0, 7.0).map(lambda x: 10.0**x),
    eta=st.floats(0.3, 1.0),
    betas=st.lists(st.floats(-15.0, 1.0), min_size=2, max_size=4, unique=True),
    data=st.data(),
)
def test_memo_gives_the_same_bits_cold_and_warm(
    kappa, p, lambda_c, r_plus, flux, eta, betas, data
):
    prior = PriorSpectrum(kappa, 2.0 if lambda_c > 0.0 else p, lambda_c)
    model = OpoSpectrumModel(r_plus, flux)

    def bound(beta):
        return mse_bound(prior, model, SpectralCqParams(eta, beta), rel_tol=1e-8).hex()

    cold = {}
    for beta in betas:
        waveform._spectra.cache_clear()
        cold[beta] = bound(beta)
    waveform._spectra.cache_clear()
    warm = {beta: bound(beta) for beta in data.draw(st.permutations(betas))}
    assert len(waveform._spectra(prior, model).memo) > 0
    assert warm == cold


@pytest.mark.parametrize("cap", [1, 7, 10_000])
def test_memo_never_holds_more_than_its_cap(cap):
    prior, model = PriorSpectrum(1.0, 2.0, 1.0), OpoSpectrumModel(16.0 * 1e4 ** (1.0 / 3.0), 1e4)
    params = [SpectralCqParams(0.95, beta) for beta in (-3.0, -1.0, 0.5)]
    waveform._spectra.cache_clear()
    want = [mse_bound(prior, model, q) for q in params]
    uncapped = len(waveform._spectra(prior, model).memo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waveform, "_MEMO_CAP", cap)
        waveform._spectra.cache_clear()
        got = []
        for q in params:
            got.append(mse_bound(prior, model, q))
            assert len(waveform._spectra(prior, model).memo) <= cap
    assert len(waveform._spectra(prior, model).memo) == min(cap, uncapped)
    assert got == want
    waveform._spectra.cache_clear()


def test_memo_of_a_beta_search_stays_below_its_cap():
    # the fig3 grid's largest flux, lossy: 66 mse_bound calls share one memo
    model = OpoSpectrumModel(16.0 * 1e8 ** (1.0 / 3.0), 1e8)
    mse_bound_optimized(PriorSpectrum(1.0, 2.0, 1.0), model, 0.95, rel_tol=1e-8)
    assert 0 < len(waveform._spectra(PriorSpectrum(1.0, 2.0, 1.0), model).memo) < waveform._MEMO_CAP


def test_memoized_terms_are_read_only():
    spectra = _Spectra(PriorSpectrum(1.0, 3.0), OpoSpectrumModel(16.0, 2.0))
    omega = np.linspace(0.0, 50.0, 15)
    terms = spectra(omega)
    assert spectra(omega.copy()) is terms
    for array in terms:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("node", range(15))
def test_memo_tells_apart_abscissae_one_ulp_apart(node):
    prior, model = PriorSpectrum(1.0, 3.0), OpoSpectrumModel(16.0, 2.0)
    spectra = _Spectra(prior, model)
    omega = np.linspace(0.0, 50.0, 15)
    spectra(omega)
    other = omega.copy()
    other[node] = np.nextafter(other[node], 100.0)
    for got, want in zip(spectra(other), _Spectra(prior, model)(other)):
        assert np.array_equal(got, want)
    assert len(spectra.memo) == 2


def _tail_map(f, a):
    """The integrand integrate_semi_infinite hands to integrate, caught on its way in."""
    caught = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "integrate", lambda g, *args, **kw: caught.append(g) or (0.0, 0.0))
        integrate_semi_infinite(f, a)
    return caught[0]


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.0, 4.0, exclude_min=True),
    beta=st.floats(-30.0, 1.0),
    a=st.one_of(st.just(0.0), st.floats(1e-6, 1e9)),
    # t = 1 puts 1 - t below the 1e-17 floor
    t=st.lists(st.floats(0.0, 1.0), max_size=13).map(lambda t: np.array([0.0, 1.0] + t)),
)
def test_tail_map_is_bit_identical(p, beta, a, t):
    model = OpoSpectrumModel(16.0 * 1e2 ** (1.0 / 3.0), 1e2)
    split = _loss_split(model, SpectralCqParams(0.95, beta))
    for prior in (PriorSpectrum(1.0, 2.0, 1.0), PriorSpectrum(1.0, p)):
        # the tail map's call finds the abscissae written_out evaluated in the memo
        f = _mse_integrand(_Spectra(prior, model), *split)
        comp = np.maximum(1.0 - t, 1e-17)
        written_out = np.asarray(f(a + t / comp)).reshape(t.shape) / (comp * comp)
        given_t = t.copy()
        assert np.array_equal(_tail_map(f, a)(given_t), written_out)
        assert np.array_equal(given_t, t)


def test_tail_map_leaves_the_integrand_result_alone():
    # a read-only result raises if the map divides it in place
    ones = _tail_map(lambda w: np.broadcast_to(1.0, w.shape), 2.0)(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(ones, [1.0, 4.0, 1.0 / (1e-17 * 1e-17)])


def test_spectral_cq_params_validation():
    with pytest.raises(ValueError):
        SpectralCqParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SpectralCqParams(1.2, 0.5)


def test_mse_bound_constant_channel_closed_forms():
    # beta = eta/(eta-1) with eta = 0.8 gives the flat cost C = 16 N, so the
    # quadrature must land on the arctan integrals exactly.
    for c_val in (1e-2, 1.0, 1e4):
        model = OpoSpectrumModel(16.0, c_val / 16.0)
        params = SpectralCqParams(0.8, -4.0)

        power = PriorSpectrum(3.0, 2.0)
        got = mse_bound(power, model, params)
        exact = 0.5 * math.sqrt(3.0 / c_val)
        assert abs(got - exact) < 1e-9 * exact

        lorentz = PriorSpectrum(3.0, 2.0, 0.7)
        got_l = mse_bound(lorentz, model, params)
        exact_l = 3.0 / (2.0 * math.sqrt(0.7**2 + 3.0 * c_val))
        assert abs(got_l - exact_l) < 1e-9 * exact_l


def test_mse_bound_prior_only_limit():
    # vanishing flux removes the channel term; the Lorentzian prior then
    # integrates to kappa/(2 lambda_c)
    tiny = OpoSpectrumModel(2.0, 1e-30)
    got = mse_bound(PriorSpectrum(1.3, 2.0, 0.9), tiny, SpectralCqParams(1.0, 1.0))
    expect = 1.3 / (2.0 * 0.9)
    assert abs(got - expect) < 1e-9 * expect


def _admissible_prior(p, u):
    """kappa = 10^(3u), cut where kappa^(p-1) would leave float range."""
    return 10.0 ** (u * min(3.0, 300.0 / (p - 1.0))), p


@settings(max_examples=20, deadline=None)
@given(
    prior=st.builds(_admissible_prior, st.floats(2.0, 500.0), st.floats(-1.0, 1.0)),
    params=st.sampled_from([(0.95, 1.0), (1.0, 1.0), (0.5, -3.0)]),
)
# |omega|^p, and its ratio to kappa^(p-1), pass float range in the tail; the
# last one's knot kappa^(p-1) * cq did before the root was taken per factor
@example(prior=(1.0, 400.0), params=(0.95, 1.0))
@example(prior=(1e-3, 50.0), params=(0.95, 1.0))
@example(prior=(1e3, 103.0), params=(0.95, 1.0))
def test_mse_bound_is_finite_positive_and_silent_for_steep_priors(prior, params):
    model = OpoSpectrumModel(16.0 * 1e4 ** (1.0 / 3.0), 1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = mse_bound(PriorSpectrum(*prior), model, SpectralCqParams(*params))
    assert 0.0 < value < math.inf


def test_mse_bound_kappa_doubling_linearity():
    tiny = OpoSpectrumModel(2.0, 1e-30)
    params = SpectralCqParams(1.0, 1.0)
    one = mse_bound(PriorSpectrum(1.3, 2.0, 0.9), tiny, params)
    two = mse_bound(PriorSpectrum(2.6, 2.0, 0.9), tiny, params)
    assert abs(two / one - 2.0) < 1e-9


def test_mse_bound_even_symmetry_reduction():
    # the half-line evaluation must agree with the symmetrized full-line
    # integral it stands in for
    prior = PriorSpectrum(2.0, 2.0, 0.7)
    model = OpoSpectrumModel(4.0, 10.0)
    params = SpectralCqParams(0.9, 0.3)
    half = mse_bound(prior, model, params, rel_tol=1e-10)

    def integrand(omega):
        return 1.0 / (prior.info_deficit(omega) + spectral_cq(omega, model, params))

    pos = integrate(integrand, 0.0, 200.0, rel_tol=1e-10)[0]
    pos += integrate_semi_infinite(integrand, 200.0, rel_tol=1e-10)
    neg = integrate(lambda t: integrand(-t), 0.0, 200.0, rel_tol=1e-10)[0]
    neg += integrate_semi_infinite(lambda t: integrand(-t), 200.0, rel_tol=1e-10)
    full = (pos + neg) / (2.0 * math.pi)
    assert abs(full - half) < 1e-8 * half


def test_mse_bound_optimized_lossless_is_flat():
    prior = PriorSpectrum(1.0, 2.0, 1.0)
    model = OpoSpectrumModel(16.0, 100.0)
    beta_star, bound = mse_bound_optimized(prior, model, 1.0)
    assert beta_star == 1.0
    assert bound == mse_bound(prior, model, SpectralCqParams(1.0, 1.0))


def test_mse_bound_optimized_dominates_fixed_betas():
    prior = PriorSpectrum(1.0, 2.0, 1.0)
    model = OpoSpectrumModel(16.0 * 1e2, 1e6)
    eta = 0.95
    best = mse_bound_optimized(prior, model, eta)
    for beta in (1.0, eta / (eta - 1.0), -5.0, 0.0):
        fixed = mse_bound(prior, model, SpectralCqParams(eta, beta))
        assert best.bound >= fixed * (1.0 - 1e-9)


def test_mse_bound_optimized_near_constant_channel():
    # at large flux the optimum sits close to the flat-channel evaluation
    # (1/2) sqrt(kappa (1-eta)/(4 eta N))
    flux = 1e6
    model = OpoSpectrumModel(16.0 * flux ** (1.0 / 3.0), flux)
    got = mse_bound_optimized(PriorSpectrum(1.0, 2.0, 1.0), model, 0.95,
                              rel_tol=1e-8)
    closed = 0.5 * math.sqrt(0.05 / (4.0 * 0.95 * flux))
    assert closed / 2.0 <= got.bound <= closed * 2.0


def test_optimal_beta_approaches_flat_channel_value():
    # the maximizing beta drifts toward eta/(eta-1) as the flux grows; the
    # approach is ~N^(-1/3), so the 0.1 window is only reached by N = 1e10
    # (at N = 1e8 the true maximizer sits 0.218 away, a smooth interior
    # optimum, not quadrature noise)
    eta = 0.95
    target = eta / (eta - 1.0)
    rows = fig3_curve(eta, [1e6, 1e8, 1e10])
    diffs = [abs(r.beta_star - target) for r in rows]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[1] < 0.25
    assert diffs[2] < 0.1


def test_scaling_construction_hand_value():
    # D = 4*1*0.5*2*(34 + 12)/(2*16.5 + 12*0.5) = 184/39, L = 8 pi 4/3
    got = scaling_construction_D(2.0, 3.0, 0.5, 1.0, 2.0)
    assert abs(got.D - 184.0 / 39.0) < 1e-14
    assert abs(got.L - 32.0 * math.pi / 3.0) < 1e-12


def test_scaling_construction_lossless_limit():
    # eta = 1 collapses the denominator to 16 N
    got = scaling_construction_D(5.0, 2.0, 1.0, 1.3, 2.0)
    expect = 4.0 * 1.3 * 5.0 * (17.0 * 5.0 + 8.0) / (16.0 * 5.0)
    assert abs(got.D - expect) < 1e-12 * expect


@pytest.mark.parametrize(
    "args, D, L",
    [
        # kappa^(p-1) = 1e299: 4 kappa^(p-1) N (17 N + 4 mu) passed float range
        ((1e4, 1e3, 0.9, 10.0, 300.0), 3.881040892193e303, 2.513274122872e6),
        # N^2 overflowed in L, and N (17 N + 4 mu) in D
        ((1e200, 1e200, 0.9, 1.0, 2.0), 4.581818181818e200, 2.513274122872e201),
        # 4 kappa^(p-1) = 2e308 passed float range
        ((1.0, 1.0, 0.01, 10.0, 308.7), 2.009533538171e306, 25.13274122872),
        # 17 N + 4 mu and 8 pi N passed float range
        ((1e307, 1e308, 0.9, 1e-3, 2.0), 1.020895522388e305, 2.513274122872e307),
        # 4 kappa^(p-1) N = 4e-350 underflowed to 0
        ((1e-100, 1e100, 1.0, 1e-2, 126.0), 1.0e-150, 2.513274122872e-299),
    ],
)
def test_scaling_construction_finite_wherever_representable(args, D, L):
    # references from 40-digit mpmath on the float kappa^(p-1); each case
    # lost D or L to an intermediate past float range in the plain product
    got = scaling_construction_D(*args)
    assert abs(got.D - D) < 1e-12 * D
    assert abs(got.L - L) < 1e-12 * L


@pytest.mark.parametrize(
    "args", [(1e4, 1e3, 0.9, 10.0, 306.0), (1e300, 1e-10, 0.9, 1.0, 2.0)]
)
def test_scaling_construction_beyond_float_range_raises(args):
    # D = 3.88e309 in the first, L = 2.51e611 in the second
    with pytest.raises(OverflowError):
        scaling_construction_D(*args)


def test_scaling_construction_validation():
    with pytest.raises(ValueError):
        scaling_construction_D(2.0, 0.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        scaling_construction_D(0.0, 1.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        scaling_construction_D(2.0, 1.0, 1.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        scaling_construction_D(2.0, 1.0, 0.5, -1.0, 2.0)
    with pytest.raises(ValueError):
        scaling_construction_D(2.0, 1.0, 0.5, 1.0, 1.0)


def test_scaling_construction_exponents():
    # D^((1-p)/p) falls as N^(-2/3) under the dense-block rule and N^(-1/2)
    # under the lossy rule; at huge N the local slope is exact
    flux = np.logspace(18, 28, 41)
    lossless = np.array(
        [scaling_construction_D(n, n ** (4.0 / 3.0), 1.0, 1.0, 2.0).D for n in flux]
    )
    lossy = np.array(
        [scaling_construction_D(n, n**1.5, 0.95, 1.0, 2.0).D for n in flux]
    )
    window = (1e20, 1e26)
    assert abs(loglog_slope(flux, lossless**-0.5, window) + 2.0 / 3.0) < 1e-6
    assert abs(loglog_slope(flux, lossy**-0.5, window) + 0.5) < 1e-6


def _bench_workloads_constant(name):
    """A literal assigned in bench/workloads.py, parsed and never imported."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    (value,) = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    ]
    return ast.literal_eval(value)


def test_fig3_grid_meets_the_bench_self_test_counts():
    # the benchmark's traced run exits nonzero unless the fig3 grid makes
    # exactly these mse_bound calls, top-level quadratures and panels
    counts = dict.fromkeys(
        ("numerics.integrate.calls", "numerics.panels", "waveform.mse_bound.calls"), 0
    )
    with pytest.MonkeyPatch.context() as patch:
        for module, attr, key in (
            (waveform, "mse_bound", "waveform.mse_bound.calls"),
            (waveform, "integrate", "numerics.integrate.calls"),
            (waveform, "integrate_semi_infinite", "numerics.integrate.calls"),
            (numerics, "_gk15_panel", "numerics.panels"),
        ):

            def counted(*args, _call=getattr(module, attr), _key=key, **kwargs):
                counts[_key] += 1
                return _call(*args, **kwargs)

            patch.setattr(module, attr, counted)
        grid = np.logspace(2.0, 8.0, 25)
        for eta in (1.0, 0.95):
            fig3_curve(eta, grid, rel_tol=_bench_workloads_constant("WAVEFORM_REL_TOL"))
    assert counts == _bench_workloads_constant("SELF_TEST_COUNTS")


def test_fig3_curve_small_grid():
    grid = [1e3, 1e4, 1e5]
    lossy = fig3_curve(0.95, grid)
    lossless = fig3_curve(1.0, grid)
    assert len(lossy) == len(lossless) == len(grid)

    for a, b in zip(lossy, lossy[1:]):
        assert b.bound < a.bound  # more photons, tighter bound
    for lo, ll in zip(lossy, lossless):
        assert lo.bound >= ll.bound  # losses blur the error floor
        assert lo.beta_star != 1.0
        assert ll.beta_star == 1.0
