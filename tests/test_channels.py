import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from varqfi.channels import (
    lossy_thermal_channel_pure,
    phase_diffusion,
    phase_diffusion_by_quadrature,
    phase_shift,
)
from varqfi.fock_core import (
    DensityMatrix,
    FockVector,
    TruncationError,
    moments,
    squeezed_vacuum,
    thermal_dim,
)
from varqfi.numerics import AccuracyError


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(dim, rho)


def _random_probe(dim, seed):
    # a generic random probe fills odd and even levels, so every sector is used
    rng = np.random.default_rng(seed)
    return FockVector(dim, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _loss_mixed(rho, eta, n_T, bath_dim):
    # the channel is linear: push each eigenvector of rho through the pure
    # route and sum the outputs with the eigenvalues as weights
    w, vecs = np.linalg.eigh(rho.elems)
    out = sum(
        p * lossy_thermal_channel_pure(FockVector(rho.dim, v), eta, n_T, bath_dim).elems
        for p, v in zip(w, vecs.T)
        if p != 0.0
    )
    return DensityMatrix(rho.dim, out)


def test_phase_shift_entrywise():
    rho = _random_density(6, 0)
    out = phase_shift(rho, 0.0)
    assert np.array_equal(out.elems, rho.elems)
    phi = 0.73
    out = phase_shift(rho, phi)
    assert np.max(np.abs(np.diag(out.elems) - np.diag(rho.elems))) == 0.0
    # inverse shift restores the state
    back = phase_shift(out, -phi)
    assert np.max(np.abs(back.elems - rho.elems)) < 1e-14
    # agrees with conjugation by diag(e^{-i phi n})
    u = np.diag(np.exp(-1j * phi * np.arange(6)))
    assert np.max(np.abs(out.elems - u @ rho.elems @ u.conj().T)) < 1e-14


def test_loss_eta_one_is_identity():
    psi = _random_probe(8, 1)
    out = lossy_thermal_channel_pure(psi, 1.0, 0.7, thermal_dim(0.7))
    assert np.max(np.abs(out.elems - psi.density().elems)) == 0.0


def test_loss_vacuum_input_thermalizes():
    vac = np.zeros(10)
    vac[0] = 1.0
    n_T = 0.6
    out = lossy_thermal_channel_pure(FockVector(10, vac), 0.7, n_T, thermal_dim(n_T))
    off = out.elems - np.diag(np.diag(out.elems))
    assert np.max(np.abs(off)) < 1e-12
    assert abs(moments(out).mean_n - 0.3 * n_T) < 1e-7


def test_loss_energy_balance():
    psi = squeezed_vacuum(0.5, 25)
    eta, n_T = 0.8, 0.5
    out = lossy_thermal_channel_pure(psi, eta, n_T, thermal_dim(n_T))
    want = eta * moments(psi).mean_n + (1.0 - eta) * n_T
    assert abs(moments(out).mean_n - want) < 1e-6


def test_loss_thermal_fixed_point():
    n_T = 0.8
    dim = thermal_dim(n_T) + 20  # headroom so the truncated tail stays tiny
    rho = DensityMatrix(dim, reference.thermal(n_T, dim))
    out = _loss_mixed(rho, 0.6, n_T, dim)
    assert np.max(np.abs(out.elems - rho.elems)) < 1e-8


def test_loss_bath_truncation_guard():
    psi = squeezed_vacuum(0.3, 13)
    with pytest.raises(TruncationError):
        lossy_thermal_channel_pure(psi, 0.8, 0.5, 4)


def test_pure_route_matches_dense_route():
    # the dense route is the textbook construction in tests/reference.py
    psi = squeezed_vacuum(0.5, 21)
    eta, n_T = 0.8, 0.5
    bath = thermal_dim(n_T)
    dense = reference.lossy_thermal(psi.density().elems, eta, n_T, bath)
    pure = lossy_thermal_channel_pure(psi, eta, n_T, bath)
    assert np.max(np.abs(dense - pure.elems)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 8),
    eta=st.floats(0.05, 0.99),
    n_T=st.just(0.0) | st.floats(0.01, 0.5),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_route_matches_dense_route_on_random_probes(dim, eta, n_T, extra, seed):
    psi = _random_probe(dim, seed)
    bath = thermal_dim(n_T) + extra
    dense = reference.lossy_thermal(psi.density().elems, eta, n_T, bath)
    pure = lossy_thermal_channel_pure(psi, eta, n_T, bath)
    assert np.max(np.abs(dense - pure.elems)) < 1e-12


def test_phase_covariance_of_loss():
    rho = _random_density(9, 2)
    phi = 0.31
    a = _loss_mixed(phase_shift(rho, phi), 0.7, 0.4, thermal_dim(0.4))
    b = phase_shift(_loss_mixed(rho, 0.7, 0.4, thermal_dim(0.4)), phi)
    assert np.max(np.abs(a.elems - b.elems)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(2, 8),
    eta=st.floats(0.05, 0.99),
    n_T=st.just(0.0) | st.floats(0.01, 0.5),
    phi=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_pure_route_is_phase_covariant(dim, eta, n_T, phi, seed):
    # qfi_phase_covariant takes d rho / d phi = -i [n, rho] on this premise
    psi = _random_probe(dim, seed)
    bath = thermal_dim(n_T)
    shifted = FockVector(dim, np.exp(-1j * phi * np.arange(dim)) * psi.amps)
    a = phase_shift(lossy_thermal_channel_pure(psi, eta, n_T, bath), phi)
    b = lossy_thermal_channel_pure(shifted, eta, n_T, bath)
    assert np.max(np.abs(a.elems - b.elems)) < 1e-12


def test_loss_and_diffusion_commute():
    rho = _random_density(9, 3)
    eta, n_T, lam = 0.7, 0.4, 0.2
    bath = thermal_dim(n_T)
    a = phase_diffusion(_loss_mixed(rho, eta, n_T, bath), lam)
    b = _loss_mixed(phase_diffusion(rho, lam), eta, n_T, bath)
    assert np.max(np.abs(a.elems - b.elems)) < 1e-8


def test_output_positivity_on_random_inputs():
    for seed in range(5):
        rho = _random_density(8, 10 + seed)
        out = _loss_mixed(rho, 0.65, 0.3, thermal_dim(0.3))
        out = phase_diffusion(out, 0.15)
        assert np.linalg.eigvalsh(out.elems).min() >= -1e-8


def test_phase_diffusion_entrywise():
    rho = _random_density(7, 4)
    out = phase_diffusion(rho, 0.0)
    assert np.array_equal(out.elems, rho.elems)
    lam = 0.3
    out = phase_diffusion(rho, lam)
    k = np.arange(7)
    damp = np.exp(-(lam**2) * np.subtract.outer(k, k) ** 2)
    assert np.max(np.abs(out.elems - damp * rho.elems)) < 1e-15
    assert np.max(np.abs(np.diag(out.elems) - np.diag(rho.elems))) == 0.0
    assert abs(moments(out).mean_n - moments(rho).mean_n) < 1e-12
    # lam^2 beyond float range: full dephasing, the diagonal kept exactly
    out = phase_diffusion(rho, 1e200)
    assert np.array_equal(out.elems, np.diag(np.diag(rho.elems)))


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
def test_diffusion_matches_gaussian_phase_average(lam):
    # dual route: adaptive quadrature over the Gaussian phase ensemble
    rho = lossy_thermal_channel_pure(squeezed_vacuum(0.5, 21), 0.8, 0.0, 2)
    direct = phase_diffusion(rho, lam)
    averaged = phase_diffusion_by_quadrature(rho, lam)
    assert np.max(np.abs(direct.elems - averaged.elems)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 42),
    lam=st.floats(0.02, 0.5),
    seed=st.integers(0, 2**32 - 1),
    tol_exponent=st.floats(-12.0, -6.0),
)
def test_quadrature_diffusion_on_random_states(dim, lam, seed, tol_exponent):
    rho = _random_density(dim, seed)
    entrywise = phase_diffusion(rho, lam).elems
    out = phase_diffusion_by_quadrature(rho, lam).elems
    assert np.max(np.abs(out - entrywise)) <= 1e-9
    # the lower triangle is the conjugate of the upper one
    assert np.array_equal(out, out.conj().T)
    assert abs(np.trace(out) - np.trace(rho.elems)) <= 1e-12
    # abs_tol bounds each kick average and |rho_lk| <= 1, so it bounds every entry
    abs_tol = 10.0**tol_exponent
    out = phase_diffusion_by_quadrature(rho, lam, abs_tol=abs_tol).elems
    assert np.max(np.abs(out - entrywise)) <= abs_tol


def test_quadrature_diffusion_budget_raises():
    # a tolerance below roundoff exhausts the shared engine's panel budget
    rho = _random_density(8, 6)
    with pytest.raises(AccuracyError):
        phase_diffusion_by_quadrature(rho, 0.2, abs_tol=1e-30)


def test_quadrature_diffusion_lam_zero():
    rho = _random_density(5, 5)
    out = phase_diffusion_by_quadrature(rho, 0.0)
    assert np.array_equal(out.elems, rho.elems)
