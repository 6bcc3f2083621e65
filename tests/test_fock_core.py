import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from varqfi import fock_core
from varqfi.fock_core import (
    DensityMatrix,
    FockVector,
    InputMoments,
    TruncationError,
    beam_splitter_apply,
    moments,
    squeezed_dim,
    squeezed_vacuum,
    thermal_dim,
)


def _mixer_matrix(theta, da, db):
    # the library's mixer as a matrix, one basis vector at a time
    columns = [beam_splitter_apply(theta, e, da, db) for e in np.eye(da * db)]
    return np.column_stack(columns)


def test_fock_vector_normalizes_and_freezes():
    v = FockVector(3, np.array([3.0, 0.0, 4.0]))
    assert abs(np.linalg.norm(v.amps) - 1.0) < 1e-12
    assert abs(v.amps[0] - 0.6) < 1e-12
    with pytest.raises(ValueError):
        v.amps[0] = 1.0


def test_fock_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        FockVector(1, np.array([1.0]))
    with pytest.raises(ValueError):
        FockVector(3, np.zeros(3))
    with pytest.raises(ValueError):
        FockVector(3, np.array([1.0, 2.0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(2, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(2, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(2, np.array([[np.nan, 0.0], [0.0, 1.0]]))  # a NaN element
    with pytest.raises(ValueError, match="dim x dim"):
        DensityMatrix(3, np.eye(2))  # wrong shape


def test_squeezed_vacuum_moments():
    r = 0.5
    psi = squeezed_vacuum(r, 40)
    m = moments(psi)
    mean = math.sinh(r) ** 2
    assert abs(m.mean_n - mean) < 1e-7
    assert abs(m.var_n - 2.0 * mean * (mean + 1.0)) < 1e-6
    # even-photon support
    assert np.all(psi.amps[1::2] == 0.0)
    # real nonnegative amplitude convention
    assert np.all(psi.amps.real >= 0.0) and np.all(psi.amps.imag == 0.0)


def test_squeezed_vacuum_r_zero_is_vacuum():
    psi = squeezed_vacuum(0.0, 4)
    assert abs(psi.amps[0] - 1.0) < 1e-14
    assert np.all(psi.amps[1:] == 0.0)


def test_squeezed_dim_is_minimal():
    for r in (0.2, 0.5, 0.8):
        d = squeezed_dim(r)
        squeezed_vacuum(r, d)  # fits
        with pytest.raises(TruncationError) as info:
            squeezed_vacuum(r, d - 1)
        assert info.value.suggested_dim == d
    # no dim within the product cap holds r = 20
    with pytest.raises(TruncationError, match="needs more than 4096 levels"):
        squeezed_dim(20.0)


def test_squeezed_vacuum_rejects_negative_r():
    with pytest.raises(ValueError):
        squeezed_vacuum(-0.1, 10)


def test_thermal_dim_is_minimal():
    # smallest dim whose geometric tail stays under the default tail mass;
    # the thermal state itself renormalizes on any dim without complaint
    for n_T in (0.5, 1.0, 2.0):
        d = thermal_dim(n_T)
        q = n_T / (n_T + 1.0)
        assert q**d <= 1e-8 < q ** (d - 1)
        assert abs(np.trace(reference.thermal(n_T, d - 1)) - 1.0) < 1e-14


def test_beam_splitter_unitary_and_identity():
    u = _mixer_matrix(0.0, 4, 5)
    assert np.max(np.abs(u - np.eye(20))) < 1e-14
    u = _mixer_matrix(0.37, 6, 7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(42))) < 1e-9


def test_beam_splitter_swap():
    # theta = pi/2 sends |1,0> to |0,1> up to sign
    vec = np.zeros(4)
    vec[2] = 1.0  # |1,0>
    out = beam_splitter_apply(math.pi / 2.0, vec, 2, 2)
    assert abs(abs(out[1]) - 1.0) < 1e-12
    assert np.max(np.abs(np.delete(out, 1))) < 1e-12


def test_beam_splitter_matches_dense_expm():
    # independent route: exponentiate the full generator directly
    da, db = 5, 6
    theta = 0.81
    dense = reference.mixer(theta, da, db)
    assert np.max(np.abs(_mixer_matrix(theta, da, db) - dense)) < 1e-12


def test_beam_splitter_conserves_total_number():
    da = db = 5
    u = _mixer_matrix(0.42, da, db)
    n = np.diag(np.arange(float(da)))
    n_tot = np.kron(n, np.eye(db)) + np.kron(np.eye(da), n)
    assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10


def test_beam_splitter_transmission_law():
    eta = 0.6
    theta = math.acos(math.sqrt(eta))
    psi = squeezed_vacuum(0.4, 18)
    bath = np.zeros(18)
    bath[0] = 1.0
    joint = np.kron(psi.amps, bath)
    out = beam_splitter_apply(theta, joint, 18, 18).reshape(18, 18)
    rho_a = DensityMatrix(18, out @ out.conj().T)  # the bath traced out
    assert abs(moments(rho_a).mean_n - eta * moments(psi).mean_n) < 1e-7


def test_beam_splitter_apply_matches_matrix():
    da, db = 4, 6
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    u = reference.mixer(1.1, da, db)
    assert np.max(np.abs(beam_splitter_apply(1.1, vec, da, db) - u @ vec)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    da=st.integers(2, 8),
    db=st.integers(2, 8),
    theta=st.floats(-math.pi, math.pi),
    sectors=st.sets(st.integers(0, 14)),
    seed=st.integers(0, 2**32 - 1),
    dense_first=st.booleans(),
)
def test_beam_splitter_apply_visits_only_populated_sectors(
    da, db, theta, sectors, seed, dense_first
):
    # sectors drawn up to 14 = 8 + 8 - 2 cover none, some and all of them
    totals = np.add.outer(np.arange(da), np.arange(db)).ravel()
    populated = np.isin(totals, sorted(sectors))
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    vec[~populated | (rng.random(da * db) < 0.3)] = 0.0
    fock_core._sectors.cache_clear()  # each fill order starts cold
    if dense_first:  # a full vector builds every sector before vec is applied
        beam_splitter_apply(theta, np.ones(da * db), da, db)
    got = beam_splitter_apply(theta, vec, da, db)
    u = reference.mixer(theta, da, db)
    assert np.max(np.abs(got - u @ vec)) < 1e-12
    assert not np.any(got[~populated])


@pytest.mark.parametrize("theta", [0.3, 0.9, 2.5, -1.2])
def test_full_sector_matches_binomial_amplitudes(theta):
    # the mixer sends a^dag to a^dag cos + b^dag sin and b^dag to
    # b^dag cos - a^dag sin, so |N,0> leaves onto |N-j, j> and |0,N> onto
    # |j, N-j> with binomial amplitudes; N = 63 is the largest full sector
    # under the cap
    n = 63
    j = np.arange(n + 1)
    root_binom = np.sqrt([float(math.comb(n, k)) for k in j])
    c, s = math.cos(theta), math.sin(theta)
    for start, rows, cols, sin_sign in ((n, n - j, j, 1.0), (0, j, n - j, -1.0)):
        vec = np.zeros(64 * 64)
        vec[start * 64 + (n - start)] = 1.0
        out = beam_splitter_apply(theta, vec, 64, 64).reshape(64, 64)
        want = root_binom * c ** (n - j) * (sin_sign * s) ** j
        assert np.max(np.abs(out[rows, cols] - want)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-math.pi, math.pi))
def test_blocks_at_the_cap_are_orthogonal(theta):
    sectors = fock_core._sectors(theta, 64, 64)
    for total in range(127):
        block = sectors[total][1]
        assert np.max(np.abs(block @ block.T - np.eye(len(block)))) < 1e-13


def test_sector_table_does_not_depend_on_build_history():
    # a table built after another transmission's reuses its cached sector
    # eigenbases, and must equal a table built from empty caches exactly
    def table(theta):
        sectors = fock_core._sectors(theta, 12, 9)
        return [sectors[total][1] for total in range(12 + 9 - 1)]

    fock_core._sectors.cache_clear()
    fock_core._sector_basis.cache_clear()
    cold = table(0.7)
    fock_core._sectors.cache_clear()
    fock_core._sector_basis.cache_clear()
    table(-2.2)
    warm = table(0.7)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


def test_beam_splitter_product_cap():
    with pytest.raises(TruncationError):
        beam_splitter_apply(0.3, np.zeros(100 * 100), 100, 100)
    with pytest.raises(ValueError, match="length dim_a \\* dim_b"):
        beam_splitter_apply(0.3, np.zeros(11), 3, 4)


def test_moments_number_state():
    amps = np.zeros(6)
    amps[3] = 1.0
    m = moments(FockVector(6, amps))
    assert m.mean_n == 3.0
    assert m.var_n == 0.0
    with pytest.raises(TypeError):
        moments(3)


def test_input_moments_validation():
    with pytest.raises(ValueError):
        InputMoments(-0.1, 1.0)
    with pytest.raises(ValueError):
        InputMoments(1.0, -0.1)
