import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import varqfi
from varqfi import qfi_oracle
from varqfi.bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
    raw_cq_loss_diffusion,
)
from varqfi.channels import lossy_thermal_channel_pure, phase_diffusion, phase_shift
from varqfi.fock_core import (
    TAIL_MASS,
    DensityMatrix,
    FockVector,
    InputMoments,
    TruncationError,
    moments,
    squeezed_dim,
    squeezed_vacuum,
    thermal_dim,
)
from varqfi.numerics import OptimizationError
from varqfi.qfi_oracle import (
    _dropped_mass,
    minimize_raw_cq,
    oracle_dim,
    probe_qfi,
    qfi_phase_covariant,
    squeezed_probe_qfi,
)


def test_pure_state_qfi_is_four_var():
    psi = squeezed_vacuum(0.6, 40)
    got = qfi_phase_covariant(psi.density())
    want = 4.0 * moments(psi).var_n
    assert abs(got - want) < 1e-9 * want


def test_maximally_mixed_gives_zero():
    rho = DensityMatrix(8, np.eye(8) / 8.0)
    assert qfi_phase_covariant(rho) == 0.0


def test_thermal_like_diagonal_gives_zero():
    p = np.array([0.5, 0.25, 0.125, 0.125])
    rho = DensityMatrix(4, np.diag(p))
    assert qfi_phase_covariant(rho) < 1e-12


def test_invalid_state_rejected():
    rho = DensityMatrix(2, np.diag([1.0 - 1e-9, 1e-9]))
    qfi_phase_covariant(rho)  # within tolerance: fine
    # DensityMatrix is the one validation path: no state that reaches the
    # oracle has a spectrum below -1e-8
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(2, np.diag([1.2, -0.2]))


def _qfi_full_complex(rho):
    """The QFI formula with no reduction: one complex eigh of the whole matrix."""
    w, vecs = np.linalg.eigh(np.asarray(rho.elems, dtype=complex))
    levels = np.arange(rho.dim)
    drho = -1j * np.subtract.outer(levels, levels) * rho.elems
    m = vecs.conj().T @ drho @ vecs
    pair_sums = np.add.outer(w, w)
    mask = pair_sums > qfi_oracle.SUPPORT_CUTOFF * float(w.max())
    return float(2.0 * np.sum(np.abs(m[mask]) ** 2 / pair_sums[mask]))


def _random_state(rng, dim, rank, real, parity):
    """A random density matrix A A^dag / tr with A of rank columns.

    parity keeps every entry between even and odd levels exactly zero, each
    column of A living on one parity; the complex parity class is a phase
    shift of a real parity state, a class the oracle itself never makes.
    """
    a = rng.standard_normal((dim, rank))
    if not real and not parity:
        a = a + 1j * rng.standard_normal((dim, rank))
    if parity:
        odd_column = rng.random(rank) < 0.5
        a[(np.arange(dim)[:, None] % 2 == 1) != odd_column[None, :]] = 0.0
    h = a @ a.conj().T
    rho = DensityMatrix(dim, h / np.trace(h).real)
    if parity and not real:
        rho = phase_shift(rho, float(rng.uniform(0.1, 3.0)))
    return rho


@settings(max_examples=120, deadline=None)
@given(
    dim=st.integers(2, 24),
    rank_share=st.floats(0.0, 1.0),
    real=st.booleans(),
    parity=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reductions_match_the_full_complex_formula(dim, rank_share, real, parity, seed):
    # every class takes its own path: real or complex blocks, split or whole
    rng = np.random.default_rng(seed)
    rank = 1 + round(rank_share * (dim - 1))
    rho = _random_state(rng, dim, rank, real, parity)
    blocks = rho.blocks
    assume(rho.elems.imag.any() != real)  # a phase shift by a multiple of pi stays real
    assert len(blocks) == (2 if parity else 1)
    assert any(np.iscomplexobj(block) for _, block in blocks) != real
    got, want = qfi_phase_covariant(rho), _qfi_full_complex(rho)
    assert abs(got - want) <= 1e-12 * want


def test_qfi_invariant_under_phase_shift():
    psi = squeezed_vacuum(0.4, 18)
    rho = lossy_thermal_channel_pure(psi, 0.8, 0.0, 18)
    a = qfi_phase_covariant(rho)
    b = qfi_phase_covariant(phase_shift(rho, 0.4))
    assert abs(a - b) < 1e-9 * a


def test_support_cutoff_stability(monkeypatch):
    psi = squeezed_vacuum(0.5, 25)
    rho = lossy_thermal_channel_pure(psi, 0.8, 0.5, thermal_dim(0.5) + 20)
    assert qfi_oracle.SUPPORT_CUTOFF == 1e-11
    ref = qfi_phase_covariant(rho)
    for eps in (1e-12, 1e-10):
        monkeypatch.setattr(qfi_oracle, "SUPPORT_CUTOFF", eps)
        other = qfi_phase_covariant(rho)
        assert abs(other - ref) < 1e-6 * ref


def test_oracle_dim_is_the_default_sizing():
    assert oracle_dim(0.3, 0.0) == squeezed_dim(0.3) + thermal_dim(0.0) - 1 == 14
    assert oracle_dim(0.5, 0.5) == squeezed_dim(0.5) + thermal_dim(0.5) - 1
    got = squeezed_probe_qfi(0.5, 0.8, 0.5)
    dim = oracle_dim(0.5, 0.5)
    assert got == squeezed_probe_qfi(0.5, 0.8, 0.5, dim=dim, bath_dim=dim)


@pytest.mark.parametrize("module", ["channels", "fock_core", "qfi_oracle"])
def test_oracle_route_imports_nothing_from_bounds(module):
    # the cross-check means something only while the routes stay independent
    path = Path(varqfi.__file__).parent / ("%s.py" % module)
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += ["%s.%s" % (node.module, alias.name) for alias in node.names]
    assert not [name for name in imported if "bounds" in name.split(".")]


def test_quadrature_route_never_names_the_entrywise_map():
    # the kick averages come from integration alone, not from exp(-lam^2 d^2)
    path = Path(varqfi.__file__).parent / "channels.py"
    tree = ast.parse(path.read_text())
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "phase_diffusion_by_quadrature"
    ]
    names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    assert "integrate" in names
    assert "phase_diffusion" not in names


def test_oracle_matches_closed_form_spot():
    got = squeezed_probe_qfi(0.5, 0.8, 0.5)
    want = exact_qfi_squeezed(0.5, 0.8, 0.5)
    assert abs(got - want) < 1e-6 * want


@settings(max_examples=8, deadline=None)
@given(
    r=st.floats(0.05, 0.8),
    eta=st.floats(0.6, 0.99),
    n_T=st.floats(0.0, 0.5),
    lam=st.floats(0.0, 0.3),
)
def test_oracle_below_variance_floor_and_exact_without_diffusion(r, eta, n_T, lam):
    mean_n = math.sinh(r) ** 2
    m = InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))
    undiffused = squeezed_probe_qfi(r, eta, n_T)
    want = exact_qfi_squeezed(r, eta, n_T)
    assert abs(undiffused - want) <= 1e-3 * want
    assert undiffused <= 1.0 / phase_variance_bound_full(m, eta, n_T, 0.0) + 1e-9
    diffused = squeezed_probe_qfi(r, eta, n_T, lam)
    assert diffused <= 1.0 / phase_variance_bound_full(m, eta, n_T, lam) + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=13
    ),
    eta=st.floats(0.05, 1.0),
    n_T=st.floats(0.0, 2.0),
    lam=st.floats(0.0, 0.5),
)
def test_random_probe_obeys_the_moment_bounds(parts, eta, n_T, lam):
    # any pure probe, not only a squeezed vacuum; a complex one with both
    # parities populated takes the complex, unsplit path of every step
    amps = np.array([complex(re, im) for re, im in parts])
    assume(np.linalg.norm(amps) > 1e-3)
    psi = FockVector(amps.size, amps)
    qfi = probe_qfi(psi, eta, n_T, lam)
    m = moments(psi)
    # 1e-10 relative, and the smallest normal float absolute: a var_n below
    # it has 1/var_n overflow, and the bounds round to 0
    slack, tiny = 1.0 + 1e-10, sys.float_info.min
    assert qfi <= cq_min_loss_thermal(m, eta, n_T) * slack + tiny  # eq15
    if n_T == 0.0:
        assert qfi <= cq_min_loss_diffusion(m, eta, lam) * slack + tiny  # eq21
    assert qfi <= slack / phase_variance_bound_full(m, eta, n_T, lam) + tiny  # eq22


def test_probe_qfi_pads_both_registers_to_the_truncation_rule():
    # the probe squeezed_probe_qfi builds, in larger registers that hold
    # every populated sector too
    for n_T, lam in ((0.0, 0.0), (0.5, 0.1)):
        got = probe_qfi(squeezed_vacuum(0.5, oracle_dim(0.5, n_T)), 0.8, n_T, lam)
        want = squeezed_probe_qfi(0.5, 0.8, n_T, lam)
        assert abs(got - want) <= 1e-12 * want
    psi = squeezed_vacuum(0.5, squeezed_dim(0.5))
    size = psi.dim + thermal_dim(0.5) - 1
    padded = FockVector(size, np.concatenate([psi.amps, np.zeros(size - psi.dim)]))
    rho = phase_diffusion(lossy_thermal_channel_pure(padded, 0.8, 0.5, size), 0.1)
    assert probe_qfi(psi, 0.8, 0.5, 0.1) == qfi_phase_covariant(rho)


def test_probe_qfi_refuses_sizes_beyond_the_cap_before_building(monkeypatch):
    # 40 probe levels and the 46 an n_T = 2 bath needs make 85 per register
    def no_padding(*args):
        raise AssertionError("a register was built before the cap was checked")

    monkeypatch.setattr(qfi_oracle, "FockVector", no_padding)
    psi = FockVector(40, np.ones(40))
    with pytest.raises(TruncationError, match="dim\\*bath_dim=7225 exceeds the cap"):
        probe_qfi(psi, 0.8, 2.0, 0.0)


def test_automatic_sizes_clip_no_populated_sector():
    # the sizes oracle_dim picks drop at most the truncation rule's tail
    for n_T in (0.0, 0.5, 1.0, 2.0):
        for r in np.linspace(0.05, 1.0, 20):
            size = oracle_dim(float(r), n_T)
            dropped = _dropped_mass(squeezed_vacuum(float(r), size), n_T, size)
            assert dropped <= TAIL_MASS, (r, n_T, dropped)


@pytest.mark.parametrize(
    "kwargs, dropped",
    [
        ({"r": 0.8, "eta": 0.1, "bath_dim": 2}, "2.523e-01"),
        ({"r": 0.8, "eta": 0.1, "bath_dim": 10}, "5.175e-03"),
        ({"r": 0.1, "eta": 0.5, "n_T": 1.0, "dim": 8, "bath_dim": 60}, "3.966e-03"),
    ],
)
def test_oracle_refuses_sizes_that_clip(kwargs, dropped):
    # these used to print 8.85, 0.339 and a value 0.3% below eq17, and exit 0
    with pytest.raises(TruncationError, match="drop probability " + dropped) as info:
        squeezed_probe_qfi(**kwargs)
    assert info.value.suggested_dim == oracle_dim(kwargs["r"], kwargs.get("n_T", 0.0))


def test_oracle_refuses_sizes_beyond_the_cap_before_building():
    # at eta = 1 this used to build a 200000^2 density matrix
    with pytest.raises(TruncationError, match="exceeds the cap") as info:
        squeezed_probe_qfi(0.1, 1.0, dim=200_000)
    assert info.value.suggested_dim == oracle_dim(0.1, 0.0)


def test_oracle_monotone_in_temperature_and_diffusion():
    base = squeezed_probe_qfi(0.4, 0.8, 0.0)
    warm = squeezed_probe_qfi(0.4, 0.8, 0.5)
    warmer = squeezed_probe_qfi(0.4, 0.8, 1.0)
    assert base > warm > warmer
    quiet = squeezed_probe_qfi(0.4, 0.8, 0.0, 0.05)
    noisy = squeezed_probe_qfi(0.4, 0.8, 0.0, 0.2)
    assert base > quiet > noisy


def test_oracle_diffusion_only_stays_below_pure_qfi():
    lossless = squeezed_probe_qfi(0.5, 1.0)
    diffused = squeezed_probe_qfi(0.5, 1.0, 0.0, 0.1)
    assert diffused < lossless


def _im_by_trace_moments(r, eta, lam, dphi=1e-5):
    """Error-propagation information (d<M>/dphi)^2 / Var M of M = i(a^2 - a^dag^2).

    Independent of the closed form: moments come from trace algebra on the
    truncated state and the derivative from a central difference.
    """
    dim = squeezed_dim(r) + 12
    psi = squeezed_vacuum(r, dim)
    rho = lossy_thermal_channel_pure(psi, eta, 0.0, dim)
    rho = phase_diffusion(rho, lam)
    a = reference.annihilation(dim)
    m_op = 1j * (a @ a - a.conj().T @ a.conj().T)

    def mean_at(phi):
        shifted = phase_shift(rho, phi)
        return float(np.real(np.trace(m_op @ shifted.elems)))

    mean0 = mean_at(0.0)
    var0 = float(np.real(np.trace(m_op @ m_op @ rho.elems))) - mean0**2
    dmean = (mean_at(dphi) - mean_at(-dphi)) / (2.0 * dphi)
    assert var0 > 0.0
    return dmean**2 / var0


def test_error_propagation_reproduces_optimal_readout_formula():
    for r, eta, lam in ((0.3, 0.9, 0.1), (0.5, 0.8, 0.05), (0.6, 0.95, 0.2)):
        got = _im_by_trace_moments(r, eta, lam)
        want = im_opt_squeezed(r, eta, lam)
        assert abs(got - want) < 1e-5 * want


def test_measurement_information_below_oracle_qfi():
    for r, eta, lam in ((0.4, 0.9, 0.1), (0.6, 0.8, 0.05)):
        i_m = _im_by_trace_moments(r, eta, lam)
        f_q = squeezed_probe_qfi(r, eta, 0.0, lam)
        assert i_m <= f_q + 1e-9


def test_oracle_sandwich_spot():
    r, eta, lam = 0.5, 0.95, 0.1
    f_q = squeezed_probe_qfi(r, eta, 0.0, lam)
    mean_n = math.sinh(r) ** 2
    from varqfi.fock_core import InputMoments

    upper = cq_min_loss_diffusion(
        InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0)), eta, lam
    )
    lower = im_opt_squeezed(r, eta, lam)
    assert lower <= f_q + 1e-9
    assert f_q <= upper + 1e-9


def test_minimize_quadratic_bowl():
    value, arg = minimize_raw_cq(
        lambda x, y: (x - 1.0) ** 2 + (y + 2.0) ** 2, np.array([3.0, 3.0])
    )
    assert abs(value) < 1e-12
    assert np.max(np.abs(arg - np.array([1.0, -2.0]))) < 1e-6


def test_minimize_scaled_quadratic():
    value, arg = minimize_raw_cq(
        lambda x, y: 40.0 * (x - 2.0) ** 2 + 3.0 * (y + 1.0) ** 2 + 5.0,
        np.array([0.0, 0.0]),
    )
    assert abs(value - 5.0) < 1e-10
    assert np.max(np.abs(arg - np.array([2.0, -1.0]))) < 1e-6


def test_minimize_reports_failure_on_unbounded_objective():
    with pytest.raises(OptimizationError) as info:
        minimize_raw_cq(lambda x, y: x + y, np.array([0.0, 0.0]))
    assert info.value.best_x is not None
    with pytest.raises(ValueError, match="1-d parameter vector"):
        minimize_raw_cq(lambda x, y: x + y, np.zeros((2, 1)))


def test_minimize_stops_where_the_newton_step_raises_the_cost():
    # on sqrt(1 + x^2) the full Newton step from x = 2 is -x (1 + x^2) = -10,
    # to x = -8, where the cost is sqrt(65): the loop stops at the start
    with pytest.raises(OptimizationError) as info:
        minimize_raw_cq(lambda x: math.sqrt(1.0 + x * x), (2.0,))
    assert np.array_equal(info.value.best_x, [2.0])
    assert info.value.best_value == math.sqrt(5.0)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 4), data=st.data())
def test_minimize_dense_quadratic_from_random_starts(k, data):
    def vector(lo, hi, size):
        draws = st.lists(st.floats(lo, hi), min_size=size, max_size=size)
        return np.array(data.draw(draws))

    # a dense positive-definite Hessian with eigenvalues in [0.1, k + 0.1]
    root = vector(-1.0, 1.0, k * k).reshape(k, k)
    hess = root.T @ root + 0.1 * np.eye(k)
    centre = vector(-5.0, 5.0, k)
    start = vector(-5.0, 5.0, k)
    floor = data.draw(st.floats(1.0, 100.0))
    evals = 0

    def cost(*x):
        nonlocal evals
        evals += 1
        d = np.asarray(x) - centre
        return float(d @ hess @ d) + floor

    value, arg = minimize_raw_cq(cost, start)
    assert abs(value - floor) <= 1e-10 * floor
    assert np.max(np.abs(arg - centre)) <= 1e-6
    # the start's value and stencil, then 12 steps of a trial value and its
    # stencil, each stencil 2 k^2 evaluations
    assert evals <= 13 * (1 + 2 * k * k)


@pytest.mark.parametrize(
    "cost",
    [
        # at lam = 0 the raw cost is +inf off beta = 0
        lambda a, b: raw_cq_loss_diffusion(InputMoments(1.0, 4.0), 0.8, 0.0, a, b),
        lambda a, b: math.nan if b > 0.1 else a * a + b * b,
    ],
    ids=["inf", "nan"],
)
def test_minimize_raises_typed_error_on_non_finite_cost(cost):
    with pytest.raises(OptimizationError) as info:
        minimize_raw_cq(cost, (0.9, 0.1))
    assert np.array_equal(info.value.best_x, [0.9, 0.1])
