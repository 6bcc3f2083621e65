import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varqfi.bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    cq_min_loss_zero_T,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
    raw_cq_loss_diffusion,
    raw_cq_loss_thermal,
)
from varqfi.fock_core import InputMoments
from varqfi.qfi_oracle import minimize_raw_cq


def _squeezed(mean_n):
    return InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))


def test_thermal_bound_worked_example():
    # 4 / [1/4 + (0.2/0.8)(1/1 + 0)] = 8
    assert abs(cq_min_loss_thermal(InputMoments(1.0, 4.0), 0.8, 0.0) - 8.0) < 1e-12


def test_thermal_bound_lossless_limit():
    m = InputMoments(3.0, 7.0)
    assert cq_min_loss_thermal(m, 1.0, 5.0) == 28.0
    assert cq_min_loss_zero_T(m, 1.0) == 28.0


def test_thermal_bound_edge_cases():
    assert cq_min_loss_thermal(InputMoments(0.0, 1.0), 0.5, 0.0) == 0.0
    assert cq_min_loss_thermal(InputMoments(1.0, 0.0), 0.5, 0.0) == 0.0
    # hot bath destroys all phase information
    big = cq_min_loss_thermal(InputMoments(1.0, 2.0), 0.8, 1e12)
    assert big < 1e-10


def test_zero_T_worked_example():
    got = cq_min_loss_zero_T(InputMoments(2.0, 12.0), 0.5)
    assert abs(got - 48.0 / 7.0) < 1e-14


def test_zero_T_equals_thermal_at_zero():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = InputMoments(10.0 ** rng.uniform(-2, 4), 10.0 ** rng.uniform(-2, 8))
        eta = rng.uniform(0.05, 1.0)
        assert cq_min_loss_zero_T(m, eta) == cq_min_loss_thermal(m, eta, 0.0)


def test_thermal_bound_decreasing_in_temperature():
    m = _squeezed(2.0)
    values = [cq_min_loss_thermal(m, 0.8, t) for t in (0.0, 0.5, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_exact_qfi_squeezed():
    assert exact_qfi_squeezed(0.0, 0.8, 0.0) == 0.0
    # lossless: 2 sinh^2 2r = 4 var_n
    r = 0.7
    got = exact_qfi_squeezed(r, 1.0, 0.0)
    assert abs(got - 2.0 * math.sinh(2.0 * r) ** 2) < 1e-12
    mean = math.sinh(r) ** 2
    assert abs(got - 4.0 * 2.0 * mean * (mean + 1.0)) < 1e-9
    # the lossless closed form holds to rounding up to strong squeezing
    for r in np.linspace(0.0, 20.0, 81):
        want = 2.0 * math.sinh(2.0 * r) ** 2
        assert abs(exact_qfi_squeezed(float(r), 1.0, 0.0) - want) <= 1e-14 * want


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(0.0, 20.0),
    eta=st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0),
    n_T=st.floats(0.0, 100.0),
)
@example(r=10.0, eta=1.0, n_T=0.0)
@example(r=20.0, eta=0.999, n_T=0.0)
def test_exact_qfi_squeezed_matches_mpmath(r, eta, n_T):
    # 4u^2/(1 + v^2 - u^2) at 50 digits from the same float inputs
    with mpmath.workdps(50):
        two_r, e, t = 2 * mpmath.mpf(r), mpmath.mpf(eta), mpmath.mpf(n_T)
        u = e * mpmath.sinh(two_r)
        v = e * mpmath.cosh(two_r) + (1 - e) * (2 * t + 1)
        want = float(4 * u**2 / (1 + v**2 - u**2))
    got = exact_qfi_squeezed(r, eta, n_T)
    # the absolute term only admits results that underflow to subnormals
    assert abs(got - want) <= 1e-13 * want + 1e-300


def test_bound_dominates_exact_qfi():
    for r in (0.2, 0.8, 2.0):
        mean = math.sinh(r) ** 2
        for eta in (0.6, 0.8, 1.0):
            for n_T in (0.0, 0.5, 10.0):
                cq = cq_min_loss_thermal(_squeezed(mean), eta, n_T)
                fq = exact_qfi_squeezed(r, eta, n_T)
                assert cq >= fq - 1e-9


def test_saturation_at_large_energy():
    for n_T in (10.0, 100.0):
        cq = cq_min_loss_thermal(_squeezed(1e4), 0.8, n_T)
        r = math.asinh(math.sqrt(1e4))
        fq = exact_qfi_squeezed(r, 0.8, n_T)
        assert cq / fq <= 1.05


def test_diffusion_bound_collapses_at_lam_zero():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = InputMoments(10.0 ** rng.uniform(-2, 3), 10.0 ** rng.uniform(-2, 6))
        eta = rng.uniform(0.05, 1.0)
        assert cq_min_loss_diffusion(m, eta, 0.0) == cq_min_loss_zero_T(m, eta)


def test_diffusion_bound_ceiling():
    lam = 0.1
    got = cq_min_loss_diffusion(InputMoments(math.inf, math.inf), 0.8, lam)
    assert abs(got - 1.0 / (2.0 * lam**2)) < 1e-12
    # finite but huge probe stays below the ceiling
    assert cq_min_loss_diffusion(_squeezed(1e8), 0.8, lam) < 1.0 / (2.0 * lam**2)


def test_variance_bound_is_reciprocal_of_diffusion_bound():
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = InputMoments(10.0 ** rng.uniform(-3, 4), 10.0 ** rng.uniform(-3, 8))
        eta = rng.uniform(0.05, 1.0)
        lam = rng.uniform(0.0, 0.5)
        bound = phase_variance_bound_full(m, eta, 0.0, lam)
        assert cq_min_loss_diffusion(m, eta, lam) == 1.0 / bound


@settings(max_examples=200, deadline=None)
@given(
    log_mean=st.floats(-3.0, 4.0),
    log_var=st.floats(-3.0, 8.0),
    eta=st.floats(0.05, 1.0),
    lam=st.floats(0.0, 0.5),
)
def test_zero_temperature_variance_floor_is_reciprocal_diffusion_bound(
    log_mean, log_var, eta, lam
):
    m = InputMoments(10.0**log_mean, 10.0**log_var)
    floor = phase_variance_bound_full(m, eta, 0.0, lam)
    want = 1.0 / cq_min_loss_diffusion(m, eta, lam)
    assert abs(floor - want) <= 1e-13 * want


def _ordered_pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


@settings(max_examples=300, deadline=None)
@given(
    mean_n=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda x: 10.0**x)),
    var_n=st.one_of(st.just(0.0), st.floats(-3.0, 8.0).map(lambda x: 10.0**x)),
    etas=_ordered_pair(0.01, 1.0),
    n_Ts=_ordered_pair(0.0, 100.0),
    lams=_ordered_pair(0.0, 2.0),
)
def test_closed_forms_are_monotone_in_the_noise(mean_n, var_n, etas, n_Ts, lams):
    # more transmission raises the QFI bounds; more bath or diffusion lowers
    # them, and the variance floor moves the other way in all three
    m = InputMoments(mean_n, var_n)
    (e0, e1), (t0, t1), (l0, l1) = etas, n_Ts, lams
    assert cq_min_loss_thermal(m, e0, t0) <= cq_min_loss_thermal(m, e1, t0)
    assert cq_min_loss_thermal(m, e0, t1) <= cq_min_loss_thermal(m, e0, t0)
    assert cq_min_loss_diffusion(m, e0, l0) <= cq_min_loss_diffusion(m, e1, l0)
    assert cq_min_loss_diffusion(m, e0, l1) <= cq_min_loss_diffusion(m, e0, l0)
    floor = phase_variance_bound_full(m, e0, t0, l0)
    assert phase_variance_bound_full(m, e1, t0, l0) <= floor
    assert floor <= phase_variance_bound_full(m, e0, t1, l0)
    assert floor <= phase_variance_bound_full(m, e0, t0, l1)


def test_variance_bound_floor_and_sentinel():
    assert phase_variance_bound_full(InputMoments(0.0, 0.0), 0.5, 1.0, 0.1) == math.inf
    lam = 0.2
    for mean in (0.5, 5.0, 5e3):
        b = phase_variance_bound_full(_squeezed(mean), 0.7, 1.0, lam)
        assert b >= 2.0 * lam**2
    # bright-probe limit approaches the diffusion floor
    b = phase_variance_bound_full(_squeezed(1e12), 0.7, 1.0, lam)
    assert abs(b - 2.0 * lam**2) < 1e-9


def test_im_opt_collapses_to_exact_qfi():
    for r in (0.1, 0.5, 1.5):
        for eta in (0.5, 0.95, 1.0):
            assert im_opt_squeezed(r, eta, 0.0) == exact_qfi_squeezed(r, eta, 0.0)


def test_im_opt_below_upper_bound():
    for r in np.linspace(0.05, 3.0, 25):
        mean = math.sinh(r) ** 2
        for eta, lam in ((0.95, 0.1), (0.8, 0.05), (0.6, 0.3)):
            upper = cq_min_loss_diffusion(_squeezed(mean), eta, lam)
            assert im_opt_squeezed(float(r), eta, lam) <= upper + 1e-12


def test_im_opt_r_zero():
    assert im_opt_squeezed(0.0, 0.9, 0.1) == 0.0


def test_raw_thermal_lossless_origin():
    m = InputMoments(2.0, 5.0)
    assert raw_cq_loss_thermal(m, 1.0, 0.0, 0.0, 0.0, 0.0) == 4.0 * m.var_n


def test_raw_diffusion_reference_points():
    m = InputMoments(2.0, 5.0)
    # alpha=1, beta=0 removes every noise term
    assert raw_cq_loss_diffusion(m, 0.8, 0.1, 1.0, 0.0) == 4.0 * m.var_n
    # lam=0 with beta != 0 is an infinite penalty, beta = 0 is finite
    assert raw_cq_loss_diffusion(m, 0.8, 0.0, 0.5, 0.1) == math.inf
    assert math.isfinite(raw_cq_loss_diffusion(m, 0.8, 0.0, 0.5, 0.0))


def test_raw_diffusion_eta_one_optimum():
    # at eta=1 the optimum is beta* = 8 lam^2 var / (1 + 8 lam^2 var)
    m = InputMoments(3.0, 2.0 * 3.0 * 4.0)
    lam = 0.15
    s = 8.0 * lam**2 * m.var_n
    beta_star = s / (1.0 + s)
    value, arg = minimize_raw_cq(
        lambda a, b: raw_cq_loss_diffusion(m, 1.0, lam, a, b), np.array([0.5, 0.5])
    )
    want = cq_min_loss_diffusion(m, 1.0, lam)
    assert abs(value - want) < 1e-9 * want
    assert abs(arg[1] - beta_star) < 1e-5


def test_minimizing_raw_forms_recovers_closed_forms_spot():
    m = _squeezed(2.0)
    value, _ = minimize_raw_cq(
        lambda a, b, g: raw_cq_loss_thermal(m, 0.8, 10.0, a, b, g),
        np.array([0.9, 0.1, 0.1]),
    )
    want = cq_min_loss_thermal(m, 0.8, 10.0)
    assert abs(value - want) < 1e-6 * want

    value, _ = minimize_raw_cq(
        lambda a, b: raw_cq_loss_diffusion(m, 0.8, 0.1, a, b), np.array([0.9, 0.1])
    )
    want = cq_min_loss_diffusion(m, 0.8, 0.1)
    assert abs(value - want) < 1e-6 * want


# 12 Newton steps of at most 45 evaluations (a 3-parameter Hessian, 20
# halvings and a gradient) plus the 7 at the start stay under 600
_MAX_EVALS = 600


@settings(max_examples=60, deadline=None)
@given(
    log_mean=st.floats(-2.0, 3.0),
    eta=st.floats(0.3, 1.0),
    n_T=st.one_of(st.just(0.0), st.floats(1e-2, 10.0)),
    log_lam=st.floats(-2.0, 0.0),
)
def test_minimized_raw_costs_match_closed_forms_on_a_wide_box(
    log_mean, eta, n_T, log_lam
):
    m = _squeezed(10.0**log_mean)
    lam = 10.0**log_lam
    cases = (
        (lambda a, b, g: raw_cq_loss_thermal(m, eta, n_T, a, b, g),
         (0.9, 0.1, 0.1), cq_min_loss_thermal(m, eta, n_T)),
        (lambda a, b: raw_cq_loss_diffusion(m, eta, lam, a, b),
         (0.9, 0.1), cq_min_loss_diffusion(m, eta, lam)),
    )
    for cost, start, want in cases:
        evals = 0

        def counted(*x):
            nonlocal evals
            evals += 1
            return cost(*x)

        value, _ = minimize_raw_cq(counted, start)
        assert abs(value - want) <= 1e-12 * want
        assert evals <= _MAX_EVALS


def test_parameter_validation():
    m = InputMoments(1.0, 1.0)
    for bad_eta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            cq_min_loss_thermal(m, bad_eta, 0.0)
    with pytest.raises(ValueError):
        cq_min_loss_thermal(m, 0.5, -1.0)
    with pytest.raises(ValueError):
        cq_min_loss_diffusion(m, 0.5, -0.1)
    with pytest.raises(ValueError):
        im_opt_squeezed(0.5, 0.5, -0.2)