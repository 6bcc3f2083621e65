import math

import numpy as np
import pytest

from varqfi import numerics
from varqfi.numerics import (
    AccuracyError,
    OptimizationError,
    integrate,
    integrate_semi_infinite,
    loglog_slope,
    maximize_scalar,
)


def test_integrate_polynomial_exact():
    # Gauss-Kronrod 15 is exact for low-degree polynomials on one panel
    value, err = integrate(lambda x: 5 * x**4 - 2 * x + 1, 0.0, 2.0)
    assert abs(value - (2.0**5 - 4.0 + 2.0)) < 1e-13
    assert err < 1e-12


def test_integrate_known_values():
    value, err = integrate(np.sin, 0.0, math.pi, rel_tol=1e-12)
    assert abs(value - 2.0) <= max(err, 1e-12)

    value, _ = integrate(lambda x: np.exp(-(x**2)), -6.0, 6.0, rel_tol=1e-12)
    assert abs(value - math.sqrt(math.pi)) < 1e-12


def test_integrate_error_estimate_bounds_truth():
    value, err = integrate(lambda x: 1.0 / (1.0 + x**2), 0.0, 10.0, rel_tol=1e-6)
    truth = math.atan(10.0)
    assert abs(value - truth) <= max(err, 1e-9)


def test_integrate_vectorized_calls():
    seen = []

    def f(x):
        seen.append(np.shape(x))
        return np.ones_like(x)

    value, _ = integrate(f, 0.0, 1.0)
    assert abs(value - 1.0) < 1e-14
    assert all(len(s) == 1 for s in seen)


def test_integrate_vector_valued():
    value, err = integrate(
        lambda x: np.column_stack([np.sin(x), np.cos(x)]), 0.0, math.pi, rel_tol=1e-13
    )
    assert value.shape == (2,)
    assert np.max(np.abs(value - [2.0, 0.0])) < 1e-12
    assert err < 1e-12


def test_integrate_rejects_bad_integrand_shape():
    with pytest.raises(ValueError):
        integrate(lambda x: np.ones((x.size, 2, 2)), 0.0, 1.0)


def _one_bad_node(bad, node):
    """A panel's ones with the value bad at the given node (0..14)."""

    def values(x):
        y = np.ones_like(x)
        y[node] = bad
        return y

    return values


BAD_VALUES = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
BAD_NODES = pytest.mark.parametrize("node", [0, 6, 7, 14])


@BAD_VALUES
@BAD_NODES
def test_integrate_rejects_one_non_finite_value(bad, node):
    with pytest.raises(AccuracyError, match="non-finite value"):
        integrate(_one_bad_node(bad, node), 0.0, 1.0)


@BAD_VALUES
@BAD_NODES
def test_integrate_vector_rejects_one_non_finite_entry(bad, node):
    ones = _one_bad_node(bad, node)

    def f(x):
        # the bad value sits in the last of three columns
        return np.column_stack([np.ones_like(x), x, ones(x)])

    with pytest.raises(AccuracyError, match="non-finite value"):
        integrate(f, 0.0, 1.0)


@BAD_VALUES
@BAD_NODES
def test_semi_infinite_rejects_one_non_finite_value(bad, node):
    decay = _one_bad_node(bad, node)
    with pytest.raises(AccuracyError, match="non-finite value"):
        integrate_semi_infinite(lambda w: decay(w) / (1.0 + w * w), 0.0)


@pytest.mark.parametrize(
    "a, b", [(1.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)]
)
def test_integrate_rejects_endpoints_not_finite_and_increasing(a, b):
    with pytest.raises(ValueError, match="finite endpoints a < b"):
        integrate(np.sin, a, b)


@pytest.mark.parametrize(
    "rel_tol, abs_tol",
    [(math.nan, 0.0), (1e-8, math.nan), (-1e-8, 0.0), (1e-8, -1.0), (0.0, 0.0)],
)
def test_integrate_rejects_tolerances_it_cannot_meet(rel_tol, abs_tol):
    # misuse, refused before the first panel rather than after the whole budget
    def never(x):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="rel_tol, abs_tol"):
        integrate(never, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol)
    if abs_tol == 0.0:
        with pytest.raises(ValueError, match="rel_tol, abs_tol"):
            integrate_semi_infinite(never, 0.0, rel_tol=rel_tol)


def test_integrate_accuracy_error_carries_best(monkeypatch):
    # a needle the panel budget cannot resolve
    def needle(x):
        return 1.0 / (1e-300 + (x - 0.123456789) ** 2)

    monkeypatch.setattr(numerics, "MAX_PANELS", 4)
    with pytest.raises(AccuracyError, match="within 4 panels") as info:
        integrate(needle, 0.0, 1.0, rel_tol=1e-12)
    assert info.value.best is not None


def test_semi_infinite_known_values():
    assert abs(integrate_semi_infinite(lambda x: np.exp(-x), 0.0) - 1.0) < 1e-9
    assert abs(integrate_semi_infinite(lambda x: 1.0 / (1.0 + x**2), 0.0) - math.pi / 2) < 1e-9
    # tail of x^-2 from a
    assert abs(integrate_semi_infinite(lambda x: x**-2.0, 3.0) - 1.0 / 3.0) < 1e-9


@pytest.mark.parametrize("columns", [15, 2])
def test_semi_infinite_rejects_vector_integrand(columns):
    # 15 columns matches the node count, where dividing by the Jacobian would
    # silently scale columns instead of rows
    rates = np.linspace(1.0, 3.0, columns)
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: np.exp(-np.outer(x, rates)) * rates, 0.0)


def test_semi_infinite_gaussian_tail():
    value = integrate_semi_infinite(lambda x: np.exp(-(x**2) / 2.0), 0.0, rel_tol=1e-10)
    assert abs(value - math.sqrt(math.pi / 2.0)) < 1e-10


def test_even_integrand_halves_agree():
    # full-line integral equals twice the half-line integral for even f
    def f(x):
        return 1.0 / (1.0 + x**2) + np.exp(-(x**2))

    full, err_full = integrate(f, -50.0, 50.0, rel_tol=1e-10)
    half, err_half = integrate(f, 0.0, 50.0, rel_tol=1e-10)
    assert abs(full - 2.0 * half) <= 2.0 * (err_full + 2 * err_half + 1e-12)


def test_maximize_scalar_quadratic(monkeypatch):
    monkeypatch.setattr(numerics, "_ARGMAX_TOL", 1e-9)
    argmax, _ = maximize_scalar(lambda x: -((x - 1.3) ** 2), 0.0, 3.0)
    assert abs(argmax - 1.3) < 1e-7


def test_maximize_scalar_flat():
    # a constant objective runs the ordinary search: any point is a maximizer
    argmax, value = maximize_scalar(lambda x: 7.25, -1.0, 1.0)
    assert value == 7.25
    assert -1.0 <= argmax <= 1.0


def test_maximize_scalar_never_below_prescan():
    # mild multimodality: the global peak must not be lost to a local one
    def f(x):
        return math.sin(x) + 0.8 * math.exp(-((x - 7.6) ** 2))

    xs = np.linspace(0.0, 9.0, 33)
    best_grid = max(f(x) for x in xs)
    _, value = maximize_scalar(f, 0.0, 9.0)
    assert value >= best_grid - 1e-12


def test_maximize_scalar_bad_bracket():
    with pytest.raises(ValueError):
        maximize_scalar(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_maximize_scalar_non_finite_prescan_is_typed(bad):
    with pytest.raises(OptimizationError, match="non-finite value during pre-scan"):
        maximize_scalar(lambda x: bad if x > 0.5 else x, 0.0, 1.0)


def test_loglog_slope_recovers_power_law():
    xs = np.logspace(0, 4, 9)
    ys = 3.7 * xs**-2.5
    assert abs(loglog_slope(xs, ys) + 2.5) < 1e-12


def test_loglog_slope_window():
    xs = np.logspace(0, 6, 13)
    ys = np.where(xs < 100.0, xs**-1.0, xs**-3.0 * 100.0**2)
    assert abs(loglog_slope(xs, ys, window=(1e3, 1e6)) + 3.0) < 1e-10


def test_loglog_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match="equal length"):
        loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])
