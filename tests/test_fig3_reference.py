"""fig3's lossless golden cells against a route that shares no code with varqfi.

For a pure probe (eta = 1) the waveform bound is the quantum Cramer-Rao
bound of Tsang, Wiseman & Caves (PRL 106, 090401 (2011)):
(1/pi) int_0^inf dw / (1/S(w) + 4 S_nn(w)), with the fig3 prior
S(w) = 1/(1 + w^2) (kappa = lambda_c = 1) and S_nn the Collett-Gardiner
photon-flux noise of reference.opo_photon_flux_noise.  This module imports
nothing from varqfi: the golden table is read as text and the integral is
an mpmath quadrature.
"""

import csv
from pathlib import Path

import mpmath
import numpy as np
import pytest

import reference

GOLDEN = Path(__file__).resolve().parent / "golden" / "fig3.csv"
# fig3's default flux grid, as the CLI builds it
GRID = np.logspace(2, 8, 25).tolist()
LOSSLESS = [row for row in csv.DictReader(GOLDEN.open()) if row["eta"] == "1"]


def test_the_lossless_rows_are_the_default_grid():
    assert [row["flux_N"] for row in LOSSLESS] == ["%.12g" % flux for flux in GRID]


def _lossless_bound(flux):
    """(1/pi) int_0^inf dw / (1 + w^2 + 4 S_nn(w)) at fig3's R+ = 16 N^(1/3)."""
    r_plus, n = mpmath.mpf(16.0 * flux ** (1.0 / 3.0)), mpmath.mpf(flux)
    root = mpmath.sqrt(r_plus)
    x = (root - 1) / (root + 1)
    decay = n * (1 - x * x) / (x * x)  # the amplitude decay rate

    def integrand(w):
        return 1 / (1 + w * w + 4 * reference.opo_photon_flux_noise(r_plus, n, w))

    # split at the widths 2 (1 -+ x) decay of S_nn's two Lorentzians
    knots = [0, 2 * (1 - x) * decay, 2 * (1 + x) * decay, mpmath.inf]
    return mpmath.quad(integrand, knots) / mpmath.pi


# every third cell, both ends included, keeps the test under a second
@pytest.mark.parametrize("index", range(0, len(GRID), 3))
def test_lossless_golden_cell_matches_the_photon_flux_route(index):
    with mpmath.workdps(20):
        want = _lossless_bound(GRID[index])
    got = float(LOSSLESS[index]["mse_bound"])
    # the table prints 12 significant digits
    assert abs(got / float(want) - 1.0) <= 1e-11
