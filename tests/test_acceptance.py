"""Acceptance gate: one verdict line per criterion, then the assertion.

Each test prints "[acceptance] name: PASS/FAIL detail" so the pytest log
doubles as the sign-off sheet; tolerances and time limits are stated in
the detail strings.
"""

import csv
import io
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from varqfi.bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
    raw_cq_loss_diffusion,
    raw_cq_loss_thermal,
)
from varqfi.channels import phase_diffusion, phase_diffusion_by_quadrature
from varqfi.cli import main as cli_main
from varqfi.fock_core import DensityMatrix, FockVector, InputMoments, moments
from varqfi.numerics import loglog_slope, maximize_scalar
from varqfi.qfi_oracle import minimize_raw_cq, probe_qfi, squeezed_probe_qfi
from varqfi.waveform import (
    OpoSpectrumModel,
    PriorSpectrum,
    SpectralCqParams,
    mse_bound,
    scaling_construction_D,
)


def _verdict(name, ok, detail):
    print("[acceptance] %s: %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def _squeezed_moments(mean_n):
    return InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))


def _table(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_oracle_agrees_with_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        for eta in (0.8, 1.0):
            for n_T in (0.0, 0.5):
                got = squeezed_probe_qfi(r, eta, n_T)
                want = exact_qfi_squeezed(r, eta, n_T)
                worst = max(worst, abs(got - want) / want)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 60.0
    _verdict(
        "oracle-vs-closed-form",
        ok,
        "12-point grid, worst rel err %.2e (limit 1e-3), %.1f s (limit 60 s)"
        % (worst, dt),
    )


def test_minimized_raw_costs_reach_closed_forms():
    worst_thermal = 0.0
    worst_diffusion = 0.0
    for mean_n in (0.5, 2.0, 10.0):
        m = _squeezed_moments(mean_n)
        for eta in (0.6, 0.8, 0.95):
            for n_T in (0.0, 0.5, 2.0):
                val, _ = minimize_raw_cq(
                    lambda a, b, g: raw_cq_loss_thermal(m, eta, n_T, a, b, g),
                    (0.9, 0.1, 0.1),
                )
                want = cq_min_loss_thermal(m, eta, n_T)
                worst_thermal = max(worst_thermal, abs(val - want) / want)
            for lam in (0.05, 0.1, 0.3):
                val, _ = minimize_raw_cq(
                    lambda a, b: raw_cq_loss_diffusion(m, eta, lam, a, b),
                    (0.9, 0.1),
                )
                want = cq_min_loss_diffusion(m, eta, lam)
                worst_diffusion = max(worst_diffusion, abs(val - want) / want)

    # overall-factor certification: lossless limit must land on 4 var_n
    worst_factor = 0.0
    for mean_n in (0.5, 2.0, 10.0):
        m = _squeezed_moments(mean_n)
        val, _ = minimize_raw_cq(
            lambda a, b, g: raw_cq_loss_thermal(m, 1.0, 0.0, a, b, g),
            (0.9, 0.1, 0.1),
        )
        worst_factor = max(worst_factor, abs(val - 4.0 * m.var_n) / (4.0 * m.var_n))

    worst = max(worst_thermal, worst_diffusion, worst_factor)
    ok = worst <= 1e-6
    _verdict(
        "variational-minimum",
        ok,
        "27+27-point grids: thermal %.2e, diffusion %.2e, lossless factor %.2e "
        "(limit 1e-6)" % (worst_thermal, worst_diffusion, worst_factor),
    )


# each bound claims to hold for every probe with the given moments, so no
# pure probe may pass it; as functions of (moments, eta, n_T, lam)
_BOUNDS = {
    "eq15": lambda m, eta, n_T, lam: cq_min_loss_thermal(m, eta, n_T),
    "eq21": lambda m, eta, n_T, lam: cq_min_loss_diffusion(m, eta, lam),
    "eq22": lambda m, eta, n_T, lam: 1.0 / phase_variance_bound_full(m, eta, n_T, lam),
}
# (bound, probe levels d, eta, n_T, lam)
_ADVERSARY_SETTINGS = [
    ("eq15", 4, 0.5, 0.0, 0.0),
    ("eq15", 4, 0.9, 0.5, 0.0),
    ("eq22", 4, 0.8, 0.5, 0.2),
    ("eq22", 5, 1.0, 0.0, 0.3),
    ("eq22", 5, 0.95, 0.0, 0.3),
    ("eq21", 4, 0.8, 0.0, 0.2),
]


def test_moment_bounds_resist_an_adversarial_probe():
    # random probes sit well below the bounds under loss, so a bound a
    # little too tight passes them; Nelder-Mead over the complex amplitudes
    # pushes the oracle QFI up against each bound instead
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    best = []
    for name, d, eta, n_T, lam in _ADVERSARY_SETTINGS:
        bound, ratios = _BOUNDS[name], []

        def neg_ratio(x):
            psi = FockVector(d, x[:d] + 1j * x[d:])
            ratios.append(probe_qfi(psi, eta, n_T, lam) / bound(moments(psi), eta, n_T, lam))
            return -ratios[-1]

        for _ in range(2):
            minimize(neg_ratio, rng.standard_normal(2 * d), method="Nelder-Mead",
                     options={"maxfev": 400})
        best.append(max(ratios))
    dt = time.perf_counter() - t0
    ok = max(best) <= 1.0 + 1e-10 and dt < 3.0
    settings = ", ".join(
        "%s d=%d eta=%g n_T=%g lam=%g %.6f" % (name, d, eta, n_T, lam, ratio)
        for (name, d, eta, n_T, lam), ratio in zip(_ADVERSARY_SETTINGS, best)
    )
    _verdict(
        "moment-bounds-adversary",
        ok,
        "best oracle/bound ratio per setting (2 Nelder-Mead starts of 400 "
        "evaluations): %s (limit 1 + 1e-10), %.1f s (limit 3 s)" % (settings, dt),
    )


def test_fig1_table_properties(tmp_path):
    out = tmp_path / "fig1.csv"
    t0 = time.perf_counter()
    assert cli_main(["fig1", "--out", str(out)]) == 0
    dt = time.perf_counter() - t0
    _, rows = _table(out)
    data = np.array([[float(c) for c in row] for row in rows])
    cold, hot = data[:50], data[50:]

    dominates = bool(np.all(data[:, 2] >= data[:, 3]))
    decreasing = bool(np.all(hot[:, 2] < cold[:, 2]) and np.all(hot[:, 3] < cold[:, 3]))

    m = _squeezed_moments(1e4)
    r = math.asinh(math.sqrt(1e4))
    ratios = [
        cq_min_loss_thermal(m, 0.8, n_T) / exact_qfi_squeezed(r, 0.8, n_T)
        for n_T in (10.0, 100.0)
    ]
    saturated = max(ratios) <= 1.05

    ok = dominates and decreasing and saturated and dt < 5.0
    _verdict(
        "fig1-properties",
        ok,
        "bound>=exact %s, hotter-bath decrease %s, saturation ratios %.4f/%.4f "
        "(limit 1.05) at mean_n=1e4, %.1f s (limit 5 s)"
        % (dominates, decreasing, ratios[0], ratios[1], dt),
    )


def test_fig2_table_sandwich(tmp_path):
    out = tmp_path / "fig2.csv"
    t0 = time.perf_counter()
    assert cli_main(["fig2", "--with-oracle", "--out", str(out)]) == 0
    dt = time.perf_counter() - t0
    _, rows = _table(out)

    cq = np.array([float(row[1]) for row in rows])
    im = np.array([float(row[2]) for row in rows])
    ordered = bool(np.all(im <= cq))

    sandwich_slack = math.inf
    n_oracle = 0
    for row in rows:
        if row[3] == "":
            continue
        n_oracle += 1
        fq = float(row[3])
        sandwich_slack = min(sandwich_slack, fq - float(row[2]), float(row[1]) - fq)
    sandwiched = n_oracle > 0 and sandwich_slack >= -1e-9

    r_grid = np.linspace(0.1, 4.7, 40)
    collapse = max(
        abs(im_opt_squeezed(r, 0.95, 0.0) - exact_qfi_squeezed(r, 0.95, 0.0))
        / exact_qfi_squeezed(r, 0.95, 0.0)
        for r in r_grid
    )
    collapsed = collapse <= 1e-12

    mean_n = np.array([float(row[0]) for row in rows])
    high = mean_n >= 1e3
    plateau_dev = 0.0
    pairs = 0
    for i in range(len(rows) - 1):
        if high[i] and high[i + 1]:
            pairs += 1
            plateau_dev = max(
                plateau_dev,
                abs(cq[i + 1] / cq[i] - 1.0),
                abs(im[i + 1] / im[i] - 1.0),
            )
    plateaued = pairs >= 2 and plateau_dev <= 0.05

    ok = ordered and sandwiched and collapsed and plateaued and dt < 120.0
    _verdict(
        "fig2-sandwich",
        ok,
        "im<=cq %s; %d oracle rows, min sandwich slack %.2e (limit -1e-9); "
        "noiseless collapse %.2e (limit 1e-12); plateau dev %.3f over %d pairs "
        "(limit 0.05); %.1f s (limit 120 s)"
        % (ordered, n_oracle, sandwich_slack, collapse, plateau_dev, pairs, dt),
    )


def test_fig3_table_scalings(tmp_path):
    out = tmp_path / "fig3.csv"
    t0 = time.perf_counter()
    assert cli_main(["fig3", "--out", str(out)]) == 0
    dt = time.perf_counter() - t0
    _, rows = _table(out)
    data = {}
    for row in rows:
        assert row[4] == ""
        data.setdefault(float(row[1]), []).append((float(row[0]), float(row[2])))

    slopes = {}
    for eta, pts in data.items():
        flux = np.array([p[0] for p in pts])
        bound = np.array([p[1] for p in pts])
        slopes[eta] = loglog_slope(flux, bound, window=(1e6, 1e8))
    err_lossless = abs(slopes[1.0] + 2.0 / 3.0)
    err_lossy = abs(slopes[0.95] + 0.5)

    lossless = np.array([p[1] for p in data[1.0]])
    lossy = np.array([p[1] for p in data[0.95]])
    blurred = bool(np.all(lossy >= lossless))

    ok = err_lossless <= 0.05 and err_lossy <= 0.05 and blurred and dt < 120.0
    _verdict(
        "fig3-slopes",
        ok,
        "top-two-decade slopes %.4f (want -2/3 +- 0.05) and %.4f (want -1/2 "
        "+- 0.05), lossy>=lossless %s, %.1f s (limit 120 s)"
        % (slopes[1.0], slopes[0.95], blurred, dt),
    )


def test_quadrature_battery():
    worst_const = 0.0
    for decade in range(-2, 7):
        c_val = 10.0**decade
        model = OpoSpectrumModel(16.0, c_val / 16.0)
        params = SpectralCqParams(0.8, -4.0)  # flat cost, exactly C = 16 N
        got = mse_bound(PriorSpectrum(1.0, 2.0), model, params)
        want = 0.5 * math.sqrt(1.0 / c_val)
        worst_const = max(worst_const, abs(got - want) / want)

    rng = np.random.default_rng(42)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = a @ a.conj().T
    rho = DensityMatrix(8, h / np.trace(h))
    worst_avg = 0.0
    for lam in (0.05, 0.1, 0.3):
        direct = phase_diffusion(rho, lam)
        averaged = phase_diffusion_by_quadrature(rho, lam)
        worst_avg = max(worst_avg, float(np.max(np.abs(direct.elems - averaged.elems))))

    ok = worst_const <= 1e-9 and worst_avg <= 1e-7
    _verdict(
        "quadrature-battery",
        ok,
        "constant-cost closed form %.2e over C in 1e-2..1e6 (limit 1e-9); "
        "phase-average vs entrywise %.2e (limit 1e-7)" % (worst_const, worst_avg),
    )


def test_scaling_exponent_algebra():
    flux = np.logspace(18, 28, 41)  # all far beyond the 1e6 floor
    window = (1e20, 1e26)
    d_lossless = np.array(
        [scaling_construction_D(n, n ** (4.0 / 3.0), 1.0, 1.0, 2.0).D for n in flux]
    )
    d_lossy = np.array(
        [scaling_construction_D(n, n**1.5, 0.95, 1.0, 2.0).D for n in flux]
    )
    err_lossless = abs(loglog_slope(flux, d_lossless**-0.5, window) + 2.0 / 3.0)
    err_lossy = abs(loglog_slope(flux, d_lossy**-0.5, window) + 0.5)
    ok = err_lossless <= 1e-6 and err_lossy <= 1e-6
    _verdict(
        "scaling-exponents",
        ok,
        "exponent errors %.2e (dense-block rule) and %.2e (lossy rule), "
        "limit 1e-6" % (err_lossless, err_lossy),
    )


def test_powerlaw_exponents():
    # lossless, the MSE bound minimized over the anti-squeezing level R+
    # falls as N^(2(1-p)/(p+1)) under the power-law prior kappa^(p-1)/|omega|^p
    t0 = time.perf_counter()
    flux = np.logspace(4, 8, 5)
    lossless = SpectralCqParams(1.0, 0.0)  # beta drops out at eta = 1
    slopes, worst = {}, 0.0
    for p in (2.0, 3.0, 4.0):
        prior = PriorSpectrum(1.0, p)
        best = []
        for n in flux:
            # scan log10(R+ - 1) over [0.5, 9]
            _, value = maximize_scalar(
                lambda x: -mse_bound(prior, OpoSpectrumModel(1.0 + 10.0**x, n), lossless),
                0.5,
                9.0,
            )
            best.append(-value)
        slopes[p] = loglog_slope(flux, np.array(best), window=(1e6, 1e8))
        worst = max(worst, abs(slopes[p] - 2.0 * (1.0 - p) / (p + 1.0)))
    dt = time.perf_counter() - t0
    ok = worst <= 0.05 and dt < 60.0
    _verdict(
        "powerlaw-exponents",
        ok,
        "top-two-decade slopes %.4f, %.4f, %.4f at p = 2, 3, 4 (want "
        "2(1-p)/(p+1) +- 0.05), %.1f s (limit 60 s)"
        % (slopes[2.0], slopes[3.0], slopes[4.0], dt),
    )


@pytest.fixture(scope="module")
def figure_csvs(tmp_path_factory):
    """Each figure's CSV bytes from two separate runs of the CLI."""
    commands = {
        "fig1": ["fig1"],
        "fig2": ["fig2", "--with-oracle"],
        "fig3": ["fig3"],
    }
    tmp_path = tmp_path_factory.mktemp("figures")
    csvs = {}
    for name, argv in commands.items():
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / ("%s_%s.csv" % (name, tag))
            proc = subprocess.run(
                [sys.executable, "-m", "varqfi.cli", *argv, "--out", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(path.read_bytes())
        csvs[name] = blobs
    return csvs


def test_cli_determinism(figure_csvs):
    identical = [a == b for a, b in figure_csvs.values()]
    ok = all(identical)
    _verdict(
        "csv-determinism",
        ok,
        "repeated runs byte-identical: fig1 %s, fig2 %s, fig3 %s" % tuple(identical),
    )


def _cells_differ(got, want):
    # empty cells and text must match exactly, numbers to 1e-10 relative
    if got == want:
        return False
    try:
        return not abs(float(got) - float(want)) <= 1e-10 * abs(float(want))
    except ValueError:
        return True


def test_figure_csvs_match_golden_tables(figure_csvs):
    # tests/golden holds the fig1, fig2 --with-oracle and fig3 tables
    for name, (blob, _) in figure_csvs.items():
        got = list(csv.reader(io.StringIO(blob.decode())))
        golden = Path(__file__).parent / "golden" / ("%s.csv" % name)
        want = list(csv.reader(io.StringIO(golden.read_text())))
        assert len(got) == len(want), name
        for row, (g, w) in enumerate(zip(got, want)):
            bad = [(c, x, y) for c, (x, y) in enumerate(zip(g, w)) if _cells_differ(x, y)]
            assert len(g) == len(w) and not bad, (name, row, g, w)
