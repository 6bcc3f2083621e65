import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varqfi import fock_core
from varqfi.bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
)
from varqfi.cli import build_parser, main
from varqfi.fock_core import InputMoments


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(path):
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_bound_worked_examples(capsys):
    code, out, _ = _run(capsys, "bound", "eq16", "mean_n=2", "var_n=12", "eta=0.5")
    assert code == 0
    assert out == "eq16 mean_n=2 var_n=12 eta=0.5 value=6.85714285714\n"

    code, out, _ = _run(capsys, "bound", "eq17", "r=0", "eta=0.9")
    assert code == 0
    assert out == "eq17 r=0 eta=0.9 nT=0 value=0\n"

    # strong squeezing: 1 + v^2 - u^2 = 1.97 must not cancel away
    for name, tail in (("eq17", "nT=0"), ("eq25", "lambda=0")):
        code, out, err = _run(capsys, "bound", name, "r=10")
        assert code == 0, err
        assert out == "%s r=10 eta=1 %s value=1.17692633419e+17\n" % (name, tail)

    # u^2 overflows here, 4u(u/w) does not; values from 60-digit mpmath
    for r, value in (("178", "4.06289461491e+154"), ("300", "3.77302030093e+260")):
        code, out, err = _run(capsys, "bound", "eq17", "r=" + r, "eta=0.5")
        assert code == 0, err
        assert out == "eq17 r=%s eta=0.5 nT=0 value=%s\n" % (r, value)


def test_bound_defaults_fill_in(capsys):
    code, out, _ = _run(capsys, "bound", "eq21", "mean_n=1", "var_n=4")
    assert code == 0
    # eta defaults to 1, lambda to 0: lossless noiseless gives 4 var_n
    assert out.endswith("value=16\n")
    assert "eta=1" in out and "lambda=0" in out


def _moments(p):
    return InputMoments(p["mean_n"], p["var_n"])


# each formula's keys in the order its line echoes them, and the library call
_LIBRARY = {
    "eq15": (
        ("mean_n", "var_n", "eta", "nT"),
        lambda p: cq_min_loss_thermal(_moments(p), p["eta"], p["nT"]),
    ),
    "eq16": (
        ("mean_n", "var_n", "eta"),
        lambda p: cq_min_loss_thermal(_moments(p), p["eta"], 0.0),
    ),
    "eq17": (
        ("r", "eta", "nT"),
        lambda p: exact_qfi_squeezed(p["r"], p["eta"], p["nT"]),
    ),
    "eq21": (
        ("mean_n", "var_n", "eta", "lambda"),
        lambda p: cq_min_loss_diffusion(_moments(p), p["eta"], p["lambda"]),
    ),
    "eq22": (
        ("mean_n", "var_n", "eta", "nT", "lambda"),
        lambda p: phase_variance_bound_full(
            _moments(p), p["eta"], p["nT"], p["lambda"]
        ),
    ),
    "eq25": (
        ("r", "eta", "lambda"),
        lambda p: im_opt_squeezed(p["r"], p["eta"], p["lambda"]),
    ),
}

_RANGES = {
    "mean_n": st.floats(-3.0, 4.0).map(lambda x: 10.0**x),
    "var_n": st.floats(-3.0, 8.0).map(lambda x: 10.0**x),
    "eta": st.floats(0.01, 1.0),
    "nT": st.floats(0.0, 100.0),
    "lambda": st.floats(0.0, 2.0),
    "r": st.floats(0.0, 3.0),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_LIBRARY)), data=st.data())
def test_bound_line_echoes_inputs_and_parses_back(name, data):
    keys, library = _LIBRARY[name]
    params = {key: data.draw(_RANGES[key], label=key) for key in keys}
    order = data.draw(st.permutations(keys), label="order")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["bound", name] + ["%s=%r" % (key, params[key]) for key in order])
    assert code == 0
    fields = out.getvalue().split()
    assert fields[0] == name
    assert fields[1:-1] == ["%s=%.12g" % (key, params[key]) for key in keys]
    key, _, value = fields[-1].partition("=")
    assert key == "value"
    assert math.isclose(float(value), library(params), rel_tol=5e-12)


def test_bound_unknown_name_lists_valid(capsys):
    code, _, err = _run(capsys, "bound", "eq99", "mean_n=1")
    assert code == 2
    for name in ("eq15", "eq16", "eq17", "eq21", "eq22", "eq25"):
        assert name in err


def test_bound_parameter_errors(capsys):
    code, _, err = _run(capsys, "bound", "eq15", "var_n=4")
    assert code == 2
    assert "mean_n" in err

    code, _, err = _run(capsys, "bound", "eq17", "r=0.3", "mean_n=1")
    assert code == 2
    assert "unknown parameter" in err

    code, _, err = _run(capsys, "bound", "eq17", "r")
    assert code == 2
    assert "key=value" in err

    code, _, err = _run(capsys, "bound", "eq17", "r=abc")
    assert code == 2
    assert "parameter r needs a number, got 'abc'" in err


def test_oracle_lossless_pure_probe(capsys):
    code, out, _ = _run(capsys, "oracle", "r=0.3", "eta=1", "nT=0", "lambda=0")
    assert code == 0
    value = float(out.rsplit("value=", 1)[1])
    expect = exact_qfi_squeezed(0.3, 1.0, 0.0)
    # the 1e-8 truncated tail shifts the fourth moment by a few 1e-6 relative
    assert abs(value - expect) < 1e-4 * expect
    # dims filled by the truncation rule
    assert "dim=14" in out and "bath_dim=14" in out


def test_oracle_requires_r(capsys):
    code, _, err = _run(capsys, "oracle", "eta=0.9")
    assert code == 2
    assert "r=" in err


def test_exit_code_numerical_failure(capsys):
    # dim too small for the requested squeezing: truncation failure, not usage
    code, _, err = _run(capsys, "oracle", "r=0.5", "eta=0.8", "dim=6")
    assert code == 3
    assert "numerical failure" in err
    # a thermal bath pushes the default truncation past the product cap
    code, _, err = _run(capsys, "oracle", "r=0.8", "eta=0.8", "nT=2", "lambda=0.1")
    assert code == 3
    assert "numerical failure" in err and "exceeds the cap" in err
    # a result beyond float range is a numerical failure, not a traceback
    for argv in (("bound", "eq17", "r=178", "eta=1"), ("fig2", "--r-max", "400")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "numerical failure" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 2r overflowed to inf, and these printed value=nan
        ("bound", "eq17", "r=1e308", "eta=0.5"),
        ("bound", "eq25", "r=1e308"),
        # printed value=inf; the true value is 8.25e308
        ("bound", "eq17", "r=178", "eta=1"),
        # printed value=inf; 4 var_n is 4e308
        ("bound", "eq15", "mean_n=1", "var_n=1e308"),
    ],
)
def test_value_beyond_float_range_exits_3(argv, capsys):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (3, ""), argv
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, value",
    [
        # u^2 overflowed and this exited 3; 16.648902154 from 50-digit mpmath
        (("bound", "eq25", "r=178", "lambda=0.1"), "16.648902154"),
        # lam**2 overflowed and this exited 3; the bound rounds to 0
        (("bound", "eq21", "mean_n=1", "var_n=1", "lambda=1e200"), "0"),
        (("bound", "eq25", "r=1", "lambda=1e200"), "0"),
        (("oracle", "r=0.5", "eta=0.8", "lambda=1e200"), "0"),
    ],
)
def test_value_with_an_overflowing_intermediate_is_printed(argv, value, capsys):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert out.endswith(" value=%s\n" % value)


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "r=0.8", "eta=0.1", "bath_dim=2"),
        ("oracle", "r=0.8", "eta=0.1", "bath_dim=10"),
        ("oracle", "r=0.1", "eta=0.5", "nT=1", "dim=8", "bath_dim=60"),
        ("oracle", "r=0.1", "dim=200000"),
    ],
)
def test_oracle_sizes_that_clip_or_exceed_the_cap_exit_3(argv, capsys):
    # the first three printed a wrong QFI and exited 0; the last asked numpy
    # for 596 GiB and died with a MemoryError traceback
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, ""), argv
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "the truncation rule sizes both registers at" in err


def test_oracle_bath_beyond_the_cap_is_one_short_line(capsys):
    # exited 3 with a 1,006-byte message printing two 300-digit register sizes
    code, out, err = _run(capsys, "oracle", "r=0.3", "nT=1e300")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        # an infinite bath gave 0 * inf = nan at eta = 1, and exited 0
        ("bound", "eq17", "r=1", "eta=1", "nT=inf"),
        ("bound", "eq15", "mean_n=inf", "var_n=1", "eta=0.5", "nT=inf"),
        # q = n_T/(n_T + 1) rounded to 1: a ZeroDivisionError traceback
        ("oracle", "r=0", "nT=9007199254740992"),
        # the diffusion map took inf * 0 on its diagonal
        ("fig2", "--lambda=inf", "--with-oracle", "--r-points=2"),
        # the grid's top point rounded to inf and was printed as a flux
        ("fig3", "--n-max=1.7976931348622105e+308", "--n-points=2"),
    ],
)
def test_sweep_findings_exit_cleanly(argv, capsys):
    code, out, err = _run(capsys, *argv)
    assert code in (2, 3) and out == "", (argv, code)
    assert err.count("\n") == 1, err


def test_fig3_rows_beyond_the_model_range_are_error_rows(capsys):
    # the pump amplitude rounds to 1 and the cavity rate overflows: these rows
    # raised numpy warnings and an OverflowError, and now carry their error
    code, out, err = _run(capsys, "fig3", "--n-min=1e110", "--n-max=1e308", "--n-points=3")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        assert row[2:4] == ["", ""] and "rounds to 1 or gamma overflows" in row[4]


def test_fig2_warning_follows_a_finished_table(capsys):
    # the empty-oracle-column warning used to precede an error line
    code, out, err = _run(capsys, "fig2", "--eta=0", "--with-oracle")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "warning" not in err


def test_exit_code_invalid_physics(capsys):
    code, _, err = _run(capsys, "oracle", "r=0.5", "eta=1.5")
    assert code == 2
    # NaN and negative inputs are refused before any truncation loop runs
    for argv, name in (
        (("oracle", "r=nan"), "r"),
        (("oracle", "r=0.5", "eta=0.8", "lambda=-0.1"), "lam"),
        (("oracle", "r=0.5", "nT=nan"), "n_T"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "usage error: %s must be nonnegative" % name in err
    # infinite squeezing used to print value=nan and exit 0
    for argv in (
        ("bound", "eq17", "r=inf"), ("bound", "eq25", "r=inf"), ("oracle", "r=inf")
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "usage error: r must be nonnegative and finite" in err
    # an out-of-range transmission in the fig3 list is misuse, not a CSV row
    for etas in ("nan", "1.5", "1.0,0"):
        code, out, err = _run(capsys, "fig3", "--eta-list", etas, "--n-points", "2")
        assert (code, out) == (2, "")
        assert "usage error: eta must lie in (0, 1]" in err
    for etas, message in (("0.9,abc", "expected a comma"), (",", "empty list")):
        code, out, err = _run(capsys, "fig3", "--eta-list", etas, "--n-points", "2")
        assert (code, out) == (2, "")
        assert "usage error: " + message in err


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "1", "inf"])
def test_fig3_tol_rel_outside_unit_interval_is_misuse(tol, capsys, monkeypatch):
    # refused before any row runs: such a tolerance used to spend the whole
    # panel budget on every row, write error rows and exit 0
    def no_rows(*args, **kwargs):
        raise AssertionError("a fig3 row ran")

    monkeypatch.setattr("varqfi.cli.fig3_curve", no_rows)
    code, out, err = _run(
        capsys, "fig3", "--tol-rel", tol, "--n-points", "2", "--eta-list", "1"
    )
    assert (code, out) == (2, "")
    assert "usage error: --tol-rel must lie in (0, 1)" in err


@pytest.mark.parametrize("key", ["dim", "bath_dim"])
@pytest.mark.parametrize("raw", ["14.9", "nan", "-3", "-1"])
def test_oracle_sizes_must_be_nonnegative_integers(key, raw, capsys):
    # one rule, fock_core's, for every refused size token; "-1" is text, not
    # the automatic-size sentinel
    code, out, err = _run(capsys, "oracle", "r=0.3", "%s=%s" % (key, raw))
    assert (code, out) == (2, "")
    assert err == "usage error: dimension must be an integer >= 2, got %r\n" % raw


@pytest.mark.parametrize("key", ["dim", "bath_dim"])
def test_oracle_size_is_checked_before_automatic_sizing(key, capsys):
    # automatic sizing fails at r=5 (exit 3); a bad given size is still misuse
    code, out, err = _run(capsys, "oracle", "r=5", key + "=x")
    assert (code, out) == (2, "")
    assert err == "usage error: dimension must be an integer >= 2, got 'x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("r=5", "eta=2"), "eta must lie in (0, 1]"),
        (("r=5", "nT=-1"), "n_T must be nonnegative and finite"),
        (("r=5", "lambda=nan"), "lam must be nonnegative and finite"),
        (("r=2", "eta=0", "nT=3"), "eta must lie in (0, 1]"),
    ],
)
def test_oracle_misuse_is_refused_before_automatic_sizing(argv, message, capsys):
    # each exited 3 with a truncation message: the sizing ran first
    code, out, err = _run(capsys, "oracle", *argv)
    assert (code, out, err) == (2, "", "usage error: %s\n" % message)


@pytest.mark.parametrize("key", ["dim", "bath_dim"])
@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("r", ["0", "0.5"])
def test_oracle_sizes_below_2_are_misuse(key, size, r, capsys):
    # bath_dim=0 and 1 exited 3, and r=0 bath_dim=1 reported a thermal tail
    # mass of 0.000e+00 above 1e-08
    code, out, err = _run(capsys, "oracle", "r=" + r, "%s=%d" % (key, size))
    assert (code, out) == (2, "")
    assert err == "usage error: dimension must be an integer >= 2, got %d\n" % size


def test_oracle_explicit_sizes_match_automatic_sizing(capsys):
    auto = _run(capsys, "oracle", "r=0.3", "eta=0.9")
    explicit = _run(capsys, "oracle", "r=0.3", "eta=0.9", "dim=14", "bath_dim=14")
    assert explicit == auto
    assert auto[0] == 0 and "dim=14 bath_dim=14" in auto[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "eq17", "r=0.1", "r=0.2"),
        ("bound", "eq16", "eta=0.5", "mean_n=2", "var_n=12", "eta=0.5"),
        ("oracle", "r=0.3", "dim=14", "dim=20"),
    ],
)
def test_report_key_given_twice_is_misuse(argv, capsys):
    # the last value used to win silently, whether or not the two agreed
    key = argv[-1].partition("=")[0]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "usage error: parameter %s given twice" % key in err


def test_fig1_csv_properties(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code, _, _ = _run(capsys, "fig1", "--out", str(out))
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["mean_n", "n_T", "cq_min", "exact_qfi"]
    assert len(rows) == 100  # 50 grid points x 2 thermal occupations

    data = np.array([[float(c) for c in row] for row in rows])
    assert np.all(data[:, 2] >= data[:, 3])  # bound dominates exact
    cold, hot = data[:50], data[50:]
    assert np.array_equal(cold[:, 0], hot[:, 0])
    assert np.all(cold[:, 1] == 10.0) and np.all(hot[:, 1] == 100.0)
    # hotter bath destroys information, matched row by row
    assert np.all(hot[:, 3] < cold[:, 3])
    assert np.all(hot[:, 2] < cold[:, 2])
    assert np.all(data[:, 2:] > 0.0) and np.all(np.isfinite(data))

    # spot check a row against the library
    m = InputMoments(cold[0, 0], 2.0 * cold[0, 0] * (cold[0, 0] + 1.0))
    assert abs(cold[0, 2] - cq_min_loss_thermal(m, 0.8, 10.0)) < 1e-10


def test_fig2_default_columns(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, _, err = _run(capsys, "fig2", "--out", str(out), "--r-points", "12")
    assert code == 0
    assert err == ""
    header, rows = _read_csv(out)
    assert header == ["mean_n", "cq_min", "im_opt"]
    assert len(rows) == 12
    data = np.array([[float(c) for c in row] for row in rows])
    assert np.all(data[:, 2] <= data[:, 1] * (1.0 + 1e-12))

    r0 = 0.1
    mean_n = math.sinh(r0) ** 2
    m = InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))
    assert abs(data[0, 1] - cq_min_loss_diffusion(m, 0.95, 0.1)) < 1e-10
    assert abs(data[0, 2] - im_opt_squeezed(r0, 0.95, 0.1)) < 1e-10


def test_fig2_oracle_column_and_warning(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, _, err = _run(
        capsys, "fig2", "--out", str(out),
        "--r-min", "0.1", "--r-max", "1.5", "--r-points", "8", "--with-oracle",
    )
    assert code == 0
    assert err.count("warning") == 1  # one diagnostic, not one per row
    header, rows = _read_csv(out)
    assert header == ["mean_n", "cq_min", "im_opt", "oracle_qfi"]

    r_grid = np.linspace(0.1, 1.5, 8)
    safe = int(np.sum(r_grid <= 0.8))
    assert [row[3] != "" for row in rows] == [r <= 0.8 for r in r_grid]
    for row in rows[:safe]:
        cq, im, fq = float(row[1]), float(row[2]), float(row[3])
        assert im <= fq * (1.0 + 1e-9) and fq <= cq * (1.0 + 1e-9)


def test_fig2_oracle_column_builds_each_sector_block_once(tmp_path, capsys):
    # every oracle row shares eta and the register sizes, so each of the 21
    # blocks the column populates is built once and found by the 5 rows after
    fock_core._sector_block.cache_clear()
    code, _, _ = _run(capsys, "fig2", "--with-oracle", "--out", str(tmp_path / "f.csv"))
    assert code == 0
    info = fock_core._sector_block.cache_info()
    assert (info.misses, info.hits) == (21, 105)


def test_fig2_oracle_in_range_emits_no_warning(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, _, err = _run(
        capsys, "fig2", "--out", str(out),
        "--r-max", "0.7", "--r-points", "3", "--with-oracle",
    )
    assert code == 0
    assert err == ""
    _, rows = _read_csv(out)
    assert all(row[3] != "" for row in rows)


def test_fig3_small_grid(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _, _ = _run(
        capsys, "fig3", "--out", str(out),
        "--n-min", "1e3", "--n-max", "1e5", "--n-points", "3",
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["flux_N", "eta", "mse_bound", "beta_star", "error"]
    assert len(rows) == 6
    assert all(row[4] == "" for row in rows)

    lossless = [row for row in rows if float(row[1]) == 1.0]
    lossy = [row for row in rows if float(row[1]) == 0.95]
    assert len(lossless) == 3 and len(lossy) == 3
    for ll, lo in zip(lossless, lossy):
        assert float(ll[0]) == float(lo[0])
        assert float(lo[2]) >= float(ll[2])  # losses blur the error floor
        assert float(ll[3]) == 1.0  # lossless curve pins beta


def test_fig3_flux_at_unit_anti_squeezing(tmp_path, capsys):
    # N = 2^-12 puts R+ = 16 N^(1/3) within an ulp or two of 1
    out = tmp_path / "fig3.csv"
    code, _, _ = _run(
        capsys, "fig3", "--out", str(out), "--n-min", "2.44140625e-4",
        "--n-max", "1", "--n-points", "2", "--eta-list", "0.95",
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert [float(row[0]) for row in rows] == [2.0**-12, 1.0]
    assert rows[1][4] == "" and float(rows[1][2]) > 0.0


def test_plot_requires_out(tmp_path, capsys):
    code, _, err = _run(capsys, "fig1", "--plot", str(tmp_path / "p.gp"))
    assert code == 2
    assert "--out" in err


def test_plot_script_contents(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    plot = tmp_path / "fig3.gp"
    code, _, _ = _run(
        capsys, "fig3", "--out", str(out), "--plot", str(plot),
        "--n-min", "1e3", "--n-max", "1e4", "--n-points", "2",
    )
    assert code == 0
    script = plot.read_text()
    assert "set datafile separator ','" in script
    assert "set key autotitle columnhead" in script
    assert str(out) in script
    assert "($2==1?$1:1/0)" in script  # per-curve row filter
    assert script.rstrip().splitlines()[-1].strip().startswith("'")


# each golden gnuplot script and the small grid that writes it; fig2o leaves
# its r = 1.0 row without an oracle value
_GOLDEN_PLOTS = {
    "fig1": ["fig1", "--n-points", "2"],
    "fig2": ["fig2", "--r-points", "3"],
    "fig2o": ["fig2", "--with-oracle", "--r-max", "1.0", "--r-points", "3"],
    "fig3": ["fig3", "--n-min", "1e3", "--n-max", "1e4", "--n-points", "2"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_PLOTS))
def test_plot_scripts_match_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = _GOLDEN_PLOTS[name] + ["--out", name + ".csv", "--plot", name + ".gp"]
    code, out, _ = _run(capsys, *argv)
    assert (code, out) == (0, "")
    golden = Path(__file__).parent / "golden" / (name + ".gp")
    assert (tmp_path / (name + ".gp")).read_bytes() == golden.read_bytes()


def test_plot_rejected_for_one_shot_reports(tmp_path, capsys):
    # bound and oracle have no plot output, so they do not register --plot
    for argv in (("bound", "eq17", "r=0.5"), ("oracle", "r=0.1")):
        with pytest.raises(SystemExit) as info:
            _run(
                capsys, *argv,
                "--out", str(tmp_path / "b.txt"), "--plot", str(tmp_path / "b.gp"),
            )
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

        cfg = tmp_path / "plot.cfg"
        cfg.write_text("plot = b.gp\n")
        with pytest.raises(SystemExit) as info:
            _run(capsys, *argv, "@" + str(cfg))
        assert info.value.code == 2
        assert "unrecognized arguments: --plot=b.gp" in capsys.readouterr().err


def test_unwritable_output_is_misuse(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x")
    grid = ("fig3", "--n-min", "1e3", "--n-max", "1e4", "--n-points", "2")
    code, _, err = _run(capsys, *grid, "--out", missing)
    assert code == 2
    assert "cannot write" in err

    out = tmp_path / "fig3.csv"
    code, _, err = _run(capsys, *grid, "--out", str(out), "--plot", missing)
    assert code == 2
    assert "cannot write" in err
    assert not out.exists()


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.access("/dev", os.W_OK)),
    reason="needs /dev/full in a folder this user may write",
)
def test_a_write_that_fails_is_misuse(capsys):
    # /dev/full passes every check made before the rows run; the write fails
    argv = ("bound", "eq17", "r=0.8", "eta=0.9", "--out", "/dev/full")
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot write output file: [Errno 28]")


def test_outputs_refused_before_any_row(tmp_path, capsys, monkeypatch):
    # misuse that _emit would find after the whole sweep is found first
    def no_rows(*args, **kwargs):
        raise AssertionError("a fig3 row ran")

    monkeypatch.setattr("varqfi.cli.fig3_curve", no_rows)
    plot = tmp_path / "x.gp"
    code, out, err = _run(capsys, "fig3", "--plot", str(plot))
    assert (code, out) == (2, "")
    assert "--plot requires --out" in err
    assert not plot.exists()

    missing = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = _run(capsys, "fig3", "--out", str(missing))
    assert (code, out) == (2, "")
    assert "cannot write" in err
    assert not missing.parent.exists()

    code, out, err = _run(capsys, "fig3", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "is a directory" in err

    csv = tmp_path / "ok.csv"
    for plot in (missing, tmp_path):
        code, out, err = _run(capsys, "fig3", "--out", str(csv), "--plot", str(plot))
        assert (code, out) == (2, "")
        assert "cannot write" in err
        assert not csv.exists()


def test_out_and_plot_naming_one_file_is_misuse(tmp_path, capsys, monkeypatch):
    # the script would overwrite the CSV it references; paths compare resolved
    def no_rows(*args, **kwargs):
        raise AssertionError("a fig3 row ran")

    monkeypatch.setattr("varqfi.cli.fig3_curve", no_rows)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "t")
    for command in ("fig1", "fig2", "fig3"):
        for plot in ("t/a.csv", "./t/../t/a.csv", str(tmp_path / "link" / "a.csv")):
            code, out, err = _run(capsys, command, "--out", "t/a.csv", "--plot", plot)
            assert (code, out) == (2, "")
            assert "usage error: --out and --plot name the same file" in err
    assert list((tmp_path / "t").iterdir()) == []


def test_empty_output_path_is_misuse(tmp_path, capsys, monkeypatch):
    # abspath("") is the working directory, so the folder check alone passes it
    def no_rows(*args, **kwargs):
        raise AssertionError("a fig3 row ran")

    monkeypatch.setattr("varqfi.cli.fig3_curve", no_rows)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ("fig1", "--out", ""),
        ("fig1", "--out", "e.csv", "--plot", ""),
        ("fig3", "--out", ""),
        ("fig3", "--out", "e.csv", "--plot", ""),
        ("bound", "eq16", "mean_n=2", "var_n=12", "--out", ""),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "usage error: --out and --plot need a non-empty file name" in err
    assert list(tmp_path.iterdir()) == []


def test_bad_grid_specs(capsys):
    for argv in (
        ("fig1", "--n-min", "-1"),
        ("fig1", "--n-points", "1"),
        ("fig2", "--r-min", "-0.2"),
        ("fig3", "--n-max", "10"),
        ("fig1", "--n-max", "inf"),
        ("fig1", "--n-min", "nan"),
        ("fig2", "--r-max", "inf"),
        ("fig2", "--r-min=-inf"),
        ("fig2", "--r-max", "nan"),
        ("fig3", "--n-max", "inf", "--n-points", "3", "--eta-list", "1"),
        ("fig3", "--n-min", "nan"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "grid" in err, argv


def test_config_supplies_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    # a blank line and a comment-only line give no flags
    cfg.write_text(
        "eta = 0.5   # overridden by the explicit flag\n\n# a comment\nn-points = 3\n"
    )
    out = tmp_path / "fig1.csv"
    code, _, _ = _run(
        capsys, "fig1", "--eta", "0.8", "@" + str(cfg), "--out", str(out)
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert len(rows) == 6  # config shrank the grid to 3 points
    mean_n = float(rows[0][0])
    m = InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))
    got = float(rows[0][2])
    assert abs(got - cq_min_loss_thermal(m, 0.8, 10.0)) < 1e-10  # flag eta won


def test_config_flag_after_file_wins_and_bare_key_sets_switch(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("eta = 0.5\nn_points = 3\n")
    code, out, _ = _run(capsys, "fig1", "@" + str(cfg), "--eta", "0.8")
    assert code == 0
    assert out == _run(capsys, "fig1", "--eta", "0.8", "--n-points", "3")[1]

    cfg.write_text("with-oracle  # a bare key sets it\nr-max = 0.5\nr-points = 2\n")
    code, out, _ = _run(capsys, "fig2", "@" + str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "mean_n,cq_min,im_opt,oracle_qfi"
    assert all(row.split(",")[3] != "" for row in out.splitlines()[1:])


@pytest.mark.parametrize(
    "line,command,message",
    [
        ("n-points = three", "fig1", "invalid int value: 'three'"),
        # keys are whole flag names: fig1's eta is not a prefix of --eta-list
        ("eta = 0.5", "fig3", "unrecognized arguments: --eta=0.5"),
    ],
)
def test_config_bad_value_or_prefix_key_is_misuse(
    line, command, message, tmp_path, capsys
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as info:
        _run(capsys, command, "@" + str(cfg))
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(SystemExit) as info:
        _run(capsys, "fig1", "@" + str(cfg))
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus=1" in capsys.readouterr().err

    with pytest.raises(SystemExit) as info:
        _run(capsys, "fig1", "@" + str(tmp_path / "missing.cfg"))
    assert info.value.code == 2
    assert "No such file or directory" in capsys.readouterr().err

    cfg.write_text("no equals sign here\n")
    with pytest.raises(SystemExit) as info:
        _run(capsys, "fig1", "@" + str(cfg))
    assert info.value.code == 2

    # --tol-rel belongs to fig3 alone, the one command that reads it
    cfg.write_text("tol-rel = 1e-6\n")
    for command in ("fig1", "fig2", "oracle"):
        with pytest.raises(SystemExit) as info:
            _run(capsys, command, "@" + str(cfg))
        assert info.value.code == 2
        assert "unrecognized arguments: --tol-rel=1e-6" in capsys.readouterr().err


def test_csv_determinism(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    argv = ["fig3", "--n-min", "1e3", "--n-max", "1e5", "--n-points", "3"]
    assert _run(capsys, *argv, "--out", str(paths[0]))[0] == 0
    assert _run(capsys, *argv, "--out", str(paths[1]))[0] == 0
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_stdout_when_no_out(capsys):
    code, out, _ = _run(
        capsys, "fig3", "--n-min", "1e3", "--n-max", "1e4", "--n-points", "2",
        "--eta-list", "1.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flux_N,eta,mse_bound,beta_star,error"
    assert len(lines) == 3


ORACLE_ARGV = ["oracle", "r=0.8", "eta=0.8", "nT=0.5", "lambda=0.1"]
FIG2_ORACLE_ARGV = ["fig2", "--with-oracle", "--r-points", "3"]


BOUND_CALL = "varqfi.cli.main(['bound', 'eq16', 'mean_n=2', 'var_n=12', 'eta=0.5'])"
FIG1_CALL = "varqfi.cli.main(['fig1', '--n-points', '2'])"


@pytest.mark.parametrize(
    "statement",
    [
        "import varqfi.cli",
        # the ids name the bare calls; the statements also check their exit codes
        pytest.param("assert %s == 0" % BOUND_CALL, id=BOUND_CALL),
        pytest.param("assert %s == 0" % FIG1_CALL, id=FIG1_CALL),
        "varqfi.qfi_oracle.minimize_raw_cq(lambda x, y: x * x + y * y, (1.0, 2.0))",
        "assert varqfi.cli.main(%r) == 0" % ORACLE_ARGV,
        "assert varqfi.cli.main(%r) == 0" % FIG2_ORACLE_ARGV,
    ],
)
def test_light_commands_never_load_scipy(statement):
    # scipy is a test dependency only: no command loads it, the oracle included
    code = "import sys, varqfi.cli\n%s\nassert 'scipy' not in sys.modules" % statement
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_commands_run_without_scipy():
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import varqfi.cli\n"
        "assert varqfi.cli.main(%r) == 0\n"
        "assert varqfi.cli.main(%r) == 0\n"
    ) % (ORACLE_ARGV, FIG2_ORACLE_ARGV)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# each subcommand's option strings and positionals, in the order it registers
# them: a new knob has to be added here on purpose
_OPTION_SURFACE = {
    "fig1": ["--eta", "--nt-list", "--n-min", "--n-max", "--n-points", "--out", "--plot"],
    "fig2": [
        "--eta", "--lambda", "--r-min", "--r-max", "--r-points", "--with-oracle",
        "--out", "--plot",
    ],
    "fig3": ["--eta-list", "--n-min", "--n-max", "--n-points", "--tol-rel", "--out", "--plot"],
    "bound": ["name", "params", "--out"],
    "oracle": ["params", "--out"],
}


def test_option_surface_is_pinned():
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        command: [
            name
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for name in action.option_strings or [action.dest]
        ]
        for command, parser in commands.choices.items()
    }
    assert surface == _OPTION_SURFACE
    settable = [name for names in surface.values() for name in names if name[:2] == "--"]
    assert len(settable) == 24
