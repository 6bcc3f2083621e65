"""Command-line front end: figure tables as CSV plus one-shot evaluations.

A figure (fig1/fig2/fig3) is one _FIGURES entry holding its own physics: a
setup that checks the flags and returns the CSV header, row keys and row
function, and its plot's axis labels, extra lines, series flag and curves.
cmd_figure runs the one row loop; --plot writes a gnuplot script that
references the --out CSV.  bound and oracle hand cmd_report a table of
named formulas, whose key=value parameters it echoes in one report line.
Output goes to stdout unless --out is given.  An argument @FILE reads
further flags from FILE, one `key = value` per line.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import math
import os
import sys

import numpy as np

from .bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    exact_qfi_squeezed,
    im_opt_squeezed,
    phase_variance_bound_full,
)
from .fock_core import InputMoments, TruncationError
from .numerics import AccuracyError, OptimizationError, check_eta
from .qfi_oracle import oracle_dim, squeezed_probe_qfi
from .waveform import fig3_curve

__all__ = ["main"]

# largest squeezing the default truncation rule certifies end to end
ORACLE_R_MAX = 0.8


class UsageError(Exception):
    pass


def _fmt(value):
    return "%.12g" % value


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def _log_grid(lo, hi, points):
    if not (0.0 < lo < hi < math.inf and points >= 2):  # NaN fails too
        raise UsageError("grid needs 0 < min < max < inf and at least 2 points")
    with np.errstate(over="ignore"):  # checked below
        grid = np.logspace(math.log10(lo), math.log10(hi), int(points)).tolist()
    if grid[-1] == math.inf:  # 10**log10(max) rounds past the largest float
        raise UsageError("grid max %r is too close to the largest float" % hi)
    return grid


def _lin_grid(lo, hi, points):
    if not (0.0 <= lo < hi < math.inf and points >= 2):  # NaN fails too
        raise UsageError("grid needs 0 <= min < max < inf and at least 2 points")
    return np.linspace(lo, hi, int(points)).tolist()


def _float_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError("expected a comma-separated list of numbers: %r" % text)
    if not values:
        raise UsageError("empty list: %r" % text)
    return values


def _write(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write output file: %s" % exc)


def _check_outputs(args):
    """Refuse, before any row is computed, the outputs _emit cannot write.

    One rule for --out and --plot.  An empty path is refused outright: its
    abspath is the working directory, which the folder check would pass.
    They must name different files, or the script would overwrite the CSV
    it references.  Creates and truncates nothing.
    """
    plot = getattr(args, "plot", None)
    if "" in (args.out, plot):
        raise UsageError("--out and --plot need a non-empty file name")
    if plot is not None and args.out is None:
        raise UsageError("--plot requires --out (the script references the CSV file)")
    if plot is not None and os.path.realpath(plot) == os.path.realpath(args.out):
        raise UsageError("--out and --plot name the same file %r" % args.out)
    for path in filter(None, (args.out, plot)):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise UsageError("cannot write output file: %r is a directory" % path)
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise UsageError(
                "cannot write output file: %r is not a writable directory" % folder
            )


def _emit(args, csv_text, plot_script=None):
    if args.out is not None:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if plot_script is not None:
        _write(args.plot, plot_script)
    return 0


def _squeezed_moments(mean_n):
    return InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))


# ---------------------------------------------------------------- figures

# the plot draws each (column, style, title) curve that is in the header, once
# per value of the series flag (CSV column 2), or once if there is none
_Figure = collections.namedtuple("_Figure", "setup labels extra series curves")


def _fig1_setup(args):
    grid = _log_grid(args.n_min, args.n_max, args.n_points)

    def row(n_T, mean_n):
        m = _squeezed_moments(mean_n)
        r = math.asinh(math.sqrt(mean_n))
        cq = cq_min_loss_thermal(m, args.eta, n_T)
        return mean_n, n_T, cq, exact_qfi_squeezed(r, args.eta, n_T)

    header = ("mean_n", "n_T", "cq_min", "exact_qfi")
    return header, itertools.product(args.nt_list, grid), row


def _fig2_setup(args):
    r_grid = _lin_grid(args.r_min, args.r_max, args.r_points)
    dim = oracle_dim(ORACLE_R_MAX, 0.0)

    def row(r):
        mean_n = math.sinh(r) ** 2
        m = _squeezed_moments(mean_n)
        cq = cq_min_loss_diffusion(m, args.eta, args.lam)
        im = im_opt_squeezed(r, args.eta, args.lam)
        if not args.with_oracle:
            return mean_n, cq, im
        if r > ORACLE_R_MAX:  # beyond the truncation-safe range: left empty
            return mean_n, cq, im, None
        fq = squeezed_probe_qfi(r, args.eta, 0.0, args.lam, dim=dim, bath_dim=dim)
        return mean_n, cq, im, fq

    def keys():
        yield from zip(r_grid)
        # after the last row, so a table that fails prints its error line alone
        skipped = sum(1 for r in r_grid if r > ORACLE_R_MAX)
        if args.with_oracle and skipped:
            print(
                "warning: oracle column left empty for %d rows with r > %g "
                "(beyond the truncation-safe range)" % (skipped, ORACLE_R_MAX),
                file=sys.stderr,
            )

    header = ("mean_n", "cq_min", "im_opt")
    if args.with_oracle:
        header += ("oracle_qfi",)
    return header, keys(), row


def _fig3_setup(args):
    grid = _log_grid(args.n_min, args.n_max, args.n_points)
    for eta in args.eta_list:
        check_eta(eta)
    if not 0.0 < args.tol_rel < 1.0:  # NaN fails too; inf is not below 1
        raise UsageError("--tol-rel must lie in (0, 1)")

    def row(eta, flux):
        try:
            (point,) = fig3_curve(eta, [flux], rel_tol=args.tol_rel)
            return (flux, eta, point.bound, point.beta_star, "")
        except (AccuracyError, OptimizationError, OverflowError, ValueError) as exc:
            return (flux, eta, None, None, str(exc).replace(",", ";"))

    header = ("flux_N", "eta", "mse_bound", "beta_star", "error")
    return header, itertools.product(args.eta_list, grid), row


_FIGURES = {
    "fig1": _Figure(
        _fig1_setup, ("mean photon number", "Fisher information"), (), "nt_list",
        (
            ("cq_min", "lines", "bound, n_T={}"),
            ("exact_qfi", "lines dashtype 2", "exact, n_T={}"),
        ),
    ),
    "fig2": _Figure(
        _fig2_setup, ("mean photon number", "Fisher information"),
        ("set datafile missing ''",), None,
        (
            ("cq_min", "lines", "upper bound"),
            ("im_opt", "lines dashtype 2", "measurement bound"),
            ("oracle_qfi", "points", "Fock oracle"),
        ),
    ),
    "fig3": _Figure(
        _fig3_setup, ("photon flux", "MSE bound"), (), "eta_list",
        (("mse_bound", "lines", "eta={}"),),
    ),
}


def _plot_script(figure, args, header):
    """The gnuplot script that draws figure's curves from the CSV at args.out."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set logscale xy",
        "set xlabel '%s'" % figure.labels[0],
        "set ylabel '%s'" % figure.labels[1],
        *figure.extra,
    ]
    clauses = []
    for tag in map(_cell, getattr(args, figure.series) if figure.series else [None]):
        x = "($2==%s?$1:1/0)" % tag if tag else "1"
        for column, style, title in figure.curves:
            if column in header:
                clauses.append(
                    "'%s' using %s:%d with %s title '%s'"
                    % (args.out, x, header.index(column) + 1, style, title.format(tag))
                )
    return "\n".join(lines + ["plot \\", ", \\\n".join("  " + c for c in clauses)]) + "\n"


def cmd_figure(args):
    figure = args.figure
    header, keys, row = figure.setup(args)
    lines = [",".join(header)]
    for key in keys:
        lines.append(",".join(_cell(v) for v in row(*key)))
    csv = "\n".join(lines) + "\n"
    plot = None if args.plot is None else _plot_script(figure, args, header)
    return _emit(args, csv, plot)


# ------------------------------------------------------- one-shot reports


def _moments(p):
    return InputMoments(p["mean_n"], p["var_n"])


# name -> (ordered (key, default) pairs, evaluator); None marks a required key
_BOUND_TABLE = {
    "eq15": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("nT", 0.0)),
        lambda p: cq_min_loss_thermal(_moments(p), p["eta"], p["nT"]),
    ),
    "eq16": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0)),
        lambda p: cq_min_loss_thermal(_moments(p), p["eta"], 0.0),
    ),
    "eq17": (
        (("r", None), ("eta", 1.0), ("nT", 0.0)),
        lambda p: exact_qfi_squeezed(p["r"], p["eta"], p["nT"]),
    ),
    "eq21": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("lambda", 0.0)),
        lambda p: cq_min_loss_diffusion(_moments(p), p["eta"], p["lambda"]),
    ),
    "eq22": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("nT", 0.0), ("lambda", 0.0)),
        lambda p: phase_variance_bound_full(_moments(p), p["eta"], p["nT"], p["lambda"]),
    ),
    "eq25": (
        (("r", None), ("eta", 1.0), ("lambda", 0.0)),
        lambda p: im_opt_squeezed(p["r"], p["eta"], p["lambda"]),
    ),
}

# default of an oracle size key: size it automatically (a given size is >= 2)
_AUTO = -1


def _oracle_value(p):
    """The oracle's QFI; then fills the automatic sizes into p, so the line shows them."""
    sizes = {key: p[key] for key in ("dim", "bath_dim") if p[key] != _AUTO}
    value = squeezed_probe_qfi(p["r"], p["eta"], p["nT"], p["lambda"], **sizes)
    p["dim"] = sizes.get("dim") or oracle_dim(p["r"], p["nT"])
    p["bath_dim"] = sizes.get("bath_dim", p["dim"])
    return value


_ORACLE_TABLE = {
    "oracle": (
        (
            ("r", None), ("eta", 1.0), ("nT", 0.0), ("lambda", 0.0),
            ("dim", _AUTO), ("bath_dim", _AUTO),
        ),
        _oracle_value,
    ),
}


def _parse_params(tokens, fields, name):
    """key=value tokens as floats, keyed as fields, with defaults filled in.

    fields holds ordered (key, default) pairs; a None default marks a key
    the formula cannot run without, and an int default a register size: a
    plain-decimal token becomes an int, any other stays text, and the
    formula's own size check refuses it.  A key given twice is misuse.
    """
    defaults = dict(fields)
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError("expected key=value, got %r" % tok)
        key, _, raw = tok.partition("=")
        if key not in defaults:
            raise UsageError(
                "unknown parameter %r (valid: %s)" % (key, ", ".join(sorted(defaults)))
            )
        if key in params:
            raise UsageError("parameter %s given twice" % key)
        if isinstance(defaults[key], int):
            params[key] = int(raw) if raw.isdecimal() else raw  # "-1" stays text
            continue
        try:
            params[key] = float(raw)
        except ValueError:
            raise UsageError("parameter %s needs a number, got %r" % (key, raw))
    for key, default in fields:
        if default is None and key not in params:
            raise UsageError("%s requires %s=..." % (name, key))
        params.setdefault(key, default)
    return params


def cmd_report(args):
    if args.name not in args.table:
        raise UsageError(
            "unknown bound name %r (valid: %s)"
            % (args.name, ", ".join(sorted(args.table)))
        )
    fields, evaluate = args.table[args.name]
    params = _parse_params(args.params, fields, args.name)
    value = evaluate(params)
    inputs = " ".join("%s=%s" % (key, _fmt(params[key])) for key, _ in fields)
    return _emit(args, "%s %s value=%s\n" % (args.name, inputs, _fmt(value)))


# ------------------------------------------------------------- plumbing


def _add_out(parser):
    parser.add_argument("--out", help="write CSV/report to this file instead of stdout")


def _config_line(line):
    """One line of an @FILE argument file as command-line tokens.

    `key = value` gives one --key=value token and a bare `key` sets a
    switch; keys take `_` or `-`, and `#` starts a comment.
    """
    line = line.split("#", 1)[0].strip()
    if not line:
        return []
    key, eq, value = line.partition("=")
    return ["--" + key.strip().replace("_", "-") + eq + value.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="varqfi",
        description="Variational phase-estimation bounds, their Fock-space "
        "oracle, and the waveform MSE tables.",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = _config_line
    # no abbreviated flags: a file's `eta` must not become fig3's --eta-list
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)

    p1 = sub.add_parser("fig1", help="bound vs exact information under thermal loss")
    p1.add_argument("--eta", type=float, default=0.8)
    p1.add_argument(
        "--nt-list", dest="nt_list", type=_float_list, default=[10.0, 100.0],
        help="comma-separated thermal occupations",
    )
    p1.add_argument("--n-min", type=float, default=0.1)
    p1.add_argument("--n-max", type=float, default=100.0)
    p1.add_argument("--n-points", type=int, default=50)

    p2 = sub.add_parser("fig2", help="loss+diffusion bound sandwich vs probe energy")
    p2.add_argument("--eta", type=float, default=0.95)
    p2.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p2.add_argument("--r-min", type=float, default=0.1)
    p2.add_argument("--r-max", type=float, default=4.7)
    p2.add_argument("--r-points", type=int, default=40)
    p2.add_argument(
        "--with-oracle", action="store_true",
        help="add a Fock-oracle column for truncation-safe rows",
    )

    p3 = sub.add_parser("fig3", help="waveform MSE bound vs photon flux")
    p3.add_argument(
        "--eta-list", dest="eta_list", type=_float_list, default=[1.0, 0.95],
        help="comma-separated transmissions (1 gives the lossless reference)",
    )
    p3.add_argument("--n-min", type=float, default=1e2)
    p3.add_argument("--n-max", type=float, default=1e8)
    p3.add_argument("--n-points", type=int, default=25)
    p3.add_argument(
        "--tol-rel", type=float, default=1e-8,
        help="relative tolerance of the adaptive quadrature behind each row",
    )
    for name, p in (("fig1", p1), ("fig2", p2), ("fig3", p3)):
        _add_out(p)
        p.add_argument(
            "--plot", help="also write a gnuplot script referencing the CSV (needs --out)"
        )
        p.set_defaults(func=cmd_figure, figure=_FIGURES[name])

    pb = sub.add_parser("bound", help="evaluate one named bound on explicit parameters")
    pb.add_argument("name", help="one of %s" % "|".join(sorted(_BOUND_TABLE)))
    pb.add_argument("params", nargs="*", help="key=value pairs")
    _add_out(pb)
    pb.set_defaults(func=cmd_report, table=_BOUND_TABLE)

    po = sub.add_parser("oracle", help="brute-force QFI of a lossy squeezed probe")
    po.add_argument("params", nargs="*", help="key=value pairs (r required)")
    _add_out(po)
    po.set_defaults(func=cmd_report, table=_ORACLE_TABLE, name="oracle")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # @FILE arguments go first after the command, so explicit flags win
    files = [arg for arg in argv if arg.startswith("@")]
    rest = [arg for arg in argv if not arg.startswith("@")]
    parser = build_parser()
    try:
        args = parser.parse_args(rest[:1] + files + rest[1:])
        _check_outputs(args)
        return args.func(args)
    except (AccuracyError, OptimizationError, TruncationError, OverflowError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
