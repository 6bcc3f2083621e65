"""Command-line front end: figure tables as CSV plus one-shot evaluations.

Subcommands fig1/fig2/fig3 sweep the bound formulas (and optionally the
Fock oracle) over parameter grids and emit deterministic CSV; bound and
oracle evaluate a single named formula or the oracle on explicit
parameters.  Output goes to stdout unless --out is given; the figure
commands' --plot writes a gnuplot script referencing the CSV file.  An
argument @FILE reads further flags from FILE, one `key = value` per line.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .bounds import (
    cq_min_loss_diffusion,
    cq_min_loss_thermal,
    cq_min_loss_zero_T,
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


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _log_grid(lo, hi, points):
    if not (0.0 < lo < hi < math.inf and points >= 2):  # NaN fails too
        raise UsageError("grid needs 0 < min < max < inf and at least 2 points")
    return np.logspace(math.log10(lo), math.log10(hi), int(points))


def _lin_grid(lo, hi, points):
    if not (-math.inf < lo < hi < math.inf and points >= 2):  # NaN fails too
        raise UsageError("grid needs finite min < max and at least 2 points")
    return np.linspace(lo, hi, int(points))


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

    One rule for --out and --plot.  Creates and truncates nothing.
    """
    plot = getattr(args, "plot", None)
    if plot and not args.out:
        raise UsageError("--plot requires --out (the script references the CSV file)")
    for path in filter(None, (args.out, plot)):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise UsageError("cannot write output file: %r is a directory" % path)
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise UsageError(
                "cannot write output file: %r is not a writable directory" % folder
            )


def _emit(args, csv_text, plot_script=None):
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if plot_script is not None:
        _write(args.plot, plot_script)
    return 0


def _squeezed_moments(mean_n):
    return InputMoments(mean_n, 2.0 * mean_n * (mean_n + 1.0))


# ---------------------------------------------------------------- figures


def _plot_header(xlabel, ylabel, logscale):
    return [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set logscale " + logscale,
        "set xlabel '%s'" % xlabel,
        "set ylabel '%s'" % ylabel,
    ]


def _plot_text(header_lines, clauses):
    return "\n".join(header_lines + ["plot \\", ", \\\n".join("  " + c for c in clauses)]) + "\n"


def cmd_fig1(args):
    grid = _log_grid(args.n_min, args.n_max, args.n_points)
    rows = []
    for n_T in args.nt_list:
        for mean_n in grid:
            m = _squeezed_moments(float(mean_n))
            r = math.asinh(math.sqrt(mean_n))
            rows.append(
                (
                    float(mean_n),
                    n_T,
                    cq_min_loss_thermal(m, args.eta, n_T),
                    exact_qfi_squeezed(r, args.eta, n_T),
                )
            )
    csv = _csv_text(("mean_n", "n_T", "cq_min", "exact_qfi"), rows)
    plot = None
    if args.plot:
        clauses = []
        for n_T in args.nt_list:
            tag = _fmt(n_T)
            sel = "($2==%s?$1:1/0)" % tag
            clauses.append(
                "'%s' using %s:3 with lines title 'bound, n_T=%s'" % (args.out, sel, tag)
            )
            clauses.append(
                "'%s' using %s:4 with lines dashtype 2 title 'exact, n_T=%s'"
                % (args.out, sel, tag)
            )
        plot = _plot_text(
            _plot_header("mean photon number", "Fisher information", "xy"), clauses
        )
    return _emit(args, csv, plot)


def cmd_fig2(args):
    r_grid = _lin_grid(args.r_min, args.r_max, args.r_points)
    if args.r_min < 0.0:
        raise UsageError("squeezing grid must be nonnegative")
    dim = oracle_dim(ORACLE_R_MAX, 0.0)

    def oracle_value(r):
        if not args.with_oracle or r > ORACLE_R_MAX:
            return None
        return squeezed_probe_qfi(r, args.eta, 0.0, args.lam, dim=dim, bath_dim=dim)

    rows = []
    for r in r_grid:
        mean_n = math.sinh(float(r)) ** 2
        m = _squeezed_moments(mean_n)
        row = [
            mean_n,
            cq_min_loss_diffusion(m, args.eta, args.lam),
            im_opt_squeezed(float(r), args.eta, args.lam),
        ]
        if args.with_oracle:
            row.append(oracle_value(float(r)))
        rows.append(tuple(row))
    header = ["mean_n", "cq_min", "im_opt"]
    if args.with_oracle:
        header.append("oracle_qfi")
        skipped = sum(1 for r in r_grid if r > ORACLE_R_MAX)
        if skipped:
            print(
                "warning: oracle column left empty for %d rows with r > %g "
                "(beyond the truncation-safe range)" % (skipped, ORACLE_R_MAX),
                file=sys.stderr,
            )
    csv = _csv_text(header, rows)
    plot = None
    if args.plot:
        lines = _plot_header("mean photon number", "Fisher information", "xy")
        lines.append("set datafile missing ''")
        clauses = [
            "'%s' using 1:2 with lines title 'upper bound'" % args.out,
            "'%s' using 1:3 with lines dashtype 2 title 'measurement bound'" % args.out,
        ]
        if args.with_oracle:
            clauses.append("'%s' using 1:4 with points title 'Fock oracle'" % args.out)
        plot = _plot_text(lines, clauses)
    return _emit(args, csv, plot)


def cmd_fig3(args):
    grid = _log_grid(args.n_min, args.n_max, args.n_points)
    for eta in args.eta_list:
        check_eta(eta)
    if not 0.0 < args.tol_rel < 1.0:  # NaN fails too; inf is not below 1
        raise UsageError("--tol-rel must lie in (0, 1)")
    rows = []
    for eta in args.eta_list:
        for flux in grid:
            try:
                (row,) = fig3_curve(eta, [flux], rel_tol=args.tol_rel)
                rows.append((row.flux_N, eta, row.bound, row.beta_star, ""))
            except (AccuracyError, OptimizationError, ValueError) as exc:
                rows.append((float(flux), eta, None, None, str(exc).replace(",", ";")))
    csv = _csv_text(("flux_N", "eta", "mse_bound", "beta_star", "error"), rows)
    plot = None
    if args.plot:
        clauses = []
        for eta in args.eta_list:
            tag = _fmt(eta)
            clauses.append(
                "'%s' using ($2==%s?$1:1/0):3 with lines title 'eta=%s'"
                % (args.out, tag, tag)
            )
        plot = _plot_text(_plot_header("photon flux", "MSE bound", "xy"), clauses)
    return _emit(args, csv, plot)


# ------------------------------------------------------- one-shot reports

# name -> (ordered (key, default) pairs, evaluator); None marks a required key
_BOUND_TABLE = {
    "eq15": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("nT", 0.0)),
        lambda p: cq_min_loss_thermal(
            InputMoments(p["mean_n"], p["var_n"]), p["eta"], p["nT"]
        ),
    ),
    "eq16": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0)),
        lambda p: cq_min_loss_zero_T(InputMoments(p["mean_n"], p["var_n"]), p["eta"]),
    ),
    "eq17": (
        (("r", None), ("eta", 1.0), ("nT", 0.0)),
        lambda p: exact_qfi_squeezed(p["r"], p["eta"], p["nT"]),
    ),
    "eq21": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("lambda", 0.0)),
        lambda p: cq_min_loss_diffusion(
            InputMoments(p["mean_n"], p["var_n"]), p["eta"], p["lambda"]
        ),
    ),
    "eq22": (
        (("mean_n", None), ("var_n", None), ("eta", 1.0), ("nT", 0.0), ("lambda", 0.0)),
        lambda p: phase_variance_bound_full(
            InputMoments(p["mean_n"], p["var_n"]), p["eta"], p["nT"], p["lambda"]
        ),
    ),
    "eq25": (
        (("r", None), ("eta", 1.0), ("lambda", 0.0)),
        lambda p: im_opt_squeezed(p["r"], p["eta"], p["lambda"]),
    ),
}


def _parse_params(tokens, fields, command, counts=()):
    """key=value tokens as floats, keyed as fields, with defaults filled in.

    fields holds ordered (key, default) pairs; a None default marks a key
    the command cannot run without.  Keys named in counts take nonnegative
    integers instead of floats.
    """
    params = dict(fields)
    for tok in tokens:
        if "=" not in tok:
            raise UsageError("expected key=value, got %r" % tok)
        key, _, raw = tok.partition("=")
        if key not in params:
            raise UsageError(
                "unknown parameter %r (valid: %s)" % (key, ", ".join(sorted(params)))
            )
        if key in counts:
            if not raw.isdecimal():  # no sign, point, exponent or nan
                raise UsageError(
                    "parameter %s needs a nonnegative integer, got %r" % (key, raw)
                )
            params[key] = int(raw)
            continue
        try:
            params[key] = float(raw)
        except ValueError:
            raise UsageError("parameter %s needs a number, got %r" % (key, raw))
    for key, value in params.items():
        if value is None:
            raise UsageError("%s requires %s=..." % (command, key))
    return params


def cmd_bound(args):
    if args.name not in _BOUND_TABLE:
        raise UsageError(
            "unknown bound name %r (valid: %s)"
            % (args.name, ", ".join(sorted(_BOUND_TABLE)))
        )
    fields, evaluate = _BOUND_TABLE[args.name]
    params = _parse_params(args.params, fields, "bound " + args.name)
    value = evaluate(params)
    inputs = " ".join("%s=%s" % (key, _fmt(params[key])) for key, _ in fields)
    line = "%s %s value=%s\n" % (args.name, inputs, _fmt(value))
    return _emit(args, line)


# default of an oracle size key: size it automatically (a given size is >= 0)
_AUTO = -1


def cmd_oracle(args):
    fields = (
        ("r", None),
        ("eta", 1.0),
        ("nT", 0.0),
        ("lambda", 0.0),
        ("dim", _AUTO),
        ("bath_dim", _AUTO),
    )
    params = _parse_params(args.params, fields, "oracle", counts=("dim", "bath_dim"))
    dim = params["dim"]
    if dim == _AUTO:
        dim = oracle_dim(params["r"], params["nT"])
    bath_dim = params["bath_dim"]
    if bath_dim == _AUTO:
        bath_dim = dim
    value = squeezed_probe_qfi(
        params["r"], params["eta"], params["nT"], params["lambda"],
        dim=dim, bath_dim=bath_dim,
    )
    line = "oracle r=%s eta=%s nT=%s lambda=%s dim=%d bath_dim=%d value=%s\n" % (
        _fmt(params["r"]),
        _fmt(params["eta"]),
        _fmt(params["nT"]),
        _fmt(params["lambda"]),
        dim,
        bath_dim,
        _fmt(value),
    )
    return _emit(args, line)


# ------------------------------------------------------------- plumbing


def _add_common(parser, plot=False):
    parser.add_argument("--out", help="write CSV/report to this file instead of stdout")
    if plot:
        parser.add_argument(
            "--plot", help="also write a gnuplot script referencing the CSV (needs --out)"
        )


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
    _add_common(p1, plot=True)
    p1.set_defaults(func=cmd_fig1)

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
    _add_common(p2, plot=True)
    p2.set_defaults(func=cmd_fig2)

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
    _add_common(p3, plot=True)
    p3.set_defaults(func=cmd_fig3)

    pb = sub.add_parser("bound", help="evaluate one named bound on explicit parameters")
    pb.add_argument("name", help="one of %s" % "|".join(sorted(_BOUND_TABLE)))
    pb.add_argument("params", nargs="*", help="key=value pairs")
    _add_common(pb)
    pb.set_defaults(func=cmd_bound)

    po = sub.add_parser("oracle", help="brute-force QFI of a lossy squeezed probe")
    po.add_argument("params", nargs="*", help="key=value pairs (r required)")
    _add_common(po)
    po.set_defaults(func=cmd_oracle)

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
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (AccuracyError, OptimizationError, TruncationError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
