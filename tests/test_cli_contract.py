"""The CLI's exit contract, swept over argvs drawn from its own parser.

Exit 0 means every printed value is finite or a sentinel a docstring
promises; exit 2 (misuse) and exit 3 (numerical failure) print one line on
stderr; nothing else escapes main.  The options come from build_parser()
and the report keys from the tables the bound and oracle parsers carry, so
a new option or key joins the sweep without an edit here.  --out and
--plot are left out: their paths have tests of their own, and the sweep
writes no files.  Options are passed as --flag=value, so argparse takes
"-inf" as a value and never refuses one (its own refusals, usage text
and all, are tested in test_cli.py).
"""

import argparse
import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from varqfi.cli import build_parser, main

# the edges of float range and of each parameter's domain, then any float
EXTREME = st.sampled_from([
    0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.1, 0.5, 1.0, 2.0, 178.0, 355.0, 1e8,
    1e154, 1e200, 1e308, math.inf, -math.inf, math.nan, -1.0,
]) | st.floats()

# the report values a docstring promises may be +inf: the reciprocal bounds'
# noise-limited ceiling at infinite var_n, and the eq22 floor wherever the
# matching QFI bound is 0 (phase_variance_bound_full)
INF_SENTINELS = {
    "eq15": lambda p: p.get("var_n") == "inf",
    "eq16": lambda p: p.get("var_n") == "inf",
    "eq21": lambda p: p.get("var_n") == "inf",
    "eq22": lambda p: True,
}

COMMANDS = next(
    action.choices for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)


def _option_token(action):
    """Strategy for the token that sets one figure option."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return st.just(flag)
    if action.type is int:  # grid sizes: at most 3 points
        values = st.integers(-1, 3).map(str)
    elif action.type is float:
        values = EXTREME.map(repr)
    else:  # a comma-separated list of one or two values
        values = st.lists(EXTREME, min_size=1, max_size=2).map(
            lambda xs: ",".join(map(repr, xs))
        )
    return values.map(lambda text: "%s=%s" % (flag, text))


def _figure_argv(name):
    options = [
        _option_token(action)
        for action in COMMANDS[name]._actions
        if action.option_strings and action.dest not in ("help", "out", "plot")
    ]
    picked = st.lists(st.sampled_from(options), unique=True).flatmap(
        lambda chosen: st.tuples(*chosen)
    )
    return picked.map(lambda tokens: [name, *tokens])


def _report_argv(command, name, fields):
    def value(default):
        if isinstance(default, int):  # register sizes, up to 1e12
            return st.integers(0, 10**12).map(str)
        return EXTREME.map(repr)

    # a formula's required keys are always given, so most argvs reach it
    params = st.fixed_dictionaries(
        {key: value(default) for key, default in fields if default is None},
        optional={key: value(default) for key, default in fields if default is not None},
    )
    head = [command] if command == "oracle" else [command, name]
    return params.map(lambda p: head + ["%s=%s" % kv for kv in p.items()])


def _argvs():
    strategies = [_figure_argv(name) for name in ("fig1", "fig2", "fig3")]
    for command in ("bound", "oracle"):
        table = COMMANDS[command].get_default("table")
        strategies += [
            _report_argv(command, name, fields) for name, (fields, _) in table.items()
        ]
    return st.one_of(*strategies)


def _values(argv, out):
    """(value text, inf allowed) for each value the output reports."""
    if argv[0] in ("bound", "oracle"):
        name = "oracle" if argv[0] == "oracle" else argv[1]
        params = dict(tok.split("=", 1) for tok in argv[1:] if "=" in tok)
        allowed = INF_SENTINELS.get(name, lambda p: False)(params)
        return [(out.rsplit("value=", 1)[1].strip(), allowed)]
    lines = out.splitlines()
    header = lines[0].split(",")
    return [
        (cell, False)
        for line in lines[1:]
        for column, cell in zip(header, line.split(","))
        if column != "error" and cell != ""
    ]


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_exit_codes_keep_their_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert len(err.splitlines()) == 1, (argv, err)
        return
    for text, inf_allowed in _values(argv, out):
        value = float(text)
        assert not math.isnan(value), (argv, out)
        assert math.isfinite(value) or (value == math.inf and inf_allowed), (argv, out)
