"""The benchmark harness can still load every varqfi name it uses.

bench/workloads.py imports from the varqfi modules inside its methods and
bench/tracer.py rebinds the (module, attribute) pairs of its _REBINDS table,
so a deleted or renamed name makes a benchmark run exit nonzero without any
output being wrong.  Both files are parsed and read here, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _varqfi_imports():
    """(module, name) for each `from varqfi[.X] import name` in the workloads."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted(
        {
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "varqfi"
            for alias in node.names
        }
    )


def _rebinds():
    """The (module, attribute) pairs of the tracer's _REBINDS table."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [target.id for target in node.targets] == ["_REBINDS"]
    ]
    return [tuple(ast.literal_eval(row)[:2]) for row in table.elts]


IMPORTS = _varqfi_imports()
REBINDS = _rebinds()


def test_bench_names_are_found():
    # a parse that finds nothing would leave the tests below with no cases
    assert len(IMPORTS) >= 10 and len(REBINDS) >= 10


@pytest.mark.parametrize("module, name", IMPORTS, ids=["%s.%s" % p for p in IMPORTS])
def test_workload_imports_exist(module, name):
    # fromlist loads a submodule the way `from varqfi import channels` does
    assert hasattr(__import__(module, fromlist=[name]), name)


@pytest.mark.parametrize("module, attr", REBINDS, ids=["%s.%s" % p for p in REBINDS])
def test_tracer_rebinds_exist(module, attr):
    assert hasattr(importlib.import_module(module), attr)
