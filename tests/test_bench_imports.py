"""The benchmark harness can still load every varqfi name it uses.

bench/workloads.py imports from the varqfi modules inside its methods and
bench/tracer.py rebinds the (module, attribute) pairs of its _REBINDS table,
so a deleted or renamed name makes a benchmark run exit nonzero without any
output being wrong.  Both files are parsed and read here, never imported.
bench/worker.py's reset, which empties the program's caches between passes,
is run from the file's source text.
"""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from test_imports import PACKAGE_CACHES
from varqfi import fock_core, qfi_oracle, waveform

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


def test_tracer_reads_the_arguments_it_expects():
    # the tracer reads some arguments by position: _block_key keys a
    # beam-splitter call on args[0], args[2] and args[3], and the
    # DensityMatrix span's argument is the instance's .dim; a changed
    # signature would break only a traced benchmark run
    params = list(inspect.signature(fock_core.beam_splitter_apply).parameters)
    assert params[:4] == ["theta", "joint_vec", "dim_a", "dim_b"]
    assert "dim" in [field.name for field in dataclasses.fields(fock_core.DensityMatrix)]
    assert fock_core.DensityMatrix(2, np.eye(2) / 2.0).dim == 2
    source = (BENCH / "tracer.py").read_text()
    assert "key = (args[0], args[2], args[3])" in source
    assert "arg_of=lambda args: args[0].dim" in source


def test_bench_reset_empties_the_spectral_memo():
    # each pass starts cold, as a fresh CLI does, only if reset reaches every
    # functools cache in src/, the six test_imports lists
    path = BENCH / "worker.py"
    worker = {"__name__": "bench_worker"}
    exec(compile(path.read_text(), str(path), "exec"), worker)
    caches = [
        getattr(importlib.import_module("varqfi." + module), name)
        for module, name in (cache.split(".") for cache in PACKAGE_CACHES)
    ]
    prior, model = waveform.PriorSpectrum(1.0, 2.0, 1.0), waveform.OpoSpectrumModel(16.0, 2.0)
    waveform.mse_bound(prior, model, waveform.SpectralCqParams(0.95, -3.0), rel_tol=1e-8)
    qfi_oracle.squeezed_probe_qfi(0.3, 0.8)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    worker["reset"](types.SimpleNamespace(warm_up=lambda: None))
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
