"""The package's import graph: what each module loads, and that it uses it.

The closed forms and the Fock oracle must stay two independent routes, so
importing one may not load the other.  Each module is imported in a fresh
interpreter and the varqfi modules it loaded are compared with the exact set
it needs.  The source is also read for imported names that are never used,
for private names one module imports from another, and for functools
caches without a fixed bound or made anywhere but at module level; the
public callables' defaulted parameters are pinned.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# module imported -> every varqfi submodule that import may load
CLOSURE = {
    "varqfi": set(),
    "varqfi.bounds": {"bounds", "numerics"},
    "varqfi.waveform": {"waveform", "numerics"},
    "varqfi.qfi_oracle": {"qfi_oracle", "channels", "fock_core", "numerics"},
}


@pytest.mark.parametrize("module", sorted(CLOSURE))
def test_import_loads_only_what_the_module_needs(module):
    code = (
        "import sys, %s\n"
        "print(' '.join(sorted(name[7:] for name in sys.modules"
        " if name.startswith('varqfi.'))))" % module
    )
    path = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == CLOSURE[module]


def _unused_imports(tree):
    """Names an import statement binds that no expression in tree reads."""
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_import_finder_sees_one():
    source = "import os, sys\nfrom typing import Callable as C, List\nsys.exit(List)"
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["C", "os"]


MODULES = sorted((SRC / "varqfi").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _cache_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _cache_sizes(tree):
    """The maxsize of each functools cache made in tree, None where unbounded.

    None also stands for a maxsize left to the default or not given as a
    positive integer literal.
    """
    funcs = set()
    sizes = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _cache_name(node.func) == "lru_cache":
            funcs.add(id(node.func))
            args = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args
            size = args[0].value if args and isinstance(args[0], ast.Constant) else None
            sizes.append(size if type(size) is int and size > 0 else None)
    for node in ast.walk(tree):
        if _cache_name(node) in ("cache", "lru_cache") and id(node) not in funcs:
            sizes.append(None)
    return sizes


def _is_cache(node):
    while isinstance(node, ast.Call):  # lru_cache(...) and lru_cache(...)(f)
        node = node.func
    return _cache_name(node) in ("cache", "lru_cache")


def _cached_names(tree):
    """The name each module-level functools cache in tree is bound to: a def or an assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names += [node.name for d in node.decorator_list if _is_cache(d)]
        elif isinstance(node, ast.Assign) and _is_cache(node.value):
            names += [t.id for t in node.targets]
    return names


def _self_filling_classes(tree):
    """The classes in tree that define __missing__, a dict that fills itself on lookup."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "__missing__" for item in node.body)
    ]


def test_cache_finder_sees_each_form():
    source = (
        "@functools.cache\ndef f(): pass\n@lru_cache\ndef g(): pass\n"
        "h = functools.lru_cache(maxsize=None)(h)\nk = lru_cache(4)(k)\n"
        "@functools.lru_cache(maxsize=0)\ndef m(): pass\n"
        "def outer():\n    @functools.lru_cache(maxsize=8)\n    def inner(): pass\n"
        "class T(dict):\n    def __missing__(self, key): pass\n"
    )
    tree = ast.parse(source)
    assert sorted(_cache_sizes(tree), key=str) == [4, 8, None, None, None, None]
    assert sorted(_cached_names(tree)) == ["f", "g", "h", "k", "m"]
    assert _self_filling_classes(tree) == ["T"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_a_fixed_bound(path):
    # an unbounded cache keeps every key a long run passes it for the life of
    # the process; the bench resets caches between passes, not within one
    assert None not in _cache_sizes(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_a_module_level_function(path):
    # a cache made inside a function, or a dict that fills itself, is out of
    # reach of cache_info() and of the bench's reset, which clears what the
    # module's namespace holds
    tree = ast.parse(path.read_text())
    assert len(_cached_names(tree)) == len(_cache_sizes(tree))
    assert _self_filling_classes(tree) == []


PACKAGE_CACHES = [
    "fock_core._sector_basis",
    "fock_core._sector_block",
    "numerics._panel_nodes",
    "numerics._tail_map",
    "waveform._spectra",
    "waveform._terms",
]


def test_the_package_caches_are_found():
    # the caches test_bench_imports has the bench's reset empty; a finder
    # that sees none would pass the tests above everywhere
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    found = sorted(f"{stem}.{name}" for stem, tree in trees.items() for name in _cached_names(tree))
    assert found == PACKAGE_CACHES
    assert sum(len(_cache_sizes(tree)) for tree in trees.values()) == len(PACKAGE_CACHES)


def _private_imports(stem, tree):
    """'importer: module._name' for each private name tree imports from a varqfi module."""
    return [
        "%s: %s.%s" % (stem, (node.module or "").split(".")[-1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("varqfi"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_names_cross_modules_only_where_listed():
    # a private name is its module's own policy (a cache's bound, a memo
    # class); another module importing it couples the two, as waveform's
    # spectral memo once did through numerics
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    found = sorted(name for stem, tree in trees.items() for name in _private_imports(stem, tree))
    assert found == []


# each defaulted parameter of the library's public callables (a class's
# constructor), as module.callable:parameter=default: a new knob has to be
# added here on purpose, as test_option_surface_is_pinned does for the CLI
_LIBRARY_KNOBS = [
    "fock_core.TruncationError:suggested_dim=None",
    "numerics.AccuracyError:best=nan",
    "numerics.AccuracyError:err_estimate=inf",
    "numerics.OptimizationError:best_x=None",
    "numerics.OptimizationError:best_value=nan",
    "numerics.integrate:rel_tol=1e-08",
    "numerics.integrate_semi_infinite:rel_tol=1e-08",
    "numerics.loglog_slope:window=None",
    "qfi_oracle.squeezed_probe_qfi:n_T=0.0",
    "qfi_oracle.squeezed_probe_qfi:lam=0.0",
    "qfi_oracle.squeezed_probe_qfi:dim=None",
    "qfi_oracle.squeezed_probe_qfi:bath_dim=None",
    "waveform.PriorSpectrum:lambda_c=0.0",
    "waveform.mse_bound:rel_tol=1e-10",
    "waveform.mse_bound_optimized:rel_tol=1e-10",
    "waveform.fig3_curve:rel_tol=1e-08",
]


def test_library_knobs_are_pinned():
    # the CLI's own surface, main(argv=None) included, is pinned in test_cli
    knobs = []
    for path in MODULES:
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module("varqfi." + path.stem)
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    knobs.append("%s.%s:%s=%r" % (path.stem, name, param.name, param.default))
    assert knobs == _LIBRARY_KNOBS
    assert len(knobs) == 16
