"""The package's import graph: what each module loads, and that it uses it.

The closed forms and the Fock oracle must stay two independent routes, so
importing one may not load the other.  Each module is imported in a fresh
interpreter and the varqfi modules it loaded are compared with the exact set
it needs.  The source is also read for imported names that are never used,
and for functools caches without a fixed bound.
"""

import ast
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


def test_cache_finder_sees_each_form():
    source = (
        "@functools.cache\ndef f(): pass\n@lru_cache\ndef g(): pass\n"
        "h = functools.lru_cache(maxsize=None)(h)\nk = lru_cache(4)(k)\n"
        "@functools.lru_cache(maxsize=0)\ndef m(): pass\n"
    )
    assert sorted(_cache_sizes(ast.parse(source)), key=str) == [4, None, None, None, None]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_a_fixed_bound(path):
    # an unbounded cache keeps every key a long run passes it for the life of
    # the process; the bench resets caches between passes, not within one
    assert None not in _cache_sizes(ast.parse(path.read_text()))


def test_the_package_caches_are_found():
    # waveform._spectra, fock_core._sectors and _sector_basis, the caches that
    # test_bench_imports has the bench's reset empty; a finder that sees none
    # would pass the test above everywhere
    assert sum(len(_cache_sizes(ast.parse(p.read_text()))) for p in MODULES) == 3
