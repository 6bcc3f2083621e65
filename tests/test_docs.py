"""The runnable parts of the documentation: the demos and the README's examples."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from varqfi.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_examples():
    """Each `$ varqfi ...` line of the README with the output lines under it."""
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ varqfi "):
            shown = []
            for out in lines[i + 1 :]:
                if not out or out.startswith("```"):
                    break
                shown.append(out)
            examples.append((shlex.split(line[2:])[1:], shown))
    return examples


def _readme_python_blocks():
    """The body of each ```python block of the README."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    return [block.split("```", 1)[0] for block in blocks]


EXAMPLES = _readme_examples()
PYTHON_BLOCKS = _readme_python_blocks()


def test_examples_are_found():
    # a parse that finds nothing would leave the tests below with no cases
    assert DEMOS and len(EXAMPLES) == 2 and len(PYTHON_BLOCKS) == 1


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(argv, shown, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_python_blocks_run():
    # the library sketch names real import paths and calls that succeed
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})
