"""The process entry, cli.run, is the one place that changes how the interpreter exits.

run freezes the garbage collector once main has returned, so the
collections at exit skip the objects the imports left behind. main and the
library run in-process under tests, tracers and library users, so they
leave the collector alone, and nothing calls os._exit, which would skip
the flush of buffered stdout and the atexit handlers. This test fails on a
use of gc.freeze, gc.disable or os._exit outside cli.run, and on a console
script that does not enter through cli.run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eblab"
EXIT_CHANGING = {("gc", "freeze"), ("gc", "disable"), ("os", "_exit")}


def exit_changing_uses(tree):
    """(enclosing function, 'module.name') for each use or import of an exit-changing function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                    and (child.value.id, child.attr) in EXIT_CHANGING):
                found.append((function, f"{child.value.id}.{child.attr}"))
            if isinstance(child, ast.ImportFrom):
                found.extend((function, f"{child.module}.{alias.name}") for alias in child.names
                             if (child.module, alias.name) in EXIT_CHANGING)
            visit(child, function)

    visit(tree, None)
    return found


def test_only_cli_run_freezes_the_collector():
    found = [(path.name, *use) for path in sorted(SRC.glob("*.py"))
             for use in exit_changing_uses(ast.parse(path.read_text(), str(path)))]
    assert found == [("cli.py", "run", "gc.freeze")]


def test_the_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"] == {"eblab": "eblab.cli:run"}


def test_the_guard_flags_every_exit_changing_use():
    flagged = """
import gc, os
from gc import disable
gc.disable()
def main(argv=None):
    os._exit(0)
class Entry:
    def stop(self):
        freeze = gc.freeze
"""
    assert exit_changing_uses(ast.parse(flagged)) == [
        (None, "gc.disable"), (None, "gc.disable"), ("main", "os._exit"), ("stop", "gc.freeze")]
    passed = """
import gc
gc.collect()
gc.isenabled()
os.exit = None
sys.exit(run())
"""
    assert exit_changing_uses(ast.parse(passed)) == []
