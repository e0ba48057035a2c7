"""Every array eblab keeps is made read-only in one place, hilbert._owned.

_owned holds the one copy rule: a public constructor copies what its caller
hands in, once, and freezes only its copy; an array eblab has just made is
frozen where it is. A setflags call anywhere else, or an assignment to an
array's flags.writeable, would bring back a second rule: a caller's array
frozen in place, or an array eblab made copied before it is kept. This test
fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
HELPER = "_owned"


def _freezes(node):
    """Whether node is a setflags call or an assignment to a writeable flag."""
    if isinstance(node, ast.Call):
        return "setflags" in {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(target, ast.Attribute) and target.attr == "writeable"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target]))


def stray_freezes(tree):
    """Line numbers of the freezes outside the helper's body."""
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == HELPER
              for node in ast.walk(function)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if _freezes(node) and id(node) not in inside)


def test_only_the_helper_makes_an_array_read_only():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    assert {name: lines for name, tree in trees.items() if (lines := stray_freezes(tree))} == {}
    helpers = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == HELPER]
    assert len(helpers) == 1 and any(map(_freezes, ast.walk(helpers[0])))
    assert "_frozen" not in {node.name for node in ast.walk(trees["channels.py"])
                             if isinstance(node, ast.FunctionDef)}


def test_the_guard_flags_an_inline_freeze():
    flagged = """
class SeparableChoiDecomposition:
    def __init__(self, target, weights, lefts, rights):
        for array in (weights, lefts, rights):
            array.setflags(write=False)
def _frozen(arrays):
    x.setflags(write=False)
    np.ndarray.setflags(m, write=False)
    m.flags.writeable = False
"""
    passed = """
def _owned(x, dtype=None, copy=True):
    '''This is the one place setflags is called.'''
    a = np.array(x, dtype=dtype) if copy else np.asarray(x, dtype=dtype)
    a.setflags(write=False)
    return a
assert not entries.flags.writeable
weights = _owned(weights, float)
"""
    assert stray_freezes(ast.parse(flagged)) == [5, 7, 8, 9]
    assert stray_freezes(ast.parse(passed)) == []
