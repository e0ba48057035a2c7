"""A state is its checked entries: StateOperator.__init__ has one path.

It symmetrizes, gates the trace and the minimum eigenvalue, and stores.
A second pass that clips the spectrum and rebuilds V diag(l) V^dag leaves
a result that is positive only up to round-off and rewrites entries the
gates accepted; it needs an eigh or a clip inside __init__, or a helper
that hands the minimum eigenvalue back to it. This test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
REBUILD = {"eigh", "clip"}


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def rebuild_calls(tree):
    """Line numbers of the eigh and clip calls inside StateOperator.__init__."""
    return sorted(node.lineno
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  and cls.name == "StateOperator"
                  for init in cls.body if isinstance(init, ast.FunctionDef)
                  and init.name == "__init__"
                  for node in ast.walk(init) if isinstance(node, ast.Call)
                  and (node.func.id if isinstance(node.func, ast.Name)
                       else getattr(node.func, "attr", None)) in REBUILD)


def defines(tree, name):
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)


def test_state_init_neither_eigensolves_nor_clips():
    tree = _parse("hilbert.py")
    assert any(isinstance(node, ast.ClassDef) and node.name == "StateOperator"
               for node in tree.body)
    assert rebuild_calls(tree) == []


def test_hilbert_has_no_checked_state_helper():
    assert not defines(_parse("hilbert.py"), "_checked_state")


def test_the_guard_flags_the_clip_and_rebuild_pass():
    flagged = """
class StateOperator(MatrixOperator):
    def __init__(self, window, entries):
        m, low = _checked_state(np.array(entries, dtype=complex))
        if low < 0.0:
            vals, vecs = np.linalg.eigh(m)
            vals = np.clip(vals, 0.0, None)
            m = (vecs * vals) @ vecs.conj().T
        super().__init__(window, m)


def _checked_state(m):
    return m, min_eigenvalue(m)
"""
    passed = """
class StateOperator(MatrixOperator):
    def __init__(self, window, entries):
        m = _hermitian_part(np.array(entries, dtype=complex), "state")
        _at_least(min_eigenvalue(m), -EPS_PSD, "state not positive: min eigenvalue")
        super().__init__(window, m)


def eig_hermitian(op):
    return np.linalg.eigh(op.entries)
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert rebuild_calls(flagged_tree) == [6, 7]
    assert defines(flagged_tree, "_checked_state")
    assert rebuild_calls(passed_tree) == []
    assert not defines(passed_tree, "_checked_state")
