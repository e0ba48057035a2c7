"""Every tolerance check raises through the gate in eblab.hilbert, never inline.

The gate (_at_most, _at_least) compares, lets NaN fail closed and names the
quantity, its value and its bound. An `if` that compares against a tolerance
name and raises InvariantViolationError itself would bring back a check with
its own comparison and message; this test fails on one.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
TOLERANCE = re.compile(r"^(EPS_\w+|\w+_TOL|\w+_SLACK|\w+_CLIP|tol|povm_tol)$")


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _compares_a_tolerance(test):
    return any(isinstance(n, ast.Compare) and any(map(TOLERANCE.match, _names(n)))
               for n in ast.walk(test))


def _raises_invariant_violation(body):
    raises = [n.exc for stmt in body for n in ast.walk(stmt)
              if isinstance(n, ast.Raise) and n.exc is not None]
    return any("InvariantViolationError" in _names(exc.func if isinstance(exc, ast.Call) else exc)
               for exc in raises)


def inline_checks(tree):
    """Line numbers of the ifs that compare a tolerance and raise InvariantViolationError."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.If) and _compares_a_tolerance(node.test)
            and _raises_invariant_violation(node.body)]


def test_no_tolerance_check_bypasses_the_gate():
    found = {path.name: inline_checks(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert not {name: lines for name, lines in found.items() if lines}


def test_the_guard_flags_an_inline_check():
    flagged = """
if not defect <= EPS_HERM:
    raise InvariantViolationError(f"not Hermitian: {defect}")
if lam[-1] < channels.CHOI_RANK_TOL:
    raise errors.InvariantViolationError("rank deficient")
if low < -DENSITY_CLIP:
    raise InvariantViolationError
if not abs(total - 1.0) <= tol:
    if total:
        raise InvariantViolationError("weights")
"""
    passed = """
if nodes < 4 * half + 1:
    raise InvariantViolationError("not exact")
if not residual <= EXTRACT_TOL:
    raise ExtractionInconsistentError("disagrees", residual)
if np.sqrt(residual.max()) > EPS_RANGE:
    return 0.0
"""
    assert inline_checks(ast.parse(flagged)) == [2, 4, 6, 8]
    assert inline_checks(ast.parse(passed)) == []
