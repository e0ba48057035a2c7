"""Rank one is a property of the Kraus type, and one pairing feeds every column-pair factor.

HolevoForm is the rank-one Kraus type: it keeps its vectors f_n and g_n,
so no stage of eblab re-proves rank one with a singular value
decomposition. A call to svd, or the return of the retired per-loop
pairing helpers, the rank tolerance they needed, or the second rank-one
type with its action and converter, would bring back a second path; this
test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
RETIRED = {"_kraus_columns", "_column_branches", "KRAUS_RANK_TOL",
           "KrausRankOne", "kraus_apply", "kraus_rank_one"}


def _identifier(node):
    """The name a node binds or reads, if any; a string constant counts (getattr probes)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.alias)):
        return node.name
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_svd_call(node):
    return isinstance(node, ast.Call) and _identifier(node.func) == "svd"


def rank_one_checks(tree):
    """Line numbers of the retired names and of the calls to svd."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if _identifier(node) in RETIRED or _is_svd_call(node)})


def test_no_stage_re_proves_rank_one():
    found = {path.name: rank_one_checks(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert not {name: lines for name, lines in found.items() if lines}


def test_the_guard_flags_an_svd_and_the_retired_names():
    flagged = """
singular = np.linalg.svd(a, compute_uv=False)
_at_most(s[1], KRAUS_RANK_TOL, "rank > 1")
for column in _kraus_columns(form, conjugate_output=True):
    pass
def _column_branches(factor):
    pass
u, s, vh = svd(a)
class KrausRankOne:
    pass
out = kraus_apply(kraus_rank_one(form), rho)
from eblab import kraus_rank_one
"""
    passed = """
f, g = form.inputs, form.outputs
factor = _khatri_rao(f.conj(), g)
svd_free = True
out = holevo_apply(form, rho)
operators = form.operators
'''_kraus_columns, KRAUS_RANK_TOL and KrausRankOne are gone.'''
"""
    assert rank_one_checks(ast.parse(flagged)) == [2, 3, 4, 6, 8, 9, 11, 12]
    assert rank_one_checks(ast.parse(passed)) == []
