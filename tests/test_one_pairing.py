"""A Holevo form is paired once: it stores its rank-one Kraus pairs, and every reader takes them.

HolevoForm pairs each atom's factors once, f over F_b outer and g over G_b
inner, when inputs or outputs is first read, and keeps the pairs. A helper that
re-derives the pairing from per-atom column counts (_kraus_vectors over
_counts) would be a second path to the same vectors, and a counts
parameter on _basis_product would split its product by atom again. A
state's split is scaled to unit trace where its dropped mass is gated
(channels._factored), so no later trace gate takes a dropped allowance.
This test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
RETIRED = {"_kraus_vectors", "_counts"}
PARAMETERS = {"_basis_product": ["m", "vectors"]}
NO_DROPPED = ("factored_state", "_init_factored")


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


def retired_names(tree):
    """Line numbers of the retired names."""
    return sorted({node.lineno for node in ast.walk(tree) if _identifier(node) in RETIRED})


def parameters(tree):
    """{function name: its parameter names} for every function defined in tree."""
    return {node.name: [arg.arg for arg in node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs + [a for a in (node.args.vararg, node.args.kwarg) if a]]
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def pairing_faults(tree):
    """The retired names' lines, a _basis_product not of (m, vectors), and each dropped parameter."""
    found = parameters(tree)
    return (retired_names(tree),
            [name for name, expected in PARAMETERS.items()
             if name in found and found[name] != expected],
            [name for name in NO_DROPPED if "dropped" in found.get(name, [])])


def test_the_form_is_paired_once():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    assert {name: faults for name, tree in trees.items()
            if any(faults := pairing_faults(tree))} == {}
    assert parameters(trees["channels.py"])["_basis_product"] == ["m", "vectors"]
    assert {"factored_state", "_init_factored"} <= parameters(trees["hilbert.py"]).keys()


def test_the_guard_flags_a_second_pairing_and_a_dropped_allowance():
    flagged = """
def _kraus_vectors(form, inputs=None):
    p, q = form._counts
def _basis_product(m, vectors, counts):
    return np.hstack([m @ block for block in np.split(vectors, counts)])
def factored_state(window, factor, dropped=0.0):
    pass
def _init_factored(op, window, factor, dropped=0.0):
    pass
f, g = _kraus_vectors(form, form.inputs.conj())
"""
    passed = """
def _basis_product(m, vectors):
    return m @ vectors
def factored_state(window, factor):
    pass
def _init_factored(op, window, factor):
    pass
f, g = form.inputs.conj(), form.outputs
'''_kraus_vectors and _counts are gone.'''
"""
    assert pairing_faults(ast.parse(flagged)) == (
        [2, 3, 10], ["_basis_product"], ["factored_state", "_init_factored"])
    assert pairing_faults(ast.parse(passed)) == ([], [], [])
