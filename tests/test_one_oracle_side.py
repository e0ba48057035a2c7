"""The example maps and the dense block helpers live on the test side.

The identity, constant, transposition and dephasing maps and the dense
block family of a Holevo form are test fixtures (tests/conftest.py, from
tests/oracles.py's map_blocks): no CLI path reaches them, so eblab neither
defines nor exports them. The demos show the factored path, so they name
none of those fixtures and none of the dense helpers that only tests and
the benchmark's spans still reach. This test fails on each.
"""

import ast
from pathlib import Path

import eblab

ROOT = Path(__file__).resolve().parents[1]
RETIRED = {"blocks_from_holevo", "identity_channel", "constant_channel", "transpose_channel",
           "dephasing_channel"}
DENSE = RETIRED | {"channel_blocks", "rho12_n", "product_bound_probe", "from_map"}


def definitions(tree, names):
    """Line numbers of the functions, classes and assignments that bind one of names."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            continue
        if bound & names:
            lines.add(node.lineno)
    return sorted(lines)


def mentions(tree, names):
    """Line numbers of the names, attributes, imports and definitions that name one of names."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and node.id in names)
                   or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and node.name in names)
                   or (isinstance(node, ast.Attribute) and node.attr in names)
                   or (isinstance(node, ast.alias) and node.name.split(".")[-1] in names)})


def test_eblab_exports_no_example_map():
    assert not RETIRED & set(dir(eblab))


def test_no_module_of_eblab_defines_an_example_map():
    found = {path.name: definitions(ast.parse(path.read_text(), str(path)), RETIRED)
             for path in sorted((ROOT / "src" / "eblab").glob("*.py"))}
    assert len(found) > 5
    assert not {name: lines for name, lines in found.items() if lines}


def test_no_demo_names_a_dense_helper():
    found = {path.name: mentions(ast.parse(path.read_text(), str(path)), DENSE)
             for path in sorted((ROOT / "demos").glob("*.py"))}
    assert len(found) >= 5
    assert not {name: lines for name, lines in found.items() if lines}


def test_the_guard_flags_a_dense_helper():
    flagged = """
def identity_channel(window):
    return ChannelBlocks.from_map(lambda m: m, window, window)
transpose_channel = lambda w: None
from eblab import rho12_n
d = trace_norm_distance(rotation.rho12_n(phi, phi, 2), product)
eps = product_bound_probe(state, e0, e0)
import eblab.channel_blocks
"""
    passed = """
identity = ChannelBlocks(w, w, np.einsum("ik,jl->ijkl", eye, eye))
d = rho12_n_distance(rho12(phi, phi), 2)
eps = rho12_probe(phi, phi, e0, e0)
'''identity_channel and from_map are test fixtures.'''
def transposition(window):
    return factored_channel(channel)
"""
    assert definitions(ast.parse(flagged), RETIRED) == [2, 4]
    assert mentions(ast.parse(flagged), DENSE) == [2, 3, 4, 5, 6, 7, 8]
    assert definitions(ast.parse(passed), RETIRED) == []
    assert mentions(ast.parse(passed), DENSE) == []
