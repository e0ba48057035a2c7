"""One row writer in jsonio, and a rho12 command that never asks for dense entries.

jsonio writes every complex row through one assembly, which fills the gaps
between a row's written cells with cached runs of [0,0]; a second assembly,
or a "%s" row template rebuilt per zero pattern, would be a second writer
to keep byte-identical with the first. The rho12 command writes the state
from its charge sectors and takes its n-sweep on the sector rows, so the
functions on that path read no .entries: that attribute builds the
d^2 x d^2 matrix of a factored state. This test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
ZERO = "[0,0]"
RHO12_PATH = {
    "cli.py": ["cmd_rho12", "_emit"],
    "jsonio.py": ["dump_pieces", "operator_to_json", "window_to_json", "_write_rows",
                  "write_pieces"],
    "hilbert.py": ["_sector_cells", "_gram"],
    "rotation.py": ["rho12", "rho12_n_distance", "_partial_orbit_nodes", "_sector_factor",
                    "_charges", "_orbit"],
}


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def row_assemblies(tree):
    """Functions that write the literal [0,0], or a module constant holding it, themselves."""
    zero_names = {target.id for node in tree.body if isinstance(node, ast.Assign)
                  and any(ZERO in s for s in _strings(node.value))
                  for target in node.targets if isinstance(target, ast.Name)}
    return sorted(name for name, fn in _functions(tree).items()
                  if any(ZERO in s for s in _strings(fn))
                  or any(isinstance(n, ast.Name) and n.id in zero_names for n in ast.walk(fn)))


def _is_tuple(node):
    return isinstance(node, ast.Tuple) or (isinstance(node, ast.Call)
                                           and getattr(node.func, "id", None) == "tuple")


def row_templates(tree):
    """Line numbers of "%s" texts and of % formats that fill a tuple of values into a template."""
    return sorted({n.lineno for n in ast.walk(tree)
                   if (isinstance(n, ast.Constant) and isinstance(n.value, str) and "%s" in n.value)
                   or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                       and _is_tuple(n.right))})


def entries_reads(tree, names):
    """(function, line) of every .entries read in the named functions."""
    functions = _functions(tree)
    return sorted((name, n.lineno) for name in names
                  for n in ast.walk(functions[name])
                  if isinstance(n, ast.Attribute) and n.attr == "entries")


def test_jsonio_has_one_row_assembly_and_no_row_templates():
    tree = _parse("jsonio.py")
    assert row_assemblies(tree) == ["_write_rows"]
    assert row_templates(tree) == []


def test_the_rho12_command_path_reads_no_dense_entries():
    for module, names in RHO12_PATH.items():
        assert entries_reads(_parse(module), names) == [], module


def test_the_guard_flags_the_template_writer_and_a_dense_rho12_path():
    flagged = """
def _write_complex_rows(matrix, pieces):
    template = "[" + ",".join("[%s,%s]" if w else "[0,0]" for w in row) + "]"
    pieces.append(template % tuple(parts))

def _zero_rows(d, pieces):
    pieces.append(ZERO_CELL * d)

ZERO_CELL = "[0,0],"

def operator_to_json(op, extra=None):
    doc = window_to_json(op.window)
    doc["entries"] = op.entries
    return doc
"""
    passed = """
ZERO_CELL = "[0,0],"

def _write_rows(shape, rows, cols, values, pieces):
    texts = ["%.17g" % v for v in values]
    pieces.append(ZERO_CELL * 3 + "[0,0]")

def operator_to_json(op, extra=None):
    doc = window_to_json(op.window)
    doc["entries"] = op
    return doc
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert row_assemblies(flagged_tree) == ["_write_complex_rows", "_zero_rows"]
    assert row_templates(flagged_tree) == [3, 4]
    assert entries_reads(flagged_tree, ["operator_to_json"]) == [("operator_to_json", 13)]
    assert row_assemblies(passed_tree) == ["_write_rows"]
    assert row_templates(passed_tree) == []
    assert entries_reads(passed_tree, ["operator_to_json"]) == []
