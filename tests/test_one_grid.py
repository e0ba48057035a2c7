"""The window fixes the rotation channel's grid, and capacity folds by rotation's charge table.

Every integrand of the rotation channel on [-K, K] has degree at most 4K,
so its quadrature grid follows from K: rotation.grid_nodes is the one place
that writes its 4K + 2 nodes, and RotationChannel takes the fiducial alone.
The capacity optimum folds the mode weights into residue classes of the
charge sectors that rotation hands out; a table of mode indices built in
capacity.py (an arange, or a % on anything but that sector index) would be
a second copy of the symmetry. This test fails on each.
"""

import ast
from pathlib import Path

import pytest

from eblab import RotationChannel, phi_profile

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
SECTOR_INDEX = "_sector_index"


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _called(node):
    """The name of the function a call node calls, if any."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def grid_arguments(tree):
    """Parameters of RotationChannel.__init__ past self and phi, by name."""
    return [arg.arg
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and cls.name == "RotationChannel"
            for init in cls.body if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for arg in (init.args.posonlyargs + init.args.args + init.args.kwonlyargs
                        + [a for a in (init.args.vararg, init.args.kwarg) if a])[2:]]


def residue_tables(tree):
    """Line numbers of the arange calls and of the % not taken on rotation's sector index."""
    sectors = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and _called(node.value) == SECTOR_INDEX
               for target in node.targets if isinstance(target, ast.Name)}

    def on_sectors(left):
        return _called(left) == SECTOR_INDEX or (isinstance(left, ast.Name) and left.id in sectors)

    return sorted({node.lineno for node in ast.walk(tree)
                   if _called(node) == "arange"
                   or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                       and not on_sectors(node.left))})


def _is_constant(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def grid_sizes(tree):
    """Line numbers of the expressions 4 * K + 2."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and _is_constant(node.right, 2) and isinstance(node.left, ast.BinOp)
                  and isinstance(node.left.op, ast.Mult) and _is_constant(node.left.left, 4))


def test_rotation_channel_takes_the_fiducial_alone():
    assert grid_arguments(_parse("rotation.py")) == []
    phi = phi_profile("geometric(0.5)", 2)
    assert RotationChannel(phi).quadrature_nodes == 4 * 2 + 2
    with pytest.raises(TypeError):
        RotationChannel(phi, 9)


def test_capacity_builds_no_residue_table_of_its_own():
    assert residue_tables(_parse("capacity.py")) == []


def test_the_grid_size_is_written_once_in_rotation():
    found = {path.name: grid_sizes(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: len(lines) for name, lines in found.items() if lines} == {"rotation.py": 1}


def test_the_guard_flags_a_grid_knob_a_residue_table_and_a_restated_size():
    flagged = """
class RotationChannel:
    def __init__(self, phi, quadrature_nodes=None):
        nodes = 4 * half + 2 if quadrature_nodes is None else int(quadrature_nodes)
folded = np.bincount(np.arange(len(weights)) % grid, weights=weights)
classes = modes % grid
span = np.arange(d)
d, nodes = 2 * half + 1, 4 * half + 2
"""
    passed = """
class RotationChannel:
    def __init__(self, phi):
        self._phi = phi
sector = _sector_index(_charges(channel.window))
folded = np.bincount(sector % min(grid, sector.size), weights=weights)
direct = _sector_index(charge) % grid
columns = 4 * (4 * half + 1) + nodes
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert grid_arguments(flagged_tree) == ["quadrature_nodes"]
    assert residue_tables(flagged_tree) == [5, 6, 7]
    assert grid_sizes(flagged_tree) == [4, 8]
    assert grid_arguments(passed_tree) == []
    assert residue_tables(passed_tree) == []
    assert grid_sizes(passed_tree) == []
