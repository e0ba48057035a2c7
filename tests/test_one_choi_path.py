"""A Choi state takes one path per reference, and the size guard one charge per --sigma.

ChoiState solves its reference itself and keeps a congruence that would be
dense unformed, so nothing outside it needs the reference's eigensystem or
the Choi factors' size ahead of time. An eigensystem parameter of choi or
ChoiState.__init__ would let a caller hand in a second solve; a name of
channels.reference_eigensystem in cli.py would let the front end choose a
path and a charge beside ChoiState's own; a second parameter of
cli._phi_report_entries would let the guard charge --sigma files
differently again. ChoiState keeps every factored channel's congruence
unformed, under every reference: a call of rows or _monomial_rows in
ChoiState.__init__ would bring back a second factored form (the channel's
sector factor with its rows moved), and a SectorFactor.rows method or a
node_phases slot or constructor argument would keep what only that copy
needed. This test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _function(node, name):
    return next(child for child in ast.walk(node)
                if isinstance(child, ast.FunctionDef) and child.name == name)


def parameters(function):
    args = function.args
    return [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a]]


def _class(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == name)


def choi_parameters(tree):
    """The parameter names of choi and of ChoiState.__init__."""
    return (parameters(_function(tree, "choi")),
            parameters(_function(_class(tree, "ChoiState"), "__init__")))


def row_moves(tree):
    """Line numbers of the calls of rows or _monomial_rows in ChoiState.__init__."""
    init = _function(_class(tree, "ChoiState"), "__init__")
    return sorted(node.lineno for node in ast.walk(init) if isinstance(node, ast.Call)
                  and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                  & {"rows", "_monomial_rows"})


def copy_members(tree):
    """SectorFactor's rows method, node_phases slot and node_phases constructor argument, if any."""
    cls = _class(tree, "SectorFactor")
    slots = [ast.literal_eval(node.value) for node in cls.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "__slots__" for target in node.targets)]
    return sorted({f"def {node.name}" for node in cls.body
                   if isinstance(node, ast.FunctionDef) and node.name == "rows"}
                  | {f"slot {name}" for names in slots for name in names if name == "node_phases"}
                  | {f"argument {name}" for name in parameters(_function(cls, "__init__"))
                     if name == "node_phases"})


def names_read(tree, name):
    """Line numbers where tree names name, as a name, an attribute or an import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name)
                  or (isinstance(node, ast.ImportFrom)
                      and any(alias.name == name for alias in node.names)))


def test_choi_and_choi_state_take_no_eigensystem():
    assert choi_parameters(_parse("channels.py")) == (["channel", "sigma"],
                                                      ["self", "channel", "reference"])


def test_the_cli_never_names_reference_eigensystem():
    assert names_read(_parse("cli.py"), "reference_eigensystem") == []


def test_the_phi_charge_takes_only_the_half_width():
    assert parameters(_function(_parse("cli.py"), "_phi_report_entries")) == ["half"]


def test_choi_state_moves_no_rows_and_sector_factors_carry_no_copy_fields():
    assert row_moves(_parse("channels.py")) == []
    assert copy_members(_parse("hilbert.py")) == []


def test_the_guard_flags_a_row_move_and_the_fields_a_copy_needs():
    flagged = """
class SectorFactor:
    __slots__ = ("offset", "u", "v", "width", "first", "node_phases")
    def __init__(self, offset, u, v, width, first, node_phases):
        pass
    def rows(self, source, scale):
        return SectorFactor(self.offset[source], scale * self.u[source])
class ChoiState(StateOperator):
    def __init__(self, channel, reference):
        source = _monomial_rows(basis.T)
        def congruence(op):
            return op.sectors.rows(source, w[source, np.arange(d_in)])
"""
    passed = """
class SectorFactor:
    __slots__ = ("offset", "u", "v", "width", "first")
    def __init__(self, offset, u, v, width, first):
        pass
    @staticmethod
    def node_phases(n, charges):
        return roots[np.outer(charges, j) % n]
class ChoiState(StateOperator):
    def __init__(self, channel, reference):
        x, y = (op.factor if op.sectors is None else op.sectors for op in channels)
        _init_factored(self, window, _Congruence(basis, lam, x))
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert row_moves(flagged_tree) == [10, 12]
    assert copy_members(flagged_tree) == ["argument node_phases", "def rows", "slot node_phases"]
    assert row_moves(passed_tree) == []
    assert copy_members(passed_tree) == []


def test_the_guard_flags_an_eigensystem_a_second_path_and_a_second_charge():
    flagged = """
from .channels import reference_eigensystem
def choi(channel, sigma, eigensystem=None):
    return ChoiState(channel, sigma, eigensystem)
class ChoiState(StateOperator):
    def __init__(self, channel, reference, eigensystem=None):
        lam, basis, source = eigensystem or reference_eigensystem(reference)
def _phi_report_entries(half, by_sectors=True):
    eigensystem = ch.reference_eigensystem(sigma)
"""
    passed = """
def choi(channel, sigma):
    return ChoiState(channel, sigma)
class ChoiState(StateOperator):
    def __init__(self, channel, reference):
        lam, basis = eig_hermitian(reference)
def _phi_report_entries(half):
    return 23 * d * d
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert choi_parameters(flagged_tree) == (["channel", "sigma", "eigensystem"],
                                             ["self", "channel", "reference", "eigensystem"])
    assert names_read(flagged_tree, "reference_eigensystem") == [2, 7, 9]
    assert parameters(_function(flagged_tree, "_phi_report_entries")) == ["half", "by_sectors"]
    assert choi_parameters(passed_tree) == (["channel", "sigma"], ["self", "channel", "reference"])
    assert names_read(passed_tree, "reference_eigensystem") == []
    assert parameters(_function(passed_tree, "_phi_report_entries")) == ["half"]
