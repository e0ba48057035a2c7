"""A Choi state takes one path per reference, and the size guard one charge per --sigma.

ChoiState solves its reference itself and keeps a congruence that would be
dense unformed, so nothing outside it needs the reference's eigensystem or
the Choi factors' size ahead of time. An eigensystem parameter of choi or
ChoiState.__init__ would let a caller hand in a second solve; a name of
channels.reference_eigensystem in cli.py would let the front end choose a
path and a charge beside ChoiState's own; a second parameter of
cli._phi_report_entries would let the guard charge --sigma files
differently again. This test fails on each.
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


def choi_parameters(tree):
    """The parameter names of choi and of ChoiState.__init__."""
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "ChoiState")
    return parameters(_function(tree, "choi")), parameters(_function(cls, "__init__"))


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
