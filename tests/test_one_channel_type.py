"""No stage of eblab asks which kind of channel it holds, or takes S^(T_out) apart from S.

ChannelBlocks is the one channel type. Whether its stacked matrix S and
its output partial transpose are dense or factored is asked of the operator
(op.factor) and nowhere else. A second channel class, a separate factor
attribute for the partial transpose, or an isinstance test against
ChannelBlocks would bring back a per-kind dispatch. A factored channel is
built from one factor of S, and from_factors derives the factor of
S^(T_out): a transposed_factor parameter, or the probe screen
(_generic_unit_columns) that checked a second factor against the first,
would bring back an input that can disagree with S. This test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
RETIRED = {"FactoredChannel", "pt_factor", "transposed_factor", "_generic_unit_columns"}


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


def _is_channel_isinstance(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and "ChannelBlocks" in {_identifier(n) for n in ast.walk(node.args[1])})


def channel_kind_checks(tree):
    """Line numbers of the retired names and of the isinstance tests against ChannelBlocks."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if _identifier(node) in RETIRED or _is_channel_isinstance(node)})


def factor_parameters(tree):
    """The parameter names of every from_factors in tree."""
    return [[arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
             + [a for a in (node.args.vararg, node.args.kwarg) if a]]
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "from_factors"]


def test_no_stage_asks_which_kind_of_channel_it_holds():
    found = {path.name: channel_kind_checks(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert not {name: lines for name, lines in found.items() if lines}


def test_from_factors_takes_one_factor():
    path = SRC / "channels.py"
    assert factor_parameters(ast.parse(path.read_text(), str(path))) == [
        ["cls", "in_window", "out_window", "factor"]]


def test_the_guard_flags_a_channel_kind_check():
    flagged = """
from .channels import FactoredChannel
if isinstance(channel, ChannelBlocks):
    low = channel.pt_factor
pt = getattr(state, "pt_factor", None)
factored = isinstance(channel, (channels.ChannelBlocks, StateOperator))
def pt_factor(self):
    pass
def from_factors(cls, in_window, out_window, factor, transposed_factor):
    a, b = (_generic_unit_columns(n) for n in (d_in, d_out))
"""
    passed = """
from .channels import ChannelBlocks
low = lowest_eigenvalue(channel.stacked)
if channel.stacked.factor is None:
    pass
if isinstance(op, StateOperator):
    pass
'''A FactoredChannel is gone; pt_factor is the transposed factor.'''
def from_factors(cls, in_window, out_window, factor):
    transposed = _mirrored(x, out_window.k_min) if sectors else _khatri_rao(a, b.conj())
"""
    assert channel_kind_checks(ast.parse(flagged)) == [2, 3, 4, 5, 6, 7, 9, 10]
    assert channel_kind_checks(ast.parse(passed)) == []
    assert factor_parameters(ast.parse(flagged)) == [
        ["cls", "in_window", "out_window", "factor", "transposed_factor"]]
    assert factor_parameters(ast.parse(passed)) == [["cls", "in_window", "out_window", "factor"]]
