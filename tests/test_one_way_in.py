"""One way in for eblab's own arrays: an operator eblab makes adopts its array, uncopied.

The public MatrixOperator(window, entries) copies a caller's entries once.
An operator built from an array eblab has just made (a Kronecker product, a
partial trace, a channel's action, a channel block written to JSON, a parsed
table) goes in through hilbert._adopt, which keeps the array as it is. A
call of the public constructor anywhere in src/eblab/, directly or as the
callable handed to jsonio._built, would copy such an array a second time;
the guard below fails on each, and the traced peaks hold each output once.

The partial trace over the output of a sector factor u x v is one closed
form, (u u^dag) o [offset_i = offset_j] |v|^2, whatever its offsets; it is
checked against the dense oracle, and from_factors refuses a factor whose
offsets repeat with the defect the oracle gives.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    InvariantViolationError,
    ModeWindow,
    RotationChannel,
    StateOperator,
    apply_matrix,
    channel_blocks,
    phi_profile,
    tensor,
)
from eblab import jsonio
from eblab.channels import _traced_out
from eblab.hilbert import SectorFactor
from conftest import random_density
from oracles import partial_trace_loops

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
PUBLIC = "MatrixOperator"


def _names(node):
    return {getattr(node, "id", None), getattr(node, "attr", None)}


def public_constructions(tree):
    """Line numbers of the calls of MatrixOperator(...) and of _built(context, MatrixOperator, ...)."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        PUBLIC in _names(node.func)
        or ("_built" in _names(node.func) and len(node.args) > 1 and PUBLIC in _names(node.args[1]))))


def test_no_function_in_eblab_calls_the_public_operator_constructor():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) > 5
    assert {name: lines for name, tree in trees.items()
            if (lines := public_constructions(tree))} == {}


def test_the_guard_flags_a_public_construction():
    flagged = """
def tensor(a, b):
    return MatrixOperator(ProductWindow(a.window, b.window), np.kron(a.entries, b.entries))
def operator_from_json(raw, context):
    return _built(context, MatrixOperator, window, entries)
def apply_matrix(channel, op):
    return hilbert.MatrixOperator(channel.out_window, out)
"""
    passed = """
def tensor(a, b):
    return _adopt(MatrixOperator, ProductWindow(a.window, b.window), np.kron(a.entries, b.entries))
def operator_from_json(raw, context):
    return _built(context, _adopt, MatrixOperator, window, entries)
def factored_operator(window, factor):
    return _init_factored(MatrixOperator, window, factor, copy=True)
isinstance(obj, MatrixOperator)
MatrixOperator.__new__(MatrixOperator)
"""
    assert public_constructions(ast.parse(flagged)) == [3, 5, 7]
    assert public_constructions(ast.parse(passed)) == []


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def dense_block_channel(half):
    channel = RotationChannel(phi_profile("geometric(0.7)", half))
    return ChannelBlocks(channel.phi.window, channel.phi.window, channel_blocks(channel).blocks)


def test_an_adopted_output_is_held_once():
    # at the parent each output was copied once more by the public constructor:
    # tensor traced 2.00 times its output, apply_matrix 2.10 times
    rng, window = np.random.default_rng(3), ModeWindow.symmetric(10)
    a, b = (StateOperator(window, random_density(rng, 21)) for _ in range(2))
    peak, product = traced_peak(lambda: tensor(a, b))
    assert peak <= 1.1 * product.entries.nbytes, peak / product.entries.nbytes
    channel = dense_block_channel(10)
    peak, out = traced_peak(lambda: apply_matrix(channel, a))
    assert peak <= 1.3 * out.entries.nbytes, peak / out.entries.nbytes


def test_a_channel_document_keeps_its_blocks_as_views():
    # at the parent each block was copied into its own operator: 1.06 copies of S
    channel = dense_block_channel(10)
    stacked = channel.stacked.entries
    peak, doc = traced_peak(lambda: jsonio.channel_to_json(channel))
    assert peak <= 0.1 * stacked.nbytes, peak / stacked.nbytes
    block = doc["blocks"][1][2]["entries"].entries
    assert not block.flags.writeable and np.shares_memory(block, stacked)


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def sector_factor(rng, d_in, d_out, offsets):
    """A SectorFactor of unit-norm u and v with the given offsets."""
    u, v = complex_normal(rng, d_in), complex_normal(rng, d_out)
    return SectorFactor(np.array(offsets), u / np.linalg.norm(u), v / np.linalg.norm(v), 0)


def dense_traced_out(x):
    """Tr_out of the dense X X^dag, by the index loops of the oracle."""
    s = x.dense() @ x.dense().conj().T
    return partial_trace_loops(s, len(x.u), len(x.v), "second")


@pytest.mark.parametrize("seed", range(8))
def test_the_traced_out_closed_form_is_the_dense_partial_trace(seed):
    rng = np.random.default_rng(seed)
    d_in, d_out = (int(d) for d in rng.integers(1, 7, size=2))
    offsets = rng.integers(0, max(1, d_in // 2), size=d_in)  # repeats among them
    for x in (sector_factor(rng, d_in, d_out, offsets),
              sector_factor(rng, d_in, d_out, rng.permutation(3 * d_in)[:d_in])):
        assert np.abs(_traced_out(x, d_in) - dense_traced_out(x)).max() <= 1e-14


def test_from_factors_refuses_repeated_offsets_with_the_dense_defect():
    # |u_i| |v| = 1, so Tr_out S = I exactly when the offsets are distinct; two rows of
    # one offset share their sectors and put u_0 conj(u_2) off the diagonal
    rng = np.random.default_rng(11)
    d_in, d_out = 4, 3
    v = complex_normal(rng, d_out)
    u, v = np.exp(2j * np.pi * rng.random(d_in)), v / np.linalg.norm(v)
    windows = ModeWindow(0, d_in - 1), ModeWindow(0, d_out - 1)
    ChannelBlocks.from_factors(*windows, SectorFactor(np.array([0, 2, 3, 1]), u, v, 0))
    x = SectorFactor(np.array([0, 2, 0, 1]), u, v, 0)
    defect = float(np.abs(dense_traced_out(x) - np.eye(d_in)).max())
    assert abs(defect - 1.0) < 1e-12
    with pytest.raises(InvariantViolationError) as info:
        ChannelBlocks.from_factors(*windows, x)
    assert str(info.value) == f"factor not trace preserving: max |Tr_out S - I| = {defect:.3e} > 1e-10"
