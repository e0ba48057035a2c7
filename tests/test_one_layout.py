"""A sector factor is stored as the product it is, and channels reads its layout off it.

Every charge-sector factor is a product u x v whose row (i, k) lies in
sector offset[i] + k, so hilbert.SectorFactor stores offset, u and v and
builds the flat sector and values arrays only when they are read.
channels then needs no flat sector table: _traced_out compares the
offsets, ChoiState moves input rows, and _sector_difference slices the
node basis at offset[i]. A subscript or .reshape of a .sector read in
channels.py rebuilds the (i, k) layout from the flat table, and an array
of d^2 entries stored on a factor undoes the product. This test fails on
each.
"""

import ast
from pathlib import Path

import numpy as np

from eblab import ModeWindow, PureVector, StateOperator
from eblab.channels import choi
from eblab.rotation import RotationChannel, factored_channel, rho12

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"


def _is_sector_read(node):
    return isinstance(node, ast.Attribute) and node.attr == "sector"


def flat_layout_reads(tree):
    """Line numbers of the subscripts and .reshape calls of a .sector read."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Subscript) and _is_sector_read(node.value))
                  or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "reshape" and _is_sector_read(node.func.value)))


def stored_sizes(factor):
    """{field: size} of the arrays a sector factor stores."""
    return {name: getattr(factor, name).size for name in type(factor).__slots__
            if isinstance(getattr(factor, name), np.ndarray)}


def test_channels_reads_no_flat_sector_layout():
    path = SRC / "channels.py"
    assert flat_layout_reads(ast.parse(path.read_text(), str(path))) == []


def test_no_sector_factor_stores_more_than_a_window():
    half = 8
    rng = np.random.default_rng(8)
    window = ModeWindow.symmetric(half)
    d = window.dimension
    phi1, phi2 = (PureVector(window, rng.normal(size=d) + 1j * rng.normal(size=d))
                  for _ in range(2))
    weights = rng.random(d) + 0.1
    channel = factored_channel(RotationChannel(phi1))
    state = choi(channel, StateOperator(window, np.diag(weights / weights.sum())))
    factors = [channel.stacked.sectors, channel.transposed.sectors, state.sectors,
               state.transposed.sectors, rho12(phi1, phi2).sectors]
    assert all(factor is not None for factor in factors)
    for factor in factors:
        sizes = stored_sizes(factor)
        assert max(sizes.values()) <= 2 * half + 1, sizes
        assert set(sizes) >= {"offset", "u", "v"}
        assert factor.sector.size == factor.values.size == d * d


def test_the_guard_flags_a_flat_layout_read():
    flagged = """
sector = x.sector.reshape(d_in, -1)
np.take(conj_basis, x.sector[rows], axis=0)
"""
    passed = """
sector = x.sector
norms = np.bincount(x.sector, weights, x.width)
along = conj_basis[first:first + d_out]
"""
    assert flat_layout_reads(ast.parse(flagged)) == [2, 3]
    assert flat_layout_reads(ast.parse(passed)) == []
