"""A sector factor is stored and read as the product it is.

Every charge-sector factor is a product u x v whose row (i, k) lies in
sector offset[i] + k, so hilbert.SectorFactor stores offset, u and v, and
its walk() hands out each input row i with its sector slice. No reader
needs a flat sector table: _traced_out compares the offsets, and the
projection, the norms, the adjoint, the probe and _sector_difference walk
the rows. Only SectorFactor.dense, the oracle, and hilbert._sector_cells,
the writer of d^4 cells, lay the rows out in d-long flat tables. A
subscript or .reshape of a .sector read in channels.py rebuilds the (i, k)
layout from the flat table; a .sector or .values read, a ufunc's .at
scatter, or a bincount or kron over a factor's .sector, .offset, .u or .v
anywhere else in src/eblab builds or sums over one; and an array of d^2
entries stored on a factor undoes the product. This test fails on each.
"""

import ast
from pathlib import Path

import numpy as np

from eblab import ModeWindow, PureVector
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


FLAT_TABLE_BUILDERS = {("SectorFactor", "dense"), (None, "_sector_cells")}


def _called(node):
    """The name of the function a call node calls, if any."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def _builders(tree):
    """The function nodes in FLAT_TABLE_BUILDERS, at module level or in a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and (None, node.name) in FLAT_TABLE_BUILDERS:
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef)
                        and (node.name, f.name) in FLAT_TABLE_BUILDERS)


def flat_table_reads(tree):
    """Line numbers of flat sector-table reads and scatters outside FLAT_TABLE_BUILDERS.

    A read is a .sector or .values attribute that is not called as a
    method, or a bincount or kron whose arguments read a .sector, .offset,
    .u or .v; a scatter is a ufunc's .at call.
    """
    allowed = {id(node) for builder in _builders(tree) for node in ast.walk(builder)}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in ("sector", "values")
                and id(node) not in called) or _called(node) == "at" or (
                _called(node) in ("bincount", "kron") and any(
                    isinstance(n, ast.Attribute) and n.attr in ("sector", "offset", "u", "v")
                    for arg in node.args for n in ast.walk(arg))):
            found.append(node.lineno)
    return sorted(found)


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
    channel = factored_channel(RotationChannel(phi1))
    factors = [channel.stacked.sectors, channel.transposed.sectors, rho12(phi1, phi2).sectors]
    assert all(factor is not None for factor in factors)
    for factor in factors:
        sizes = stored_sizes(factor)
        assert max(sizes.values()) <= 2 * half + 1, sizes
        assert set(sizes) >= {"offset", "u", "v"}
        assert factor.dense().shape == (d * d, factor.width)


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


def test_no_reader_outside_the_oracle_and_the_writer_builds_a_flat_sector_table():
    found = {path.name: flat_table_reads(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_flags_a_flat_table_read_and_a_scatter():
    flagged = """
def rho12_probe(v):
    x = v.values
    np.maximum.at(peak, v.sector, np.abs(x))
    values = np.kron(v.u, v.v)
    np.add.at(out, sector, weights)
    norms = np.bincount(v.offset[:, None] + k, weights, v.width)
class SectorFactor:
    def adjoint(self, w):
        return self.values.conj()
def dense(x):
    return x.sector
"""
    passed = """
class SectorFactor:
    def dense(self):
        x[np.arange(len(x)), self.sector] = self.values
def _sector_cells(x):
    values = np.kron(x.u, x.v)
    counts = np.bincount(x.sector[live], minlength=x.width)
def rho12_probe(v):
    for i, cols, row in v.walk():
        np.maximum(peak[cols], np.abs(row), out=peak[cols])
folded = np.bincount(sector % grid, weights=weights)
v = np.kron(phi1.amplitudes, phi2.amplitudes)
totals = sum(report.values())
"""
    assert flat_table_reads(ast.parse(flagged)) == [3, 4, 4, 5, 6, 7, 10, 12]
    assert flat_table_reads(ast.parse(passed)) == []
