"""A chain makes one comparison, chosen in one place, and its per-sector projection is written once.

channels._difference_norms compares a Khatri-Rao factor with an operator
and reads how that operator is stored (op.sectors) to pick the per-sector
bound or the QR; a sectors parameter beside op would let a caller choose
a second time. SeparableChoiDecomposition.__init__ makes the chain's one
comparison, of the extraction's vectors with the channel's stacked
matrix, never with the Choi target, whose trace distance follows by
congruence; eb_extract reads its result and compares nothing, so the Choi
target's representation steers no comparison. The per-sector
projection c_s = <x_s, w_s> / |x_s|^2 lives in SectorFactor.projection,
the one np.divide(..., where=...) of the package. rotation.rho12_probe
reads rho12's sector factor, and rotation.rho12_n_distance the one of the
rho12 state it is handed, instead of building their own charge table or
a flat product (np.kron; the probe forms its candidate row by row), and
the n-sweep's grid is sized
by that factor's sector count, not by the fiducials' windows. A
decomposition is built from its arrays alone, (target, weights, lefts,
rights), and read as them: no from_vectors, no atoms view of PureVector
triples, no hilbert._unit_vector to build them, and no SectorFactor.adjoint
that nothing reads.
channels._sector_difference reads K's columns demodulated, as a sector
factor plus round-off, so it has no loop (K's rows are never walked) and
conjugates no orbit basis (the width x n node basis it once sliced). This
test fails on each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"


def _parse(name):
    path = SRC / name
    return ast.parse(path.read_text(), str(path))


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called(node):
    """The name of the function a call node calls, if any."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def parameters(tree, name):
    """The parameter names of the function name."""
    return _arguments(_function(tree, name))


def _arguments(function):
    args = function.args
    return [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a]]


def target_sector_reads(tree):
    """Line numbers in eb_extract of the .sectors reads of an expression naming the target."""
    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    return sorted(node.lineno for node in ast.walk(_function(tree, "eb_extract"))
                  if isinstance(node, ast.Attribute) and node.attr == "sectors"
                  and "target" in names(node.value))


def _class(tree, cls):
    return next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == cls)


def _method(tree, cls, name):
    return _function(_class(tree, cls), name)


def methods(tree, cls):
    """The names of the functions defined in the body of class cls."""
    return [node.name for node in _class(tree, cls).body if isinstance(node, ast.FunctionDef)]


RETIRED = ("_unit_vector", "adjoint")


def retired_names(tree):
    """Line numbers of the definitions, imports, names and attributes spelled as a RETIRED name."""
    def name(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
            return node.name
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    return sorted(node.lineno for node in ast.walk(tree) if name(node) in RETIRED)


def comparisons(node):
    """The _difference_norms calls under node, each as the source of its arguments."""
    return [[ast.unparse(arg) for arg in call.args] for call in ast.walk(node)
            if _called(call) == "_difference_norms"]


def extraction_work(tree):
    """The calls in eb_extract that compare or form the extraction's vectors."""
    return sorted(call for call in map(_called, ast.walk(_function(tree, "eb_extract")))
                  if call in ("_difference_norms", "_basis_product"))


def on_the_channel(arguments):
    """Whether a comparison's operand is the channel's stacked matrix and no argument is the target."""
    return ("channel.stacked" in arguments[-1]
            and not any(text.split(".")[-1] in ("target", "_target") for text in arguments))


def guarded_divides(tree):
    """Line numbers of the calls np.divide(..., where=...)."""
    return sorted(node.lineno for node in ast.walk(tree) if _called(node) == "divide"
                  and any(keyword.arg == "where" for keyword in node.keywords))


def own_sector_tables(tree, name):
    """Calls in name that rebuild rho12's sectors or a product flat: charge tables and krons."""
    calls = [_called(node) for node in ast.walk(_function(tree, name))]
    return sorted(call for call in calls if call in ("_charges", "_sector_index", "kron"))


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def row_walks(tree, name):
    """Line numbers of the loops in name and of its conjugations of an orbit_basis(...) call."""
    function = _function(tree, name)
    loops = [node.lineno for node in ast.walk(function) if isinstance(node, LOOPS)]
    conjugated = [node.lineno for node in ast.walk(function) if _called(node) in ("conj", "conjugate")
                  and any(_called(inner) == "orbit_basis" for inner in ast.walk(node))]
    return sorted(loops + conjugated)


def test_the_sector_difference_walks_no_row_and_conjugates_no_orbit_basis():
    assert row_walks(_parse("channels.py"), "_sector_difference") == []


def test_the_row_walk_guard_flags_a_loop_and_a_conjugated_basis():
    flagged = """
def _sector_difference(left, right, x):
    conj_basis = np.conjugate(x.orbit_basis(n), order="C")
    along = x.orbit_basis(n).conj()
    for i, cols, _ in x.walk():
        leak += 1.0
    total = sum(row @ row for row in left)
"""
    passed = """
def _sector_difference(left, right, x):
    a = x.node_phases(n, -x.offset)
    a *= left
    v = np.einsum("i,ig->g", a_mean.conj(), a)
    a2, _, r2 = x.projection(lambda i, cols, row: share.u[i] * share.v, lambda i, cols, row: row)
def elsewhere(x):
    for step in x.walk():
        np.conjugate(x.orbit_basis(n))
"""
    assert row_walks(ast.parse(flagged), "_sector_difference") == [3, 4, 5, 7]
    assert row_walks(ast.parse(passed), "_sector_difference") == []


def test_difference_norms_reads_the_path_off_the_operator():
    assert parameters(_parse("channels.py"), "_difference_norms") == ["left", "right", "op"]


def test_eb_extract_does_not_consult_its_target():
    assert target_sector_reads(_parse("channels.py")) == []


def test_eb_extract_compares_nothing():
    assert extraction_work(_parse("channels.py")) == []


def test_the_decomposition_makes_the_one_comparison_with_the_channel():
    found = comparisons(_method(_parse("channels.py"), "SeparableChoiDecomposition", "__init__"))
    assert len(found) == 1 and on_the_channel(found[0]), found


def test_a_decomposition_is_built_and_read_as_its_arrays():
    tree = _parse("channels.py")
    assert _arguments(_method(tree, "SeparableChoiDecomposition", "__init__")) == [
        "self", "target", "weights", "lefts", "rights"]
    assert {"from_vectors", "atoms"} & set(methods(tree, "SeparableChoiDecomposition")) == set()


def test_no_retired_name_is_left_in_eblab():
    found = {path.name: retired_names(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_a_chain_runs_one_comparison(monkeypatch):
    # a rotation channel (sector path) and an atoms file's channel (QR path), each under a
    # non-diagonal sigma, through the decomposition and the extraction
    import numpy as np
    from eblab import (RotationChannel, StateOperator, channels, choi, eb_extract,
                       factored_channel, holevo_channel, holevo_form, phi_profile,
                       separable_choi_from_holevo)
    calls, real = [], channels._difference_norms
    monkeypatch.setattr(channels, "_difference_norms",
                        lambda *args: calls.append(args[-1]) or real(*args))
    rotation = RotationChannel(phi_profile("geometric(0.7)", 2))
    form = holevo_form(rotation)
    sigma = StateOperator(rotation.window, np.diag(np.arange(1.0, 6.0)) / 15 + 0.01 * np.eye(5, k=1)
                          + 0.01 * np.eye(5, k=-1))
    for channel in (factored_channel(rotation), holevo_channel(form)):
        calls.clear()
        eb_extract(separable_choi_from_holevo(form, choi(channel, sigma)))
        assert calls == [channel.stacked]


def test_the_per_sector_projection_is_written_once():
    found = {path.name: guarded_divides(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 5
    assert {name: len(lines) for name, lines in found.items() if lines} == {"hilbert.py": 1}


def test_rho12_probe_reads_rho12s_sectors():
    assert own_sector_tables(_parse("rotation.py"), "rho12_probe") == []


def test_the_n_sweep_reads_rho12s_sectors_and_sizes_its_grid_by_them():
    tree = _parse("rotation.py")
    assert own_sector_tables(tree, "rho12_n_distance") == []
    assert parameters(tree, "_partial_orbit_nodes") == ["sectors", "n"]


def test_the_guard_flags_a_second_choice_a_second_projection_and_a_second_table():
    flagged = """
def _difference_norms(left, right, op, sectors):
    pass
def eb_extract(decomposition):
    target = decomposition.target
    sectors = channel.stacked.sectors if target.sectors is not None else None
    other = decomposition.target.sectors
    residual, _ = _difference_norms(_basis_product(b, lefts, counts), rights, channel.stacked)
class SeparableChoiDecomposition:
    def __init__(self, target, atoms):
        _difference_norms(lefts, rights, target)
        _difference_norms(povm.conj(), rights, target.channel.stacked)
    @classmethod
    def from_vectors(cls, target, weights, lefts, rights):
        pass
    @property
    def atoms(self):
        return tuple(_unit_vector(window.left, phi) for phi in self._lefts.T)
def rho12_probe(phi1, phi2, alpha, beta):
    sector = _sector_index(_charges(ProductWindow(phi1.window, phi2.window)))
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    w = np.kron(alpha.amplitudes, beta.amplitudes)
coeff = np.divide(overlap, weight, out=np.zeros_like(overlap), where=weight > 0.0)
c = np.divide(overlap, a2, out=np.zeros_like(overlap), where=a2 > 0.0)
def rho12_n_distance(phi1, phi2, n):
    charge = _charges(ProductWindow(phi1.window, phi2.window))
    amplitude = np.abs(np.kron(phi1.amplitudes, phi2.amplitudes))
    weight = np.sqrt(np.bincount(_sector_index(charge), amplitude ** 2))
def _partial_orbit_nodes(phi1, phi2, n):
    half = max(phi1.window.k_max, phi2.window.k_max)
from .hilbert import _unit_vector
def adjoint(w):
    return x.adjoint(w)
"""
    passed = """
def _difference_norms(left, right, op):
    sectors = op.sectors
def eb_extract(decomposition):
    target = decomposition.target
    residual = decomposition._residual
class SeparableChoiDecomposition:
    def __init__(self, target, weights, lefts, rights):
        self._residual, trace = _difference_norms(povm.conj(), rights, target.channel.stacked)
    @property
    def weights(self):
        return self._weights
def rho12_probe(phi1, phi2, alpha, beta):
    v = rho12(phi1, phi2).sectors
    a, b = alpha.amplitudes, beta.amplitudes
    _, coeff, residual = v.projection(lambda i, cols, row: row, lambda i, cols, row: a[i] * b)
scaled = np.divide(a, b)
def rho12_n_distance(state, n):
    v = state.sectors
    weight = np.sqrt(v.norms())
def _partial_orbit_nodes(sectors, n):
    return int(np.ceil(max(sectors, 32) / n))
from .hilbert import _unit_columns
def adjoints(x):
    return x.self_adjoint
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert parameters(flagged_tree, "_difference_norms") == ["left", "right", "op", "sectors"]
    assert target_sector_reads(flagged_tree) == [6, 7]
    assert guarded_divides(flagged_tree) == [23, 24]
    assert extraction_work(flagged_tree) == ["_basis_product", "_difference_norms"]
    assert [on_the_channel(arguments) for arguments in comparisons(
        _method(flagged_tree, "SeparableChoiDecomposition", "__init__"))] == [False, True]
    assert own_sector_tables(flagged_tree, "rho12_probe") == [
        "_charges", "_sector_index", "kron", "kron"]
    assert own_sector_tables(flagged_tree, "rho12_n_distance") == [
        "_charges", "_sector_index", "kron"]
    assert parameters(flagged_tree, "_partial_orbit_nodes") == ["phi1", "phi2", "n"]
    assert _arguments(_method(flagged_tree, "SeparableChoiDecomposition", "__init__")) == [
        "self", "target", "atoms"]
    assert methods(flagged_tree, "SeparableChoiDecomposition") == ["__init__", "from_vectors", "atoms"]
    assert retired_names(flagged_tree) == [18, 31, 32, 33]
    assert parameters(passed_tree, "_difference_norms") == ["left", "right", "op"]
    assert target_sector_reads(passed_tree) == []
    assert guarded_divides(passed_tree) == []
    assert extraction_work(passed_tree) == []
    assert [on_the_channel(arguments) for arguments in comparisons(
        _method(passed_tree, "SeparableChoiDecomposition", "__init__"))] == [True]
    assert own_sector_tables(passed_tree, "rho12_probe") == []
    assert own_sector_tables(passed_tree, "rho12_n_distance") == []
    assert parameters(passed_tree, "_partial_orbit_nodes") == ["sectors", "n"]
    assert _arguments(_method(passed_tree, "SeparableChoiDecomposition", "__init__")) == [
        "self", "target", "weights", "lefts", "rights"]
    assert methods(passed_tree, "SeparableChoiDecomposition") == ["__init__", "weights"]
    assert retired_names(passed_tree) == []
