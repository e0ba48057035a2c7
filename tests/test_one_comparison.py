"""The sector comparison is chosen in one place, and its per-sector projection is written once.

channels._difference_norms compares a Khatri-Rao factor with an operator
and reads how that operator is stored (op.sectors) to pick the per-sector
bound or the QR; a sectors parameter beside op would let a caller choose
a second time. eb_extract compares with the channel's stacked matrix, so
the Choi target's representation must not steer it. The per-sector
projection c_s = <x_s, w_s> / |x_s|^2 lives in SectorFactor.projection,
the one np.divide(..., where=...) of the package. rotation.rho12_probe
reads rho12's sector factor, and rotation.rho12_n_distance the one of the
rho12 state it is handed, instead of building their own charge table and
fiducial product, and the n-sweep's grid is sized
by that factor's sector count, not by the fiducials' windows. This test
fails on each.
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
    args = _function(tree, name).args
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


def guarded_divides(tree):
    """Line numbers of the calls np.divide(..., where=...)."""
    return sorted(node.lineno for node in ast.walk(tree) if _called(node) == "divide"
                  and any(keyword.arg == "where" for keyword in node.keywords))


OWN_KRONS = {"rho12_probe": 1, "rho12_n_distance": 0}  # rho12_probe's one is the candidate's


def own_sector_tables(tree, name):
    """Calls in name that rebuild rho12's sectors: charge tables, and krons past its own."""
    calls = [_called(node) for node in ast.walk(_function(tree, name))]
    tables = sorted(call for call in calls if call in ("_charges", "_sector_index"))
    return tables + ["kron"] * max(0, calls.count("kron") - OWN_KRONS[name])


def test_difference_norms_reads_the_path_off_the_operator():
    assert parameters(_parse("channels.py"), "_difference_norms") == ["left", "right", "op"]


def test_eb_extract_does_not_consult_its_target():
    assert target_sector_reads(_parse("channels.py")) == []


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
"""
    passed = """
def _difference_norms(left, right, op):
    sectors = op.sectors
def eb_extract(decomposition):
    target = decomposition.target
    residual, _ = _difference_norms(left, right, target.channel.stacked)
def rho12_probe(phi1, phi2, alpha, beta):
    v = rho12(phi1, phi2).sectors
    _, coeff, residual = v.projection(v.values, np.kron(alpha.amplitudes, beta.amplitudes))
scaled = np.divide(a, b)
def rho12_n_distance(state, n):
    v = state.sectors
    weight = np.sqrt(np.bincount(v.sector, np.abs(v.values) ** 2, v.width))
def _partial_orbit_nodes(sectors, n):
    return int(np.ceil(max(sectors, 32) / n))
"""
    flagged_tree, passed_tree = ast.parse(flagged), ast.parse(passed)
    assert parameters(flagged_tree, "_difference_norms") == ["left", "right", "op", "sectors"]
    assert target_sector_reads(flagged_tree) == [6, 7]
    assert guarded_divides(flagged_tree) == [12, 13]
    assert own_sector_tables(flagged_tree, "rho12_probe") == ["_charges", "_sector_index", "kron"]
    assert own_sector_tables(flagged_tree, "rho12_n_distance") == [
        "_charges", "_sector_index", "kron"]
    assert parameters(flagged_tree, "_partial_orbit_nodes") == ["phi1", "phi2", "n"]
    assert parameters(passed_tree, "_difference_norms") == ["left", "right", "op"]
    assert target_sector_reads(passed_tree) == []
    assert guarded_divides(passed_tree) == []
    assert own_sector_tables(passed_tree, "rho12_probe") == []
    assert own_sector_tables(passed_tree, "rho12_n_distance") == []
    assert parameters(passed_tree, "_partial_orbit_nodes") == ["sectors", "n"]
