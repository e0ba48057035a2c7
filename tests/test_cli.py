import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eblab import (
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    jsonio,
    phi_profile,
    rotation,
)
from eblab.cli import main
from eblab.errors import SchemaError
from conftest import identity_channel, random_density, random_pure, transpose_channel
from oracles import per_cell_json


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "eblab", *args],
                          capture_output=True, text=True)


def write_state(path, rho):
    jsonio.write_text(str(path), jsonio.dumps(jsonio.operator_to_json(rho)))


def diagonal_state(half, *probs):
    return StateOperator(ModeWindow.symmetric(half), np.diag(probs))


def test_channel_apply_diagonal_input(tmp_path):
    state = tmp_path / "state.json"
    out = tmp_path / "out.json"
    write_state(state, diagonal_state(1, 0.2, 0.5, 0.3))
    code = main(["channel-apply", "--k", "1", "--phi", "two-mode",
                 "--state", str(state), "--out", str(out)])
    assert code == 0
    doc = jsonio.read_json(out)
    result = jsonio.state_from_json(doc)
    diag = np.diag(result.entries).real
    assert np.allclose(diag, [0.0, 0.5, 0.5], atol=1e-12)
    assert doc["metadata"]["method"] == "closed_form"
    assert doc["metadata"]["agreement_residual"] < 1e-12


def test_channel_apply_plus_state(tmp_path):
    phi = phi_profile("two-mode", 1)
    state = tmp_path / "state.json"
    out = tmp_path / "out.json"
    write_state(state, phi.projector())
    assert main(["channel-apply", "--k", "1", "--phi", "two-mode",
                 "--state", str(state), "--out", str(out)]) == 0
    result = jsonio.state_from_json(jsonio.read_json(out))
    k0 = result.window.index(0)
    block = result.entries[k0:k0 + 2, k0:k0 + 2]
    assert np.abs(block - np.array([[0.5, 0.25], [0.25, 0.5]])).max() < 1e-12


def test_channel_apply_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["channel-apply", "--k", "1", "--phi", "two-mode",
                 "--state", str(bad)]) == 2


def test_channel_apply_invalid_state_exits_3(tmp_path):
    bad = tmp_path / "bad_state.json"
    doc = {"k_min": -1, "k_max": 1,
           "entries": [[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [0.4, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [0.0, 0.0], [-0.3, 0.0]]]}
    jsonio.write_text(str(bad), jsonio.dumps(doc))
    assert main(["channel-apply", "--k", "1", "--phi", "two-mode",
                 "--state", str(bad)]) == 3


def test_channel_apply_unknown_profile_exits_2(tmp_path):
    state = tmp_path / "state.json"
    write_state(state, diagonal_state(1, 0.2, 0.5, 0.3))
    assert main(["channel-apply", "--k", "1", "--phi", "nonsense",
                 "--state", str(state)]) == 2


def test_eb_report_identity_channel(tmp_path):
    chan_file = tmp_path / "identity.json"
    out = tmp_path / "report.json"
    jsonio.write_text(str(chan_file),
                      jsonio.dumps(jsonio.channel_to_json(identity_channel(ModeWindow(0, 1)))))
    assert main(["eb-report", "--channel", str(chan_file), "--out", str(out)]) == 0
    report = jsonio.read_json(out)
    assert report["cp"] is True
    assert report["ppt"] is False
    assert abs(report["min_eig_pt"] + 0.5) < 1e-10
    assert "extraction_residual" not in report


def test_eb_report_constant_channel_holevo(tmp_path, rng):
    w = ModeWindow(0, 1)
    rho_out = StateOperator(w, random_density(rng, 2))
    doc = {"atoms": [{"M": jsonio.operator_to_json(MatrixOperator(w, np.eye(2))),
                      "rho_out": jsonio.operator_to_json(rho_out)}]}
    chan_file = tmp_path / "constant.json"
    out = tmp_path / "report.json"
    jsonio.write_text(str(chan_file), jsonio.dumps(doc))
    assert main(["eb-report", "--channel", str(chan_file), "--out", str(out)]) == 0
    report = jsonio.read_json(out)
    assert report["cp"] is True
    assert report["ppt"] is True
    assert report["extraction_residual"] <= 1e-8


def test_eb_report_atoms_file_runs_on_factors(tmp_path, rng, monkeypatch):
    # a rank-one POVM with pure outputs has 4 Kraus columns against d_in d_out = 6
    # rows, so both minimum eigenvalues are exactly 0, and no block family is built
    from eblab import channels

    def refuse(self, *args):
        raise AssertionError("the atoms path built a block family")

    monkeypatch.setattr(channels.ChannelBlocks, "__init__", refuse)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    vals, vecs = np.linalg.eigh(a @ a.conj().T)
    u = ((vecs * vals ** -0.5) @ vecs.conj().T) @ a  # columns resolve the identity
    doc = {"atoms": [{"M": jsonio.operator_to_json(MatrixOperator(ModeWindow(0, 2),
                                                                  np.outer(c, c.conj()))),
                      "rho_out": jsonio.operator_to_json(
                          PureVector(ModeWindow(0, 1), random_pure(rng, 2)).projector())}
                     for c in u.T]}
    chan_file = tmp_path / "atoms.json"
    out = tmp_path / "report.json"
    jsonio.write_text(str(chan_file), jsonio.dumps(doc))
    assert main(["eb-report", "--channel", str(chan_file), "--out", str(out)]) == 0
    report = jsonio.read_json(out)
    assert report["cp"] is True and report["ppt"] is True
    assert report["min_eig_stacked"] == 0.0 and report["min_eig_pt"] == 0.0
    assert report["extraction_residual"] <= 1e-8


def test_eb_report_on_an_empty_atoms_list_exits_2(tmp_path, capsys):
    chan_file = tmp_path / "empty.json"
    chan_file.write_text('{"atoms": []}')
    assert main(["eb-report", "--channel", str(chan_file)]) == 2
    assert "empty 'atoms'" in capsys.readouterr().err


def test_eb_report_rotation_channel(tmp_path):
    out = tmp_path / "report.json"
    assert main(["eb-report", "--phi", "two-mode", "--k", "4", "--out", str(out)]) == 0
    report = jsonio.read_json(out)
    assert report["cp"] is True
    assert report["ppt"] is True
    assert report["extraction_residual"] <= 1e-8


def test_eb_report_rank_deficient_sigma_exits_3(tmp_path):
    sigma_file = tmp_path / "sigma.json"
    write_state(sigma_file, diagonal_state(1, 1.0, 0.0, 0.0))
    assert main(["eb-report", "--phi", "two-mode", "--k", "1",
                 "--sigma", str(sigma_file)]) == 3


def spectrum_state(rng, half, smallest):
    """A state on [-K, K] with random eigenvectors, eigenvalues near 1/d and the smallest given."""
    d = 2 * half + 1
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.uniform(0.5, 1.8, size=d)
    lam[-1] = 0.0
    lam *= (1.0 - smallest) / lam.sum()
    lam[-1] = smallest
    m = (q * lam) @ q.conj().T
    return StateOperator(ModeWindow.symmetric(half), 0.5 * (m + m.conj().T))


@pytest.mark.parametrize("smallest, code", [(8.6e-9, 0), (1e-11, 3)])
def test_eb_report_rank_floor_scales_with_the_spectrum(tmp_path, capsys, smallest, code):
    # full rank is l_min >= 1e-8 l_max: a sigma on d = 65 with l_max near 0.027
    # and l_min = 8.6e-9, below an absolute 1e-8, is full rank; l_min = 1e-11 is not
    sigma_file, out = tmp_path / "sigma.json", tmp_path / "report.json"
    sigma = spectrum_state(np.random.default_rng(65), 32, smallest)
    lam = np.linalg.eigvalsh(sigma.entries)
    assert abs(lam[0] - smallest) < 1e-15 and 0.02 < lam[-1] < 0.03
    write_state(sigma_file, sigma)
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", "32", "--sigma", str(sigma_file),
                 "--out", str(out)]) == code
    if code == 0:
        assert jsonio.read_json(out)["extraction_residual"] <= 1e-12
    else:
        assert "rank deficient" in capsys.readouterr().err and not out.exists()


def test_capacity_two_mode_csv(tmp_path):
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,n,closed_form_nats,optimizer_nats,gap,iterations,converged"
    cells = lines[1].split(",")
    assert cells[0] == "1" and cells[1] == "2"
    assert abs(float(cells[2]) - np.log(2.0)) < 1e-12
    assert abs(float(cells[4])) <= 1e-10
    assert cells[6] == "true"


def test_capacity_single_mode_is_zero(tmp_path):
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--phi", "mode(0)", "--k", "1", "--grid", "2",
                 "--out", str(out)]) == 0
    cells = out.read_text().splitlines()[1].split(",")
    assert abs(float(cells[2])) < 1e-15


def test_capacity_of_a_pure_weight_vector_prints_no_negative_zero(tmp_path):
    # -(1 log 1) is -0.0, which the CSV used to print as -0 in the entropy columns
    out = tmp_path / "capacity.csv"
    for base, row in (("e", "2,1,0,0,0,1,true"), ("2", "2,1,0,0,0,1,true,0,0")):
        assert main(["capacity", "--phi", "mode(0)", "--k", "2", "--grid", "1", "--base", base,
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == row


def test_capacity_geometric_sweep_increases(tmp_path):
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--phi", "geometric(0.7)", "--k", "2,4,8", "--grid", "64",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    closed = [float(r[2]) for r in rows]
    assert closed[0] < closed[1] < closed[2]


def test_capacity_optimizer_flags_out_of_range_exit_2(capsys):
    # the orbit-grid optimum is computed exactly, so no stopping rule is left to
    # set: --tol and --max-iter exit 2 as unknown flags, whatever their value
    base = ["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2"]
    for flags in (("--max-iter", "0"), ("--max-iter=-3",), ("--tol", "nan"),
                  ("--tol", "inf"), ("--tol=-1e-9",), ("--tol", "0", "--max-iter", "1")):
        with pytest.raises(SystemExit) as exit_info:
            main([*base, *flags])
        assert exit_info.value.code == 2, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
    result = run_cli("capacity", "--phi", "two-mode", "--k", "1", "--grid", "2",
                     "--tol", "1e-9", "--max-iter", "5")
    assert result.returncode == 2
    assert "unrecognized arguments: --tol 1e-9 --max-iter 5" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_capacity_bits_columns(tmp_path):
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2",
                 "--base", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("closed_form_bits,optimizer_bits")
    cells = lines[1].split(",")
    assert abs(float(cells[7]) - 1.0) < 1e-12


def test_rho12_two_mode_json_and_sweeps(tmp_path):
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", "two-mode", "--k", "1", "--out", str(out),
                 "--n-sweep", "1,2,4,8"]) == 0
    state = jsonio.state_from_json(jsonio.read_json(out))
    nonzero = np.abs(state.entries[np.abs(state.entries) > 1e-14])
    assert np.allclose(nonzero, 0.25, atol=1e-12)
    sweep_lines = (tmp_path / "rho12.n_sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "n,trace_distance_to_product"
    distances = [float(line.split(",")[1]) for line in sweep_lines[1:]]
    assert len(distances) == 4
    assert sorted(path.name for path in tmp_path.iterdir()) == ["rho12.json", "rho12.n_sweep.csv"]
    probe = tmp_path / "probe.csv"
    assert main(["probe", "--phi", "two-mode", "--k", "1", "--out", str(probe),
                 "--candidates", "mode(0),mode(0)"]) == 0
    probe_lines = probe.read_text().splitlines()
    assert probe_lines[0] == "K,candidate_id,eps_max"
    assert abs(float(probe_lines[1].split(",")[2]) - 0.25) < 1e-9


def test_rho12_n_sweep_runs_no_dense_eigensolve(tmp_path, monkeypatch):
    sizes = []

    def counted(solver):
        def wrapper(matrix, *args, **kwargs):
            sizes.append(np.shape(matrix)[-1])
            return solver(matrix, *args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    half = 4
    assert main(["rho12", "--phi", "geometric(0.7)", "--phi2", "uniform(3)", "--k", str(half),
                 "--n-sweep", "1,2,4,8", "--out", str(tmp_path / "rho12.json")]) == 0
    # the sweep works on the 4K + 1 charge sectors, fewer rows than its 33 nodes at n = 1
    assert sizes and max(sizes) == 4 * half + 1 < (2 * half + 1) ** 2


def test_non_finite_output_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    w = ModeWindow.symmetric(1)
    entries = np.eye(9, dtype=complex) / 9
    entries[4, 4] = np.nan
    monkeypatch.setattr(rotation, "rho12",
                        lambda phi1, phi2: MatrixOperator(ProductWindow(w, w), entries))
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", "two-mode", "--k", "1", "--out", str(out)]) == 3
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_probe_subcommand_geometric(tmp_path):
    out = tmp_path / "probe.csv"
    assert main(["probe", "--phi", "geometric(0.7)", "--k", "2,4",
                 "--candidates", "geometric(0.7),geometric(0.7)",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert values[0] >= values[1]


def test_cli_runs_are_byte_deterministic(tmp_path):
    # same config, fresh processes: outputs must match byte for byte
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        result = run_cli("capacity", "--phi", "geometric(0.7)", "--k", "2,4",
                         "--grid", "8,16", "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert out1.read_bytes() == out2.read_bytes()

    state_doc = jsonio.dumps(jsonio.operator_to_json(diagonal_state(1, 0.2, 0.5, 0.3)))
    state = tmp_path / "state.json"
    state.write_text(state_doc + "\n")
    outs = []
    for name in ("o1.json", "o2.json"):
        path = tmp_path / name
        result = run_cli("channel-apply", "--k", "1", "--phi", "two-mode",
                         "--state", str(state), "--out", str(path))
        assert result.returncode == 0, result.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_stdout_mode():
    result = run_cli("capacity", "--phi", "two-mode", "--k", "1", "--grid", "2")
    assert result.returncode == 0
    assert result.stdout.startswith("K,n,")


def assert_clean_schema_exit(result):
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flag", ["--phi", "--candidates"])
@pytest.mark.parametrize("profile", ["two-mode(1)", "geometric(x)", "uniform(x)", "uniform()",
                                     "mode(x)"])
def test_bad_profile_argument_exits_2_without_traceback(flag, profile):
    value = profile if flag == "--phi" else f"{profile},mode(0)"
    args = {"--phi": "two-mode", "--k": "2", "--candidates": "mode(0),mode(0)", flag: value}
    assert_clean_schema_exit(run_cli("probe", *(x for item in args.items() for x in item)))


def test_nan_state_file_exits_2_without_traceback(tmp_path):
    state = tmp_path / "nan_state.json"
    state.write_text('{"k_min": -1, "k_max": 1, "entries": ['
                     '[[NaN, 0], [0, 0], [0, 0]], '
                     '[[0, 0], [0.5, 0], [0, 0]], '
                     '[[0, 0], [0, 0], [0.5, 0]]]}\n')
    assert_clean_schema_exit(run_cli("channel-apply", "--k", "1", "--phi", "two-mode",
                                     "--state", str(state)))


def test_bad_phi_cells_exit_2_without_traceback(tmp_path):
    for name, cell in (("string", '["a", 0]'), ("infinity", "[Infinity, 0]")):
        phi = tmp_path / f"phi_{name}.json"
        phi.write_text('{"k_min": -1, "k_max": 1, "amplitudes": [%s, [1, 0], [0, 0]]}\n' % cell)
        assert_clean_schema_exit(run_cli("rho12", "--phi", str(phi), "--k", "1"))


def test_boolean_window_state_file_exits_2_without_traceback(tmp_path):
    # true == 1, so without the check this file would load on the window [-1, 1]
    state = tmp_path / "bool_window.json"
    zero = "[[0, 0], [0, 0], [0, 0]]"
    state.write_text('{"k_min": -1, "k_max": true, "entries": '
                     f'[[[1, 0], [0, 0], [0, 0]], {zero}, {zero}]}}\n')
    assert_clean_schema_exit(run_cli("channel-apply", "--k", "1", "--phi", "two-mode",
                                     "--state", str(state)))


def _op(k_min, k_max, *diagonal):
    """Operator JSON with the given diagonal on the window [k_min, k_max]."""
    d = len(diagonal)
    return {"k_min": k_min, "k_max": k_max,
            "entries": [[[diagonal[i] if i == j else 0, 0] for j in range(d)] for i in range(d)]}


def _atoms(*pairs):
    return {"atoms": [{"M": m, "rho_out": rho} for m, rho in pairs]}


ONE = _op(0, 0, 1)

# (case, subcommand and flags before the file's flag, the file's flag, its JSON,
#  exit code, a phrase of the refusal)
REFUSED_FILES = [
    ("empty_in_window", ("eb-report",), "--channel",
     {"in": {"k_min": 1, "k_max": 0}, "out": {"k_min": 0, "k_max": 0}, "blocks": []},
     2, "empty window"),
    ("short_phi", ("rho12", "--k", "1"), "--phi",
     {"k_min": -1, "k_max": 1, "amplitudes": [[1, 0], [0, 0]]}, 2, "amplitude length 2"),
    ("zero_phi", ("rho12", "--k", "1"), "--phi",
     {"k_min": -1, "k_max": 1, "amplitudes": [[0, 0]] * 3}, 3, "finite nonzero norm"),
    ("entries_off_window", ("channel-apply", "--phi", "two-mode", "--k", "1"), "--state",
     {**_op(0, 1, 0.5, 0.5), "k_min": -1}, 2, "does not match window dimension"),
    ("rho_out_trace_2", ("eb-report",), "--channel", _atoms((ONE, _op(0, 0, 2))),
     3, "state trace defect"),
    ("mixed_window_atoms", ("eb-report",), "--channel",
     _atoms((ONE, ONE), (_op(0, 1, 0, 0), ONE)), 2, "share the same windows"),
    ("povm_not_positive", ("eb-report",), "--channel", _atoms((_op(0, 0, -1), ONE)),
     3, "POVM atom not positive"),
    ("povm_incomplete", ("eb-report",), "--channel", _atoms((_op(0, 0, 0.5), ONE)),
     3, "POVM incomplete"),
    ("blocks_not_trace_preserving", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": 0, "k_max": 0},
      "blocks": [[_op(0, 0, 2)]]}, 3, "not trace preserving"),
    # schema branches: the reader's own refusals
    ("blocks_grid_shape", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 1}, "out": {"k_min": 0, "k_max": 0}, "blocks": [[ONE]]},
     2, "blocks must form a 2 x 2 grid"),
    ("block_window", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": 0, "k_max": 0},
      "blocks": [[_op(1, 1, 1)]]}, 2, "window differs from 'out'"),
    # an 'out' window far beyond its blocks: refused from the blocks, before any
    # d x d x d_out x d_out array is allocated (was a MemoryError or a ValueError)
    ("out_window_beyond_the_blocks", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": -50000, "k_max": 50000},
      "blocks": [[ONE]]}, 2, "block (0,0) window differs from 'out'"),
    ("out_window_beyond_any_array", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": 0, "k_max": 10 ** 30},
      "blocks": [[ONE]]}, 2, "block (0,0) window differs from 'out'"),
    # entries at the double range's edge overflow the Hermiticity gate's difference
    # to inf; the gate refuses it without a RuntimeWarning
    ("block_entries_at_the_double_edge", ("eb-report",), "--channel",
     {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": 0, "k_max": 1},
      "blocks": [[{"k_min": 0, "k_max": 1, "entries": [[[0.5, 0], [1e308, 0]],
                                                       [[-1e308, 0], [0.5, 0]]]}]]},
     3, "block family not Hermitian: max |B_ij - B_ji^dag| = inf"),
    ("missing_entries", ("channel-apply", "--phi", "two-mode", "--k", "1"), "--state",
     {"k_min": -1, "k_max": 1}, 2, "missing 'entries'"),
    ("one_sided_product", ("channel-apply", "--phi", "two-mode", "--k", "1"), "--state",
     {"left_window": {"k_min": -1, "k_max": 1}, "entries": _op(-1, 1, 1, 0, 0)["entries"]},
     2, "product window needs both sides"),
    ("atom_without_M", ("eb-report",), "--channel", {"atoms": [{"rho_out": ONE}]},
     2, "needs 'M' and 'rho_out'"),
    ("amplitudes_not_list", ("rho12", "--k", "1"), "--phi",
     {"k_min": -1, "k_max": 1, "amplitudes": 3}, 2, "'amplitudes' must be an array"),
]


@pytest.mark.parametrize("case, argv, flag, doc, code, phrase", REFUSED_FILES,
                         ids=[case[0] for case in REFUSED_FILES])
def test_every_refused_file_is_named_with_its_exit_code(tmp_path, capsys, case, argv, flag,
                                                        doc, code, phrase):
    # the library's window and invariant refusals used to reach stderr without the path;
    # main returning at all means no traceback
    path = tmp_path / f"{case}.json"
    jsonio.write_text(str(path), jsonio.dumps(doc))
    assert main([*argv, flag, str(path)]) == code
    captured = capsys.readouterr()
    prefix = "error: " if code == 2 else "invariant violation: "
    assert captured.err.startswith(prefix + str(path)), captured.err
    assert phrase in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_oversized_k_exits_2_before_allocating():
    # requests far beyond any address space: (2K+1)^2 entries for capacity,
    # (2K+1)^4 for rho12; the guard refuses them before numpy is asked
    for args in (("capacity", "--phi", "two-mode", "--k", "100000", "--grid", "2"),
                 ("rho12", "--phi", "two-mode", "--k", "2000")):
        result = run_cli(*args)
        assert_clean_schema_exit(result)
        assert "GiB" in result.stderr


def test_probe_runs_at_large_k(tmp_path):
    out = tmp_path / "probe.csv"
    assert main(["probe", "--phi", "geometric(0.7)", "--k", "200",
                 "--candidates", "geometric(0.7),geometric(0.7);mode(0),mode(0)",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert abs(float(lines[1].split(",")[2]) * 801 - 1.0) < 1e-14
    assert lines[2] == "200,mode(0)|mode(0),0"


def test_bad_lists_exit_2():
    assert main(["capacity", "--phi", "two-mode", "--k", "1,x"]) == 2
    assert main(["capacity", "--phi", "two-mode", "--k", "1", "--grid", ","]) == 2
    assert main(["rho12", "--phi", "two-mode", "--k", "1", "--n-sweep", "2;4"]) == 2
    assert main(["probe", "--phi", "two-mode", "--k", "1", "--candidates", "mode(0)"]) == 2


def test_import_does_not_load_scipy():
    result = subprocess.run([sys.executable, "-c",
                             "import eblab, sys; print('scipy' in sys.modules)"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_each_subcommand_declares_only_the_flags_it_reads(capsys):
    # --sigma belongs to eb-report; --base and --grid to capacity; --candidates
    # to probe, which alone sweeps. The quadrature grid follows from --k, so no
    # subcommand takes --nodes, and channel-apply always writes the closed form
    for args in (("channel-apply", "--phi", "two-mode", "--k", "1", "--state", "s.json",
                  "--method", "quadrature"),
                 ("channel-apply", "--phi", "two-mode", "--k", "1", "--state", "s.json",
                  "--nodes", "9"),
                 ("eb-report", "--phi", "two-mode", "--k", "1", "--nodes", "9"),
                 ("probe", "--phi", "two-mode", "--k", "1", "--sigma", "mixed"),
                 ("capacity", "--phi", "two-mode", "--k", "1", "--nodes", "9"),
                 ("rho12", "--phi", "two-mode", "--k", "1", "--nodes", "9"),
                 ("rho12", "--phi", "two-mode", "--k", "1", "--probe"),
                 ("rho12", "--phi", "two-mode", "--k", "1", "--candidates", "mode(0),mode(0)"),
                 ("probe", "--phi", "two-mode", "--k", "1", "--grid", "8"),
                 ("eb-report", "--phi", "two-mode", "--k", "1", "--tol", "1e-6"),
                 ("channel-apply", "--phi", "two-mode", "--k", "1", "--state", "s.json",
                  "--base", "2")):
        with pytest.raises(SystemExit) as exit_info:
            main(list(args))
        assert exit_info.value.code == 2, args
        assert "unrecognized arguments" in capsys.readouterr().err
    for args in (("probe", "--phi", "two-mode", "--k", "1", "--sigma", "mixed"),
                 ("capacity", "--phi", "two-mode", "--k", "1", "--nodes", "9")):
        result = run_cli(*args)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv, message", [
    ([], "eblab: error: the following arguments are required: command"),
    (["prove"], "eblab: error: argument command: invalid choice: 'prove' (choose from "
                "'channel-apply', 'eb-report', 'capacity', 'rho12', 'probe')"),
    (["channel-apply", "--phi", "two-mode"],
     "eblab channel-apply: error: the following arguments are required: --state"),
    (["capacity", "--base", "3"],
     "eblab capacity: error: argument --base: invalid choice: '3' (choose from 'e', '2')"),
    (["capacity", "--base=3"],
     "eblab capacity: error: argument --base: invalid choice: '3' (choose from 'e', '2')"),
    (["eb-report", "--phi"], "eblab eb-report: error: argument --phi: expected one argument"),
    (["eb-report", "--k", "--phi", "two-mode"],
     "eblab eb-report: error: argument --k: expected one argument"),
    (["probe", "--cand", "mode(0),mode(0)"],
     "eblab probe: error: unrecognized arguments: --cand mode(0),mode(0)"),
    (["eb-report", "--sig", "mixed", "--out=x.json", "--bogus=1"],
     "eblab eb-report: error: unrecognized arguments: --sig mixed --bogus=1"),
])
def test_a_usage_error_exits_2_with_the_usage_and_the_message(argv, capsys, message):
    # the parser never abbreviates a flag: --cand and --sig are refused, not expanded
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: eblab ") and error == message


@pytest.mark.parametrize("argv, usage", [
    (["-h"], "usage: eblab {channel-apply,eb-report,capacity,rho12,probe} [flags]"),
    (["--help"], "usage: eblab {channel-apply,eb-report,capacity,rho12,probe} [flags]"),
    (["capacity", "-h"], "usage: eblab capacity [--k K] [--phi PHI] [--out OUT] "
                         "[--grid GRID] [--base {e,2}]"),
    (["channel-apply", "--k", "1", "--help"],
     "usage: eblab channel-apply [--k K] [--phi PHI] [--out OUT] --state STATE"),
])
def test_help_prints_the_usage_and_exits_0(argv, usage, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (usage + "\n", "")


def test_a_joined_flag_reads_as_a_split_one_and_the_last_value_wins():
    from eblab.cli import parse_args
    split = parse_args(["rho12", "--phi", "two-mode", "--k", "3", "--n-sweep", "2,4"])
    assert vars(split) == {"command": "rho12", "k": "3", "phi": "two-mode", "out": None,
                           "phi2": None, "n_sweep": "2,4"}
    assert parse_args(["rho12", "--phi=two-mode", "--k=3", "--n-sweep=2,4"]) == split
    assert parse_args(["rho12", "--k", "7", "--phi", "mixed", "--n-sweep=1", "--k=3",
                       "--phi", "two-mode", "--n-sweep", "2,4"]) == split
    # only the first '=' splits, so a value may hold one
    assert parse_args(["eb-report", "--sigma=a=b.json"]).sigma == "a=b.json"


def readme_flag_table(text):
    """{subcommand: its own flags} from README's table under '| subcommand | its own flags |'."""
    table = text.split("| subcommand | its own flags |\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", table, re.MULTILINE)
    return {name: set(re.findall(r"`(--[a-z0-9-]+)", flags)) for name, flags in rows}


def test_readme_flag_table_lists_each_subcommands_own_flags():
    from eblab.cli import FLAGS
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert readme_flag_table(readme.read_text()) == {name: set(flags)
                                                     for name, flags in FLAGS.items()}


@pytest.mark.parametrize("args", [
    ("capacity", "--phi", "two-mode", "--k", "10000", "--grid", "2"),
    ("channel-apply", "--phi", "two-mode", "--k", "3000", "--state", "unread.json"),
    ("eb-report", "--phi", "two-mode", "--k", "894"),
])
def test_oversized_grid_and_nodes_exit_2_before_allocating(args):
    # capacity's (2K+1)^2 entries at K = 10000 (its --grid is not charged);
    # channel-apply's written result, about 20 (2K+1)^2 entries, which admits
    # K <= 915; what eb-report --phi holds on its sector path, which admits K <= 893
    result = run_cli(*args)
    assert_clean_schema_exit(result)
    assert "GiB" in result.stderr


@pytest.mark.parametrize("grid", [10 ** 15, 10 ** 30])
def test_capacity_grid_is_not_charged_and_may_pass_int64(capsys, grid):
    # the guard charged grid x (2K+1) orbit outputs that are never built and
    # exited 2; the classes are folded mod min(grid, 2K+1), so any grid works
    assert main(["capacity", "--phi", "two-mode", "--k", "1", "--grid", str(grid)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [
        f"1,{grid},0.6931471805599454,0.6931471805599454,0,1,true"]


def test_list_values_below_one_exit_2(capsys):
    # ba_optimize and rho12_n refuse these too, but with exit 3, as if the numbers had failed
    for args, flag in ((("capacity", "--grid", "4,0"), "--grid"),
                       (("rho12", "--n-sweep", "1,0", "--out", "unwritten.json"), "--n-sweep"),
                       (("probe", "--k", "2,-1"), "--k")):
        assert main([args[0], "--phi", "two-mode", *args[1:]]) == 2
        assert f"{flag} values must be >= 1" in capsys.readouterr().err


def test_eb_report_builds_one_choi_state(tmp_path, monkeypatch):
    from eblab import channels
    calls, states = [], []
    real_choi, real_init = channels.choi, channels.ChoiState.__init__

    def counting_choi(*args):
        calls.append("choi")
        states.append(real_choi(*args))
        return states[-1]

    def counting_init(self, *args):
        calls.append("ChoiState")
        real_init(self, *args)

    monkeypatch.setattr(channels, "choi", counting_choi)
    monkeypatch.setattr(channels.ChoiState, "__init__", counting_init)
    out = tmp_path / "report.json"
    assert main(["eb-report", "--phi", "two-mode", "--k", "2", "--out", str(out)]) == 0
    assert calls == ["choi", "ChoiState"]
    assert "extraction_residual" in jsonio.read_json(str(out))
    # on --phi the one Choi state is factored: (2K+1)^2 rows, one column per charge sector
    assert states[0].factor.shape == (25, 9) and states[0].transposed.factor.shape == (25, 9)


def test_failed_probe_writes_nothing(tmp_path, capsys):
    # the probe fails past the double range at K=496; the rows for K=2 must not be left behind
    out = tmp_path / "probe.csv"
    assert main(["probe", "--phi", "geometric(0.3)", "--k", "2,496", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_rho12_sweep_without_out_prints_nothing(capsys):
    assert main(["rho12", "--phi", "two-mode", "--k", "1", "--n-sweep", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-sweep needs --out" in captured.err


def write_phi(path, phi):
    jsonio.write_text(str(path), jsonio.dumps(jsonio.pure_vector_to_json(phi)))
    return str(path)


def test_phi_file_must_match_k(tmp_path, capsys):
    # a K=3 file used to be read as K=3 whatever --k said, mislabelling every row
    phi = write_phi(tmp_path / "phi3.json", PureVector(ModeWindow.symmetric(3), np.arange(1, 8) + 1j))
    for args in (("capacity", "--phi", phi, "--k", "2,3", "--grid", "4"),
                 ("eb-report", "--phi", phi, "--k", "2"),
                 ("channel-apply", "--phi", phi, "--k", "1", "--state", "unread.json"),
                 ("rho12", "--phi", phi, "--k", "4")):
        assert main(list(args)) == 2, args
        assert "is not [-" in capsys.readouterr().err
    assert main(["capacity", "--phi", phi, "--k", "3", "--grid", "4"]) == 0
    lopsided = write_phi(tmp_path / "lopsided.json", PureVector(ModeWindow(-1, 2), np.ones(4)))
    assert main(["eb-report", "--phi", lopsided, "--k", "2"]) == 2


def test_probe_reads_a_fiducial_file(tmp_path, capsys):
    # a file used to reach the sweep as raw text and exit 2 with "unrecognized profile"
    phi = write_phi(tmp_path / "geo.json", phi_profile("geometric(0.7)", 4))
    candidates = ["--candidates", "geometric(0.7),geometric(0.7)"]

    def assert_one_seventeenth(lines):
        assert lines[0] == "K,candidate_id,eps_max" and len(lines) == 2
        assert abs(float(lines[1].split(",")[2]) - 1.0 / 17) < 1e-15

    for spec in (phi, "geometric(0.7)"):
        assert main(["probe", "--phi", spec, "--k", "4", *candidates]) == 0
        assert_one_seventeenth(capsys.readouterr().out.splitlines())
    assert main(["probe", "--phi", phi, "--k", "4", *candidates,
                 "--out", str(tmp_path / "probe.csv")]) == 0
    assert_one_seventeenth((tmp_path / "probe.csv").read_text().splitlines())
    assert main(["probe", "--k", "2"]) == 2  # no --phi: was an AttributeError traceback
    assert "--phi is required" in capsys.readouterr().err


def test_single_k_subcommands_refuse_a_k_list(tmp_path, capsys):
    # each used to run the first K and drop the rest
    state = tmp_path / "s1.json"
    write_state(state, diagonal_state(1, 0.2, 0.5, 0.3))
    for args in (("channel-apply", "--state", str(state)),
                 ("eb-report",),
                 ("rho12",),
                 ("rho12", "--n-sweep", "1,2", "--out", str(tmp_path / "rho12.json"))):
        assert main([args[0], "--phi", "two-mode", "--k", "1,3", *args[1:]]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{args[0]} takes a single --k value" in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["s1.json"]
    # the sweep over windows is probe's
    assert main(["probe", "--phi", "two-mode", "--k", "1,3",
                 "--out", str(tmp_path / "probe.csv")]) == 0
    assert len((tmp_path / "probe.csv").read_text().splitlines()) == 3


def test_eb_report_on_a_non_cp_map_reports_only_cp(tmp_path, monkeypatch):
    # the Choi matrix of the transposition map is no state; the report used to exit 3
    from eblab import channels
    chan_file = tmp_path / "transpose.json"
    jsonio.write_text(str(chan_file),
                      jsonio.dumps(jsonio.channel_to_json(transpose_channel(ModeWindow.symmetric(1)))))
    monkeypatch.setattr(channels, "choi", None)  # must not be reached
    out = tmp_path / "report.json"
    assert main(["eb-report", "--channel", str(chan_file), "--k", "1", "--out", str(out)]) == 0
    report = jsonio.read_json(out)
    assert list(report) == ["cp", "min_eig_stacked"]
    assert report["cp"] is False
    assert abs(report["min_eig_stacked"] + 1.0) < 1e-12


def test_eb_report_builds_rank_one_states_from_vectors(tmp_path, rng, monkeypatch):
    # the prepared states of the form and of the extraction and the Choi
    # state are factored states, and the maximally mixed sigma is built
    # without a check, so no state runs the dense constructor
    calls = []
    real_init = StateOperator.__init__

    def counting_init(self, *args):
        calls.append(type(self).__name__)
        real_init(self, *args)

    monkeypatch.setattr(StateOperator, "__init__", counting_init)
    phi = write_phi(tmp_path / "phi10.json", PureVector(ModeWindow.symmetric(10),
                                                         rng.normal(size=21) + 1j * rng.normal(size=21)))
    out = tmp_path / "report.json"
    assert main(["eb-report", "--phi", phi, "--k", "10", "--out", str(out)]) == 0
    assert calls == []
    assert jsonio.read_json(out)["extraction_residual"] < 1e-12


def random_phi_file(tmp_path, rng, half):
    d = 2 * half + 1
    return write_phi(tmp_path / f"phi{half}.json", PureVector(ModeWindow.symmetric(half),
                                                              rng.normal(size=d) + 1j * rng.normal(size=d)))


def test_eb_report_phi_runs_no_product_window_eigensolve(tmp_path, rng, monkeypatch):
    # no solve under mixed, whose eigensystem is known. Factored states are positive
    # by construction, so no min_eigenvalue (an eigvalsh) runs, and both residuals
    # are taken sector by sector, so no QR or eigvalsh of at least d rows runs either
    calls = []
    for name in ("eigvalsh", "eigh", "svd", "qr"):
        def recording(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)[-2]))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    for profile, half in ((None, 6), ("geometric(0.7)", 10)):
        d = 2 * half + 1
        phi = profile or random_phi_file(tmp_path, rng, half)
        calls.clear()
        out = tmp_path / "report.json"
        assert main(["eb-report", "--phi", phi, "--k", str(half), "--out", str(out)]) == 0
        assert calls == [], half
        assert jsonio.read_json(out)["extraction_residual"] < 1e-12
    # a non-diagonal sigma (checked by an eigvalsh when read) leaves the Choi factors
    # unformed, and no comparison reads them: the chain's one comparison is with the
    # channel's sector factor, so no QR runs
    sigma = tmp_path / "sigma.json"
    write_state(sigma, StateOperator(ModeWindow.symmetric(half), random_density(rng, d)))
    calls.clear()
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", str(half), "--sigma", str(sigma),
                 "--out", str(out)]) == 0
    assert calls == [("eigvalsh", d), ("eigh", d)]
    assert jsonio.read_json(out)["extraction_residual"] < 1e-12


def test_eb_report_phi_under_mixed_runs_no_eigh(tmp_path, monkeypatch):
    # maximally_mixed knows its eigensystem, so the chain completes with eigh refused
    def refuse(*args, **kwargs):
        raise AssertionError("an eigh ran")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    out = tmp_path / "report.json"
    for profile in ("geometric(0.7)", "two-mode", "uniform"):
        assert main(["eb-report", "--phi", profile, "--k", "6", "--sigma", "mixed",
                     "--out", str(out)]) == 0, profile
        assert jsonio.read_json(out)["extraction_residual"] < 1e-12


def test_eb_report_phi_size_guard_counts_the_factors(capsys):
    # --phi holds about 21 d^2 entries on its sector path, not d^4: K=893 passes the
    # guard; --channel ignores --k, so the guard charges it nothing
    from eblab.cli import _check_size, parse_args
    for argv in (["eb-report", "--phi", "geometric(0.7)"], ["eb-report", "--channel", "unread.json"]):
        args = parse_args(argv + ["--k", "893"])
        args.k = [893]
        _check_size(args)
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", "100000"]) == 2
    assert "GiB" in capsys.readouterr().err


def test_eb_report_phi_admits_a_non_diagonal_sigma_at_the_mixed_limit(capsys):
    # the Choi state keeps a non-diagonal reference's factors unformed, so every --sigma
    # is charged the same: K = 893 passes with a --sigma file, as with mixed, and
    # K = 894 is refused before the file is read (it need not exist)
    from eblab.cli import _check_size, parse_args
    args = parse_args(["eb-report", "--phi", "two-mode", "--k", "893", "--sigma", "unread.json"])
    args.k = [893]
    _check_size(args)
    assert main(["eb-report", "--phi", "two-mode", "--k", "894", "--sigma", "unread.json"]) == 2
    err = capsys.readouterr().err
    assert "GiB" in err and "unread.json" not in err


def test_eb_report_channel_ignores_k(tmp_path, capsys):
    # --k 200 charged the 1 x 1 blocks file d^4 = 401^4 entries and exited 2
    chan_file = tmp_path / "identity.json"
    jsonio.write_text(str(chan_file),
                      jsonio.dumps(jsonio.channel_to_json(identity_channel(ModeWindow(0, 0)))))
    assert main(["eb-report", "--channel", str(chan_file), "--k", "200"]) == 0
    report = capsys.readouterr().out
    assert jsonio.loads(report)["cp"] is True
    # the single---k rule exited 2 on a file that does not read --k
    assert main(["eb-report", "--channel", str(chan_file), "--k", "2,4"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (report, "")


def traced_peaks_and_charges(tmp_path, rng, sigma_file, halves=(8, 16, 32)):
    """(half, traced peak, guard charge in bytes) of eb-report --phi at each K of halves.

    With sigma_file, --sigma is a random full-rank state written to a file, and the
    traced peak of reading that file alone is checked to be below the charge.
    """
    from eblab.cli import _phi_report_entries
    out = str(tmp_path / "report.json")
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", "1", "--out", out]) == 0  # caches
    for half in halves:
        argv = ["eb-report", "--phi", "geometric(0.7)", "--k", str(half), "--out", out]
        count = 16 * _phi_report_entries(half)
        if sigma_file:
            sigma = tmp_path / f"sigma{half}.json"
            write_state(sigma, StateOperator(ModeWindow.symmetric(half),
                                             random_density(rng, 2 * half + 1)))
            argv += ["--sigma", str(sigma)]
            _, read = traced(lambda: jsonio.state_from_json(jsonio.read_json(str(sigma))))
            assert read < count, (half, read, count)
        code, peak = traced(lambda: main(argv))
        assert code == 0, argv
        yield half, peak, count


def traced(call):
    """call()'s result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eb_report_phi_size_guard_bounds_the_traced_peak(tmp_path, rng):
    # the guard used to count one joined factor, about a sixth of the peak; on the
    # sector path (mixed sigma) it now counts what the per-sector residuals hold
    for half, peak, count in traced_peaks_and_charges(tmp_path, rng, sigma_file=False):
        assert peak <= count <= 1.5 * peak, (half, count, peak)


def test_eb_report_phi_size_guard_bounds_the_traced_peak_under_a_sigma_file(tmp_path, rng):
    # a non-diagonal sigma used to be charged its dense Choi factors; they are kept
    # unformed now, so the one charge bounds the chain, and the file's read below it
    for half, peak, count in traced_peaks_and_charges(tmp_path, rng, sigma_file=True):
        assert peak <= count <= 1.5 * peak, (half, count, peak)


@pytest.mark.slow
def test_eb_report_phi_size_guard_bounds_the_traced_peak_at_large_k(tmp_path, rng):
    # the charge's d^2 and G^2 terms lead from K = 64 on, where the guard decides,
    # under mixed and under a random full-rank sigma alike
    for sigma_file in (False, True):
        for half, peak, count in traced_peaks_and_charges(tmp_path, rng, sigma_file, (64, 128)):
            assert peak <= count <= 1.5 * peak, (sigma_file, half, count, peak)


@pytest.mark.slow
def test_eb_report_phi_at_k256_exits_0_inside_the_guard(tmp_path, rng):
    # the demodulated comparison is O(K^2) in time; K = 256 took seconds while K's rows
    # were walked one input mode at a time
    for half, peak, count in traced_peaks_and_charges(tmp_path, rng, False, (256,)):
        assert peak <= count <= 1.5 * peak, (half, count, peak)


def refused_under(argv, limit, monkeypatch):
    """Whether the size guard refuses argv when MAX_DENSE_BYTES is limit."""
    from eblab import cli
    args = cli.parse_args(argv)
    args.k = cli._parse_int_list(args.k, "--k")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "MAX_DENSE_BYTES", limit)
        try:
            cli._check_size(args)
        except SchemaError:
            return True
    return False


def test_probe_size_guard_bounds_the_traced_peak(capsys, monkeypatch):
    # the probe held the d^2-long flat sector tables and their temporaries, about 4.5
    # times its charge of d^2 entries; it walks the sector rows now and holds O(K)
    assert main(["probe", "--phi", "uniform", "--k", "1"]) == 0  # caches
    for half in (8, 16, 32, 64):
        argv = ["probe", "--phi", "uniform", "--k", str(half)]
        code, peak = traced(lambda: main(argv))
        assert code == 0
        assert refused_under(argv, peak - 1, monkeypatch), (half, peak)
    capsys.readouterr()


def test_channel_apply_size_guard_bounds_the_traced_peak(tmp_path, rng, monkeypatch):
    # channel-apply was charged its grid phases, about 2 d^2 entries, but holds about
    # 20 d^2 with a full-rank --state file, most of it the text of its written result
    out = str(tmp_path / "out.json")
    for half in (1, 8, 16, 32):
        state = tmp_path / f"state{half}.json"
        write_state(state, StateOperator(ModeWindow.symmetric(half),
                                         random_density(rng, 2 * half + 1)))
        argv = ["channel-apply", "--phi", "geometric(0.7)", "--k", str(half),
                "--state", str(state), "--out", out]
        code, peak = traced(lambda: main(argv))
        assert code == 0
        if half > 1:  # K = 1 fills the caches
            assert refused_under(argv, peak - 1, monkeypatch), (half, peak)
            assert not refused_under(argv, int(1.5 * peak), monkeypatch), (half, peak)


def test_eb_report_atoms_file_is_measured_before_the_channel_is_built(tmp_path, monkeypatch,
                                                                      capsys, rng):
    # a K=2 atoms file joins 25 rows and 2 x 8 columns in its one comparison; a limit
    # below that refuses it before holevo_channel allocates anything
    from eblab import channels, cli

    def refuse(form):
        raise AssertionError("holevo_channel ran past the size guard")

    a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    vals, vecs = np.linalg.eigh(a @ a.conj().T)
    u = ((vecs * vals ** -0.5) @ vecs.conj().T) @ a  # columns resolve the identity
    window = ModeWindow.symmetric(2)
    doc = {"atoms": [{"M": jsonio.operator_to_json(MatrixOperator(window, np.outer(c, c.conj()))),
                      "rho_out": jsonio.operator_to_json(
                          PureVector(window, random_pure(rng, 5)).projector())}
                     for c in u.T]}
    chan_file = tmp_path / "atoms.json"
    jsonio.write_text(str(chan_file), jsonio.dumps(doc))
    monkeypatch.setattr(cli, "MAX_DENSE_BYTES", 16 * 25 * 16 - 1)
    monkeypatch.setattr(channels, "holevo_channel", refuse)
    assert main(["eb-report", "--channel", str(chan_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eb-report needs a") and f"the atoms in {chan_file}" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_DENSE_BYTES", 16 * 25 * 16)
    assert main(["eb-report", "--channel", str(chan_file)]) == 0


def test_eb_report_counts_full_rank_atoms_before_pairing_them(tmp_path, monkeypatch, capsys):
    # M = I and rho_out = I/5 split into 5 columns each and pair into 25 Kraus operators,
    # 25 rows and 2 x 25 columns in the comparison; the pairs were formed while the form
    # was built, before the guard could refuse them
    from eblab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the atoms were paired before the size guard")

    window = ModeWindow.symmetric(2)
    doc = {"atoms": [{"M": jsonio.operator_to_json(MatrixOperator(window, np.eye(5))),
                      "rho_out": jsonio.operator_to_json(MatrixOperator(window, np.eye(5) / 5))}]}
    chan_file = tmp_path / "atoms.json"
    jsonio.write_text(str(chan_file), jsonio.dumps(doc))
    monkeypatch.setattr(cli, "MAX_DENSE_BYTES", 16 * 25 * 50 - 1)
    monkeypatch.setattr(np, "repeat", refuse)
    monkeypatch.setattr(np, "tile", refuse)
    assert main(["eb-report", "--channel", str(chan_file)]) == 2
    assert f"the atoms in {chan_file}" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_DENSE_BYTES", 16 * 25 * 50)
    assert main(["eb-report", "--channel", str(chan_file)]) == 0


@pytest.mark.parametrize("content, message", [
    (b"[" * 100000 + b"]" * 100000, "invalid JSON: nested too deeply"),
    (b"\xff\xfe", "not UTF-8 text"),
    (b'{"k_min": ' + b"1" * 5000 + b', "k_max": 1, "entries": [[[1, 0]]]}',
     "invalid JSON: Exceeds the limit (4300 digits)"),
    (b'{"k_min": 0, "k_max": 0, "entries": [[[' + b"1" * 5000 + b', 0]]]}',
     "invalid JSON: Exceeds the limit (4300 digits)"),
], ids=["deep", "not-utf8", "long-window-field", "long-cell"])
def test_unreadable_json_files_exit_2_naming_the_file(tmp_path, capsys, content, message):
    # each raised past the SchemaError handler (RecursionError, UnicodeDecodeError,
    # ValueError) and ended in a traceback with exit 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (["--channel", str(bad)], ["--phi", "two-mode", "--k", "1", "--sigma", str(bad)],
                 ["--phi", str(bad), "--k", "1"]):
        assert main(["eb-report", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}"), argv


@pytest.mark.parametrize("argv, message", [
    (("eb-report", "--channel", "{blocks}", "--phi", "geometric(0.7)", "--k", "2"),
     "eb-report takes --channel or --phi, not both"),
    (("eb-report", "--k", "2"), "eb-report needs --channel <file> or --phi <profile>"),
    (("eb-report", "--channel", "{neither}"), "expected 'blocks' or 'atoms'"),
    (("probe", "--phi", "two-mode", "--k", "2", "--candidates", ";"),
     "--candidates received an empty list"),
], ids=["both-sources", "no-source", "neither-blocks-nor-atoms", "empty-candidates"])
def test_missing_or_conflicting_sources_exit_2(tmp_path, argv, message):
    # the first used to run the file and drop --phi; no test reached the other three
    blocks = tmp_path / "identity.json"
    jsonio.write_text(str(blocks), jsonio.dumps(jsonio.channel_to_json(
        identity_channel(ModeWindow(0, 0)))))
    neither = tmp_path / "neither.json"
    neither.write_text('{"entries": [[[1, 0]]]}\n')
    result = run_cli(*(arg.format(blocks=blocks, neither=neither) for arg in argv))
    assert_clean_schema_exit(result)
    assert message in result.stderr
    assert result.stdout == ""


def test_eb_report_phi_at_k32_in_a_cold_process():
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "eblab",
                             "eb-report", "--phi", "geometric(0.7)", "--k", "32"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = jsonio.loads(result.stdout)
    assert report["cp"] is True and report["ppt"] is True
    assert report["min_eig_stacked"] == 0.0 and report["min_eig_pt"] == 0.0
    assert 0.0 <= report["extraction_residual"] <= 1e-8


def _edge_state(cells):
    entries = np.diag([0.0, 0.5, 0.5]).astype(complex)
    for cell, value in cells.items():
        entries[cell] = value
    return {"k_min": -1, "k_max": 1, "entries": entries}


@pytest.mark.parametrize("argv, doc", [
    (("channel-apply", "--k", "1", "--phi", "two-mode", "--state"),
     _edge_state({(0, 0): -1e308})),
    (("channel-apply", "--k", "1", "--phi", "two-mode", "--state"),
     _edge_state({(0, 1): 1e308, (1, 0): 1e308})),
    (("eb-report", "--k", "1", "--phi", "two-mode", "--sigma"),
     _edge_state({(0, 0): -1e308})),
    (("eb-report", "--channel"),
     {"atoms": [{"M": {"k_min": 0, "k_max": 0, "entries": [[[-1e308, 0.0]]]},
                 "rho_out": {"k_min": 0, "k_max": 0, "entries": [[[1.0, 0.0]]]}}]}),
], ids=["state-diagonal", "state-off-diagonal", "sigma", "atoms"])
def test_entries_at_the_double_range_edge_exit_3_without_warnings(tmp_path, argv, doc):
    # m + m^dag overflowed in the Hermitian part and printed a RuntimeWarning before
    # the refusal; under -W error that warning was a traceback with exit 1
    path = tmp_path / "edge.json"
    jsonio.write_text(str(path), jsonio.dumps(doc))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "eblab",
                             *argv, str(path)], capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(f"invariant violation: {path}: ")
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr


def test_atom_whose_symmetrization_overflows_exits_3_naming_the_atom(tmp_path, capsys):
    # M's mirrored -1e308 cells are Hermitian, but (M + M^dag) / 2 holds -inf there;
    # a second symmetrization made that NaN and the refusal read "eig_hermitian
    # input not Hermitian: max |A - A^dag| = nan"
    cell, zero = [-1e308, 0.0], [0.0, 0.0]
    doc = {"atoms": [{"M": {"k_min": 0, "k_max": 1, "entries": [[[0.5, 0.0], cell],
                                                                [cell, [0.5, 0.0]]]},
                      "rho_out": {"k_min": 0, "k_max": 1, "entries": [[[1.0, 0.0], zero],
                                                                      [zero, zero]]}}]}
    path = tmp_path / "edge_atoms.json"
    jsonio.write_text(str(path), jsonio.dumps(doc))
    assert main(["eb-report", "--channel", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"invariant violation: {path}: POVM atom has non-finite entries\n"
    assert "nan" not in err.replace(str(path), "")


def test_rho_out_with_a_tiny_negative_eigenvalue_is_split_as_stored(tmp_path):
    # rho_out passes the state gates and is kept as read; its split drops the negative
    # eigenvalue, and the positive part's trace 1 + 2e-11 passes the unit-trace gate
    path = tmp_path / "mild_atoms.json"
    jsonio.write_text(str(path), jsonio.dumps(_atoms((ONE, _op(0, 1, 1 + 2e-11, -1e-11)))))
    assert main(["eb-report", "--channel", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_a_state_that_reads_as_valid_reads_as_rho_out(tmp_path, capsys):
    # diag(1 + 1.8e-10, -0.9e-10, 0) has trace defect 0.9e-10 and reads as a state; as
    # rho_out its split drops the negative eigenvalue, and the kept trace 1 + 1.8e-10
    # passes the unit-trace gate, widened by the dropped mass. The kept factor is
    # scaled to unit trace, so the atoms file runs end to end; a trace off 1 by more
    # than EPS_TRACE still exits 3, naming the file
    border = _op(-1, 1, 1 + 1.8e-10, -0.9e-10, 0)
    state = tmp_path / "border_state.json"
    state.write_text(jsonio.dumps(border))
    assert main(["channel-apply", "--phi", "two-mode", "--k", "1", "--state", str(state)]) == 0
    form = jsonio.holevo_from_json(_atoms((ONE, border)))
    assert np.abs(np.linalg.norm(form.outputs, axis=0) - 1.0).max() < 1e-15
    capsys.readouterr()
    atoms = tmp_path / "border_atoms.json"
    jsonio.write_text(str(atoms), jsonio.dumps(_atoms((ONE, border))))
    assert main(["eb-report", "--channel", str(atoms), "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "r.json").exists()
    off = tmp_path / "off_atoms.json"
    jsonio.write_text(str(off), jsonio.dumps(_atoms((ONE, _op(-1, 1, 1 + 2.5e-10, -0.5e-10, 0)))))
    assert main(["eb-report", "--channel", str(off), "--out", str(tmp_path / "s.json")]) == 3
    assert capsys.readouterr().err == (f"invariant violation: {off}.atom0.rho_out: "
                                       "state trace defect |Tr - 1| = 2.000e-10 > 1e-10\n")
    assert not (tmp_path / "s.json").exists()


def test_rho12_export_bytes_match_the_per_cell_writer(tmp_path):
    # the file the benchmark's rho12_export workload writes, pinned end to end
    phi = random_phi_file(tmp_path, np.random.default_rng(5), 10)
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", phi, "--k", "10", "--n-sweep", "1,2,4,8",
                 "--out", str(out)]) == 0
    psi = jsonio.pure_vector_from_json(jsonio.read_json(phi))
    expected = per_cell_json(jsonio.operator_to_json(rotation.rho12(psi, psi))) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")
    assert len((tmp_path / "rho12.n_sweep.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("half, kind", [(half, "seeded") for half in range(1, 11)]
                         + [(1, "mode(0)"), (4, "mode(0)"), (1, "two-mode"), (6, "two-mode")])
def test_rho12_file_is_the_per_cell_text_of_the_dense_entries(tmp_path, half, kind):
    # written from the sectors, byte for byte what a per-cell walk of _expand's entries writes
    phis = [kind, "geometric(0.5)"]
    if kind == "seeded":  # two complex fiducials, so --phi2 differs from --phi
        rng, d = np.random.default_rng(100 + half), 2 * half + 1
        phis = [write_phi(tmp_path / name, PureVector(ModeWindow.symmetric(half),
                                                      rng.normal(size=d) + 1j * rng.normal(size=d)))
                for name in ("phi.json", "phi2.json")]
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", phis[0], "--phi2", phis[1], "--k", str(half),
                 "--out", str(out)]) == 0
    psi, psi2 = (jsonio.pure_vector_from_json(jsonio.read_json(phi)) if phi.endswith(".json")
                 else phi_profile(phi, half) for phi in phis)
    expected = per_cell_json(jsonio.operator_to_json(rotation.rho12(psi, psi2))) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")


def test_rho12_command_reads_no_dense_entries(tmp_path, monkeypatch):
    phi = random_phi_file(tmp_path, np.random.default_rng(3), 10)
    psi = jsonio.pure_vector_from_json(jsonio.read_json(phi))
    expected = per_cell_json(jsonio.operator_to_json(rotation.rho12(psi, psi))) + "\n"

    def refuse(op):
        raise AssertionError(f"{op!r} built its dense entries")

    monkeypatch.setattr(MatrixOperator, "entries", property(refuse))
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", phi, "--k", "10", "--n-sweep", "1,2,4,8",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    csv = (tmp_path / "rho12.n_sweep.csv").read_text().splitlines()
    assert [float(line.split(",")[1]) for line in csv[1:]] == [
        rotation.rho12_n_distance(rotation.rho12(psi, psi), n) for n in (1, 2, 4, 8)]


def test_rho12_n_sweep_builds_rho12_once(tmp_path, monkeypatch):
    # the sweep reads the sector factor of the state the JSON is written from,
    # so no n builds rho12 again
    calls = []
    build = rotation.rho12

    def counted(phi1, phi2):
        calls.append(None)
        return build(phi1, phi2)

    monkeypatch.setattr(rotation, "rho12", counted)
    assert main(["rho12", "--phi", "geometric(0.7)", "--k", "3", "--n-sweep", "1,2,4,8",
                 "--out", str(tmp_path / "rho12.json")]) == 0
    assert len(calls) == 1


def test_rho12_at_k20_peaks_below_one_dense_state(tmp_path):
    # one (2K+1)^2-square complex matrix at K = 20 is 16 * 41^4 bytes, 43 MiB
    dense = 16 * 41 ** 4
    tracemalloc.start()
    try:
        assert main(["rho12", "--phi", "geometric(0.7)", "--k", "20", "--n-sweep", "1,2,4,8",
                     "--out", str(tmp_path / "rho12.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense, peak / 2 ** 20
    assert (tmp_path / "rho12.json").stat().st_size > 6 * 41 ** 4


@pytest.mark.slow
@pytest.mark.parametrize("half", [32, 40])
def test_rho12_file_at_large_k_is_the_text_of_the_dense_entries(tmp_path, half):
    # the dense oracle is the writer's dense path on _expand's entries, which the per-cell
    # walk pins at small sizes; at K = 40 those entries take 0.7 GB
    phi = random_phi_file(tmp_path, np.random.default_rng(half), half)
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", phi, "--k", str(half), "--out", str(out)]) == 0
    psi = jsonio.pure_vector_from_json(jsonio.read_json(phi))
    state = rotation.rho12(psi, psi)
    doc = jsonio.window_to_json(state.window)
    doc["entries"] = state.entries
    pieces = jsonio.dump_pieces(doc)
    del state, doc
    data = out.read_bytes()
    start = 0
    for piece in pieces:
        chunk = piece.encode("utf-8")
        assert data[start:start + len(chunk)] == chunk, start
        start += len(chunk)
    assert data[start:] == b"\n"


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_phi_file_whose_squared_norm_leaves_the_double_range(tmp_path, capsys, size):
    # used to exit 3 with "finite nonzero norm, got 0.0" (or "got inf" and an overflow warning)
    phi = tmp_path / "phi.json"
    phi.write_text(jsonio.dumps({"k_min": -1, "k_max": 1,
                                 "amplitudes": [[size, 0], [0, 0], [size, 0]]}))
    out = tmp_path / "rho12.json"
    assert main(["rho12", "--phi", str(phi), "--k", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    plain = PureVector(ModeWindow.symmetric(1), [1.0, 0.0, 1.0])
    expected = jsonio.dumps(jsonio.operator_to_json(rotation.rho12(plain, plain))) + "\n"
    assert out.read_text() == expected


@pytest.mark.parametrize("args", [
    ("capacity", "--phi", "geometric(0.7)", "--k", "2,4", "--grid", "8"),
    ("rho12", "--phi", "two-mode", "--k", "1"),
], ids=["capacity", "rho12"])
def test_every_process_entry_prints_what_main_prints(args, capsys):
    assert main(list(args)) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    for module in ("eblab", "eblab.cli"):
        result = subprocess.run([sys.executable, "-m", module, *args], capture_output=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected, module


def test_the_process_entry_keeps_the_exit_codes():
    result = run_cli("rho12", "--phi", "two-mode", "--k", "x")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: --k expects a comma-separated integer list, got 'x'\n"
    result = run_cli("probe", "--phi", "geometric(0.3)", "--k", "1000")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("invariant violation:") and "Traceback" not in result.stderr


def test_run_freezes_the_collector_after_main_returns(monkeypatch, capsys):
    from eblab import cli
    calls = []
    real_main = cli.main

    def recorded_main():
        calls.append("main")
        return real_main()

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["eblab", "probe", "--phi", "two-mode", "--k", "1,x"])
    assert cli.run() == 2
    assert calls == ["main", "freeze"]
    calls.clear()
    monkeypatch.setattr(sys, "argv", ["eblab", "probe", "--phi", "two-mode", "--sigma", "mixed"])
    with pytest.raises(SystemExit) as exit_info:  # the parser's usage error
        cli.run()
    assert exit_info.value.code == 2
    assert calls == ["main"]
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_leaves_the_collector_alone_and_the_module_entry_freezes_it():
    script = """
import gc, io, runpy, sys
from contextlib import redirect_stdout
import eblab, eblab.cli
with redirect_stdout(io.StringIO()):
    code = eblab.cli.main(["rho12", "--phi", "two-mode", "--k", "1"])
print(code, gc.isenabled(), gc.get_freeze_count())
sys.argv = ["eblab", "rho12", "--phi", "two-mode", "--k", "1"]
try:
    with redirect_stdout(io.StringIO()):
        runpy.run_module("eblab", run_name="__main__")
except SystemExit as stop:
    print(stop.code, gc.isenabled(), gc.get_freeze_count() > 0)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 True 0", "0 True True"]
