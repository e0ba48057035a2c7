import subprocess
import sys

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
from conftest import random_density, random_pure
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


def test_channel_apply_coarse_nodes_exit_2(tmp_path):
    state = tmp_path / "state.json"
    write_state(state, diagonal_state(1, 0.2, 0.5, 0.3))
    assert main(["channel-apply", "--k", "1", "--nodes", "3", "--phi", "two-mode",
                 "--state", str(state)]) == 2


def test_eb_report_identity_channel(tmp_path):
    from eblab import identity_channel
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

    def refuse(form):
        raise AssertionError("the atoms path built a block family")

    monkeypatch.setattr(channels, "blocks_from_holevo", refuse)
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


def test_capacity_nonconvergence_still_exits_zero(tmp_path):
    # tol 0 can never be certified, so the run exhausts max_iter; the CSV
    # carries converged=false and the exit code stays 0
    out = tmp_path / "capacity.csv"
    assert main(["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2",
                 "--tol", "0", "--max-iter", "25", "--out", str(out)]) == 0
    cells = out.read_text().splitlines()[1].split(",")
    assert cells[5] == "25"
    assert cells[6] == "false"


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
                 "--n-sweep", "1,2,4,8", "--probe",
                 "--candidates", "mode(0),mode(0)"]) == 0
    state = jsonio.state_from_json(jsonio.read_json(out))
    nonzero = np.abs(state.entries[np.abs(state.entries) > 1e-14])
    assert np.allclose(nonzero, 0.25, atol=1e-12)
    sweep_lines = (tmp_path / "rho12.n_sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "n,trace_distance_to_product"
    distances = [float(line.split(",")[1]) for line in sweep_lines[1:]]
    assert len(distances) == 4
    probe_lines = (tmp_path / "rho12.probe.csv").read_text().splitlines()
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
    nodes = max(4 * half + 1, 32)
    assert sizes and max(sizes) == nodes + 1 < (2 * half + 1) ** 2


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
    # --sigma belongs to eb-report; --base, --grid and --tol to capacity;
    # --nodes to channel-apply and eb-report
    for args in (("probe", "--phi", "two-mode", "--k", "1", "--sigma", "mixed"),
                 ("capacity", "--phi", "two-mode", "--k", "1", "--nodes", "9"),
                 ("rho12", "--phi", "two-mode", "--k", "1", "--nodes", "9"),
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


@pytest.mark.parametrize("args", [
    ("capacity", "--phi", "two-mode", "--k", "1", "--grid", str(10 ** 15)),
    ("channel-apply", "--phi", "two-mode", "--k", "1", "--state", "unread.json",
     "--nodes", str(10 ** 15)),
    ("eb-report", "--phi", "two-mode", "--k", "1", "--nodes", str(10 ** 15)),
])
def test_oversized_grid_and_nodes_exit_2_before_allocating(args):
    # grid x (2K+1) orbit outputs, nodes x (2K+1) phases, one (2K+1)-square atom per node
    result = run_cli(*args)
    assert_clean_schema_exit(result)
    assert "GiB" in result.stderr


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


def test_rho12_failed_probe_writes_nothing(tmp_path, capsys):
    # the probe fails past the double range at K=496; the JSON for K=2 must not be left behind
    out = tmp_path / "x.json"
    assert main(["rho12", "--phi", "geometric(0.3)", "--k", "2,496", "--probe",
                 "--out", str(out)]) == 3
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
    assert main(["rho12", "--phi", phi, "--k", "4", "--probe", *candidates,
                 "--out", str(tmp_path / "rho12.json")]) == 0
    assert_one_seventeenth((tmp_path / "rho12.probe.csv").read_text().splitlines())
    assert main(["probe", "--k", "2"]) == 2  # no --phi: was an AttributeError traceback
    assert "--phi is required" in capsys.readouterr().err


def test_single_k_subcommands_refuse_a_k_list(tmp_path, capsys):
    # both used to run the first K and drop the rest
    state = tmp_path / "s1.json"
    write_state(state, diagonal_state(1, 0.2, 0.5, 0.3))
    for args in (("channel-apply", "--state", str(state)),
                 ("channel-apply", "--state", str(state), "--nodes", "9"),
                 ("eb-report",)):
        assert main([args[0], "--phi", "two-mode", "--k", "1,3", *args[1:]]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{args[0]} takes a single --k value" in captured.err
    assert main(["rho12", "--phi", "two-mode", "--k", "1,3", "--probe",
                 "--out", str(tmp_path / "rho12.json")]) == 0
    assert len((tmp_path / "rho12.probe.csv").read_text().splitlines()) == 3


def test_eb_report_on_a_non_cp_map_reports_only_cp(tmp_path, monkeypatch):
    # the Choi matrix of the transposition map is no state; the report used to exit 3
    from eblab import channels, transpose_channel
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


def test_capacity_optimizer_flags_out_of_range_exit_2(capsys):
    base = ["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2"]
    for flags, message in ((("--max-iter", "0"), "--max-iter must be >= 1"),
                           (("--max-iter=-3",), "--max-iter must be >= 1"),
                           (("--tol", "nan"), "--tol must be finite"),
                           (("--tol", "inf"), "--tol must be finite"),
                           (("--tol=-1e-9",), "--tol must be finite")):
        assert main([*base, *flags]) == 2, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    assert main([*base, "--tol", "0", "--max-iter", "1"]) == 0


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
    # three solves, whatever --nodes is: sigma's (2K+1)-square eigensystem and
    # the two factored trace-norm differences on a factor's columns. Factored
    # states are positive by construction, so no min_eigenvalue (an eigvalsh) runs
    calls = []
    for name in ("eigvalsh", "eigh", "svd"):
        def recording(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    for profile, half in ((None, 6), ("geometric(0.7)", 10)):
        d = 2 * half + 1
        phi = profile or random_phi_file(tmp_path, rng, half)
        for nodes in ([], ["--nodes", str(4 * half + 1)], ["--nodes", "64"]):
            calls.clear()
            out = tmp_path / "report.json"
            assert main(["eb-report", "--phi", phi, "--k", str(half), *nodes,
                         "--out", str(out)]) == 0
            assert sorted(name for name, _ in calls) == ["eigh", "eigvalsh", "eigvalsh"], nodes
            sides = [side for _, side in calls]
            assert ("eigh", d) in calls and sides.count(d) == 1 and max(sides) < d * d, nodes
            assert jsonio.read_json(out)["extraction_residual"] < 1e-12


def test_eb_report_phi_size_guard_counts_the_factors(capsys):
    # --phi holds d^2 x (8K + 3) factor entries, not d^4: K=64 passes the
    # guard; --channel ignores --k, so the guard charges it nothing
    from eblab.cli import _check_size, build_parser
    for argv in (["eb-report", "--phi", "geometric(0.7)"], ["eb-report", "--channel", "unread.json"]):
        args = build_parser().parse_args(argv + ["--k", "64"])
        args.k = [64]
        _check_size(args)
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", "100000"]) == 2
    assert "GiB" in capsys.readouterr().err


def test_eb_report_channel_ignores_k(tmp_path, capsys):
    # --k 200 charged the 1 x 1 blocks file d^4 = 401^4 entries and exited 2
    from eblab import identity_channel
    chan_file = tmp_path / "identity.json"
    jsonio.write_text(str(chan_file),
                      jsonio.dumps(jsonio.channel_to_json(identity_channel(ModeWindow(0, 0)))))
    assert main(["eb-report", "--channel", str(chan_file), "--k", "200"]) == 0
    assert jsonio.loads(capsys.readouterr().out)["cp"] is True


def test_eb_report_atoms_file_is_measured_before_the_channel_is_built(tmp_path, monkeypatch,
                                                                      capsys, rng):
    # a K=2 atoms file joins 25 rows and 2 x 8 columns in eb_extract; a limit
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


def test_eb_report_phi_at_k32_in_a_cold_process():
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "eblab",
                             "eb-report", "--phi", "geometric(0.7)", "--k", "32"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = jsonio.loads(result.stdout)
    assert report["cp"] is True and report["ppt"] is True
    assert report["min_eig_stacked"] == 0.0 and report["min_eig_pt"] == 0.0
    assert 0.0 <= report["extraction_residual"] <= 1e-8


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
