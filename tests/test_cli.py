import subprocess
import sys

import numpy as np
import pytest

from eblab import MatrixOperator, ModeWindow, StateOperator, jsonio, phi_profile
from eblab.cli import main
from conftest import random_density


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
