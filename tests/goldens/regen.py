"""Golden digests of the CLI's outputs: the calls, their seeded inputs and the manifest.

    python tests/goldens/regen.py            rewrite manifest.json, print the calls that changed
    python tests/goldens/regen.py --digests  print the digests as JSON and write nothing

Each call runs in this process through eblab.cli.main, with the BLAS
threads that OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set, one where they
are unset; every call writes the same bytes on one and two. Its digest is
the exit code and the sha256 of its stdout, its stderr and every file it
writes. The inputs (fiducial vectors, states, blocks files and atoms
files) are built here with numpy alone, from fixed seeds where they are
random, so no data file is committed. Each demos/*.py script runs here
too, as __main__ (runpy), and demo_<stem> records its exit code and the
sha256 of its stdout. A change that moves a digest lists the call with
its old and new values in CHANGES.md.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # numpy reads it when it is first imported
os.environ.setdefault("OMP_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
DEMOS = sorted((HERE.parents[1] / "demos").glob("*.py"))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _operator(m, half):
    return {"k_min": -half, "k_max": half,
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def _vector(v, half):
    return {"k_min": -half, "k_max": half,
            "amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def _with_first_cell(doc, cell):
    """An operator document whose first entry is cell, written as it stands."""
    doc["entries"][0][0] = cell
    return doc


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _density(rng, d):
    g = _complex(rng, d, d)
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def _blocks(half, fn):
    """The blocks file of the map fn on the window [-K, K], from its matrix units."""
    d = 2 * half + 1
    window = {"k_min": -half, "k_max": half}
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            row.append(_operator(fn(unit), half))
        rows.append(row)
    return {"in": window, "out": window, "blocks": rows}


def _atoms(rng, half, count):
    """Rank-one POVM S^-1/2 a a^dag S^-1/2 over count random a, paired with random states."""
    d = 2 * half + 1
    a = _complex(rng, count, d)
    vals, vecs = np.linalg.eigh(a.T @ a.conj())
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    atoms = []
    for row in a:
        m = inv_root @ row
        povm = np.outer(m, m.conj())
        atoms.append({"M": _operator(0.5 * (povm + povm.conj().T), half),
                      "rho_out": _operator(_density(rng, d), half)})
    return {"atoms": atoms}


def write_inputs(directory):
    """The seeded input files, by name."""
    rng = np.random.default_rng(20261019)
    kraus = _complex(rng, 2, 3, 3)  # a random channel on K = 1 from two Kraus operators
    vals, vecs = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
    kraus = kraus @ ((vecs / np.sqrt(vals)) @ vecs.conj().T)
    docs = {
        "phi2.json": _vector(_complex(rng, 5), 2),
        "phi10.json": _vector(_complex(rng, 21), 10),
        "state1.json": _operator(_density(rng, 3), 1),
        "state2.json": _operator(_density(rng, 5), 2),
        "sigma2.json": _operator(_density(rng, 5), 2),
        "sigma_diag2.json": _operator(np.diag(rng.dirichlet(np.ones(5))), 2),
        "sigma10.json": _operator(_density(rng, 21), 10),
        "identity1.json": _blocks(1, lambda m: m),
        "transpose1.json": _blocks(1, lambda m: m.T),
        "kraus1.json": _blocks(1, lambda m: sum(k @ m @ k.conj().T for k in kraus)),
        "atoms2.json": _atoms(rng, 2, 8),
        # a rho_out that reads as a state, trace defect 0.9e-10, whose kept trace is 1 + 1.8e-10
        "border_atoms1.json": {"atoms": [{"M": _operator(np.eye(3), 1), "rho_out": _operator(
            np.diag([1 + 1.8e-10, -0.9e-10, 0.0]), 1)}]},
        # a 1 x 1 block on [0, 0] under an 'out' window of 100 001 modes
        "wide_out_blocks.json": {"in": {"k_min": 0, "k_max": 0},
                                 "out": {"k_min": -50000, "k_max": 50000},
                                 "blocks": [[_operator(np.eye(1), 0)]]},
        # a JSON true, and an integer literal past the float range, where a number belongs
        "true_cell_state1.json": _with_first_cell(_operator(np.eye(3) / 3, 1), [1 / 3, True]),
        "huge_cell_state1.json": _with_first_cell(_operator(np.eye(3) / 3, 1), [10 ** 400, 0]),
        # B - B^dag overflows to inf at the double range's edge
        "edge_blocks.json": {"in": {"k_min": 0, "k_max": 0}, "out": {"k_min": 0, "k_max": 1},
                             "blocks": [[{"k_min": 0, "k_max": 1, "entries": [
                                 [[0.5, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.5, 0.0]]]}]]},
    }
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


# (name, argv); "@" prefixes an input file, and "--out" names a file the call writes
CALLS = [
    ("apply_two_mode_k1", ["channel-apply", "--k", "1", "--phi", "two-mode",
                           "--state", "@state1.json"]),
    ("apply_geometric_k2", ["channel-apply", "--k", "2", "--phi", "geometric(0.7)",
                            "--state", "@state2.json", "--out", "apply.json"]),
    ("apply_vector_k2", ["channel-apply", "--k", "2", "--phi", "@phi2.json",
                         "--state", "@state2.json", "--out", "apply.json"]),
    ("apply_uniform_k2", ["channel-apply", "--k", "2", "--phi", "uniform",
                          "--state", "@state2.json"]),
    ("apply_mode_k2", ["channel-apply", "--k", "2", "--phi", "mode(-1)",
                       "--state", "@state2.json"]),
    ("eb_phi_two_mode_k1", ["eb-report", "--phi", "two-mode", "--k", "1"]),
    ("eb_phi_geometric_k4", ["eb-report", "--phi", "geometric(0.7)", "--k", "4",
                             "--out", "report.json"]),
    ("eb_phi_uniform1_k3", ["eb-report", "--phi", "uniform(1)", "--k", "3"]),
    ("eb_phi_mode_k2", ["eb-report", "--phi", "mode(0)", "--k", "2"]),
    ("eb_phi_vector_k10", ["eb-report", "--phi", "@phi10.json", "--k", "10",
                           "--out", "report.json"]),
    ("eb_phi_diagonal_sigma_k2", ["eb-report", "--phi", "geometric(0.7)", "--k", "2",
                                  "--sigma", "@sigma_diag2.json"]),
    ("eb_phi_geometric_k32", ["eb-report", "--phi", "geometric(0.7)", "--k", "32"]),
    ("eb_phi_sigma_k2", ["eb-report", "--phi", "@phi2.json", "--k", "2",
                         "--sigma", "@sigma2.json"]),
    ("eb_phi_sigma_k10", ["eb-report", "--phi", "@phi10.json", "--k", "10",
                          "--sigma", "@sigma10.json"]),
    ("eb_blocks_identity", ["eb-report", "--channel", "@identity1.json"]),
    ("eb_blocks_transpose", ["eb-report", "--channel", "@transpose1.json"]),
    ("eb_blocks_kraus", ["eb-report", "--channel", "@kraus1.json", "--sigma", "@state1.json"]),
    ("eb_atoms", ["eb-report", "--channel", "@atoms2.json", "--out", "report.json"]),
    ("eb_atoms_sigma", ["eb-report", "--channel", "@atoms2.json", "--sigma", "@sigma2.json"]),
    ("eb_atoms_border", ["eb-report", "--channel", "@border_atoms1.json"]),
    ("capacity_geometric", ["capacity", "--phi", "geometric(0.7)", "--k", "2,4,8",
                            "--grid", "8,64", "--base", "2", "--out", "capacity.csv"]),
    ("capacity_two_mode", ["capacity", "--phi", "two-mode", "--k", "1", "--grid", "2"]),
    ("capacity_vector", ["capacity", "--phi", "@phi2.json", "--k", "2", "--grid", "3,5"]),
    ("capacity_uniform", ["capacity", "--phi", "uniform", "--k", "3,5", "--grid", "4,7"]),
    ("rho12_two_mode_k1", ["rho12", "--phi", "two-mode", "--k", "1"]),
    ("rho12_asymmetric_k3", ["rho12", "--phi", "geometric(0.7)", "--phi2", "uniform(1)",
                             "--k", "3", "--n-sweep", "1,2,4,8", "--out", "rho12.json"]),
    ("rho12_vector_k10", ["rho12", "--phi", "@phi10.json", "--k", "10", "--n-sweep", "1,2,4,8",
                          "--out", "rho12.json"]),
    ("rho12_mode_k2", ["rho12", "--phi", "mode(1)", "--phi2", "two-mode", "--k", "2"]),
    ("rho12_vector_geometric_k2", ["rho12", "--phi", "@phi2.json", "--phi2", "geometric(0.5)",
                                   "--k", "2", "--n-sweep", "3", "--out", "rho12.json"]),
    ("probe_geometric", ["probe", "--phi", "geometric(0.7)", "--k", "2,4,8,10", "--candidates",
                         "mode(0),mode(0);geometric(0.7),geometric(0.7)", "--out", "probe.csv"]),
    ("probe_two_mode", ["probe", "--phi", "two-mode", "--k", "1,2"]),
    ("probe_vector", ["probe", "--phi", "@phi2.json", "--phi2", "geometric(0.7)", "--k", "2",
                      "--candidates", "mode(0),mode(1);two-mode,uniform;uniform(1),mode(-2)"]),
    ("probe_uniform", ["probe", "--phi", "uniform(1)", "--k", "1,3",
                       "--candidates", "uniform(1),uniform(1);mode(1),mode(0)"]),
    ("exit2_window", ["rho12", "--phi", "@phi2.json", "--k", "3"]),
    ("exit3_probe", ["probe", "--phi", "geometric(0.3)", "--k", "1000"]),
    ("exit2_blocks_out_window", ["eb-report", "--channel", "@wide_out_blocks.json"]),
    ("exit3_blocks_edge", ["eb-report", "--channel", "@edge_blocks.json"]),
    ("exit2_state_true_cell", ["channel-apply", "--k", "1", "--phi", "two-mode",
                               "--state", "@true_cell_state1.json"]),
    ("exit2_state_huge_integer", ["channel-apply", "--k", "1", "--phi", "two-mode",
                                  "--state", "@huge_cell_state1.json"]),
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_call(main, argv, inputs, out_dir):
    """Run one call in a fresh out_dir: its exit code and the digests of what it wrote."""
    out_dir.mkdir()
    args = [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]
    args = [str(out_dir / a) if n and args[n - 1] == "--out" else a for n, a in enumerate(args)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as stop:
            code = stop.code
    messages = stderr.getvalue().replace(str(inputs), "<inputs>")  # the paths are temporary
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode("utf-8")),
            "stderr": _sha(messages.encode("utf-8")),
            "files": {path.name: _sha(path.read_bytes()) for path in sorted(out_dir.iterdir())}}


def run_demo(path):
    """Run one demo script as __main__: its exit code and the digest of its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            runpy.run_path(str(path), run_name="__main__")
            code = 0
        except SystemExit as stop:
            code = stop.code
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode("utf-8"))}


def digests():
    """{call name: digest} for every call, run in a temporary directory, and every demo."""
    from eblab.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = root / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        calls = {name: run_call(main, argv, inputs, root / name) for name, argv in CALLS}
    return calls | {f"demo_{path.stem}": run_demo(path) for path in DEMOS}


def changed(old, new):
    """Names of the calls whose digest differs between two manifests, added and removed ones too."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main(argv):
    new = digests()
    if argv == ["--digests"]:
        print(json.dumps(new, sort_keys=True))
        return 0
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name in changed(old, new):
        was, now = old.get(name, {}), new.get(name, {})
        for field in sorted(was.keys() | now.keys()):
            if was.get(field) != now.get(field):
                print(f"{name} {field}: {was.get(field)} -> {now.get(field)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
