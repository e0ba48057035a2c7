"""The four workloads: seeded inputs, the fixed batch of CLI calls, and their checks.

Inputs are generated from the seed with numpy alone before any timing
starts; the program sees only the generated files and the flags. Why each
workload exists is written down in NOTES.md beside this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

WORKLOADS = ("eb_report", "probe_sweep", "rho12_export", "cli_light")

PROBE_KS = (2, 4, 8, 10)
PROBE_CANDIDATES = (
    # profile (probed as profile x profile), its amplitudes, exact bound in closed form
    ("mode(0)", partial(orc.basis, k=0), lambda k: 0.0),
    ("geometric(0.7)", partial(orc.geometric, ratio=0.7), lambda k: 1.0 / (4 * k + 1)),
)
FIDUCIAL_K = 10  # eb_report and rho12_export: about 3-4 s per cold call, several calls per run
N_SWEEP = (1, 2, 4, 8)
CAPACITY_KS = (2, 4, 8, 16)
CAPACITY_GRIDS = (8, 64)


@dataclass
class Call:
    """One cold `python -m eblab` invocation of a batch.

    args may hold "{out}" for the batch's output directory. check maps the
    written files (name -> bytes) to error strings; corrupt changes one
    number in those files for the self-test, which check must then catch.
    """

    name: str
    args: list
    outputs: list
    check: Callable[[dict], list]
    corrupt: Callable[[dict], dict]

    def argv(self, out_dir):
        return [a.replace("{out}", str(out_dir)) for a in self.args]


def _corrupt(file, change):
    def corrupt(files):
        return dict(files, **{file: change(files[file])})
    return corrupt


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _random_vector(rng, half_width):
    d = 2 * half_width + 1
    return orc.normalized(rng.normal(size=d) + 1j * rng.normal(size=d))


def _random_state(rng, half_width):
    d = 2 * half_width + 1
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def _random_holevo(rng, half_width, atoms):
    """Rank-one POVM {S^-1/2 a a^dag S^-1/2} paired with random full-rank outputs."""
    d = 2 * half_width + 1
    a = rng.normal(size=(atoms, d)) + 1j * rng.normal(size=(atoms, d))
    vals, vecs = np.linalg.eigh(a.T @ a.conj())
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    doc = []
    for row in a:
        m = inv_root @ row
        povm = np.outer(m, m.conj())
        doc.append({"M": orc.operator_json(0.5 * (povm + povm.conj().T), half_width),
                    "rho_out": orc.operator_json(_random_state(rng, half_width), half_width)})
    return {"atoms": doc}


def _vector_json(v, half_width):
    return {"k_min": -half_width, "k_max": half_width,
            "amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def _eb_report_call(name, source_args):
    out = f"{name}.json"
    return Call(name, ["eb-report", *source_args, "--out", "{out}/" + out], [out],
                partial(orc.check_eb_report, name=out),
                _corrupt(out, partial(orc.set_json_number, key="extraction_residual",
                                      value="0.001")))


def _rho12_call(name, phi_arg, phi, half_width, extra=(), sweep=()):
    out = f"{name}.json"
    outputs = [out] + ([f"{name}.n_sweep.csv"] if sweep else [])

    def check(files):
        errors = orc.check_operator(files, out, orc.rho12(phi, phi, half_width), half_width, 1e-12)
        if sweep:
            errors += orc.check_n_sweep(files, outputs[1], phi, half_width, sweep)
        return errors

    return Call(name, ["rho12", "--phi", phi_arg, "--k", str(half_width), *extra,
                       "--out", "{out}/" + out], outputs, check,
                _corrupt(out, partial(orc.corrupt_after, marker='"entries":[[[')))


def _channel_apply_call(name, phi_arg, phi, state_path, rho, half_width):
    out = f"{name}.json"
    return Call(name, ["channel-apply", "--k", str(half_width), "--phi", phi_arg,
                       "--state", state_path, "--out", "{out}/" + out], [out],
                partial(orc.check_operator, name=out, expected=orc.diagonal_sum_apply(phi, rho),
                        half_width=half_width, tol=1e-12),
                _corrupt(out, partial(orc.corrupt_after, marker='"entries":[[[')))


def _probe_call():
    out = "probe.csv"
    phi = partial(orc.geometric, ratio=0.7)
    spec = ";".join(f"{c},{c}" for c, _, _ in PROBE_CANDIDATES)
    args = ["probe", "--phi", "geometric(0.7)", "--k", ",".join(map(str, PROBE_KS)),
            "--candidates", spec, "--out", "{out}/" + out]
    return Call("probe", args, [out],
                partial(orc.check_probe, name=out, phi=phi, half_widths=PROBE_KS,
                        candidates=PROBE_CANDIDATES),
                _corrupt(out, partial(orc.corrupt_after, marker="geometric(0.7)|geometric(0.7),")))


def probe_excess(files):
    """max |eps - exact| over the probe_sweep rows."""
    return orc.probe_excess(files, "probe.csv", partial(orc.geometric, ratio=0.7),
                            PROBE_KS, PROBE_CANDIDATES)


def _capacity_call():
    out = "capacity.csv"
    args = ["capacity", "--phi", "geometric(0.7)", "--k", ",".join(map(str, CAPACITY_KS)),
            "--grid", ",".join(map(str, CAPACITY_GRIDS)), "--base", "2", "--out", "{out}/" + out]
    return Call("capacity", args, [out],
                partial(orc.check_capacity, name=out, phi=partial(orc.geometric, ratio=0.7),
                        half_widths=CAPACITY_KS, grids=CAPACITY_GRIDS),
                _corrupt(out, partial(orc.corrupt_after, marker="\n2,8,")))


def build(workload, seed, input_dir):
    """Write the workload's inputs for this seed and return its batch of calls."""
    rng = np.random.default_rng(seed)
    input_dir = Path(input_dir)
    if workload == "eb_report":
        phi = _random_vector(rng, FIDUCIAL_K)
        path = _write_json(input_dir / "phi.json", _vector_json(phi, FIDUCIAL_K))
        return [_eb_report_call("eb_report",
                                ["--phi", path, "--k", str(FIDUCIAL_K), "--sigma", "mixed"])]
    if workload == "probe_sweep":
        return [_probe_call()]
    if workload == "rho12_export":
        phi = _random_vector(rng, FIDUCIAL_K)
        path = _write_json(input_dir / "phi.json", _vector_json(phi, FIDUCIAL_K))
        sweep_arg = ["--n-sweep", ",".join(map(str, N_SWEEP))]
        return [_rho12_call("rho12", path, phi, FIDUCIAL_K, sweep_arg, N_SWEEP)]
    if workload == "cli_light":
        state1 = _random_state(rng, 1)
        phi8 = _random_vector(rng, 8)
        state8 = _random_state(rng, 8)
        holevo = _random_holevo(rng, 2, atoms=8)
        state1_path = _write_json(input_dir / "state1.json", orc.operator_json(state1, 1))
        phi8_path = _write_json(input_dir / "phi8.json", _vector_json(phi8, 8))
        state8_path = _write_json(input_dir / "state8.json", orc.operator_json(state8, 8))
        holevo_path = _write_json(input_dir / "holevo2.json", holevo)
        return [
            _channel_apply_call("apply_k1", "two-mode", orc.two_mode(1), state1_path, state1, 1),
            _channel_apply_call("apply_k8", phi8_path, phi8, state8_path, state8, 8),
            _capacity_call(),
            _eb_report_call("eb_holevo", ["--channel", holevo_path]),
            _rho12_call("rho12_k1", "two-mode", orc.two_mode(1), 1),
        ]
    raise ValueError(f"unknown workload {workload!r}")
