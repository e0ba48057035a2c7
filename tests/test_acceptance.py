"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.
"""

import subprocess
import sys
import time

import numpy as np

from eblab import (
    ModeWindow,
    StateOperator,
    apply,
    apply_closed_form,
    apply_quadrature,
    ba_optimize,
    basis_vector,
    channel_blocks,
    chi_quantity,
    choi,
    closed_form_capacity,
    covariance_residual,
    cp_check,
    decomposability_probe_sweep,
    eb_extract,
    eb_necessary_test,
    holevo_apply,
    InputEnsemble,
    jsonio,
    phi_profile,
    product_bound_probe,
    rho12,
    rho12_n,
    RotationChannel,
    separable_choi_from_holevo,
    sweep_maxima,
    tensor,
    trace_norm_distance,
)
from conftest import blocks_from_holevo, identity_channel, random_density

from test_channels import random_full_rank_state, random_holevo_form


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _random_state(rng, window):
    return StateOperator(window, random_density(rng, window.dimension))


def test_criterion_1_closed_form_matches_quadrature():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for half in (2, 4, 8):
        channel = RotationChannel(phi_profile("geometric(0.7)", half))
        for _ in range(50):
            rho = _random_state(rng, channel.window)
            a = apply_closed_form(channel, rho)
            b = apply_quadrature(channel, rho)
            worst = max(worst, float(np.abs(a.entries - b.entries).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    assert _report(1, ok,
                   f"closed form vs quadrature, K in (2,4,8), 50 states each: "
                   f"max residual {worst:.3e} (<= 1e-12), {elapsed:.2f} s (< 10 s)")


def test_criterion_2_covariance():
    rng = np.random.default_rng(102)
    channel = RotationChannel(phi_profile("geometric(0.7)", 4))
    worst = 0.0
    for _ in range(20):
        rho = _random_state(rng, channel.window)
        u = float(rng.uniform(0.0, 2.0 * np.pi))
        worst = max(worst, covariance_residual(channel, rho, u))
    ok = worst <= 1e-12
    assert _report(2, ok, f"covariance residual over 20 random (rho, u) at K=4: "
                          f"max {worst:.3e} (<= 1e-12)")


def test_criterion_3_channel_legality():
    worst_eig = 0.0
    worst_trace = 0.0
    for half in range(1, 7):
        blocks = channel_blocks(RotationChannel(phi_profile("geometric(0.7)", half)))
        is_cp, low = cp_check(blocks)
        assert is_cp
        worst_eig = min(worst_eig, low)
        d = blocks.in_window.dimension
        traces = np.einsum("ijkk->ij", blocks.blocks)
        worst_trace = max(worst_trace, float(np.abs(traces - np.eye(d)).max()))
    ok = worst_eig >= -1e-10 and worst_trace <= 1e-10
    assert _report(3, ok, f"rotation blocks K<=6: min stacked eigenvalue {worst_eig:.3e} "
                          f"(>= -1e-10), trace defect {worst_trace:.3e} (<= 1e-10)")


def test_criterion_4_eb_necessary_test():
    ppt_ok = True
    for half in range(1, 7):
        phi = phi_profile("geometric(0.7)", half)
        blocks = channel_blocks(RotationChannel(phi))
        sigma = StateOperator.maximally_mixed(phi.window)
        ppt, _ = eb_necessary_test(choi(blocks, sigma))
        ppt_ok = ppt_ok and ppt
    w2 = ModeWindow(0, 1)
    _, low = eb_necessary_test(choi(identity_channel(w2), StateOperator.maximally_mixed(w2)))
    identity_ok = abs(low + 0.5) <= 1e-10
    ok = ppt_ok and identity_ok
    assert _report(4, ok, f"rotation Choi PPT for K<=6: {ppt_ok}; identity channel "
                          f"PT min eigenvalue {low:.12f} (= -0.5 +- 1e-10)")


def test_criterion_5_extraction_round_trip():
    rng = np.random.default_rng(105)
    worst_block = 0.0
    worst_kraus_id = 0.0
    worst_action = 0.0
    for _ in range(20):
        d_in = int(rng.integers(2, 6))
        d_out = int(rng.integers(2, 6))
        atom_count = int(rng.integers(1, 7))
        form = random_holevo_form(rng, d_in, d_out, atom_count)
        chan = blocks_from_holevo(form)
        sigma = random_full_rank_state(rng, d_in)
        decomposition = separable_choi_from_holevo(form, choi(chan, sigma))
        extracted, _ = eb_extract(decomposition)
        worst_block = max(worst_block, float(
            np.abs(blocks_from_holevo(extracted).blocks - chan.blocks).max()))
        completeness = sum(a.conj().T @ a for a in form.operators)
        worst_kraus_id = max(worst_kraus_id, float(
            np.abs(completeness - np.eye(d_in)).max()))
        for _ in range(3):
            rho = _random_state(rng, form.in_window)
            worst_action = max(worst_action, float(
                np.abs(holevo_apply(form, rho).entries
                       - apply(chan, rho).entries).max()))
    ok = worst_block <= 1e-8 and worst_kraus_id <= 1e-10 and worst_action <= 1e-10
    assert _report(5, ok, f"20 random forms: extraction block residual {worst_block:.3e} "
                          f"(<= 1e-8), Kraus completeness {worst_kraus_id:.3e} (<= 1e-10), "
                          f"action residual {worst_action:.3e} (<= 1e-10)")


def test_criterion_6_rho12_desk_values():
    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    k = phi.window.modes()
    sums = np.add.outer(k, k).reshape(-1)
    weights = np.abs(np.kron(phi.amplitudes, phi.amplitudes))
    pattern = (sums[:, None] == sums[None, :]) & (np.outer(weights, weights) > 0)
    matrix_ok = (np.abs(state.entries[pattern] - 0.25).max() <= 1e-12
                 and np.abs(state.entries[~pattern]).max() <= 1e-12)
    vals = np.sort(np.linalg.eigvalsh(state.entries))[::-1]
    eig_ok = np.abs(vals[:4] - np.array([0.5, 0.25, 0.25, 0.0])).max() <= 1e-12
    e0 = basis_vector(phi.window, 0)
    eps = product_bound_probe(state, e0, e0)
    probe_ok = abs(eps - 0.25) <= 1e-9
    group_worst = 0.0
    for n in (2, 4, 8):
        approx = rho12_n(phi, phi, n)
        averaged = np.zeros_like(approx.entries)
        for j in range(n):
            u = 2.0 * np.pi * j / n
            joint = np.kron(np.exp(1j * u * k), np.exp(1j * u * k))
            averaged += (joint[:, None] * approx.entries) * joint.conj()[None, :] / n
        group_worst = max(group_worst, float(np.abs(averaged - state.entries).max()))
    group_ok = group_worst <= 1e-12
    ok = matrix_ok and eig_ok and probe_ok and group_ok
    assert _report(6, ok, f"two-mode rho12: analytic matrix {matrix_ok}, eigenvalues "
                          f"{eig_ok}, probe {eps:.10f} (= 0.25 +- 1e-9), group-average "
                          f"residual {group_worst:.3e} (<= 1e-12)")


def test_criterion_6_rho12_n_distances_strictly_decreasing():
    # Stated criterion: trace distance of the partial-orbit approximant to
    # the pure product state strictly decreases over n in (1, 2, 4, 8).
    # The approximant integrates over [0, 2pi/n), so its orbit-center sits
    # at pi/n away from the product state's phase; at n = 2 that offset
    # dominates and the distance RISES (0.6404 -> 0.6545) before the
    # shrinking interval takes over. The assertion is kept as stated and
    # fails honestly; see the n >= 2 tail checks in test_rotation.py for
    # the part of the trend that does hold.
    phi = phi_profile("two-mode", 1)
    product = StateOperator.from_operator(tensor(phi.projector(), phi.projector()))
    distances = [trace_norm_distance(rho12_n(phi, phi, n), product) for n in (1, 2, 4, 8)]
    strictly_decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    _report(6, strictly_decreasing,
            "rho12_n distances to the product state strictly decreasing over "
            f"n in (1,2,4,8): {[round(d, 6) for d in distances]}")
    assert strictly_decreasing


def test_criterion_7_capacity():
    rng = np.random.default_rng(107)
    two_mode = RotationChannel(phi_profile("two-mode", 1))
    report2 = ba_optimize(two_mode, 2)
    two_mode_ok = (abs(report2.closed_form - np.log(2.0)) <= 1e-12
                   and abs(report2.gap) <= 1e-10)
    geometric = RotationChannel(phi_profile("geometric(0.7)", 8))
    report64 = ba_optimize(geometric, 64)
    geometric_ok = report64.gap <= 1e-3
    monotone_ok = True
    for report in (report2, report64,
                   ba_optimize(RotationChannel(phi_profile("geometric(0.7)", 4)), 7),
                   ba_optimize(RotationChannel(phi_profile("geometric(0.5)", 3)), 5)):
        values = report.iterate_values
        monotone_ok = monotone_ok and all(
            values[i + 1] >= values[i] - 1e-12 for i in range(len(values) - 1))
    chan = RotationChannel(phi_profile("geometric(0.7)", 4))
    bound = closed_form_capacity(chan.phi)
    chi_ok = True
    for _ in range(100):
        size = int(rng.integers(1, 6))
        ensemble = InputEnsemble(list(zip(rng.dirichlet(np.ones(size)),
                                          (_random_state(rng, chan.window)
                                           for _ in range(size)))))
        chi_ok = chi_ok and chi_quantity(chan, ensemble) <= bound + 1e-9
    ok = two_mode_ok and geometric_ok and monotone_ok and chi_ok
    assert _report(7, ok, f"two-mode n=2 gap {report2.gap:.3e} (<= 1e-10); geometric "
                          f"K=8 n=64 gap {report64.gap:.3e} (<= 1e-3); iterates "
                          f"non-decreasing {monotone_ok}; 100 ensembles chi <= C: {chi_ok}")


def test_criterion_8_probe_sweep_trend():
    started = time.perf_counter()
    rows = decomposability_probe_sweep(
        "geometric(0.7)", "geometric(0.7)", (2, 4, 8, 16),
        [("mode(0)", "mode(0)"), ("geometric(0.7)", "geometric(0.7)")])
    elapsed = time.perf_counter() - started
    maxima = sweep_maxima(rows)
    values = [maxima[k] for k in (2, 4, 8, 16)]
    non_increasing = all(b <= a for a, b in zip(values, values[1:]))
    ok = non_increasing and elapsed < 60.0
    assert _report(8, ok, f"geometric probe sweep eps_max over K=(2,4,8,16): "
                          f"{[format(v, '.3e') for v in values]} non-increasing "
                          f"{non_increasing}, {elapsed:.1f} s (< 60 s)")


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        result = subprocess.run([sys.executable, "-m", "eblab", *args],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return result

    state_path = tmp_path / "state.json"
    rho = StateOperator(ModeWindow.symmetric(1), np.diag([0.2, 0.5, 0.3]))
    jsonio.write_text(str(state_path), jsonio.dumps(jsonio.operator_to_json(rho)))
    payloads = []
    for tag in ("first", "second"):
        caps = tmp_path / f"caps_{tag}.csv"
        out = tmp_path / f"out_{tag}.json"
        probe = tmp_path / f"probe_{tag}.csv"
        run("capacity", "--phi", "geometric(0.7)", "--k", "2,4", "--grid", "8,16",
            "--out", str(caps))
        run("channel-apply", "--k", "1", "--phi", "two-mode",
            "--state", str(state_path), "--out", str(out))
        run("probe", "--phi", "two-mode", "--k", "1,2",
            "--candidates", "mode(0),mode(0)", "--out", str(probe))
        payloads.append((caps.read_bytes(), out.read_bytes(), probe.read_bytes()))
    ok = payloads[0] == payloads[1]
    assert _report(9, ok, "repeated CLI runs produce byte-identical outputs: "
                          f"{ok}")
