import re

import numpy as np
import pytest

from eblab import (
    CapacityReport,
    InputEnsemble,
    InvariantViolationError,
    ModeWindow,
    RotationChannel,
    StateMeasure,
    StateOperator,
    apply_closed_form,
    ba_optimize,
    barycenter,
    chi_quantity,
    closed_form_capacity,
    omega,
    orbit_state,
    phi_profile,
    sup_relative_entropy_check,
    von_neumann_entropy,
)
from conftest import random_density

from oracles import scalar_entropy


def random_state_on(rng, window):
    return StateOperator(window, random_density(rng, window.dimension))


def random_ensemble(rng, window, size):
    weights = rng.dirichlet(np.ones(size))
    return InputEnsemble([(w, random_state_on(rng, window)) for w in weights])


def test_closed_form_two_mode_and_single_mode():
    assert abs(closed_form_capacity(phi_profile("two-mode", 1)) - np.log(2.0)) < 1e-12
    assert closed_form_capacity(phi_profile("mode(0)", 1)) == 0.0


def test_closed_form_matches_scalar_oracle():
    phi = phi_profile("geometric(0.7)", 8)
    weights = np.abs(phi.amplitudes) ** 2
    assert abs(closed_form_capacity(phi) - scalar_entropy(weights)) < 1e-12
    assert abs(closed_form_capacity(phi) - von_neumann_entropy(omega(phi))) < 1e-12


def test_closed_form_grows_with_window_toward_series_limit():
    values = [closed_form_capacity(phi_profile("geometric(0.7)", k)) for k in (2, 4, 8)]
    assert values[0] < values[1] < values[2]
    # far-window sum as the series oracle
    limit = closed_form_capacity(phi_profile("geometric(0.7)", 200))
    gaps = [limit - v for v in values]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 5e-2


def test_omega_is_channel_fixed_point():
    phi = phi_profile("geometric(0.7)", 3)
    channel = RotationChannel(phi)
    fixed = omega(phi)
    out = apply_closed_form(channel, fixed)
    assert np.abs(out.entries - fixed.entries).max() < 1e-12
    assert np.allclose(np.diag(fixed.entries).real, np.abs(phi.amplitudes) ** 2)


def test_omega_two_mode():
    fixed = omega(phi_profile("two-mode", 1))
    diag = np.diag(fixed.entries).real
    assert np.allclose(diag, [0.0, 0.5, 0.5], atol=1e-14)


def test_omega_equals_orbit_barycenter():
    phi = phi_profile("geometric(0.6)", 2)
    n = 4 * 2 + 2
    atoms = [(1.0 / n, orbit_state(phi, 2.0 * np.pi * j / n)) for j in range(n)]
    assert np.abs(barycenter(StateMeasure(atoms)).entries - omega(phi).entries).max() < 1e-12


def test_chi_single_atom_is_zero(rng):
    phi = phi_profile("geometric(0.7)", 2)
    channel = RotationChannel(phi)
    ensemble = InputEnsemble([(1.0, random_state_on(rng, channel.window))])
    assert chi_quantity(channel, ensemble) < 1e-12


def test_chi_two_mode_antipodal_orbit_pair():
    # phase cancellation makes the output average exactly the flat fixed
    # point; the individual outputs are NOT pure at finite truncation
    # (|D_1| = 1 is unattainable), so chi falls short of log 2 by the
    # common output entropy H(3/4, 1/4)
    phi = phi_profile("two-mode", 1)
    channel = RotationChannel(phi)
    ensemble = InputEnsemble([(0.5, orbit_state(phi, 0.0)),
                              (0.5, orbit_state(phi, np.pi))])
    out_bar = apply_closed_form(channel, ensemble.average())
    assert np.abs(out_bar.entries - omega(phi).entries).max() < 1e-12
    want = np.log(2.0) - scalar_entropy([0.75, 0.25])
    assert abs(chi_quantity(channel, ensemble) - want) < 1e-12


def test_chi_equals_entropy_difference(rng):
    phi = phi_profile("geometric(0.7)", 2)
    channel = RotationChannel(phi)
    ensemble = random_ensemble(rng, channel.window, 4)
    chi = chi_quantity(channel, ensemble)
    out_bar = apply_closed_form(channel, ensemble.average())
    alt = von_neumann_entropy(out_bar) - sum(
        w * von_neumann_entropy(apply_closed_form(channel, s)) for w, s in ensemble.atoms)
    assert abs(chi - alt) < 1e-10


def test_chi_respects_closed_form_bound(rng):
    phi = phi_profile("geometric(0.7)", 3)
    channel = RotationChannel(phi)
    bound = closed_form_capacity(phi)
    for _ in range(25):
        ensemble = random_ensemble(rng, channel.window, int(rng.integers(1, 5)))
        assert chi_quantity(channel, ensemble) <= bound + 1e-9


def test_sup_relative_entropy_diagonal_input_is_zero(rng):
    phi = phi_profile("geometric(0.7)", 2)
    channel = RotationChannel(phi)
    probs = rng.dirichlet(np.ones(5))
    rho = StateOperator(channel.window, np.diag(probs))
    assert sup_relative_entropy_check(channel, rho) < 1e-12


def test_sup_relative_entropy_two_mode_plus_state():
    phi = phi_profile("two-mode", 1)
    channel = RotationChannel(phi)
    value = sup_relative_entropy_check(channel, phi.projector())
    # output eigenvalues 3/4, 1/4 against the flat fixed point
    want = np.log(2.0) - scalar_entropy([0.75, 0.25])
    assert abs(value - want) < 1e-12


def test_sup_relative_entropy_bounded_by_closed_form(rng):
    phi = phi_profile("geometric(0.7)", 3)
    channel = RotationChannel(phi)
    bound = closed_form_capacity(phi)
    for _ in range(20):
        value = sup_relative_entropy_check(channel, random_state_on(rng, channel.window))
        assert value <= bound + 1e-9


def test_sup_relative_entropy_saturates_with_localization():
    # sharper uniform-window inputs localize the readout density, so the
    # output approaches a pure orbit point and the value approaches the
    # closed form
    gaps = []
    for half in (2, 4, 8):
        phi = phi_profile("geometric(0.7)", half)
        channel = RotationChannel(phi)
        best = max(sup_relative_entropy_check(channel, phi_profile(f"uniform({j})", half).projector())
                   for j in range(half + 1))
        gaps.append(closed_form_capacity(phi) - best)
    assert gaps[0] > gaps[1] > gaps[2]


def test_output_entropy_never_exceeds_omega(rng):
    phi = phi_profile("geometric(0.7)", 3)
    channel = RotationChannel(phi)
    top = von_neumann_entropy(omega(phi))
    for _ in range(100):
        out = apply_closed_form(channel, random_state_on(rng, channel.window))
        assert von_neumann_entropy(out) <= top + 1e-10


def test_output_entropy_floor_shrinks_with_window():
    floors = []
    for half in (2, 4, 8):
        phi = phi_profile("geometric(0.7)", half)
        channel = RotationChannel(phi)
        floor = min(von_neumann_entropy(
            apply_closed_form(channel, phi_profile(f"uniform({j})", half).projector()))
            for j in range(half + 1))
        floors.append(floor)
    assert floors[0] > floors[1] > floors[2]


def test_ba_two_mode_two_phases_saturates():
    phi = phi_profile("two-mode", 1)
    report = ba_optimize(RotationChannel(phi), 2)
    assert report.converged
    assert abs(report.optimizer_value - np.log(2.0)) < 1e-12
    assert abs(report.gap) <= 1e-10


def test_ba_single_phase_is_zero():
    phi = phi_profile("geometric(0.7)", 2)
    report = ba_optimize(RotationChannel(phi), 1)
    assert report.converged
    assert abs(report.optimizer_value) < 1e-12


def test_ba_geometric_dense_grid_closes_gap():
    phi = phi_profile("geometric(0.7)", 8)
    report = ba_optimize(RotationChannel(phi), 64)
    assert report.converged
    assert report.gap <= 1e-3


def test_ba_iterates_non_decreasing_and_bounded(rng):
    phi = phi_profile("geometric(0.7)", 4)
    channel = RotationChannel(phi)
    bound = closed_form_capacity(phi)
    for n in (2, 3, 5, 9):
        report = ba_optimize(channel, n)
        values = report.iterate_values
        assert all(values[i + 1] >= values[i] - 1e-12 for i in range(len(values) - 1))
        assert report.optimizer_value <= bound + 1e-9


def test_ba_grid_refinement_non_decreasing():
    phi = phi_profile("geometric(0.7)", 4)
    channel = RotationChannel(phi)
    previous = -1.0
    for n in (2, 4, 8, 16, 32):
        value = ba_optimize(channel, n).optimizer_value
        assert value >= previous - 1e-9
        previous = value


def test_ba_core_handles_asymmetric_output_families(rng):
    # exercise the weight iteration beyond one step: a lopsided candidate
    # family has no symmetry shortcut, so convergence takes real work
    from eblab.capacity import _ba_pure_outputs

    dim = 4
    outputs = np.stack([
        np.eye(dim)[0],
        np.eye(dim)[1],
        (np.eye(dim)[0] + np.eye(dim)[1]) / np.sqrt(2.0),
        (np.eye(dim)[2] + 0.3 * np.eye(dim)[3]) / np.linalg.norm([1.0, 0.3]),
    ]).astype(complex)
    chi, iterations, converged, values = _ba_pure_outputs(outputs, 50000, 1e-9)
    assert converged
    assert iterations > 1
    assert all(values[i + 1] >= values[i] - 1e-12 for i in range(len(values) - 1))
    # three effectively distinguishable candidates: the optimum reaches log 3
    assert abs(chi - np.log(3.0)) < 1e-6


def test_capacity_report_rejects_bound_violation():
    # NaN compared false with '>' and used to pass
    for value, shown in ((1.1, "1.100e+00"), (float("nan"), "nan")):
        with pytest.raises(InvariantViolationError, match=re.escape(f"= {shown} > 1.000000001")):
            CapacityReport(closed_form=1.0, optimizer_value=value, gap=1.0 - value,
                           grid_size=2, iterations=1, converged=True)


def test_ensemble_validation(rng):
    w = ModeWindow.symmetric(1)
    rho = random_state_on(rng, w)
    with pytest.raises(InvariantViolationError):
        InputEnsemble([(0.5, rho)])
    with pytest.raises(InvariantViolationError):
        InputEnsemble([])


def test_ensemble_is_a_state_measure(rng):
    window = ModeWindow.symmetric(1)
    atoms = [(w, random_state_on(rng, window)) for w in rng.dirichlet(np.ones(3))]
    ensemble = InputEnsemble(atoms)
    assert isinstance(ensemble, StateMeasure)
    assert np.array_equal(ensemble.average().entries, barycenter(StateMeasure(atoms)).entries)
    with pytest.raises(InvariantViolationError):
        InputEnsemble([(0.5 + 1e-11, atoms[0][1]), (0.5, atoms[1][1])])


def test_ba_optimize_refuses_zero_iterations():
    # max_iter 0 used to return value 0 after 0 iterations, a number nothing computed
    channel = RotationChannel(phi_profile("two-mode", 1))
    with pytest.raises(InvariantViolationError, match="max_iter"):
        ba_optimize(channel, 2, max_iter=0)
    assert ba_optimize(channel, 2, max_iter=1).iterations == 1
