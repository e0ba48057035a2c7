import re

import numpy as np
import pytest

from eblab import (
    CapacityReport,
    InputEnsemble,
    InvariantViolationError,
    ModeWindow,
    PureVector,
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

from oracles import ba_pure_outputs, orbit_outputs, scalar_entropy


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


@pytest.mark.parametrize("profile", ["mode(0)", "geometric(1e-200)", "geometric(1e-9)"])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("grid", [1, 4, 64])
def test_ba_value_is_never_negative(profile, k, grid):
    # each divergence is a relative entropy D(psi_j || rho_bar) >= 0; on a (nearly)
    # phase-invariant fiducial its round-off alone can fall to -4.4e-16
    report = ba_optimize(RotationChannel(phi_profile(profile, k)), grid)
    assert report.optimizer_value >= 0.0
    assert all(value >= 0.0 for value in report.iterate_values)


def test_ba_value_is_never_negative_when_a_class_sums_past_one():
    # one class holding every weight sums to 1 + 4.4e-16 for seed 0's ninth vector,
    # whose folded entropy is then -4.4e-16
    rng = np.random.default_rng(0)
    for _ in range(40):
        phi = PureVector(ModeWindow.symmetric(2), rng.normal(size=5) + 1j * rng.normal(size=5))
        for grid in (1, 2):
            report = ba_optimize(RotationChannel(phi), grid)
            assert report.optimizer_value >= 0.0 and report.iterate_values[0] >= 0.0


@pytest.mark.parametrize("profile, k, grid", [("geometric(1e-9)", 2, 4), ("two-mode", 2, 2),
                                              ("two-mode", 4, 2), ("geometric(0.7)", 16, 64)])
def test_ba_gap_is_never_negative(profile, k, grid):
    # on these the optimizer passes the closed form by round-off; the gap used to print
    # -2.8e-17, -1.1e-16, -1.1e-16 and -2.2e-16
    report = ba_optimize(RotationChannel(phi_profile(profile, k)), grid)
    assert report.gap >= 0.0
    assert report.gap == max(report.closed_form - report.optimizer_value, 0.0)


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
    dim = 4
    outputs = np.stack([
        np.eye(dim)[0],
        np.eye(dim)[1],
        (np.eye(dim)[0] + np.eye(dim)[1]) / np.sqrt(2.0),
        (np.eye(dim)[2] + 0.3 * np.eye(dim)[3]) / np.linalg.norm([1.0, 0.3]),
    ]).astype(complex)
    chi, iterations, converged, values = ba_pure_outputs(outputs, 50000, 1e-9)
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
                           grid_size=2)


def test_capacity_report_is_a_frozen_value():
    report = CapacityReport(closed_form=1.0, optimizer_value=0.5, gap=0.5, grid_size=2)
    assert report == CapacityReport(1.0, 0.5, 0.5, 2)
    assert hash(report) == hash(CapacityReport(1.0, 0.5, 0.5, 2))
    assert repr(report) == ("CapacityReport(closed_form=1.0, optimizer_value=0.5, gap=0.5, "
                            "grid_size=2)")
    assert (report.iterations, report.converged, report.iterate_values) == (1, True, (0.5,))
    with pytest.raises(AttributeError):
        report.gap = 0.0


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


def _orbit_phis(half):
    rng = np.random.default_rng(21 + half)
    random_phi = PureVector(ModeWindow.symmetric(half),
                            rng.normal(size=2 * half + 1) + 1j * rng.normal(size=2 * half + 1))
    return [phi_profile("geometric(0.7)", half), phi_profile("geometric(0.2)", half),
            phi_profile("uniform", half), phi_profile("two-mode", half), random_phi]


def _grids(half):
    return sorted({1, 2, 7, 2 * half, 2 * half + 1, 4 * half + 2, 64})


def _assert_folded_entropy_is_the_ba_optimum(half):
    for phi in _orbit_phis(half):
        channel = RotationChannel(phi)
        for grid in _grids(half):
            report = ba_optimize(channel, grid)
            assert (report.iterations, report.converged) == (1, True)
            assert report.iterate_values == (report.optimizer_value,)
            outputs = orbit_outputs(phi.amplitudes, phi.window.modes(), grid)
            # support 0 keeps every eigenvalue: the default 1e-12 drops weights of
            # geometric(0.2) that the folded entropy counts, about 1.5e-11 at K = 16
            chi, iterations, converged, _ = ba_pure_outputs(outputs, support=0.0)
            assert (iterations, converged) == (1, True)
            assert abs(chi - report.optimizer_value) <= 1e-13, (phi, grid)
            if grid >= 2 * half + 1:
                assert report.optimizer_value == report.closed_form == closed_form_capacity(phi)
                assert report.gap == 0.0


@pytest.mark.parametrize("half", [1, 2, 3, 6])
def test_folded_mode_entropy_is_the_ba_optimum_on_orbit_grids(half):
    _assert_folded_entropy_is_the_ba_optimum(half)


@pytest.mark.slow
@pytest.mark.parametrize("half", [16, 32, 64])
def test_folded_mode_entropy_is_the_ba_optimum_up_to_k64(half):
    _assert_folded_entropy_is_the_ba_optimum(half)


def test_folded_mode_weights_sum_residue_classes():
    # K = 2 on 3 phases: the classes of k - k_min mod 3 are {-2, 1}, {-1, 2} and {0}
    phi = PureVector(ModeWindow.symmetric(2), np.sqrt([0.1, 0.2, 0.3, 0.15, 0.25]))
    report = ba_optimize(RotationChannel(phi), 3)
    assert abs(report.optimizer_value - scalar_entropy([0.25, 0.45, 0.3])) <= 1e-15
