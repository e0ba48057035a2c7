import subprocess
import sys

import numpy as np
import pytest

from eblab import (
    ExtractionInconsistentError,
    HolevoForm,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    RotationChannel,
    SeparableChoiDecomposition,
    SchemaError,
    StateOperator,
    WindowMismatchError,
    apply_closed_form,
    apply_quadrature,
    channel_blocks,
    choi,
    covariance_residual,
    cp_check,
    decomposability_probe_sweep,
    eb_necessary_test,
    eb_extract,
    eig_hermitian,
    factored_channel,
    factored_state,
    holevo_apply,
    holevo_form,
    mu_density,
    orbit_state,
    partial_trace,
    partial_transpose,
    phi_profile,
    rho12,
    rho12_n,
    rho12_n_distance,
    rho12_probe,
    product_bound_probe,
    rotate_vector,
    separable_choi_from_holevo,
    sweep_maxima,
    tensor,
    trace_norm_distance,
)
from eblab.channels import (
    EXTRACT_TOL,
    _PHASE_ERROR,
    _difference_norms,
    _khatri_rao,
    _sector_difference,
)
from eblab.hilbert import SectorFactor, _difference_eigenvalues
from eblab.rotation import _charges
from conftest import assert_same_channel, random_density, random_pure

from oracles import (
    domination_bound,
    grid_channel_apply,
    grid_mu_density,
    grid_orbit_average,
    grid_rho12,
    rho12_n_loop,
    selection_rule_rho12,
)


def random_state_on(rng, window):
    return StateOperator(window, random_density(rng, window.dimension))


def test_channel_requires_symmetric_window():
    with pytest.raises(WindowMismatchError):
        RotationChannel(PureVector(ModeWindow(0, 1), [1.0, 1.0]))


def test_phi_profiles():
    two = phi_profile("two-mode", 2)
    assert np.allclose(np.abs(two.amplitudes) ** 2, [0, 0, 0.5, 0.5, 0])
    geo = phi_profile("geometric(0.7)", 2)
    assert np.all(np.abs(geo.amplitudes) > 0)
    uni = phi_profile("uniform(1)", 2)
    assert np.allclose(np.abs(uni.amplitudes) ** 2, [0, 1 / 3, 1 / 3, 1 / 3, 0])
    single = phi_profile("mode(1)", 2)
    assert np.allclose(np.abs(single.amplitudes) ** 2, [0, 0, 0, 1, 0])
    with pytest.raises(SchemaError):
        phi_profile("gaussian", 2)
    with pytest.raises(SchemaError):
        phi_profile("geometric(1.5)", 2)


def test_mu_density_diagonal_state_is_flat(rng):
    phi = phi_profile("geometric(0.7)", 3)
    channel = RotationChannel(phi)
    probs = rng.dirichlet(np.ones(channel.window.dimension))
    rho = StateOperator(channel.window, np.diag(probs))
    p = mu_density(channel, rho)
    assert np.abs(p - 1.0).max() < 1e-12


def test_mu_density_two_mode_plus_state():
    phi = phi_profile("two-mode", 1)
    channel = RotationChannel(phi)
    rho = phi.projector()  # (|0> + |1>)/sqrt(2)
    p = mu_density(channel, rho)
    xs = 2.0 * np.pi * np.arange(channel.quadrature_nodes) / channel.quadrature_nodes
    assert np.abs(p - (1.0 + np.cos(xs))).max() < 1e-12


def test_mu_density_matches_loop_oracle_and_normalizes(rng):
    phi = phi_profile("geometric(0.6)", 2)
    channel = RotationChannel(phi)
    rho = random_state_on(rng, channel.window)
    p = mu_density(channel, rho)
    xs = 2.0 * np.pi * np.arange(channel.quadrature_nodes) / channel.quadrature_nodes
    for g in (0, 3, 7):
        want = grid_mu_density(rho.entries, channel.window.modes(), xs[g])
        assert abs(p[g] - want) < 1e-12
    assert abs(p.mean() - 1.0) < 1e-12


def test_closed_form_diagonal_input_gives_orbit_average(rng):
    phi = phi_profile("geometric(0.7)", 2)
    channel = RotationChannel(phi)
    probs = rng.dirichlet(np.ones(5))
    rho = StateOperator(channel.window, np.diag(probs))
    out = apply_closed_form(channel, rho)
    assert np.abs(out.entries - np.diag(np.abs(phi.amplitudes) ** 2)).max() < 1e-12


def test_closed_form_two_mode_plus_state():
    phi = phi_profile("two-mode", 1)
    channel = RotationChannel(phi)
    out = apply_closed_form(channel, phi.projector())
    k0 = channel.window.index(0)
    block = out.entries[k0:k0 + 2, k0:k0 + 2]
    assert np.abs(block - np.array([[0.5, 0.25], [0.25, 0.5]])).max() < 1e-12


@pytest.mark.parametrize("half", [1, 2, 3, 4, 6, 8])
def test_closed_form_equals_quadrature(rng, half):
    phi = phi_profile("geometric(0.7)", half)
    channel = RotationChannel(phi)
    for _ in range(5):
        rho = random_state_on(rng, channel.window)
        a = apply_closed_form(channel, rho)
        b = apply_quadrature(channel, rho)
        assert np.abs(a.entries - b.entries).max() < 1e-12


def test_quadrature_matches_dense_grid_oracle(rng):
    phi = phi_profile("geometric(0.5)", 2)
    channel = RotationChannel(phi)
    rho = random_state_on(rng, channel.window)
    got = apply_quadrature(channel, rho).entries
    want = grid_channel_apply(phi.amplitudes, channel.window.modes(),
                              rho.entries, channel.quadrature_nodes)
    assert np.abs(got - want).max() < 1e-12


def test_quadrature_grid_refinement_is_exact(rng):
    # the rectangle rule is exact from 4K + 1 nodes on, so grids on either side of
    # the channel's 4K + 2 give the closed form too; 4K nodes alias the 4K harmonic
    phi = phi_profile("geometric(0.7)", 2)
    rho = random_state_on(rng, phi.window)
    closed = apply_closed_form(RotationChannel(phi), rho).entries
    for nodes in (4 * 2 + 1, 8 * 2 + 3):
        grid = grid_channel_apply(phi.amplitudes, phi.window.modes(), rho.entries, nodes)
        assert np.abs(grid - closed).max() < 1e-13, nodes
    coarse = grid_channel_apply(phi.amplitudes, phi.window.modes(), rho.entries, 4 * 2)
    assert np.abs(coarse - closed).max() > 1e-6


def test_channel_outputs_are_states(rng):
    phi = phi_profile("geometric(0.8)", 3)
    channel = RotationChannel(phi)
    for _ in range(10):
        out = apply_quadrature(channel, random_state_on(rng, channel.window))
        assert abs(out.trace().real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.entries).min() >= -1e-10


def test_covariance_residual(rng):
    phi = phi_profile("geometric(0.7)", 4)
    channel = RotationChannel(phi)
    rho = random_state_on(rng, channel.window)
    assert covariance_residual(channel, rho, 0.0) < 1e-14
    assert covariance_residual(channel, rho, 1.0) < 1e-12
    assert covariance_residual(channel, rho, 2.0 * np.pi) < 1e-12
    for _ in range(5):
        u = float(rng.uniform(0, 2 * np.pi))
        assert covariance_residual(channel, random_state_on(rng, channel.window), u) < 1e-12


def test_channel_blocks_pass_cp_and_match_apply(rng):
    phi = phi_profile("geometric(0.7)", 4)
    channel = RotationChannel(phi)
    blocks = channel_blocks(channel)
    ok, low = cp_check(blocks)
    assert ok and low > -1e-10
    rho = random_state_on(rng, channel.window)
    from eblab import apply
    assert np.abs(apply(blocks, rho).entries
                  - apply_closed_form(channel, rho).entries).max() < 1e-12


def test_channel_blocks_match_grid_oracle_on_matrix_units(rng):
    window = ModeWindow.symmetric(3)
    phi = PureVector(window, random_pure(rng, window.dimension))
    channel = RotationChannel(phi)
    blocks = channel_blocks(channel).blocks
    d = window.dimension
    worst = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            want = grid_channel_apply(phi.amplitudes, window.modes(), unit,
                                      channel.quadrature_nodes)
            worst = max(worst, float(np.abs(blocks[i, j] - want).max()))
    assert worst < 1e-12


def test_rotation_choi_is_ppt():
    for half in (1, 2, 4):
        phi = phi_profile("geometric(0.7)", half)
        blocks = channel_blocks(RotationChannel(phi))
        sigma = StateOperator.maximally_mixed(phi.window)
        ppt, low = eb_necessary_test(choi(blocks, sigma))
        assert ppt, f"K={half}: min PT eigenvalue {low}"


def test_holevo_form_matches_quadrature(rng):
    phi = phi_profile("geometric(0.6)", 2)
    channel = RotationChannel(phi)
    form = holevo_form(channel)
    rho = random_state_on(rng, channel.window)
    assert np.abs(holevo_apply(form, rho).entries
                  - apply_quadrature(channel, rho).entries).max() < 1e-12


def test_rho12_two_mode_analytic_matrix():
    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    k = phi.window.modes()
    sums = np.add.outer(k, k).reshape(-1)
    support = np.abs(phi.amplitudes)[:, None] * np.abs(phi.amplitudes)[None, :] > 0
    mask = (sums[:, None] == sums[None, :]) & np.outer(support.reshape(-1), support.reshape(-1))
    want = np.where(mask, 0.25, 0.0)
    want = want * np.outer(support.reshape(-1), support.reshape(-1))
    # entries are exactly 1/4 on the admissible pattern, 0 elsewhere
    nonzero = np.abs(state.entries) > 1e-14
    assert np.array_equal(nonzero, mask & (np.abs(want) > 0))
    assert np.abs(state.entries[nonzero] - 0.25).max() < 1e-12
    vals = np.sort(np.linalg.eigvalsh(state.entries))[::-1]
    assert np.abs(vals[:4] - np.array([0.5, 0.25, 0.25, 0.0])).max() < 1e-12


def test_rho12_off_rule_entries_are_exact_zeros(rng):
    window = ModeWindow.symmetric(3)
    phi1 = PureVector(window, random_pure(rng, window.dimension))
    phi2 = PureVector(window, random_pure(rng, window.dimension))
    modes = window.modes()
    state = rho12(phi1, phi2)
    want = selection_rule_rho12(phi1.amplitudes, modes, phi2.amplitudes, modes)
    assert np.abs(state.entries - want).max() < 1e-15
    charge = np.add.outer(modes, modes).reshape(-1)
    off_rule = charge[:, None] != charge[None, :]
    parts = state.entries.view(float).reshape(state.entries.shape + (2,))[off_rule]
    assert (parts == 0.0).all() and not np.signbit(parts).any()  # 0, never -0
    assert (np.abs(state.entries[~off_rule]) > 0.0).all()


def test_rho12_n_sweep_distances_match_the_dense_distance(rng):
    window = ModeWindow.symmetric(3)
    phi1 = PureVector(window, random_pure(rng, window.dimension))
    phi2 = PureVector(window, random_pure(rng, window.dimension))
    window2 = ProductWindow(window, window)
    product = factored_state(window2, np.kron(phi1.amplitudes, phi2.amplitudes)[:, None])
    for n in (1, 2, 4, 8):
        approx = rho12_n(phi1, phi2, n)
        assert approx.factor is not None
        dense = trace_norm_distance(MatrixOperator(window2, approx.entries),
                                    MatrixOperator(window2, product.entries))
        assert abs(trace_norm_distance(approx, product) - dense) < 1e-12, n


@pytest.mark.parametrize("half", [0, 1, 2, 5, 10])
def test_rho12_n_distance_on_the_sectors_matches_the_state(rng, half):
    # the S-row sector form against rho12_n, the d^2-row state, as the oracle
    window = ModeWindow.symmetric(half)
    pairs = [(PureVector(window, random_pure(rng, window.dimension)),
              PureVector(window, random_pure(rng, window.dimension))),
             (phi_profile("geometric(0.7)", half), phi_profile("uniform", half)),
             (phi_profile("mode(0)", half), phi_profile("geometric(0.5)", half))]
    if half:
        pairs.append((phi_profile("two-mode", half), phi_profile("two-mode", half)))
    for phi1, phi2 in pairs:
        product = factored_state(ProductWindow(window, window),
                                 np.kron(phi1.amplitudes, phi2.amplitudes)[:, None])
        state = rho12(phi1, phi2)
        for n in (1, 2, 3, 4, 8, 33):
            want = trace_norm_distance(rho12_n(phi1, phi2, n), product)
            assert abs(rho12_n_distance(state, n) - want) < 1e-12, (half, n)
    with pytest.raises(InvariantViolationError, match="positive integer"):
        rho12_n_distance(state, 0)


@pytest.mark.parametrize("w1, w2", [
    (ModeWindow(-20, 0), ModeWindow(-20, 0)), (ModeWindow(-1, 1), ModeWindow(0, 3)),
    (ModeWindow(-3, -1), ModeWindow(-3, -1)), (ModeWindow(-10, 10), ModeWindow(-20, 20))])
def test_rho12_n_grid_follows_the_sectors_off_symmetric_windows(rng, w1, w2):
    # the product window has S = d1 + d2 - 1 total charges, so the grid has
    # ceil(max(S, 32) / n) nodes: n = 1 is rho12 exactly (on [-20, 0]^2 a grid
    # sized by the larger k_max has 32 nodes for 41 sectors), and the sector
    # form matches the state at every n
    phi1 = PureVector(w1, random_pure(rng, w1.dimension))
    phi2 = PureVector(w2, random_pure(rng, w2.dimension))
    sectors = w1.dimension + w2.dimension - 1
    assert trace_norm_distance(rho12_n(phi1, phi2, 1), rho12(phi1, phi2)) < 1e-12
    product = factored_state(ProductWindow(w1, w2),
                             np.kron(phi1.amplitudes, phi2.amplitudes)[:, None])
    state = rho12(phi1, phi2)
    for n in (1, 2, 3, 8):
        approx = rho12_n(phi1, phi2, n)
        assert approx.factor.shape[1] == int(np.ceil(max(sectors, 32) / n)), n
        want = trace_norm_distance(approx, product)
        assert abs(rho12_n_distance(state, n) - want) < 1e-12, n


@pytest.mark.parametrize("first, width, n", [(-7, 3, 8), (2, 5, 5), (0, 1, 4)])
def test_a_sector_factor_calls_its_node_basis_at_its_own_charges(first, width, n):
    # the factor keeps its own first: node_phases(n, first + s) runs along the charge
    # first + s of sector s over the nodes 2 pi g / n; the reference's exponent is
    # reduced mod n too, so both are within _PHASE_ERROR
    factor = SectorFactor(np.arange(width), np.ones(width, dtype=complex),
                          np.ones(1, dtype=complex), width, first)
    turns = np.outer(first + np.arange(width), np.arange(n)) % n
    want = np.exp(2j * np.pi * turns / n)
    charges = factor.first + np.arange(factor.width)
    assert np.abs(factor.node_phases(n, charges) - want).max() <= 2 * _PHASE_ERROR


@pytest.mark.parametrize("charges, n", [([-7, -6, -5], 8), ([2, 3, 4, 5, 6], 5), ([0], 4),
                                        ([-1000, -41, 7, 513, 2049], 2050)])
def test_node_phases_are_within_the_phase_error_whatever_the_charge(charges, n):
    # row q of node_phases(n, charges) is e^{i x_g q} over the nodes x_g = 2 pi g / n,
    # its exponent reduced mod n, so each entry is within _PHASE_ERROR of exact even
    # where x_g q is far past 2 pi; the reference is taken in long double
    charges = np.array(charges)
    angle = 2 * np.pi * (np.outer(charges, np.arange(n)) % n).astype(np.longdouble) / n
    exact = np.cos(angle) + 1j * np.sin(angle)
    slack = 16 * float(np.finfo(np.longdouble).eps)  # the reference's own error
    phases = SectorFactor.node_phases(n, charges)
    assert float(np.abs(phases - exact).max()) <= _PHASE_ERROR + slack


def test_rho12_matches_grid_oracle(rng):
    phi1 = phi_profile("geometric(0.7)", 2)
    phi2 = phi_profile("geometric(0.5)", 2)
    state = rho12(phi1, phi2)
    oracle = grid_rho12(phi1.amplitudes, phi1.window.modes(),
                        phi2.amplitudes, phi2.window.modes(), 64)
    assert np.abs(state.entries - oracle).max() < 1e-12


def test_rho12_marginals(rng):
    phi1 = phi_profile("geometric(0.7)", 2)
    phi2 = phi_profile("geometric(0.5)", 2)
    state = rho12(phi1, phi2)
    left = partial_trace(state, "second")
    # marginal equals the full orbit average of the first factor
    want = grid_orbit_average(phi1.amplitudes, phi1.window.modes(), 32)
    assert np.abs(left.entries - want).max() < 1e-12
    assert np.abs(left.entries - np.diag(np.abs(phi1.amplitudes) ** 2)).max() < 1e-12
    right = partial_trace(state, "first")
    assert np.abs(right.entries - np.diag(np.abs(phi2.amplitudes) ** 2)).max() < 1e-12


def test_rho12_two_mode_marginal_value():
    phi = phi_profile("two-mode", 1)
    left = partial_trace(rho12(phi, phi), "second")
    diag = np.diag(left.entries).real
    k0 = phi.window.index(0)
    assert np.allclose(diag[k0:k0 + 2], [0.5, 0.5], atol=1e-12)


def test_rho12_passes_ppt():
    for spec, half in (("two-mode", 1), ("geometric(0.7)", 2)):
        phi = phi_profile(spec, half)
        state = rho12(phi, phi)
        assert np.linalg.eigvalsh(partial_transpose(state).entries).min() > -1e-10


def test_rho12_invariant_under_simultaneous_rotation(rng):
    phi = phi_profile("geometric(0.7)", 2)
    state = rho12(phi, phi)
    for u in rng.uniform(0, 2 * np.pi, size=3):
        k = phi.window.modes()
        ph = np.exp(1j * u * k)
        joint = np.kron(ph, ph)
        rotated = (joint[:, None] * state.entries) * joint.conj()[None, :]
        assert np.abs(rotated - state.entries).max() < 1e-12


def test_rho12_n_reduces_to_rho12():
    phi = phi_profile("two-mode", 1)
    assert np.abs(rho12_n(phi, phi, 1).entries - rho12(phi, phi).entries).max() < 1e-12


def test_rho12_n_matches_node_loop(rng):
    window = ModeWindow.symmetric(3)
    phi1 = PureVector(window, random_pure(rng, window.dimension))
    phi2 = PureVector(window, random_pure(rng, window.dimension))
    modes = window.modes()
    for n in (1, 2, 3, 5):
        nodes = int(np.ceil(32 / n))  # max(S, 32) = 32 for the S = 13 sectors at K = 3
        want = rho12_n_loop(phi1.amplitudes, modes, phi2.amplitudes, modes, n, nodes)
        assert np.abs(rho12_n(phi1, phi2, n).entries - want).max() < 1e-12, n


def test_rho12_n_group_average_identity():
    phi = phi_profile("two-mode", 1)
    for n in (2, 4, 8):
        approx = rho12_n(phi, phi, n)
        k = phi.window.modes()
        total = np.zeros_like(approx.entries)
        for j in range(n):
            u = 2.0 * np.pi * j / n
            joint = np.kron(np.exp(1j * u * k), np.exp(1j * u * k))
            total += (joint[:, None] * approx.entries) * joint.conj()[None, :] / n
        assert np.abs(total - rho12(phi, phi).entries).max() < 1e-12


def test_rho12_n_distances_to_product():
    # the partial-orbit approximants converge to the pure product state,
    # but the approach is not monotone at the first doubling: the
    # half-interval offset rotates the n = 2 state further away before
    # convergence takes over
    phi = phi_profile("two-mode", 1)
    product = StateOperator.from_operator(tensor(phi.projector(), phi.projector()))
    distances = {n: trace_norm_distance(rho12_n(phi, phi, n), product) for n in (1, 2, 4, 8, 16)}
    assert distances[2] > distances[1]  # documented non-monotone first step
    assert distances[4] > distances[8] > distances[16]
    assert distances[16] < 0.15


def test_probe_sweep_two_mode_constant():
    rows = decomposability_probe_sweep("two-mode", "two-mode", (1, 2, 4),
                                       [("mode(0)", "mode(0)")])
    for row in rows:
        assert abs(row.eps_max - 0.25) < 1e-9


def test_probe_sweep_geometric_trend():
    rows = decomposability_probe_sweep("geometric(0.7)", "geometric(0.7)", (2, 4, 8),
                                       [("mode(0)", "mode(0)"),
                                        ("geometric(0.7)", "geometric(0.7)")])
    maxima = sweep_maxima(rows)
    values = [maxima[k] for k in (2, 4, 8)]
    assert values[0] >= values[1] >= values[2]
    for k, want in zip((2, 4, 8), (1 / 9, 1 / 17, 1 / 33)):
        assert abs(maxima[k] - want) < 1e-12


def test_probe_sweep_failed_fourier_check_gives_zero():
    # two-mode phi has no weight on mode -1, so any candidate loaded there
    # fails the coefficient test and cannot be dominated
    rows = decomposability_probe_sweep("two-mode", "two-mode", (1,),
                                       [("mode(-1)", "mode(0)")])
    assert rows[0].eps_max == 0.0


def _random_fiducial(rng, half, zero_modes=()):
    window = ModeWindow.symmetric(half)
    amps = rng.normal(size=window.dimension) + 1j * rng.normal(size=window.dimension)
    for k in zero_modes:
        amps[window.index(k)] = 0.0
    return PureVector(window, amps)


def _sector_probe_cases(rng):
    """(phi1, phi2, alpha, beta, kind) over K in {1, 2, 3, 4, 6}; phi2 has zero modes."""
    for half in (1, 2, 3, 4, 6):
        phi1 = _random_fiducial(rng, half)
        phi2 = _random_fiducial(rng, half, zero_modes={half, 0} if half > 1 else {half})
        e0 = phi_profile("mode(0)", half)
        yield phi1, phi2, phi1, phi2, "own"
        yield phi1, phi2, rotate_vector(phi1, 0.7), rotate_vector(phi2, 0.7), "shared angle"
        yield phi1, phi2, rotate_vector(phi1, 0.4), rotate_vector(phi2, 1.9), "two angles"
        yield phi1, phi2, e0, e0, "mode(0)"


def test_rho12_probe_matches_pseudoinverse_oracle(rng):
    for phi1, phi2, alpha, beta, kind in _sector_probe_cases(rng):
        state = rho12(phi1, phi2)
        want = domination_bound(state.entries, np.kron(alpha.amplitudes, beta.amplitudes))
        if kind in ("own", "shared angle"):
            assert want > 0.0  # in range: the orbit average is invariant under V_u x V_u
        if kind == "two angles":
            assert want == 0.0
        assert abs(rho12_probe(phi1, phi2, alpha, beta) - want) < 1e-12
        assert abs(product_bound_probe(state, alpha, beta) - want) < 1e-12


@pytest.mark.parametrize("half", [16, 64, 200])
def test_rho12_probe_geometric_is_exact_at_large_k(half):
    # one unit coefficient per occupied sector: eps = 1 / (number of sectors),
    # although the outermost sector weights fall to about 0.7^(4K)
    phi = phi_profile("geometric(0.7)", half)
    eps = rho12_probe(phi, phi, phi, phi)
    assert abs(eps * (4 * half + 1) - 1.0) < 1e-14
    e0 = phi_profile("mode(0)", half)
    assert rho12_probe(phi, phi, e0, e0) == 0.0


def test_rho12_probe_window_mismatch():
    phi = phi_profile("two-mode", 1)
    with pytest.raises(WindowMismatchError):
        rho12_probe(phi, phi, phi_profile("mode(0)", 2), phi)


# Largest K at which each geometric(r) fiducial pair still has every nonzero
# |phi_k phi_l| above the smallest normal double; beyond it the probe must refuse.
GEOMETRIC_NORMAL = {(0.3, 200), (0.5, 200), (0.5, 496), (0.7, 200), (0.7, 496),
                    (0.9, 200), (0.9, 496), (0.9, 1000)}


@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("half", [200, 496, 1000])
def test_rho12_probe_sector_scaling_survives_underflow(ratio, half):
    # |phi_k phi_l|^2 underflows long before |phi_k phi_l| does (0.3 at K=200,
    # 0.7 near K=496); the per-sector scaling keeps the bound exact until the
    # products themselves leave the normal range, and refuses from there on
    phi = phi_profile(f"geometric({ratio})", half)
    e0 = phi_profile("mode(0)", half)
    smallest = np.abs(phi.amplitudes)[phi.amplitudes != 0].min()
    normal = smallest * smallest >= np.finfo(float).tiny
    assert normal == ((ratio, half) in GEOMETRIC_NORMAL)
    if normal:
        assert abs(rho12_probe(phi, phi, phi, phi) * (4 * half + 1) - 1.0) < 1e-14
        assert rho12_probe(phi, phi, e0, e0) == 0.0
    else:
        with pytest.raises(InvariantViolationError):
            rho12_probe(phi, phi, phi, phi)
        with pytest.raises(InvariantViolationError):
            rho12_probe(phi, phi, e0, e0)


def _run_probe(*args):
    return subprocess.run([sys.executable, "-W", "error", "-m", "eblab", "probe", *args],
                          capture_output=True, text=True)


def test_probe_cli_geometric_03_at_k200_is_exact_without_warnings(tmp_path):
    out = tmp_path / "probe.csv"
    result = _run_probe("--phi", "geometric(0.3)", "--k", "200", "--candidates",
                        "mode(0),mode(0);geometric(0.3),geometric(0.3)", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = out.read_text().splitlines()
    assert lines[1] == "200,mode(0)|mode(0),0"
    assert abs(float(lines[2].split(",")[2]) * 801 - 1.0) < 1e-14


def test_probe_cli_past_the_normal_range_exits_3_and_writes_nothing(tmp_path):
    out = tmp_path / "probe.csv"
    result = _run_probe("--phi", "geometric(0.3)", "--k", "200,496", "--out", str(out))
    assert result.returncode == 3
    assert result.stderr.startswith("invariant violation:")
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("half, zero_modes", [(1, ()), (2, (1,)), (3, ())])
def test_rotation_choi_is_a_rho12(rng, half, zero_modes):
    # With sigma = diag(lam), choi(B)[(i,k),(j,l)] = sqrt(lam_i lam_j) phi_k conj(phi_l)
    # delta_{k-l, i-j}; reflecting the first factor (i -> -i) turns the selection
    # rule into delta_{i+k, j+l}, the rule of rho12(a, phi) with a_i = sqrt(lam_{-i})
    window = ModeWindow.symmetric(half)
    d = window.dimension
    phi = _random_fiducial(rng, half, zero_modes=zero_modes)
    lam = rng.uniform(0.2, 1.0, size=d)
    sigma = StateOperator(window, np.diag(lam / lam.sum()))
    state = choi(channel_blocks(RotationChannel(phi)), sigma)
    _, basis = eig_hermitian(sigma)  # choi's first factor: sigma's eigenbasis, descending
    lift = np.kron(basis, np.eye(d))
    modes = (lift @ state.entries @ lift.conj().T).reshape(d, d, d, d)[::-1, :, ::-1, :]
    a = PureVector(window, np.sqrt(np.diag(sigma.entries).real[::-1]))
    want = rho12(a, phi).entries
    assert np.abs(modes.reshape(d * d, d * d) - want).max() < 1e-14


def test_rho12_probe_bound_below_the_double_range_is_zero():
    # |-2>|-2> is alone in the corner sector, so eps = |v_{-4}|^2 = e^4 / (3 + 2e^2)^2
    # for edge amplitudes e: about 1.1e-201 at e = 1e-50, below every double at 1e-150
    corner = phi_profile("mode(-2)", 2)
    phi = PureVector(ModeWindow.symmetric(2), [1e-50, 1, 1, 1, 1e-50])
    assert abs(rho12_probe(phi, phi, corner, corner) / (1e-200 / 9.0) - 1.0) < 1e-14
    phi = PureVector(ModeWindow.symmetric(2), [1e-150, 1, 1, 1, 1e-150])
    assert rho12_probe(phi, phi, corner, corner) == 0.0


def test_holevo_form_atoms_are_the_grid_formula_exactly():
    phi = phi_profile("geometric(0.6)", 3)
    channel = RotationChannel(phi)
    nodes = channel.quadrature_nodes
    assert nodes == 4 * 3 + 2
    modes = channel.window.modes()
    atoms = holevo_form(channel).atoms
    assert len(atoms) == nodes
    for g, (m_op, prepared) in enumerate(atoms):
        chi = np.exp(1j * (2.0 * np.pi * g / nodes) * modes)
        assert np.array_equal(m_op.factor, (chi / np.sqrt(nodes))[:, None]), g
        assert np.abs(m_op.entries - np.outer(chi, chi.conj()) / nodes).max() <= 1e-16, g
        assert np.array_equal(prepared.entries,
                              orbit_state(phi, 2.0 * np.pi * g / nodes).entries), g


@pytest.mark.parametrize("n", [1, 3])
def test_rho12_n_factor_is_the_node_formula_exactly(rng, n):
    w1, w2 = ModeWindow.symmetric(2), ModeWindow.symmetric(3)
    phi1 = PureVector(w1, random_pure(rng, w1.dimension))
    phi2 = PureVector(w2, random_pure(rng, w2.dimension))
    nodes = int(np.ceil(32 / n))  # max(S, 32) = 32 for the S = 5 + 7 - 1 sectors
    charge = np.add.outer(w1.modes(), w2.modes()).reshape(-1)
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    factor = rho12_n(phi1, phi2, n).factor
    assert factor.shape == (v.size, nodes)
    for s in range(nodes):
        x = (2.0 * np.pi / n) * s / nodes
        assert np.array_equal(factor[:, s], np.exp(1j * x * charge) * v / np.sqrt(nodes)), s


def test_charges_of_a_nested_product_window():
    a, b, c = ModeWindow.symmetric(1), ModeWindow(0, 2), ModeWindow(-3, -2)
    nested = ProductWindow(ProductWindow(a, b), c)
    want = np.add.outer(np.add.outer(a.modes(), b.modes()), c.modes()).reshape(-1)
    assert np.array_equal(_charges(nested), want)
    assert np.array_equal(_charges(ProductWindow(a, ProductWindow(b, c))), want)
    assert np.array_equal(_charges(a), a.modes())


def dense_form(form):
    """The same form with every atom rebuilt densely, as the --channel path reads it."""
    return HolevoForm([(MatrixOperator(m_op.window, m_op.entries),
                        StateOperator(rho_out.window, rho_out.entries))
                       for m_op, rho_out in form.atoms])


@pytest.mark.parametrize("half", [1, 2, 3, 4, 6, 8, pytest.param(12, marks=pytest.mark.slow),
                                  pytest.param(16, marks=pytest.mark.slow)])
@pytest.mark.parametrize("zero_modes", [False, True])
def test_factored_eb_chain_matches_the_dense_oracle(half, zero_modes):
    rng = np.random.default_rng(1000 * half + zero_modes)
    d = 2 * half + 1
    amplitudes = rng.normal(size=d) + 1j * rng.normal(size=d)
    if zero_modes:
        amplitudes[rng.choice(d, size=half, replace=False)] = 0.0
    phi = PureVector(ModeWindow.symmetric(half), amplitudes)
    full = StateOperator(phi.window, random_density(rng, d))
    weights = rng.random(d) + 0.1  # unequal, so the eigenbasis permutes and scales the rows
    sigmas = (StateOperator.maximally_mixed(phi.window), full,
              StateOperator(phi.window, np.diag(weights / weights.sum())))
    channel = RotationChannel(phi)
    factored, dense = factored_channel(channel), channel_blocks(channel)
    x = factored.stacked.factor
    assert x.shape == (d * d, 4 * half + 1)
    assert np.abs(x @ x.conj().T - dense.stacked.entries).max() <= 1e-14
    assert cp_check(factored) == (True, 0.0) and cp_check(dense)[0]
    assert_same_channel(factored, dense, rng)
    form = holevo_form(channel)
    for sigma in sigmas:
        state, oracle = choi(factored, sigma), choi(dense, sigma)
        assert state.sectors is None  # the congruence is kept unformed under every sigma
        y, z = state.factor, state.transposed.factor
        assert np.abs(y @ y.conj().T - oracle.entries).max() <= 1e-14
        assert np.abs(z @ z.conj().T - partial_transpose(oracle).entries).max() <= 1e-14
        assert eb_necessary_test(state) == (True, 0.0) and eb_necessary_test(oracle)[0]
        extracted, residual = eb_extract(separable_choi_from_holevo(form, state))
        _, dense_residual = eb_extract(separable_choi_from_holevo(dense_form(form), oracle))
        # the per-sector bound on the operator norm of the stacked-matrix difference,
        # whatever sigma: the extraction compares with the channel's sector factor
        assert dense_residual - 1e-14 <= residual <= max(20 * dense_residual, 1e-13)
        assert residual <= EXTRACT_TOL
        # the round trip: the extracted form's rank-one Kraus family acts as the channel
        rho = StateOperator(phi.window, random_density(rng, d))
        kraus = holevo_apply(extracted, rho)
        assert np.abs(kraus.entries - apply_closed_form(channel, rho).entries).max() <= 1e-13


def sector_chain(half, seed, sigma):
    """The --phi chain on a random complex fiducial, under a mixed, diagonal or full sigma.

    The diagonal and the full (non-diagonal) sigma are random.
    """
    rng = np.random.default_rng(seed)
    d = 2 * half + 1
    phi = PureVector(ModeWindow.symmetric(half), rng.normal(size=d) + 1j * rng.normal(size=d))
    entries = {"mixed": lambda: None, "diagonal": lambda: np.diag(rng.dirichlet(np.ones(d))),
               "full": lambda: random_density(rng, d)}[sigma]()
    reference = (StateOperator.maximally_mixed(phi.window) if entries is None
                 else StateOperator(phi.window, entries))
    channel = RotationChannel(phi)
    state = choi(factored_channel(channel), reference)
    return holevo_form(channel), state


def qr_norms(left, right, x):
    """Operator and trace norms of K K^dag - X X^dag for K = _khatri_rao(left, right), by QR."""
    k = _khatri_rao(left, right)
    magnitudes = np.abs(_difference_eigenvalues(np.hstack([k, x]), k.shape[1]))
    return float(magnitudes.max()), float(magnitudes.sum())


@pytest.mark.parametrize("sigma, half", [
    *((sigma, half) for sigma in ("mixed", "diagonal", "full") for half in (1, 2, 4, 8)),
    *(pytest.param(sigma, half, marks=pytest.mark.slow)
      for sigma in ("mixed", "diagonal") for half in (32, 64))])
def test_sector_bounds_bracket_the_qr_norms(sigma, half):
    # the chain's one comparison, of the extraction's Kraus columns with the channel's
    # sector factor, bounds the operator and trace norms of their difference per sector,
    # whatever sigma: each bound is at least the QR norm of the same factors, and at most
    # 20 times it or 1e-13. The residual is the operator-norm bound
    form, state = sector_chain(half, 7000 + half, sigma)
    assert state.sectors is None and state.transposed.sectors is None
    extracted, residual = eb_extract(separable_choi_from_holevo(form, state))
    a, g = extracted.inputs.conj(), extracted.outputs
    bounds = _difference_norms(a, g, state.channel.stacked)
    assert bounds[0] == residual <= 1e-12
    for bound, norm in zip(bounds, qr_norms(a, g, state.channel.stacked.factor)):
        assert norm <= bound <= max(20 * norm, 1e-13), (bound, norm)


def without_the_gate(state, weights, lefts, rights, povm):
    """The decomposition of these arrays as _init stores it, with its comparison but not its gate."""
    decomposition = SeparableChoiDecomposition.__new__(SeparableChoiDecomposition)
    decomposition._target, decomposition._weights = state, weights
    decomposition._lefts, decomposition._rights, decomposition._povm = lefts, rights, povm
    decomposition._residual = _difference_norms(povm.conj(), rights, state.channel.stacked)[0]
    return decomposition


def test_an_atom_turned_off_the_channel_fails_the_extraction_on_both_paths():
    # atom 2's prepared state turned by 1e-6 keeps the extracted form a valid form (its
    # POVM is unchanged), but moves its stacked matrix past EXTRACT_TOL, under a mixed
    # and under a non-diagonal sigma alike. The decomposition's own gate would refuse it
    # first, so it is built here without that gate. Scaling an atom's POVM vector by
    # sqrt(1 + 1e-6) instead fails the extracted form's POVM completeness, which is
    # checked first, with the same exit code
    rng = np.random.default_rng(12)
    phi = PureVector(ModeWindow.symmetric(3), rng.normal(size=7) + 1j * rng.normal(size=7))
    channel = RotationChannel(phi)
    for sigma in (StateOperator.maximally_mixed(phi.window),
                  StateOperator(phi.window, random_density(rng, 7))):
        state = choi(factored_channel(channel), sigma)
        exact = separable_choi_from_holevo(holevo_form(channel), state)
        rights = np.array(exact.rights)
        rights[:, 2] += 1e-6 * rights[::-1, 2].conj()
        rights[:, 2] /= np.linalg.norm(rights[:, 2])
        with pytest.raises(ExtractionInconsistentError) as failure:
            eb_extract(without_the_gate(state, exact.weights, exact.lefts, rights, exact._povm))
        assert failure.value.residual > 1e-8
        povm = np.array(exact._povm)
        povm[:, 2] *= np.sqrt(1 + 1e-6)
        with pytest.raises(InvariantViolationError, match="POVM incomplete"):
            eb_extract(without_the_gate(state, exact.weights, exact.lefts, exact.rights, povm))


def test_a_non_diagonal_sigma_runs_no_qr(monkeypatch):
    # its eigenbasis mixes rows, so the Choi factors are no sector factors, but no
    # comparison reads them: the chain's one comparison is with the channel's stacked
    # matrix, still a sector factor, so no QR runs and the residual is the per-sector
    # bound (the golden manifest pins the written bytes of two such calls)
    form, state = sector_chain(3, 13, "full")
    assert state.sectors is None and state.transposed.sectors is None

    def refuse(*args, **kwargs):
        raise AssertionError("a QR ran")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    extracted, residual = eb_extract(separable_choi_from_holevo(form, state))
    a, g = extracted.inputs.conj(), extracted.outputs
    assert residual == _sector_difference(a, g, state.channel.stacked.sectors)[0]


def test_eb_report_under_a_non_diagonal_sigma_runs_no_tensordot(tmp_path, monkeypatch):
    # the Choi state keeps a non-diagonal reference's congruence unformed, and nothing
    # eb-report --phi writes reads it, so no (2K+1)^2 x (4K+1) product is formed
    from eblab import jsonio
    from eblab.cli import main
    half = 3
    window = ModeWindow.symmetric(half)
    sigma = tmp_path / "sigma.json"
    rho = StateOperator(window, random_density(np.random.default_rng(31), window.dimension))
    jsonio.write_text(str(sigma), jsonio.dumps(jsonio.operator_to_json(rho)))

    def refuse(*args, **kwargs):
        raise AssertionError("a tensordot ran")

    monkeypatch.setattr(np, "tensordot", refuse)
    out = tmp_path / "report.json"
    assert main(["eb-report", "--phi", "geometric(0.7)", "--k", str(half), "--sigma", str(sigma),
                 "--out", str(out)]) == 0
    report = jsonio.read_json(str(out))
    assert report["min_eig_pt"] == 0.0 and report["extraction_residual"] < 1e-12
