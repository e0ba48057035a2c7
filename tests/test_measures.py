import numpy as np
import pytest

from eblab import (
    InvariantViolationError,
    ModeWindow,
    ProductMeasure,
    PureVector,
    StateMeasure,
    StateOperator,
    barycenter,
    basis_vector,
    fourier_necessary_check,
    partial_transpose,
    phi_profile,
    product_bound_probe,
    rho12,
    rotate_vector,
    separable_from_measure,
    tensor,
    trace_norm_distance,
)
from conftest import random_density

from oracles import domination_bound, grid_rho12

W2 = ModeWindow(0, 1)
W3 = ModeWindow.symmetric(1)


def diag_state(window, *probs):
    return StateOperator(window, np.diag(probs))


def test_measure_weight_validation(rng):
    rho = StateOperator(W2, random_density(rng, 2))
    with pytest.raises(InvariantViolationError):
        StateMeasure([(0.5, rho), (0.4, rho)])
    with pytest.raises(InvariantViolationError):
        StateMeasure([(1.5, rho), (-0.5, rho)])
    with pytest.raises(InvariantViolationError):
        StateMeasure([])


def test_measure_rejects_nan_weight(rng):
    rho = StateOperator(W2, random_density(rng, 2))
    with pytest.raises(InvariantViolationError):
        StateMeasure([(float("nan"), rho)])


def test_barycenter_single_atom(rng):
    rho = StateOperator(W2, random_density(rng, 2))
    out = barycenter(StateMeasure([(1.0, rho)]))
    assert np.abs(out.entries - rho.entries).max() < 1e-14


def test_barycenter_two_point_mixture():
    out = barycenter(StateMeasure([(0.5, diag_state(W2, 1.0, 0.0)),
                                   (0.5, diag_state(W2, 0.0, 1.0))]))
    assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_barycenter_of_orbit_measure_is_maximally_mixed(n):
    # equispaced phase orbit of (|0> + |1>)/sqrt(2): roots-of-unity sums vanish
    phi = PureVector(W2, [1.0, 1.0])
    atoms = [(1.0 / n, rotate_vector(phi, 2.0 * np.pi * j / n).projector()) for j in range(n)]
    out = barycenter(StateMeasure(atoms))
    assert np.abs(out.entries - np.eye(2) / 2).max() < 1e-12


def test_barycenter_continuity_on_perturbed_sequences(rng):
    base = [StateOperator(W3, random_density(rng, 3)) for _ in range(3)]
    weights = np.array([0.5, 0.3, 0.2])
    pi = StateMeasure(list(zip(weights, base)))
    target = barycenter(pi)
    previous = None
    for n in (1, 2, 4, 8, 16):
        shift = 1.0 / (10.0 * n)
        w_n = weights + np.array([shift, -shift, 0.0])
        mixed = [StateOperator(W3, (1 - shift) * s.entries + shift * np.eye(3) / 3) for s in base]
        d = trace_norm_distance(barycenter(StateMeasure(list(zip(w_n, mixed)))), target)
        # atomwise bound: sum |w_n - w| / 2 + sum w_a * dist(atom_n, atom)
        bound = 0.5 * np.abs(w_n - weights).sum() + sum(
            wa * trace_norm_distance(sn, s) for wa, sn, s in zip(w_n, mixed, base))
        assert d <= bound + 1e-12
        if previous is not None:
            assert d <= previous + 1e-12
        previous = d
    assert previous < 1e-2


def test_separable_from_measure_single_atom(rng):
    left = StateOperator(W2, random_density(rng, 2))
    right = StateOperator(W3, random_density(rng, 3))
    out = separable_from_measure(ProductMeasure([(1.0, left, right)]))
    assert np.abs(out.entries - np.kron(left.entries, right.entries)).max() < 1e-14


def test_separable_from_measure_orbit_matches_analytic_rho12():
    phi = phi_profile("two-mode", 1)
    n = 4
    atoms = []
    for j in range(n):
        u = 2.0 * np.pi * j / n
        atoms.append((1.0 / n,
                      rotate_vector(phi, u).projector(),
                      rotate_vector(phi, u).projector()))
    out = separable_from_measure(ProductMeasure(atoms))
    want = rho12(phi, phi)
    assert np.abs(out.entries - want.entries).max() < 1e-12
    # and the independent grid oracle agrees
    oracle = grid_rho12(phi.amplitudes, phi.window.modes(),
                        phi.amplitudes, phi.window.modes(), n)
    assert np.abs(out.entries - oracle).max() < 1e-12


def test_separable_outputs_pass_ppt(rng):
    atoms = []
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        atoms.append((w,
                      StateOperator(W2, random_density(rng, 2)),
                      StateOperator(W3, random_density(rng, 3))))
    out = separable_from_measure(ProductMeasure(atoms))
    pt_vals = np.linalg.eigvalsh(partial_transpose(out).entries)
    assert pt_vals.min() > -1e-10


def test_probe_state_dominates_itself(rng):
    a = PureVector(W2, rng.normal(size=2) + 1j * rng.normal(size=2))
    b = PureVector(W3, rng.normal(size=3) + 1j * rng.normal(size=3))
    rho = StateOperator.from_operator(tensor(a.projector(), b.projector()))
    assert product_bound_probe(rho, a, b) == 1.0


def test_probe_on_two_mode_rho12():
    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    e0 = basis_vector(W3, 0)
    eps = product_bound_probe(state, e0, e0)
    assert abs(eps - 0.25) < 1e-12


def test_probe_orthogonal_support_gives_zero():
    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    # left marginal is supported on modes {0, 1}; mode -1 is orthogonal
    alpha = basis_vector(W3, -1)
    beta = basis_vector(W3, 0)
    assert product_bound_probe(state, alpha, beta) == 0.0


def test_probe_matches_pseudoinverse_oracle(rng):
    phi = phi_profile("geometric(0.7)", 2)
    state = rho12(phi, phi)
    v = np.kron(phi.amplitudes, phi.amplitudes)
    want = domination_bound(state.entries, v)
    got = product_bound_probe(state, phi, phi)
    assert abs(got - want) < 1e-12
    assert abs(got - 1.0 / (4 * 2 + 1)) < 1e-12  # rank-one sector structure


def test_probe_monotone_under_scaling():
    # the domination threshold of lam * rho scales like lam, so it can
    # only shrink; checked on the raw matrices since lam * rho is not
    # trace-one
    from eblab import EPS_PSD, min_eigenvalue

    phi = phi_profile("two-mode", 1)
    state = rho12(phi, phi)
    e0 = basis_vector(W3, 0)
    full = product_bound_probe(state, e0, e0)
    center = state.window.left.dimension * 1 + 1  # lex index of (0, 0) in [-1,1]^2
    proj = np.zeros((9, 9))
    proj[center, center] = 1.0
    for lam in (0.9, 0.5, 0.2):
        m = lam * state.entries

        def feasible(eps):
            return min_eigenvalue(m - eps * proj) >= -EPS_PSD

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        assert lo <= full + 3e-10
        assert abs(lo - lam * 0.25) < 1e-8


def test_probe_positive_implies_fourier_check():
    # the domination chain: a positive probe forces coefficient domination
    for spec, half in (("two-mode", 1), ("geometric(0.7)", 2)):
        phi = phi_profile(spec, half)
        state = rho12(phi, phi)
        for alpha_spec in ("mode(0)", spec):
            alpha = phi_profile(alpha_spec, half)
            eps = product_bound_probe(state, alpha, alpha)
            if eps > 1e-8:  # above the slack floor of the PSD test
                scaled = np.sqrt(eps) * alpha.amplitudes
                assert fourier_necessary_check(phi, scaled)


def test_fourier_necessary_check_cases():
    phi = phi_profile("geometric(0.5)", 2)
    assert fourier_necessary_check(phi, phi)
    assert fourier_necessary_check(phi, 0.5 * phi.amplitudes)
    hole = np.array(phi.amplitudes)
    hole[0] = 0.0
    alpha = np.zeros(5, dtype=complex)
    alpha[0] = 0.1
    assert not fourier_necessary_check(PureVector(phi.window, hole), alpha)
