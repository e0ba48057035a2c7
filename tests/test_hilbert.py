import pickle
import subprocess
import sys

import numpy as np
import pytest

from eblab import (
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    WindowMismatchError,
    basis_vector,
    EPS_TRACE,
    eig_hermitian,
    factored_operator,
    factored_state,
    lowest_eigenvalue,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    relative_entropy,
    tensor,
    trace_norm_distance,
    von_neumann_entropy,
)
from eblab.hilbert import SectorFactor, _at_least, _at_most, _gram
from conftest import random_density, random_hermitian

from oracles import partial_trace_loops, scalar_entropy, scalar_relative_entropy

W2 = ModeWindow(0, 1)
W3 = ModeWindow.symmetric(1)


def diag_state(window, *probs):
    return StateOperator(window, np.diag(probs))


def test_window_basics():
    assert W3.dimension == 3
    assert list(W3.modes()) == [-1, 0, 1]
    assert ModeWindow.symmetric(4).dimension == 9
    with pytest.raises(WindowMismatchError):
        ModeWindow(2, 1)


def test_product_window_dimension():
    assert ProductWindow(W2, W3).dimension == 6


def test_state_invariants_enforced():
    with pytest.raises(InvariantViolationError):
        StateOperator(W2, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(InvariantViolationError):
        StateOperator(W2, np.diag([0.7, 0.7]))  # trace off
    with pytest.raises(InvariantViolationError):
        StateOperator(W2, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_state_keeps_tiny_negative_eigenvalues():
    # a minimum eigenvalue in [-EPS_PSD, 0) passes the gate and is stored as it is;
    # a clip-and-rebuild pass used to rewrite these entries
    m = np.diag([1.0 + 5e-11, -5e-11])
    rho = StateOperator(W2, m)
    assert np.array_equal(rho.entries, m)
    assert min_eigenvalue(rho.entries) == -5e-11


def test_state_stores_the_hermitian_part_bit_for_bit(rng):
    # a rebuilt V diag(clip(l)) V^dag changed the last digits of round-off rank-deficient states
    w = ModeWindow(0, 4)
    for _ in range(20):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        p = np.outer(v, v.conj())
        assert np.array_equal(StateOperator(w, p).entries, 0.5 * (p + p.conj().T))


def test_pure_vector_normalizes():
    psi = PureVector(W2, [3.0, 4.0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    with pytest.raises(InvariantViolationError):
        PureVector(W2, [0.0, 0.0])


def test_tensor_identity_case():
    eye2 = MatrixOperator(W2, np.eye(2))
    out = tensor(eye2, eye2)
    assert np.array_equal(out.entries, np.eye(4))


def test_tensor_basis_case_lexicographic():
    a = MatrixOperator(W2, np.diag([1.0, 0.0]))
    b = MatrixOperator(W2, np.diag([0.0, 1.0]))
    assert np.array_equal(tensor(a, b).entries, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_of_states_is_state(rng):
    a = StateOperator(W3, random_density(rng, 3))
    b = StateOperator(W2, random_density(rng, 2))
    out = tensor(a, b)
    assert abs(np.trace(out.entries) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out.entries).min() > -1e-12


def test_partial_trace_of_product(rng):
    a = StateOperator(W3, random_density(rng, 3))
    b = StateOperator(W2, random_density(rng, 2))
    joint = StateOperator.from_operator(tensor(a, b))
    left = partial_trace(joint, "second")
    right = partial_trace(joint, "first")
    assert np.abs(left.entries - a.entries).max() < 1e-12
    assert np.abs(right.entries - b.entries).max() < 1e-12


def test_partial_trace_matches_loop_oracle(rng):
    joint = StateOperator(ProductWindow(W3, W2), random_density(rng, 6))
    got = partial_trace(joint, "first").entries
    want = partial_trace_loops(joint.entries, 3, 2, "first")
    assert np.abs(got - want).max() < 1e-12
    got = partial_trace(joint, "second").entries
    want = partial_trace_loops(joint.entries, 3, 2, "second")
    assert np.abs(got - want).max() < 1e-12


def test_partial_trace_needs_product_window(rng):
    rho = StateOperator(W3, random_density(rng, 3))
    with pytest.raises(WindowMismatchError):
        partial_trace(rho, "first")


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return StateOperator(ProductWindow(W2, W2), np.outer(v, v))


def test_partial_trace_of_bell_is_mixed():
    marginal = partial_trace(bell_state(), "first")
    assert np.abs(marginal.entries - np.eye(2) / 2).max() < 1e-12


def test_partial_transpose_of_product_stays_psd(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = StateOperator(ProductWindow(W2, W3), np.kron(a, b))
    pt = partial_transpose(joint)
    assert np.abs(pt.entries - np.kron(a, b.T)).max() < 1e-12
    assert np.linalg.eigvalsh(pt.entries).min() > -1e-12


def test_partial_transpose_of_bell_has_negative_eigenvalue():
    pt = partial_transpose(bell_state())
    vals = np.linalg.eigvalsh(pt.entries)
    assert abs(vals.min() + 0.5) < 1e-12


def test_partial_transpose_needs_product_window(rng):
    rho = StateOperator(W3, random_density(rng, 3))
    with pytest.raises(WindowMismatchError):
        partial_transpose(rho)


def test_partial_transpose_involution_and_trace(rng):
    joint = StateOperator(ProductWindow(W2, W3), random_density(rng, 6))
    pt = partial_transpose(joint)
    assert abs(np.trace(pt.entries) - 1.0) < 1e-12
    assert np.abs(pt.entries - pt.entries.conj().T).max() < 1e-12
    back = partial_transpose(pt)
    assert np.abs(back.entries - joint.entries).max() < 1e-14


def test_eig_hermitian_basics():
    vals, _ = eig_hermitian(diag_state(W2, 0.5, 0.5))
    assert np.allclose(vals, [0.5, 0.5])
    plus = PureVector(W2, [1.0, 1.0]).projector()
    vals, _ = eig_hermitian(plus)
    assert np.allclose(vals, [1.0, 0.0], atol=1e-12)


def test_eig_hermitian_reconstructs(rng):
    for dim in (2, 5, 17, 64):
        m = random_hermitian(rng, dim)
        vals, vecs = eig_hermitian(MatrixOperator(ModeWindow(0, dim - 1), m))
        assert np.all(np.diff(vals) <= 1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.abs(recon - m).max() < 1e-10


def test_eig_hermitian_degenerate_ties_keep_order():
    # equal eigenvalues keep the solver's natural basis orientation
    vals, vecs = eig_hermitian(StateOperator(W2, np.eye(2) / 2))
    assert np.allclose(vals, [0.5, 0.5])
    assert np.abs(vecs - np.eye(2)).max() < 1e-12


def test_eig_hermitian_of_the_maximally_mixed_state_is_eighs_without_an_eigh(monkeypatch):
    # eigh of I / d gives exactly (1/d, ..., 1/d) and I; maximally_mixed's eigensystem is
    # those bits with no solve, and a state with the same entries built otherwise still
    # runs eigh: only maximally_mixed is taken on trust
    real = np.linalg.eigh
    for half in range(1, 65):
        window = ModeWindow.symmetric(half)
        other = StateOperator(window, np.eye(window.dimension) / window.dimension)
        want = eig_hermitian(other)
        monkeypatch.setattr(np.linalg, "eigh", None)
        got = eig_hermitian(StateOperator.maximally_mixed(window))
        with pytest.raises(TypeError):
            eig_hermitian(other)
        monkeypatch.setattr(np.linalg, "eigh", real)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)), half


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(InvariantViolationError):
        eig_hermitian(MatrixOperator(W2, np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_eigenvalues_of_state_sum_to_one(rng):
    rho = StateOperator(W3, random_density(rng, 3))
    vals, _ = eig_hermitian(rho)
    assert abs(vals.sum() - 1.0) < 1e-10


def test_trace_norm_distance_values():
    assert trace_norm_distance(diag_state(W2, 1.0, 0.0), diag_state(W2, 1.0, 0.0)) == 0.0
    assert abs(trace_norm_distance(diag_state(W2, 1.0, 0.0), diag_state(W2, 0.0, 1.0)) - 1.0) < 1e-12
    assert abs(trace_norm_distance(diag_state(W2, 1.0, 0.0), diag_state(W2, 0.5, 0.5)) - 0.5) < 1e-12


def test_trace_norm_distance_window_mismatch():
    with pytest.raises(WindowMismatchError):
        trace_norm_distance(diag_state(W2, 0.5, 0.5), diag_state(ModeWindow(0, 2), 0.5, 0.5, 0.0))


def test_trace_norm_triangle_inequality(rng):
    for _ in range(10):
        a, b, c = (StateOperator(W3, random_density(rng, 3)) for _ in range(3))
        assert trace_norm_distance(a, c) <= (
            trace_norm_distance(a, b) + trace_norm_distance(b, c) + 1e-10)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(PureVector(W2, [1.0, 1.0]).projector()) < 1e-12
    assert abs(von_neumann_entropy(diag_state(W2, 0.5, 0.5)) - np.log(2.0)) < 1e-12
    w3 = ModeWindow(0, 2)
    assert abs(von_neumann_entropy(diag_state(w3, 0.25, 0.25, 0.5)) - 1.5 * np.log(2.0)) < 1e-12


def test_von_neumann_entropy_matches_scalar_oracle(rng):
    rho = random_density(rng, 5)
    vals = np.linalg.eigvalsh(rho)
    got = von_neumann_entropy(StateOperator(ModeWindow(0, 4), rho))
    assert abs(got - scalar_entropy(vals)) < 1e-12


def test_relative_entropy_values():
    rho = diag_state(W2, 1.0, 0.0)
    assert relative_entropy(rho, rho) == 0.0
    assert abs(relative_entropy(rho, diag_state(W2, 0.5, 0.5)) - np.log(2.0)) < 1e-12
    assert relative_entropy(rho, diag_state(W2, 0.0, 1.0)) == float("inf")


def test_relative_entropy_matches_classical_kl():
    w4 = ModeWindow(0, 3)
    p = [0.4, 0.3, 0.2, 0.1]
    q = [0.25, 0.25, 0.25, 0.25]
    got = relative_entropy(diag_state(w4, *p), diag_state(w4, *q))
    assert abs(got - scalar_relative_entropy(p, q)) < 1e-12


def test_relative_entropy_positivity(rng):
    for _ in range(10):
        rho = StateOperator(W3, random_density(rng, 3))
        sigma = StateOperator(W3, random_density(rng, 3))
        h = relative_entropy(rho, sigma)
        assert h >= 0.0
        if trace_norm_distance(rho, sigma) > 1e-8:
            assert h > 0.0
    rho = StateOperator(W3, random_density(rng, 3))
    assert relative_entropy(rho, rho) <= 1e-13


def test_relative_entropy_pinsker_bound(rng):
    # d <= sqrt(H/2), so vanishing divergence forces vanishing distance
    for _ in range(10):
        rho = StateOperator(W3, random_density(rng, 3))
        sigma = StateOperator(W3, random_density(rng, 3))
        h = relative_entropy(rho, sigma)
        d = trace_norm_distance(rho, sigma)
        assert d <= np.sqrt(h / 2.0) + 1e-8


def test_adjointness_of_tensor_and_partial_trace(rng):
    # Tr[(A x I) rho] = Tr[A Tr_2 rho]
    for _ in range(5):
        a = random_hermitian(rng, 3)
        joint = StateOperator(ProductWindow(W3, W2), random_density(rng, 6))
        lhs = np.trace(np.kron(a, np.eye(2)) @ joint.entries)
        rhs = np.trace(a @ partial_trace(joint, "second").entries)
        assert abs(lhs - rhs) < 1e-10


def test_basis_vector():
    e0 = basis_vector(W3, 0)
    assert np.array_equal(e0.amplitudes, [0.0, 1.0, 0.0])
    with pytest.raises(WindowMismatchError):
        basis_vector(W3, 5)


def test_state_rejects_non_finite_diagonal():
    # NaN fails the Hermiticity check, whose comparison is written to be false on NaN
    entries = np.diag([complex(1.0, np.nan), 0.0])
    with pytest.raises(InvariantViolationError):
        StateOperator(W2, entries)


def test_min_eigenvalue_rejects_non_finite():
    with pytest.raises(InvariantViolationError):
        min_eigenvalue(np.array([[np.inf]]))
    assert min_eigenvalue(np.array([[0.25]])) == 0.25


def test_pure_vector_rejects_non_finite_norm():
    with pytest.raises(InvariantViolationError):
        PureVector(W3, [np.nan, 1.0, 0.0])
    with pytest.raises(InvariantViolationError):
        PureVector(W3, [np.inf, 1.0, 0.0])


@pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1e308])
def test_pure_vector_accepts_norms_whose_square_under_or_overflows(scale):
    # the sum of squares is 0.0 or inf; the vector is still a valid state.
    # The suite's error::RuntimeWarning filter catches an overflow warning too
    psi = PureVector(W3, [scale, 0.0, 1j * scale])
    assert np.array_equal(psi.amplitudes, PureVector(W3, [1.0, 0.0, 1j]).amplitudes)
    with pytest.raises(InvariantViolationError, match="nan"):
        PureVector(W3, [scale, np.nan, 0.0])
    with pytest.raises(InvariantViolationError, match="got 0.0"):
        PureVector(W3, [0.0, 0.0, 0.0])


def test_pure_vector_keeps_ordinary_norms_bit_identical():
    v = np.array([3.0, 4.0j, 1e-3])
    assert np.array_equal(PureVector(W3, v).amplitudes, v / np.linalg.norm(v))


def random_factor(rng, dim, rank):
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("half, rank", [(1, 1), (1, 5), (2, 3), (4, 6)])
def test_factored_state_matches_the_dense_state(rng, half, rank):
    w = ModeWindow.symmetric(half)
    x = random_factor(rng, w.dimension, rank)
    state = factored_state(w, x)
    assert isinstance(state, StateOperator)
    assert np.array_equal(state.factor, x)
    assert np.abs(state.entries - StateOperator(w, x @ x.conj().T).entries).max() < 1e-15
    assert np.array_equal(state.entries, state.entries.conj().T)
    assert StateOperator(w, state.entries).factor is None


def test_factored_state_rejects_bad_factors():
    w = ModeWindow.symmetric(1)
    x = np.array([[1.0], [0.0], [0.0]])
    for bad in (np.nan, np.inf):
        broken = x.copy()
        broken[1, 0] = bad
        with pytest.raises(InvariantViolationError):
            factored_state(w, broken)
    with pytest.raises(InvariantViolationError, match="trace"):
        factored_state(w, x * np.sqrt(1.0 + 2 * EPS_TRACE))
    factored_state(w, x * np.sqrt(1.0 + 0.5 * EPS_TRACE))
    with pytest.raises(WindowMismatchError):
        factored_state(ModeWindow.symmetric(2), x)


def test_factored_trace_distance_matches_the_dense_one(rng):
    for half in (1, 2, 3, 4):
        w = ModeWindow.symmetric(half)
        for rank_a in range(1, 7):
            for rank_b in range(1, 7):
                xa = random_factor(rng, w.dimension, rank_a)
                xb = random_factor(rng, w.dimension, rank_b)
                if rank_a > 1 and rank_b > 1:  # overlapping supports: shared columns
                    xb[:, :1] = xa[:, :1]
                    xb /= np.linalg.norm(xb)
                a, b = factored_state(w, xa), factored_state(w, xb)
                dense = trace_norm_distance(MatrixOperator(w, a.entries),
                                            MatrixOperator(w, b.entries))
                assert abs(trace_norm_distance(a, b) - dense) < 1e-12, (half, rank_a, rank_b)
            a = factored_state(w, random_factor(rng, w.dimension, rank_a))
            assert trace_norm_distance(a, a) < 1e-12
            assert trace_norm_distance(a, factored_state(w, a.factor[:, ::-1])) < 1e-12


def test_projector_is_the_rank_one_factored_state(rng):
    # the oracle spells out each entry's rounding; np.outer may fuse the
    # multiply-add of its complex product (SIMD builds) and so miss by an ulp
    for half in (0, 1, 3):
        dim = 2 * half + 1
        psi = PureVector(ModeWindow.symmetric(half), rng.normal(size=dim) + 1j * rng.normal(size=dim))
        state = psi.projector()
        a, b = psi.amplitudes.real, psi.amplitudes.imag
        exact = np.empty((dim, dim), dtype=complex)
        exact.real = np.multiply.outer(a, a) + np.multiply.outer(b, b)
        exact.imag = np.multiply.outer(b, a) - np.multiply.outer(a, b)
        assert np.array_equal(state.factor, psi.amplitudes[:, None])
        assert np.array_equal(state.entries, exact)
        assert np.abs(state.entries - np.outer(psi.amplitudes, psi.amplitudes.conj())).max() < 1e-15
    entries = basis_vector(W3, 0).projector().entries
    assert np.array_equal(entries, np.diag([0.0, 1.0, 0.0]))
    assert not np.signbit(entries.view(float)).any()  # zeros are +0.0


def test_eig_hermitian_refuses_nan():
    # max |A - A^dag| is NaN here; the check used to let it through to eigh
    with pytest.raises(InvariantViolationError, match="not Hermitian"):
        eig_hermitian(np.array([[1.0, np.nan], [np.nan, 0.0]]))


def test_factored_state_builds_its_entries_on_first_access(rng):
    # also at rank >= d: positive by construction, so nothing is checked on the entries
    w = ModeWindow.symmetric(3)
    for rank in (2, 7, 9):
        x = random_factor(rng, w.dimension, rank)
        state = factored_state(w, x)
        assert state._entries is None
        entries = state.entries
        assert entries is state.entries and not entries.flags.writeable
        m = x @ x.conj().T
        assert np.array_equal(entries, 0.5 * (m + m.conj().T) + 0.0)


@pytest.mark.parametrize("half", [1, 3, 6])
def test_sector_shaped_factor_expands_to_its_sector_blocks(rng, half):
    # a SectorFactor, as rho12's charge-sector factor is: one value per row in its
    # sector's column, zero rows included; here one row per input (v = [1]), each at an
    # arbitrary sector offset. Each sector's block is _gram of its nonzero rows, every
    # cell between sectors and of a zero row is +0.0, and the dense factor read from
    # .factor is the same matrix
    w = ModeWindow.symmetric(half)
    sector = rng.integers(0, 3, size=w.dimension)
    values = rng.normal(size=w.dimension) + 1j * rng.normal(size=w.dimension)
    values[rng.random(w.dimension) < 0.3] = 0.0
    values /= np.linalg.norm(values)
    state = factored_state(w, SectorFactor(sector, values, np.ones(1, dtype=complex), 0))
    x = state.factor
    assert np.array_equal(x[np.arange(w.dimension), sector], values)
    assert np.count_nonzero(x) == np.count_nonzero(values)
    entries = state.entries
    live = values != 0
    between = (sector[:, None] != sector[None, :]) | ~live[:, None] | ~live[None, :]
    parts = entries.view(float)
    assert not entries[between].view(float).any() and not np.signbit(parts[parts == 0.0]).any()
    for s in range(3):
        block = np.flatnonzero((sector == s) & live)
        assert np.array_equal(entries[np.ix_(block, block)], _gram(x[block, s:s + 1]))
    assert np.array_equal(entries, entries.conj().T)
    dense = np.zeros((w.dimension, 3), dtype=complex)
    dense[np.arange(w.dimension), sector] = values
    assert np.abs(entries - dense @ dense.conj().T).max() < 1e-15


@pytest.mark.parametrize("gate, value, bound, shown", [
    (_at_most, 2e-10, 1e-10, "= 2.000e-10 > 1e-10"),
    (_at_most, np.nan, 1e-10, "= nan > 1e-10"),
    (_at_least, -2e-10, -1e-10, "= -2.000e-10 < -1e-10"),
    (_at_least, np.nan, -1e-10, "= nan < -1e-10"),
])
def test_the_tolerance_gate_refuses_nan_and_shows_value_and_bound(gate, value, bound, shown):
    with pytest.raises(InvariantViolationError) as err:
        gate(value, bound, "some margin")
    assert str(err.value) == f"some margin {shown}"
    gate(bound, bound, "some margin")


def test_lowest_eigenvalue(rng):
    # exactly 0.0 below full rank, else the smallest eigenvalue of X X^dag;
    # a dense operator is solved on its entries
    for rows, cols in ((9, 3), (4, 4), (3, 7)):
        x = random_factor(rng, rows, cols)
        want = 0.0 if cols < rows else np.linalg.eigvalsh(x @ x.conj().T)[0]
        assert lowest_eigenvalue(factored_operator(ModeWindow(0, rows - 1), x)) == want
    assert lowest_eigenvalue(factored_operator(ModeWindow(0, 3), random_factor(rng, 4, 4))) > 0.0
    m = random_hermitian(rng, 4)
    assert lowest_eigenvalue(MatrixOperator(ModeWindow(0, 3), m)) == np.linalg.eigvalsh(m)[0]


def test_maximally_mixed_is_the_checked_state_exactly():
    for half in (0, 1, 5):
        w = ModeWindow.symmetric(half)
        d = w.dimension
        assert np.array_equal(StateOperator.maximally_mixed(w).entries,
                              StateOperator(w, np.eye(d) / d).entries)


def test_windows_are_frozen_values():
    a, b = ModeWindow(-1, 1), ModeWindow.symmetric(1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != ModeWindow(0, 1) and a != (-1, 1)
    assert repr(a) == "ModeWindow(k_min=-1, k_max=1)"
    pair = ProductWindow(a, ModeWindow(0, 2))
    same = ProductWindow(b, ModeWindow(0, 2))
    assert pair == same and hash(pair) == hash(same)
    assert pair != ProductWindow(ModeWindow(0, 2), a)
    assert repr(pair) == ("ProductWindow(left=ModeWindow(k_min=-1, k_max=1), "
                          "right=ModeWindow(k_min=0, k_max=2))")
    assert len({a, b, pair, ProductWindow(a, ModeWindow(0, 2))}) == 2
    for value, field in ((a, "k_min"), (pair, "left")):
        with pytest.raises(AttributeError):
            setattr(value, field, ModeWindow(0, 0))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert a == ModeWindow(-1, 1) and pair.left == a
    assert pickle.loads(pickle.dumps(pair)) == pair
    with pytest.raises(WindowMismatchError, match="empty window: k_min=2 > k_max=1"):
        ModeWindow(2, 1)
    with pytest.raises(TypeError):
        ProductWindow(a)


def test_importing_eblab_leaves_dataclasses_unloaded():
    script = "import sys, eblab, eblab.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
