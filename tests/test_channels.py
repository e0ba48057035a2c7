import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    SeparableChoiDecomposition,
    HolevoForm,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    apply,
    apply_matrix,
    apply_with_identity,
    basis_vector,
    blocks_from_holevo,
    choi,
    constant_channel,
    cp_check,
    dephasing_channel,
    eb_extract,
    eb_necessary_test,
    holevo_apply,
    identity_channel,
    kraus_apply,
    kraus_rank_one,
    partial_trace,
    partial_transpose,
    separable_choi_from_holevo,
    tensor,
    transpose_channel,
)
from conftest import random_density, random_pure


def window(dim):
    return ModeWindow(0, dim - 1)


def random_holevo_form(rng, d_in, d_out, atom_count, pure_outputs=False):
    """POVM from normalized Wishart draws paired with random outputs."""
    draws = []
    for _ in range(atom_count):
        a = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
        draws.append(a @ a.conj().T)
    total = sum(draws)
    vals, vecs = np.linalg.eigh(total)
    inv_root = (vecs * vals ** -0.5) @ vecs.conj().T
    atoms = []
    for draw in draws:
        m_op = MatrixOperator(window(d_in), inv_root @ draw @ inv_root)
        if pure_outputs:
            v = random_pure(rng, d_out)
            out = StateOperator(window(d_out), np.outer(v, v.conj()))
        else:
            out = StateOperator(window(d_out), random_density(rng, d_out))
        atoms.append((m_op, out))
    return HolevoForm(atoms)


def random_full_rank_state(rng, dim):
    return StateOperator(window(dim),
                         0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim)


def test_identity_channel_blocks_and_stacked():
    chan = identity_channel(window(3))
    ok, low = cp_check(chan)
    assert ok
    # stacked matrix is the unnormalized maximally entangled projector
    stacked = chan.stacked()
    v = np.zeros(9)
    v[[0, 4, 8]] = 1.0
    assert np.abs(stacked - np.outer(v, v)).max() < 1e-14


def test_transpose_channel_fails_cp():
    chan = transpose_channel(window(3))
    ok, low = cp_check(chan)
    assert not ok
    assert abs(low + 1.0) < 1e-12
    # stacked matrix is the swap
    stacked = chan.stacked()
    assert np.abs(stacked @ stacked - np.eye(9)).max() < 1e-14


def test_blocks_reject_broken_families():
    w = window(2)
    bad = np.zeros((2, 2, 2, 2), dtype=complex)
    bad[0, 0] = np.eye(2)  # trace 2 on a diagonal unit
    bad[1, 1] = np.diag([1.0, 0.0])
    with pytest.raises(InvariantViolationError):
        ChannelBlocks(w, w, bad)


def test_apply_identity_and_constant(rng):
    w = window(3)
    rho = StateOperator(w, random_density(rng, 3))
    assert np.abs(apply(identity_channel(w), rho).entries - rho.entries).max() < 1e-12
    target = StateOperator(window(2), random_density(rng, 2))
    chan = constant_channel(w, target)
    assert np.abs(apply(chan, rho).entries - target.entries).max() < 1e-12


def test_apply_is_linear(rng):
    w = window(3)
    chan = dephasing_channel(w)
    a = StateOperator(w, random_density(rng, 3))
    b = StateOperator(w, random_density(rng, 3))
    mix = StateOperator(w, 0.5 * a.entries + 0.5 * b.entries)
    lhs = apply(chan, mix).entries
    rhs = 0.5 * apply(chan, a).entries + 0.5 * apply(chan, b).entries
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_preserves_state_invariants(rng):
    form = random_holevo_form(rng, 4, 3, 5)
    chan = blocks_from_holevo(form)
    assert cp_check(chan)[0]
    for _ in range(50):
        rho = StateOperator(window(4), random_density(rng, 4))
        out = apply(chan, rho)
        assert abs(out.trace().real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out.entries).min() >= -1e-10


def test_holevo_apply_cases(rng):
    w = window(2)
    out0 = StateOperator(w, random_density(rng, 2))
    out1 = StateOperator(w, random_density(rng, 2))
    const = HolevoForm([(MatrixOperator(w, np.eye(2)), out0)])
    rho = StateOperator(w, random_density(rng, 2))
    assert np.abs(holevo_apply(const, rho).entries - out0.entries).max() < 1e-12
    projective = HolevoForm([
        (MatrixOperator(w, np.diag([1.0, 0.0])), out0),
        (MatrixOperator(w, np.diag([0.0, 1.0])), out1),
    ])
    p = 0.3
    rho = StateOperator(w, np.diag([p, 1 - p]))
    want = p * out0.entries + (1 - p) * out1.entries
    assert np.abs(holevo_apply(projective, rho).entries - want).max() < 1e-12


def test_holevo_form_rejects_incomplete_povm(rng):
    w = window(2)
    out = StateOperator(w, random_density(rng, 2))
    with pytest.raises(InvariantViolationError):
        HolevoForm([(MatrixOperator(w, 0.5 * np.eye(2)), out)])


def test_holevo_apply_matches_blocks(rng):
    form = random_holevo_form(rng, 3, 4, 4)
    chan = blocks_from_holevo(form)
    for _ in range(5):
        rho = StateOperator(window(3), random_density(rng, 3))
        assert np.abs(holevo_apply(form, rho).entries
                      - apply(chan, rho).entries).max() < 1e-12


def test_choi_of_identity_is_purified_reference():
    w = window(2)
    lam = np.array([0.7, 0.3])
    sigma = StateOperator(w, np.diag(lam))
    state = choi(identity_channel(w), sigma)
    v = np.zeros(4)
    v[0] = np.sqrt(0.7)
    v[3] = np.sqrt(0.3)
    assert np.abs(state.entries - np.outer(v, v)).max() < 1e-12


def test_choi_of_constant_channel_is_product(rng):
    w = window(3)
    lam = np.array([0.5, 0.3, 0.2])
    sigma = StateOperator(w, np.diag(lam))
    target = StateOperator(window(2), random_density(rng, 2))
    state = choi(constant_channel(w, target), sigma)
    assert np.abs(state.entries - np.kron(np.diag(lam), target.entries)).max() < 1e-12


def test_choi_marginal_reproduces_reference(rng):
    form = random_holevo_form(rng, 3, 2, 4)
    chan = blocks_from_holevo(form)
    sigma = random_full_rank_state(rng, 3)
    state = choi(chan, sigma)
    lam = np.sort(np.linalg.eigvalsh(sigma.entries))[::-1]
    marginal = partial_trace(state, "second")
    assert np.abs(marginal.entries - np.diag(lam)).max() < 1e-10


def test_choi_rejects_rank_deficient_reference():
    w = window(2)
    sigma = StateOperator(w, np.diag([1.0, 0.0]))
    with pytest.raises(InvariantViolationError):
        choi(identity_channel(w), sigma)


def test_choi_apply_reconstruction_on_matrix_units(rng):
    # the purification reproduces matrix units:
    # lam_i^{-1/2} lam_j^{-1/2} Tr_left[(|j><i| x I) |Omega><Omega|] = |i><j|
    dim = 3
    lam = np.array([0.5, 0.3, 0.2])
    omega_vec = np.zeros(dim * dim)
    for i in range(dim):
        omega_vec[i * dim + i] = np.sqrt(lam[i])
    omega = np.outer(omega_vec, omega_vec)
    from oracles import partial_trace_loops
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim))
            unit[j, i] = 1.0
            traced = partial_trace_loops(np.kron(unit, np.eye(dim)) @ omega, dim, dim, "first")
            recon = traced / np.sqrt(lam[i] * lam[j])
            want = np.zeros((dim, dim))
            want[i, j] = 1.0
            assert np.abs(recon - want).max() < 1e-8


def test_apply_reconstructed_from_choi(rng):
    # the channel action is recoverable from its Choi matrix: block (i, j)
    # in the reference eigenbasis, scaled by 1/sqrt(lam_i lam_j), is the
    # image of the eigenbasis matrix unit
    form = random_holevo_form(rng, 3, 2, 4)
    chan = blocks_from_holevo(form)
    sigma = random_full_rank_state(rng, 3)
    state = choi(chan, sigma)
    from eblab import eig_hermitian
    lam, basis = eig_hermitian(sigma)
    d_in, d_out = 3, 2
    c4 = state.entries.reshape(d_in, d_out, d_in, d_out)
    worst = 0.0
    for i in range(d_in):
        for j in range(d_in):
            unit = np.outer(basis[:, i], basis[:, j].conj())
            want = apply_matrix(chan, MatrixOperator(chan.in_window, unit)).entries
            got = c4[i, :, j, :] / np.sqrt(lam[i] * lam[j])
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-8


def test_npt_choi_admits_no_valid_decomposition(rng):
    # when the PPT screen fails, the decomposition validation invariant
    # rejects every candidate pure-product atom list; a few natural
    # constructions demonstrate the mechanism
    w = window(2)
    chan = identity_channel(w)
    sigma = StateOperator.maximally_mixed(w)
    ppt, _ = eb_necessary_test(chan, sigma)
    assert not ppt
    target = choi(chan, sigma)
    candidates = []
    # basis products
    candidates.append([(0.25, PureVector(w, np.eye(2)[i]), PureVector(w, np.eye(2)[j]))
                       for i in range(2) for j in range(2)])
    # random product atoms
    atoms = []
    weights = rng.dirichlet(np.ones(6))
    for k in range(6):
        atoms.append((weights[k],
                      PureVector(w, random_pure(rng, 2)),
                      PureVector(w, random_pure(rng, 2))))
    candidates.append(atoms)
    for atom_list in candidates:
        with pytest.raises(InvariantViolationError):
            SeparableChoiDecomposition(sigma, atom_list, target)


def test_eb_necessary_test_identity_vs_constant(rng):
    w = window(2)
    sigma = StateOperator.maximally_mixed(w)
    ppt, low = eb_necessary_test(identity_channel(w), sigma)
    assert not ppt
    assert abs(low + 0.5) < 1e-10
    target = StateOperator(w, random_density(rng, 2))
    ppt, _ = eb_necessary_test(constant_channel(w, target), sigma)
    assert ppt


def test_separable_choi_decomposition_validates(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    decomposition = separable_choi_from_holevo(form, sigma)
    chan = blocks_from_holevo(form)
    target = choi(chan, sigma)
    recon = decomposition.reconstruction()
    assert np.abs(recon.entries - target.entries).max() < 1e-10


def test_eb_extract_constant_channel(rng):
    # constant channel with diagonal sigma: atoms (lam_i, |i>, psi0) extract
    # to POVM elements lam_i^{-1}-weighted projectors summing to I
    dim = 3
    w = window(dim)
    lam = np.array([0.5, 0.3, 0.2])
    sigma = StateOperator(w, np.diag(lam))
    psi0 = PureVector(window(2), random_pure(rng, 2))
    chan = constant_channel(w, psi0.projector())
    atoms = [(lam[i], basis_vector(w, i), psi0) for i in range(dim)]
    decomposition = SeparableChoiDecomposition(
        sigma, atoms, choi(chan, sigma))
    form = eb_extract(decomposition, chan)
    total = sum(m.entries for m, _ in form.atoms)
    assert np.abs(total - np.eye(dim)).max() < 1e-10
    for m_op, out in form.atoms:
        assert np.abs(out.entries - psi0.projector().entries).max() < 1e-12


def test_eb_extract_dephasing_channel():
    dim = 3
    w = window(dim)
    lam = np.array([0.5, 0.3, 0.2])
    sigma = StateOperator(w, np.diag(lam))
    chan = dephasing_channel(w)
    atoms = [(lam[i], basis_vector(w, i), basis_vector(w, i)) for i in range(dim)]
    decomposition = SeparableChoiDecomposition(
        sigma, atoms, choi(chan, sigma))
    form = eb_extract(decomposition, chan)
    # POVM elements are the basis projectors, outputs the basis states
    got = sorted(form.atoms, key=lambda a: int(np.argmax(np.abs(np.diag(a[0].entries)))))
    for i, (m_op, out) in enumerate(got):
        unit = np.zeros((dim, dim))
        unit[i, i] = 1.0
        assert np.abs(m_op.entries - unit).max() < 1e-10
        assert np.abs(out.entries - unit).max() < 1e-10


def test_eb_extract_round_trip_random_forms(rng):
    for trial in range(5):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        form = random_holevo_form(rng, d_in, d_out, int(rng.integers(2, 6)))
        chan = blocks_from_holevo(form)
        sigma = random_full_rank_state(rng, d_in)
        decomposition = separable_choi_from_holevo(form, sigma)
        extracted = eb_extract(decomposition, chan)
        residual = np.abs(blocks_from_holevo(extracted).blocks - chan.blocks).max()
        assert residual < 1e-8
        for _ in range(3):
            rho = StateOperator(window(d_in), random_density(rng, d_in))
            assert np.abs(holevo_apply(extracted, rho).entries
                          - holevo_apply(form, rho).entries).max() < 1e-8


def test_eb_extract_rejects_foreign_decomposition(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    decomposition = separable_choi_from_holevo(form, sigma)
    other = blocks_from_holevo(random_holevo_form(rng, 3, 2, 3))
    with pytest.raises(InvariantViolationError):
        eb_extract(decomposition, other)


def test_kraus_rank_one_dephasing():
    dim = 3
    w = window(dim)
    atoms = [(MatrixOperator(w, np.diag([1.0 if i == j else 0.0 for j in range(dim)])),
              basis_vector(w, i).projector()) for i in range(dim)]
    kraus = kraus_rank_one(HolevoForm(atoms))
    assert len(kraus.operators) == dim
    total = sum(np.abs(a) for a in kraus.operators)
    assert np.abs(total - np.eye(dim)).max() < 1e-12


def test_kraus_rank_one_identity_povm(rng):
    dim = 4
    w = window(dim)
    psi0 = PureVector(window(2), random_pure(rng, 2))
    form = HolevoForm([(MatrixOperator(w, np.eye(dim)), psi0.projector())])
    kraus = kraus_rank_one(form)
    assert len(kraus.operators) == dim
    for a in kraus.operators:
        s = np.linalg.svd(a, compute_uv=False)
        assert s[1] < 1e-12


def test_kraus_rank_one_action_matches_holevo(rng):
    form = random_holevo_form(rng, 3, 3, 4, pure_outputs=True)
    kraus = kraus_rank_one(form)
    total = sum(a.conj().T @ a for a in kraus.operators)
    assert np.abs(total - np.eye(3)).max() < 1e-10
    for _ in range(20):
        rho = StateOperator(window(3), random_density(rng, 3))
        assert np.abs(kraus_apply(kraus, rho).entries
                      - holevo_apply(form, rho).entries).max() < 1e-10


def test_kraus_rank_one_splits_mixed_outputs(rng):
    form = random_holevo_form(rng, 3, 3, 3, pure_outputs=False)
    kraus = kraus_rank_one(form)
    for _ in range(5):
        rho = StateOperator(window(3), random_density(rng, 3))
        assert np.abs(kraus_apply(kraus, rho).entries
                      - holevo_apply(form, rho).entries).max() < 1e-10


def test_extension_by_identity_outputs_are_ppt(rng):
    # measure-and-prepare extended by the identity keeps every state separable;
    # the PPT screen must agree on random correlated inputs
    form = random_holevo_form(rng, 3, 2, 3)
    chan = blocks_from_holevo(form)
    ancilla = window(3)
    for _ in range(5):
        omega = StateOperator(ProductWindow(window(3), ancilla), random_density(rng, 9))
        out = apply_with_identity(chan, omega)
        assert abs(out.trace().real - 1.0) < 1e-10
        pt_vals = np.linalg.eigvalsh(partial_transpose(out).entries)
        assert pt_vals.min() > -1e-10


def test_extension_by_identity_on_product_inputs(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    chan = blocks_from_holevo(form)
    rho = StateOperator(window(3), random_density(rng, 3))
    anc = StateOperator(window(2), random_density(rng, 2))
    joint = StateOperator.from_operator(tensor(rho, anc))
    out = apply_with_identity(chan, joint)
    want = tensor(holevo_apply(form, rho), anc)
    assert np.abs(out.entries - want.entries).max() < 1e-12


def test_decomposition_weights_use_their_own_tolerance():
    # a decomposition's weights may miss unity by up to 1e-10, a looser
    # bound than the 1e-12 of state measures
    w = window(2)
    sigma = StateOperator.maximally_mixed(w)
    form = HolevoForm([(MatrixOperator(w, np.diag([1.0, 0.0])), basis_vector(w, 0).projector()),
                       (MatrixOperator(w, np.diag([0.0, 1.0])), basis_vector(w, 1).projector())])
    exact = separable_choi_from_holevo(form, sigma)
    target = choi(blocks_from_holevo(form), sigma)
    for scale, accepted in ((1.0 + 5e-11, True), (1.0 + 1e-9, False)):
        atoms = [(scale * weight, phi, psi) for weight, phi, psi in exact.atoms]
        if accepted:
            SeparableChoiDecomposition(sigma, atoms, target)
        else:
            with pytest.raises(InvariantViolationError):
                SeparableChoiDecomposition(sigma, atoms, target)


def test_holevo_apply_takes_forms_checked_at_their_own_tolerance():
    # a form accepted at the extraction tolerance may miss completeness by more
    # than 1e-10; the check belongs to HolevoForm, not to every application
    w = window(2)
    out = StateOperator(w, np.eye(2) / 2)
    m_op = MatrixOperator(w, [[1.0, 5e-10], [5e-10, 1.0]])
    form = HolevoForm([(m_op, out)], povm_tol=1e-8)
    rho = StateOperator(w, np.diag([0.25, 0.75]))
    assert np.abs(holevo_apply(form, rho).entries - out.entries).max() < 1e-12


def test_decomposition_reconstruction_is_the_weighted_atom_sum(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    decomposition = separable_choi_from_holevo(form, sigma)
    want = sum(w * np.outer(np.kron(phi.amplitudes, psi.amplitudes),
                            np.kron(phi.amplitudes, psi.amplitudes).conj())
               for w, phi, psi in decomposition.atoms)
    assert decomposition.reconstruction() is decomposition.reconstruction()
    assert np.abs(decomposition.reconstruction().entries - want).max() < 1e-14
