import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    ChoiState,
    ExtractionInconsistentError,
    SeparableChoiDecomposition,
    HolevoForm,
    InvariantViolationError,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    RotationChannel,
    StateOperator,
    WindowMismatchError,
    apply,
    apply_matrix,
    apply_with_identity,
    basis_vector,
    choi,
    cp_check,
    eb_extract,
    eb_necessary_test,
    eig_hermitian,
    factored_channel,
    factored_operator,
    factored_state,
    holevo_apply,
    holevo_channel,
    holevo_form,
    partial_trace,
    partial_transpose,
    phi_profile,
    separable_choi_from_holevo,
    tensor,
    trace_norm_distance,
)
from eblab.channels import EXTRACT_TOL, _difference_norms, _khatri_rao
from eblab.hilbert import _unit_vector, lowest_eigenvalue
from conftest import (
    assert_same_channel,
    blocks_from_holevo,
    constant_channel,
    dephasing_channel,
    identity_channel,
    random_density,
    random_pure,
    transpose_channel,
)


def window(dim):
    return ModeWindow(0, dim - 1)


def random_holevo_atoms(rng, d_in, d_out, atom_count, pure_outputs=False):
    """Dense POVM atoms from normalized Wishart draws paired with random outputs."""
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
    return atoms


def random_holevo_form(rng, d_in, d_out, atom_count, pure_outputs=False):
    return HolevoForm(random_holevo_atoms(rng, d_in, d_out, atom_count, pure_outputs))


def random_full_rank_state(rng, dim):
    return StateOperator(window(dim),
                         0.5 * random_density(rng, dim) + 0.5 * np.eye(dim) / dim)


def test_identity_channel_blocks_and_stacked():
    chan = identity_channel(window(3))
    ok, low = cp_check(chan)
    assert ok
    # stacked matrix is the unnormalized maximally entangled projector
    stacked = chan.stacked.entries
    v = np.zeros(9)
    v[[0, 4, 8]] = 1.0
    assert np.abs(stacked - np.outer(v, v)).max() < 1e-14


def test_transpose_channel_fails_cp():
    chan = transpose_channel(window(3))
    ok, low = cp_check(chan)
    assert not ok
    assert abs(low + 1.0) < 1e-12
    # stacked matrix is the swap
    stacked = chan.stacked.entries
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


def test_the_choi_trace_gate_refuses_what_two_passing_gates_add_up_to():
    # a channel whose Tr_out S is (1 + 0.9e-10) I and a sigma of trace 1 + 0.9e-10 each
    # pass their own gate, but the Choi state's trace is their product, 1 + 1.8e-10: the
    # unformed congruence's trace gate refuses it, without forming it. So it does for a
    # dense factor under a non-diagonal sigma and for the rotation channel's sector
    # factors under a diagonal one, whose gate reads sigma's entries all the same
    scale = np.sqrt(1 + 0.9e-10)
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # the dephasing channel
    phi = phi_profile("geometric(0.7)", 2)

    def dephasing(s):
        return ChannelBlocks.from_factors(window(2), window(2), s * x, s * x)

    def rotation(s):  # the channel of the fiducial scaled by s, kept as its sector factors
        channel = factored_channel(RotationChannel(_unit_vector(phi.window, s * phi.amplitudes)))
        assert channel.stacked.sectors is not None
        return channel

    for channel, entries in ((dephasing, np.array([[0.6, 0.2], [0.2, 0.4]])),
                             (rotation, np.diag([0.3, 0.25, 0.2, 0.15, 0.1]))):
        long_channel = channel(scale)
        w = long_channel.in_window
        heavy_sigma = StateOperator(w, scale ** 2 * entries)
        with pytest.raises(InvariantViolationError, match="state trace defect .* = 1.800e-10"):
            choi(long_channel, heavy_sigma)
        for one, sigma in ((long_channel, StateOperator(w, entries)), (channel(1.0), heavy_sigma)):
            assert abs(choi(one, sigma).trace() - 1.0) <= 1e-10


@pytest.mark.parametrize("kind, half", [("rotation", 2), ("rotation", 4), ("atoms", 1)])
def test_an_unformed_choi_congruence_reads_as_the_eager_one_bit_for_bit(kind, half, monkeypatch):
    # under the mixed sigma, a random diagonal one and a random full-rank one the Choi
    # state keeps its congruences unformed (no tensordot runs when it is built); its
    # factors, entries and partial-transpose minimum eigenvalue are those of the eager
    # congruence, formed here by the tensordot that is every factored Choi state's oracle
    rng = np.random.default_rng(40 + half)
    if kind == "rotation":
        w = ModeWindow.symmetric(half)
        d = w.dimension
        channel = factored_channel(RotationChannel(PureVector(
            w, rng.normal(size=d) + 1j * rng.normal(size=d))))
    else:  # 3 x 3 x 2 = 18 Kraus columns against 3 x 2 rows, so the eigensolve runs
        channel = holevo_channel(random_holevo_form(rng, 3, 2, 3))
    d_in, d_out = channel.in_window.dimension, channel.out_window.dimension
    full = StateOperator(channel.in_window, random_density(rng, d_in))
    weights = rng.random(d_in) + 0.1  # unequal, so the eigenbasis permutes the rows
    diagonal = StateOperator(channel.in_window, np.diag(weights / weights.sum()))

    def refuse(*args, **kwargs):
        raise AssertionError("a tensordot ran")

    window_pair = ProductWindow(channel.in_window, channel.out_window)
    for sigma in (StateOperator.maximally_mixed(channel.in_window), diagonal, full):
        with monkeypatch.context() as patch:
            patch.setattr(np, "tensordot", refuse)
            state = choi(channel, sigma)
        assert state.sectors is None and state.transposed.sectors is None
        lam, basis = eig_hermitian(sigma)
        w = basis * np.sqrt(lam)
        eager, eager_pt = (factored_operator(window_pair, np.tensordot(
            w, x.reshape(d_in, d_out, -1), axes=(0, 0)).reshape(d_in * d_out, -1))
            for x in (channel.stacked.factor, channel.transposed.factor))
        for got, want in ((state.factor, eager.factor),
                          (state.transposed.factor, eager_pt.factor),
                          (state.entries, eager.entries)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        low = lowest_eigenvalue(state.transposed)
        assert np.float64(low).tobytes() == np.float64(lowest_eigenvalue(eager_pt)).tobytes()
        assert (low == 0.0) == (kind == "rotation")


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
    target = choi(chan, sigma)
    ppt, _ = eb_necessary_test(target)
    assert not ppt
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
            SeparableChoiDecomposition(target, atom_list)


def test_eb_necessary_test_identity_vs_constant(rng):
    w = window(2)
    sigma = StateOperator.maximally_mixed(w)
    ppt, low = eb_necessary_test(choi(identity_channel(w), sigma))
    assert not ppt
    assert abs(low + 0.5) < 1e-10
    target = StateOperator(w, random_density(rng, 2))
    ppt, _ = eb_necessary_test(choi(constant_channel(w, target), sigma))
    assert ppt


def test_separable_choi_decomposition_validates(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    chan = blocks_from_holevo(form)
    target = choi(chan, sigma)
    decomposition = separable_choi_from_holevo(form, target)
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
        choi(chan, sigma), atoms)
    form, _ = eb_extract(decomposition)
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
        choi(chan, sigma), atoms)
    form, _ = eb_extract(decomposition)
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
        decomposition = separable_choi_from_holevo(form, choi(chan, sigma))
        extracted, _ = eb_extract(decomposition)
        residual = np.abs(blocks_from_holevo(extracted).blocks - chan.blocks).max()
        assert residual < 1e-8
        for _ in range(3):
            rho = StateOperator(window(d_in), random_density(rng, d_in))
            assert np.abs(holevo_apply(extracted, rho).entries
                          - holevo_apply(form, rho).entries).max() < 1e-8


def test_eb_extract_rejects_foreign_decomposition(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    other = blocks_from_holevo(random_holevo_form(rng, 3, 2, 3))
    with pytest.raises(InvariantViolationError):
        separable_choi_from_holevo(form, choi(other, sigma))


def test_construction_refuses_a_decomposition_its_choi_distance_accepts(rng):
    # Lambda^{-1/2} amplifies a Choi-side error near sigma's small eigenvalue: bending the
    # output of the atom of weight 1e-6 by 1e-5 moves the Choi state by about 1e-11 in trace
    # distance, but the extracted channel by about 1e-5. Construction gates l_max / 2 times
    # the extraction's trace norm, which bounds the first by the second, so it refuses
    w = ModeWindow.symmetric(1)
    form = HolevoForm([(basis_vector(w, k).projector(), PureVector(w, random_pure(rng, 3)).projector())
                       for k in (-1, 0, 1)])
    sigma = StateOperator(w, np.diag([0.5 - 5e-7, 1e-6, 0.5 - 5e-7]))
    decomposition = separable_choi_from_holevo(form, choi(holevo_channel(form), sigma))
    atoms = list(decomposition.atoms)
    lightest = min(range(len(atoms)), key=lambda n: atoms[n][0])
    weight, phi, psi = atoms[lightest]
    atoms[lightest] = (weight, phi, PureVector(w, psi.amplitudes + 1e-5 * np.array([1j, 0, 1])))
    weights = np.array([weight for weight, _, _ in atoms])
    lefts, rights = (np.stack([v.amplitudes for v in side], axis=1)
                     for side in list(zip(*atoms))[1:])
    reconstruction = factored_state(decomposition.target.window,
                                    _khatri_rao(lefts, rights) * np.sqrt(weights))
    assert 1e-12 < trace_norm_distance(reconstruction, decomposition.target) <= EXTRACT_TOL
    with pytest.raises(InvariantViolationError, match="trace distance bound") as err:
        SeparableChoiDecomposition(decomposition.target, atoms)
    assert not isinstance(err.value, ExtractionInconsistentError)


def test_the_extraction_gates_what_the_congruence_bound_lets_through():
    # the congruence bound is l_max / 2 times the extraction's trace norm, so under the
    # mixed reference on seven modes (l_max = 1/7) a decomposition passes construction
    # while its extracted form misses the channel, or POVM completeness, by up to 7e-8
    d = 7
    w = window(d)
    target = choi(dephasing_channel(w), StateOperator.maximally_mixed(w))
    exact = [(1 / d, basis_vector(w, i), basis_vector(w, i)) for i in range(d)]
    turned = list(exact)  # atom 0 prepares a state turned by 3e-8 towards |1>
    turned[0] = (1 / d, exact[0][1], PureVector(w, np.sqrt(1 - 9e-16) * np.eye(d)[0]
                                                 + 3e-8 * np.eye(d)[1]))
    with pytest.raises(ExtractionInconsistentError,
                       match="extracted form disagrees with the channel's stacked matrix") as err:
        eb_extract(SeparableChoiDecomposition(target, turned))
    assert abs(err.value.residual - 3e-8) < 1e-15
    shifted = list(exact)  # 5e-9 of atom 1's weight moved to atom 0: POVM off by 3.5e-8
    shifted[0], shifted[1] = (1 / d + 5e-9, *exact[0][1:]), (1 / d - 5e-9, *exact[1][1:])
    with pytest.raises(InvariantViolationError, match="POVM incomplete") as err:
        eb_extract(SeparableChoiDecomposition(target, shifted))
    assert not isinstance(err.value, ExtractionInconsistentError)


def congruence_chain(rng, kind, half):
    """(form, Choi state) of a random rotation, atoms or blocks channel under a random full-rank sigma."""
    if kind == "rotation":
        d = 2 * half + 1
        rotation = RotationChannel(PureVector(ModeWindow.symmetric(half),
                                              rng.normal(size=d) + 1j * rng.normal(size=d)))
        form, channel = holevo_form(rotation), factored_channel(rotation)
    else:
        form = random_holevo_form(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                                  int(rng.integers(2, 6)))
        channel = holevo_channel(form) if kind == "atoms" else blocks_from_holevo(form)
    d_in = channel.in_window.dimension
    return form, choi(channel, StateOperator(channel.in_window, random_density(rng, d_in)))


@pytest.mark.parametrize("kind, half", [*(("rotation", half) for half in (1, 2, 4, 8)),
                                        ("atoms", None), ("blocks", None)])
def test_the_congruence_bound_holds_the_exact_choi_distance(rng, kind, half):
    # W^T x I maps the extraction's factor onto the decomposition's and the channel's onto
    # the Choi state's, so l_max / 2 times the extraction's trace norm bounds the exact
    # trace distance. Each prepared state is turned by about 1e-10, which puts both far
    # above round-off: on an exact decomposition they are both noise, of order 1e-16
    for _ in range(4):
        form, state = congruence_chain(rng, kind, half)
        exact = separable_choi_from_holevo(form, state)
        rights = exact.rights + 1e-10 * (rng.normal(size=exact.rights.shape)
                                         + 1j * rng.normal(size=exact.rights.shape))
        decomposition = SeparableChoiDecomposition.from_vectors(
            state, exact.weights, exact.lefts, rights / np.linalg.norm(rights, axis=0))
        trace = _difference_norms(decomposition._povm.conj(), decomposition.rights,
                                  state.channel.stacked)[1]
        bound = 0.5 * state.eigenvalues[0] * trace
        distance = trace_norm_distance(decomposition.reconstruction(), state)
        assert 1e-13 < distance <= bound <= EXTRACT_TOL, (distance, bound)


def test_kraus_rank_one_dephasing():
    dim = 3
    w = window(dim)
    atoms = [(MatrixOperator(w, np.diag([1.0 if i == j else 0.0 for j in range(dim)])),
              basis_vector(w, i).projector()) for i in range(dim)]
    kraus = HolevoForm(atoms)
    assert len(kraus.operators) == dim
    total = sum(np.abs(a) for a in kraus.operators)
    assert np.abs(total - np.eye(dim)).max() < 1e-12


def test_kraus_rank_one_identity_povm(rng):
    dim = 4
    w = window(dim)
    psi0 = PureVector(window(2), random_pure(rng, 2))
    form = HolevoForm([(MatrixOperator(w, np.eye(dim)), psi0.projector())])
    assert len(form.operators) == dim
    for a in form.operators:
        s = np.linalg.svd(a, compute_uv=False)
        assert s[1] < 1e-12


def test_kraus_rank_one_action_matches_holevo(rng):
    # holevo_apply is G diag(<f_n|rho|f_n>) G^dag over the form's pairs; the oracles
    # are the dense blocks of its atoms and the sum over its dense Kraus operators
    form = random_holevo_form(rng, 3, 3, 4, pure_outputs=True)
    chan = blocks_from_holevo(form)
    total = sum(a.conj().T @ a for a in form.operators)
    assert np.abs(total - np.eye(3)).max() < 1e-10
    for _ in range(20):
        rho = StateOperator(window(3), random_density(rng, 3))
        out = holevo_apply(form, rho).entries
        assert np.abs(out - apply(chan, rho).entries).max() < 1e-10
        dense = sum(a @ rho.entries @ a.conj().T for a in form.operators)
        assert np.abs(out - dense).max() < 1e-12


def test_kraus_rank_one_splits_mixed_outputs(rng):
    # a mixed prepared state splits into several pairs; the oracle is the dense blocks
    form = random_holevo_form(rng, 3, 3, 3, pure_outputs=False)
    chan = blocks_from_holevo(form)
    for _ in range(5):
        rho = StateOperator(window(3), random_density(rng, 3))
        assert np.abs(holevo_apply(form, rho).entries
                      - apply(chan, rho).entries).max() < 1e-10


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
    target = choi(blocks_from_holevo(form), sigma)
    exact = separable_choi_from_holevo(form, target)
    for scale, accepted in ((1.0 + 5e-11, True), (1.0 + 1e-9, False)):
        atoms = [(scale * weight, phi, psi) for weight, phi, psi in exact.atoms]
        if accepted:
            SeparableChoiDecomposition(target, atoms)
        else:
            with pytest.raises(InvariantViolationError):
                SeparableChoiDecomposition(target, atoms)


def test_holevo_apply_takes_forms_checked_at_their_own_tolerance():
    # a form accepted at the extraction tolerance may miss completeness by more
    # than 1e-10; the check belongs to HolevoForm, not to every application or
    # to its Kraus family, which is the form itself
    w = window(2)
    out = StateOperator(w, np.eye(2) / 2)
    m_op = MatrixOperator(w, [[1.0, 5e-10], [5e-10, 1.0]])
    form = HolevoForm([(m_op, out)], povm_tol=1e-8)
    rho = StateOperator(w, np.diag([0.25, 0.75]))
    applied = holevo_apply(form, rho).entries
    assert np.abs(applied - out.entries).max() < 1e-12
    completeness = sum(a.conj().T @ a for a in form.operators)
    assert 1e-10 < np.abs(completeness - np.eye(2)).max() <= 1e-8
    dense = sum(a @ rho.entries @ a.conj().T for a in form.operators)
    assert np.abs(applied - dense).max() < 1e-12


def test_decomposition_reconstruction_is_the_weighted_atom_sum(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    sigma = random_full_rank_state(rng, 3)
    decomposition = separable_choi_from_holevo(form, choi(blocks_from_holevo(form), sigma))
    want = sum(w * np.outer(np.kron(phi.amplitudes, psi.amplitudes),
                            np.kron(phi.amplitudes, psi.amplitudes).conj())
               for w, phi, psi in decomposition.atoms)
    assert decomposition.reconstruction() is decomposition.reconstruction()
    assert np.abs(decomposition.reconstruction().entries - want).max() < 1e-14


def test_choi_state_carries_its_channel_and_reference(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    chan = blocks_from_holevo(form)
    sigma = random_full_rank_state(rng, 3)
    state = choi(chan, sigma)
    assert isinstance(state, ChoiState) and isinstance(state, StateOperator)
    assert state.channel is chan and state.reference is sigma
    lam, basis = eig_hermitian(sigma)
    assert np.array_equal(state.eigenvalues, lam) and np.array_equal(state.eigenbasis, basis)
    assert np.all(np.diff(state.eigenvalues) <= 0.0)


def test_state_constructors_on_choi_state_build_plain_states():
    w = window(3)
    mixed = ChoiState.maximally_mixed(w)
    assert type(mixed) is StateOperator and np.allclose(mixed.entries, np.eye(3) / 3)
    promoted = ChoiState.from_operator(MatrixOperator(w, np.diag([0.5, 0.25, 0.25])))
    assert type(promoted) is StateOperator
    assert np.array_equal(promoted.entries, np.diag([0.5, 0.25, 0.25]).astype(complex))


def test_reconstruction_is_a_factored_state(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    decomposition = separable_choi_from_holevo(form, choi(blocks_from_holevo(form),
                                                          random_full_rank_state(rng, 3)))
    weights = np.array([w for w, _, _ in decomposition.atoms])
    factor = decomposition.reconstruction().factor
    assert factor.shape == (decomposition.target.window.dimension, len(weights))
    assert np.allclose(np.linalg.norm(factor, axis=0) ** 2, weights, rtol=0.0, atol=1e-15)


def test_choi_state_attributes_are_read_only(rng):
    w = window(3)
    state = choi(identity_channel(w), random_full_rank_state(rng, 3))
    for name in ("channel", "reference", "eigenvalues", "eigenbasis"):
        with pytest.raises(AttributeError):
            setattr(state, name, None)
    for array in (state.eigenvalues, state.eigenbasis, state.entries):
        with pytest.raises(ValueError):
            array[0] = 0.0


def stacked_columns(form):
    """The columns conj(f) x g over every atom's factor columns f and prepared-state columns g."""
    return np.stack([np.kron(f.conj(), g) for m_op, rho_out in form.atoms
                     for f in m_op.factor.T for g in rho_out.factor.T], axis=1)


def test_eb_extract_returns_the_block_residual_it_checked(rng):
    # on ChannelBlocks the residual is the operator norm of A A^dag - S, from one dense eigvalsh
    for _ in range(3):
        form = random_holevo_form(rng, 3, 2, 3)
        chan = blocks_from_holevo(form)
        decomposition = separable_choi_from_holevo(form, choi(chan, random_full_rank_state(rng, 3)))
        extracted, residual = eb_extract(decomposition)
        a = stacked_columns(extracted)
        assert a.shape == (6, len(decomposition.atoms))
        diff = a @ a.conj().T - chan.stacked.entries
        assert residual == np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).max()
        entries = blocks_from_holevo(extracted).stacked.entries - chan.stacked.entries
        assert abs(residual - np.abs(np.linalg.eigvalsh(entries)).max()) <= 1e-14


def test_separable_choi_from_holevo_rejects_a_form_on_other_windows(rng):
    form = random_holevo_form(rng, 3, 2, 3)
    other = choi(identity_channel(window(2)), StateOperator.maximally_mixed(window(2)))
    with pytest.raises(WindowMismatchError):
        separable_choi_from_holevo(form, other)


def test_holevo_form_rejects_non_hermitian_atom():
    # I/2 + B and I/2 - B sum to I and have positive Hermitian parts; B is anti-Hermitian
    w = window(2)
    b = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
    out = basis_vector(w, 0).projector()
    with pytest.raises(InvariantViolationError, match="POVM atom not Hermitian"):
        HolevoForm([(MatrixOperator(w, 0.5 * np.eye(2) + b), out),
                    (MatrixOperator(w, 0.5 * np.eye(2) - b), out)])


def test_block_family_with_a_nan_entry_is_refused():
    # the NaN sits off the block diagonal, so only the Hermiticity check sees it
    blocks = identity_channel(window(2)).blocks.copy()
    blocks[0, 1, 1, 0] = np.nan
    with pytest.raises(InvariantViolationError, match="not Hermitian"):
        ChannelBlocks(window(2), window(2), blocks)


def test_kraus_family_with_a_nan_entry_is_refused():
    w = window(2)
    with pytest.raises(InvariantViolationError, match="POVM vectors has non-finite"):
        HolevoForm.rank_one(w, w, [[1.0, 0.0], [0.0, np.nan]], np.eye(2))
    with pytest.raises(InvariantViolationError, match="prepared states has non-finite"):
        HolevoForm.rank_one(w, w, np.eye(2), [[1.0, np.nan], [0.0, 1.0]])


def test_kraus_family_incomplete_or_mismatched_is_refused():
    # the dephasing family |i><i| is complete; dropping or scaling a vector is not
    w2, w3 = window(2), window(3)
    kraus = HolevoForm.rank_one(w2, w2, np.eye(2), np.eye(2))
    assert all(np.array_equal(a, np.diag(row)) for a, row in zip(kraus.operators, np.eye(2)))
    for inputs, outputs, message in ((np.eye(2)[:, :1], np.eye(2)[:, :1], "POVM incomplete"),
                                     (np.eye(2), 2 * np.eye(2), "state trace defect")):
        with pytest.raises(InvariantViolationError, match=message):
            HolevoForm.rank_one(w2, w2, inputs, outputs)
    for inputs, outputs, out_window in ((np.eye(2), np.eye(2), w3),   # g rows != d_out
                                        (np.eye(3), np.eye(3), w3)):  # f rows != d_in
        with pytest.raises(WindowMismatchError, match="Holevo vector shapes"):
            HolevoForm.rank_one(w2, out_window, inputs, outputs)
    for inputs, outputs, out_window in ((np.eye(2), np.eye(3)[:, :1], w3),  # column counts
                                        (np.ones(2), np.ones(2), w2)):     # not 2-D
        with pytest.raises(InvariantViolationError, match="Holevo vector shapes"):
            HolevoForm.rank_one(w2, out_window, inputs, outputs)


def branches_loop(matrix):
    vals, vecs = eig_hermitian(matrix)
    return [(vals[r], vecs[:, r]) for r in range(len(vals)) if vals[r] > 1e-14]


def test_split_atoms_follow_the_descending_branches(rng):
    # a dense atom is split once, into the columns sqrt(l) v of its descending
    # eigenpairs, and a dense state into sqrt(l / t) v, t its kept trace; the form
    # stores the Kraus pairs over the factor columns (POVM atom, then its column f,
    # then output column g), and decomposition atoms and Kraus operators run over them
    for pure_outputs in (False, True):
        dense = random_holevo_atoms(rng, 3, 2, 3, pure_outputs=pure_outputs)
        form = HolevoForm(dense)
        target = choi(blocks_from_holevo(form), random_full_rank_state(rng, 3))
        root, basis = np.sqrt(target.eigenvalues), target.eigenbasis
        for (m_dense, rho_dense), (m_op, rho_out) in zip(dense, form.atoms):
            for matrix, op in ((m_dense, m_op), (rho_dense, rho_out)):
                branches = branches_loop(matrix.entries)
                kept = np.sum([c for c, _ in branches]) if op is rho_out else 1.0
                columns = [np.sqrt(c / kept) * v for c, v in branches]
                assert np.array_equal(op.factor, np.stack(columns, axis=1))
        pairs = [(f, g) for m_op, rho_out in form.atoms
                 for f in m_op.factor.T for g in rho_out.factor.T]
        f_pairs, g_pairs = (np.stack(side, axis=1) for side in zip(*pairs))
        assert np.array_equal(form.inputs, f_pairs) and np.array_equal(form.outputs, g_pairs)
        lefts = root[:, None] * (basis.conj().T @ f_pairs).conj()
        weights = np.einsum("ij,ij->j", lefts.conj(), lefts).real
        out_weights = np.einsum("ij,ij->j", g_pairs.conj(), g_pairs).real
        split = separable_choi_from_holevo(form, target).atoms
        assert [w for w, _, _ in split] == list(weights * out_weights)
        for (_, phi, psi), phi_ref, psi_ref in zip(split, lefts.T, g_pairs.T):
            assert np.array_equal(phi.amplitudes, phi_ref / np.linalg.norm(phi_ref))
            assert np.array_equal(psi.amplitudes, psi_ref / np.linalg.norm(psi_ref))
        kraus = form.operators
        assert len(kraus) == len(pairs)
        assert all(np.array_equal(a, np.outer(g, f.conj())) for a, (f, g) in zip(kraus, pairs))
        # the channel's factor columns run over the same pairing, bit for bit
        channel = holevo_channel(form)
        for n, (f, g) in enumerate(pairs):
            assert np.array_equal(channel.stacked.factor[:, n], np.kron(f.conj(), g))
            assert np.array_equal(channel.transposed.factor[:, n], np.kron(f.conj(), g.conj()))
        assert channel.stacked.factor.shape[1] == len(pairs)


def test_from_factors_checks_its_factors():
    # dephasing: S = sum_i |ii><ii| is its own output partial transpose
    w = window(2)
    x = np.zeros((4, 2))
    x[0, 0] = x[3, 1] = 1.0
    channel = ChannelBlocks.from_factors(w, w, x, x)
    assert np.array_equal(channel.stacked.factor, x) and np.array_equal(channel.transposed.factor, x)
    assert np.array_equal(channel.stacked.entries, dephasing_channel(w).stacked.entries)
    assert cp_check(channel) == (True, 0.0)
    for bad, match in ((2 * x, "^factor not trace preserving"),
                       (np.full((4, 1), np.nan), "^factor has non-finite"),
                       (np.ones((3, 1)), "^factor shape .* rows")):
        with pytest.raises(InvariantViolationError, match=match):
            ChannelBlocks.from_factors(w, w, bad, x)
    # the identity channel's S^(T_out) is the swap, which has no factor; I_4 fails Tr_out
    with pytest.raises(InvariantViolationError, match="partial-transpose factor not trace"):
        ChannelBlocks.from_factors(w, w, np.eye(2).reshape(4, 1), np.eye(4))
    # a trace-preserving X' of another channel: the identity with the dephasing
    # X' used to pass, so its Choi state passed the PPT screen with min_eig_pt 0.0
    with pytest.raises(InvariantViolationError, match="partial-transpose factor does not match"):
        ChannelBlocks.from_factors(w, w, np.eye(2).reshape(4, 1), x)
    assert cp_check(ChannelBlocks.from_factors(window(1), window(1), [[1.0]], [[1.0]])) == (True, 1.0)


def test_factored_operator_keeps_its_factor(rng):
    w = window(3)
    x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    op = factored_operator(w, x)
    assert type(op) is MatrixOperator and np.array_equal(op.factor, x)
    assert np.abs(op.entries - x @ x.conj().T).max() < 1e-14
    assert np.array_equal(op.entries, op.entries.conj().T)
    for array in (op.factor, op.entries):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    # an operator's trace is free; a factored state's must be 1
    with pytest.raises(InvariantViolationError, match="trace defect"):
        factored_state(w, x)
    with pytest.raises(InvariantViolationError, match="non-finite"):
        factored_operator(w, [[np.nan], [1.0], [0.0]])
    with pytest.raises(WindowMismatchError):
        factored_operator(window(2), x)


def test_holevo_form_checks_factored_atoms_on_their_vectors(rng):
    # a rank-one POVM given by vectors: completeness is U U^dag = I, and a
    # dense atom may sit next to factored ones
    w = window(2)
    out = basis_vector(w, 0).projector()
    halves = [factored_operator(w, np.array([[1.0], [s]]) / np.sqrt(2)) for s in (1.0, -1.0)]
    form = HolevoForm([(m_op, out) for m_op in halves])
    assert np.abs(blocks_from_holevo(form).blocks - constant_channel(w, out).blocks).max() < 1e-15
    with pytest.raises(InvariantViolationError, match="POVM incomplete"):
        HolevoForm([(halves[0], out)])
    HolevoForm([(halves[0], out), (MatrixOperator(w, halves[1].entries), out)])


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("pure_outputs", [False, True])
def test_holevo_channel_factors_match_the_blocks(rng, d_in, d_out, pure_outputs):
    # dense mixed atoms, split when the form is built, and factored atoms of rank one and two
    forms = [random_holevo_form(rng, d_in, d_out, 3, pure_outputs)]
    for rank in (1, 2):
        draws = [rng.normal(size=(d_in, rank)) + 1j * rng.normal(size=(d_in, rank))
                 for _ in range(4)]
        vals, vecs = np.linalg.eigh(sum(a @ a.conj().T for a in draws))
        inv_root = (vecs * vals ** -0.5) @ vecs.conj().T
        outputs = [PureVector(window(d_out), random_pure(rng, d_out)).projector() if pure_outputs
                   else StateOperator(window(d_out), random_density(rng, d_out)) for _ in draws]
        forms.append(HolevoForm([(factored_operator(window(d_in), inv_root @ a), out)
                                 for a, out in zip(draws, outputs)]))
    for form in forms:
        channel = holevo_channel(form)
        x, y = channel.stacked.factor, channel.transposed.factor
        assert x.shape[1] == sum(m.factor.shape[1] * r.factor.shape[1] for m, r in form.atoms)
        stacked = blocks_from_holevo(form).stacked.entries
        pt = stacked.reshape(d_in, d_out, d_in, d_out).transpose(0, 3, 2, 1).reshape(
            d_in * d_out, d_in * d_out)
        assert np.abs(x @ x.conj().T - stacked).max() <= 1e-14
        assert np.abs(y @ y.conj().T - pt).max() <= 1e-14
        dense = blocks_from_holevo(form)
        assert_same_channel(channel, dense, rng)
        # the round trip: the extracted form's rank-one Kraus family acts as the channel
        state = choi(channel, random_full_rank_state(rng, d_in))
        extracted, _ = eb_extract(separable_choi_from_holevo(form, state))
        rho = random_full_rank_state(rng, d_in)
        kraus = holevo_apply(extracted, rho)
        assert np.abs(kraus.entries - apply(dense, rho).entries).max() <= 1e-13


def test_factored_atoms_split_along_their_columns(rng):
    # each vector atom u gives the single left branch sqrt(Lambda) conj(B^dag u);
    # the dense split of the same form yields the same product state
    w = window(3)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    vals, vecs = np.linalg.eigh(a @ a.conj().T)
    vectors = ((vecs * vals ** -0.5) @ vecs.conj().T) @ a  # columns resolve the identity
    outputs = [PureVector(window(2), random_pure(rng, 2)).projector() for _ in range(5)]
    form = HolevoForm([(factored_operator(w, u[:, None]), out) for u, out in zip(vectors.T, outputs)])
    dense = HolevoForm([(MatrixOperator(w, m_op.entries), StateOperator(window(2), out.entries))
                        for m_op, out in form.atoms])
    target = choi(blocks_from_holevo(dense), random_full_rank_state(rng, 3))
    split = separable_choi_from_holevo(form, target)
    root, basis = np.sqrt(target.eigenvalues), target.eigenbasis
    assert len(split.atoms) == 5
    for (weight, phi, psi), u, out in zip(split.atoms, vectors.T, outputs):
        left = root * (basis.conj().T @ u).conj()
        assert abs(weight - np.vdot(left, left).real) < 1e-15
        assert abs(abs(np.vdot(phi.amplitudes, left)) ** 2 - weight) < 1e-14
        assert np.abs(psi.amplitudes - out.factor[:, 0]).max() < 1e-15
    dense_split = separable_choi_from_holevo(dense, target)
    assert trace_norm_distance(split.reconstruction(), dense_split.reconstruction()) < 1e-13
