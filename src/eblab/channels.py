"""Channels as matrix-unit block families, Choi states, and measure-and-prepare forms.

A channel on a truncated window is pinned down by the blocks
B[i, j] = Phi(|i><j|). Complete positivity is equivalent to positivity of
the stacked matrix S[(i,k),(j,l)] = B[i,j][k,l], which is also the Choi
matrix for an unnormalized maximally entangled reference. The PPT test on
a (normalized, full-rank-reference) Choi state is the only separability
screen implemented here; it is necessary-only beyond 2x2 and 2x3.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ExtractionInconsistentError,
    InvariantViolationError,
    WindowMismatchError,
)
from .hilbert import (
    EPS_HERM,
    EPS_PSD,
    EPS_TRACE,
    MatrixOperator,
    ProductWindow,
    PureVector,
    StateOperator,
    eig_hermitian,
    min_eigenvalue,
    partial_transpose,
    trace_norm_distance,
)
from .measures import _check_weights

CHOI_RANK_TOL = 1e-8      # reference states below this eigenvalue floor are rank-deficient
EXTRACT_TOL = 1e-8        # decomposition / extraction verification tolerance
ATOM_DROP_TOL = 1e-14     # POVM atoms and spectral branches below this are noise
KRAUS_RANK_TOL = 1e-12    # second singular value allowed on a rank-one factor


class ChannelBlocks:
    """Block family B[i, j] = Phi(|i><j|) over in/out windows.

    Construction enforces Hermiticity of the family (B[j,i] = B[i,j]^dag)
    and trace preservation (Tr B[i,j] = delta_ij); complete positivity is
    deliberately not enforced so that non-CP candidates (e.g. the
    transposition map) can be represented and diagnosed via cp_check.
    """

    def __init__(self, in_window, out_window, blocks):
        b = np.array(blocks, dtype=complex)
        d_in, d_out = in_window.dimension, out_window.dimension
        if b.shape != (d_in, d_in, d_out, d_out):
            raise InvariantViolationError(
                f"blocks shape {b.shape} does not match windows ({d_in}, {d_in}, {d_out}, {d_out})")
        herm = float(np.abs(b - b.conj().transpose(1, 0, 3, 2)).max())
        if herm > EPS_HERM:
            raise InvariantViolationError(
                f"block family not Hermitian: max residual {herm:.3e} > {EPS_HERM}")
        traces = np.einsum("ijkk->ij", b)
        tp = float(np.abs(traces - np.eye(d_in)).max())
        if tp > EPS_TRACE:
            raise InvariantViolationError(
                f"block family not trace preserving: max |Tr B_ij - delta_ij| = {tp:.3e}")
        b.setflags(write=False)
        self._in_window = in_window
        self._out_window = out_window
        self._blocks = b

    @classmethod
    def from_map(cls, fn, in_window, out_window):
        """Build blocks by feeding matrix units through fn(entries) -> entries."""
        d_in, d_out = in_window.dimension, out_window.dimension
        b = np.empty((d_in, d_in, d_out, d_out), dtype=complex)
        for i in range(d_in):
            for j in range(d_in):
                unit = np.zeros((d_in, d_in), dtype=complex)
                unit[i, j] = 1.0
                b[i, j] = fn(unit)
        return cls(in_window, out_window, b)

    @property
    def in_window(self):
        return self._in_window

    @property
    def out_window(self):
        return self._out_window

    @property
    def blocks(self):
        return self._blocks

    def block(self, i, j):
        return MatrixOperator(self._out_window, self._blocks[i, j])

    def stacked(self):
        """The (d_in*d_out)-square matrix S[(i,k),(j,l)] = B[i,j][k,l]."""
        d_in, d_out = self._in_window.dimension, self._out_window.dimension
        return self._blocks.transpose(0, 2, 1, 3).reshape(d_in * d_out, d_in * d_out)


def cp_check(channel):
    """(is_cp, min_eig) from the stacked block matrix."""
    low = min_eigenvalue(channel.stacked())
    return low >= -EPS_PSD, low


def apply_matrix(channel, op):
    """Linear action sum_ij A_ij B[i,j] on an arbitrary operator."""
    if op.window != channel.in_window:
        raise WindowMismatchError("operator window differs from the channel input window")
    out = np.einsum("ij,ijkl->kl", op.entries, channel.blocks)
    return MatrixOperator(channel.out_window, out)


def apply(channel, rho):
    """Channel action on a state; valid whenever cp_check passes."""
    return StateOperator.from_operator(apply_matrix(channel, rho))


def identity_channel(window):
    return ChannelBlocks.from_map(lambda m: m, window, window)


def constant_channel(in_window, rho_out):
    """Phi(A) = Tr(A) rho_out."""
    return ChannelBlocks.from_map(lambda m: np.trace(m) * rho_out.entries,
                                  in_window, rho_out.window)


def transpose_channel(window):
    """The transposition map; trace preserving but not completely positive."""
    return ChannelBlocks.from_map(lambda m: m.T, window, window)


def dephasing_channel(window):
    """Phi(A) = sum_i A_ii |i><i|."""
    return ChannelBlocks.from_map(lambda m: np.diag(np.diag(m)), window, window)


class HolevoForm:
    """Finite measure-and-prepare form: POVM atoms M_b paired with output states.

    Each M_b must be positive within EPS_PSD and the atoms must sum to the
    identity within povm_tol in max-entry norm.
    """

    def __init__(self, atoms, povm_tol=1e-10):
        atoms = list(atoms)
        if not atoms:
            raise InvariantViolationError("Holevo form needs at least one atom")
        in_window = atoms[0][0].window
        out_window = atoms[0][1].window
        for m_op, rho_out in atoms:
            if m_op.window != in_window or rho_out.window != out_window:
                raise WindowMismatchError("all Holevo atoms share the same windows")
            low = min_eigenvalue(0.5 * (m_op.entries + m_op.entries.conj().T))
            if low < -EPS_PSD:
                raise InvariantViolationError(
                    f"POVM atom not positive: min eigenvalue {low:.3e}")
        total = sum(m_op.entries for m_op, _ in atoms)
        defect = float(np.abs(total - np.eye(in_window.dimension)).max())
        if defect > povm_tol:
            raise InvariantViolationError(
                f"POVM incomplete: max |sum M - I| = {defect:.3e} > {povm_tol}")
        self._atoms = tuple((m_op, rho_out) for m_op, rho_out in atoms)
        self._in_window = in_window
        self._out_window = out_window

    @property
    def atoms(self):
        return self._atoms

    @property
    def in_window(self):
        return self._in_window

    @property
    def out_window(self):
        return self._out_window


def holevo_apply(form, rho):
    """sum_b Tr(rho M_b) rho'_b; trace preserving by the POVM completeness HolevoForm checks."""
    if rho.window != form.in_window:
        raise WindowMismatchError("state window differs from the form input window")
    out = sum(float(np.trace(rho.entries @ m_op.entries).real) * rho_out.entries
              for m_op, rho_out in form.atoms)
    return StateOperator(form.out_window, out)


def blocks_from_holevo(form):
    """Equivalent block family: B[i,j] = sum_b (M_b)_{ji} rho'_b."""
    m_stack = np.stack([m_op.entries for m_op, _ in form.atoms])
    r_stack = np.stack([rho_out.entries for _, rho_out in form.atoms])
    blocks = np.einsum("bji,bkl->ijkl", m_stack, r_stack)
    return ChannelBlocks(form.in_window, form.out_window, blocks)


def _reference_eigensystem(sigma):
    vals, vecs = eig_hermitian(sigma)
    if vals[-1] < CHOI_RANK_TOL:
        raise InvariantViolationError(
            f"reference state is rank deficient: min eigenvalue {vals[-1]:.3e} < {CHOI_RANK_TOL}")
    return vals, vecs


def choi(channel, sigma):
    """Choi state sum_ij sqrt(l_i l_j) |i><j| x Phi(|i><j|) for full-rank sigma.

    The first tensor factor is expressed in the eigenbasis of sigma
    (descending eigenvalues); the marginal over the output factor is then
    diag(l_i). Pass sigma=StateOperator.maximally_mixed(window) for the
    default reference.
    """
    if sigma.window != channel.in_window:
        raise WindowMismatchError("reference state window differs from the channel input window")
    lam, basis = _reference_eigensystem(sigma)
    w = basis * np.sqrt(lam)  # column a is sqrt(l_a) times the a-th eigenvector
    d_in, d_out = channel.in_window.dimension, channel.out_window.dimension
    entries = np.einsum("ma,nb,mnkl->akbl", w, w.conj(), channel.blocks,
                        optimize=True).reshape(d_in * d_out, d_in * d_out)
    return StateOperator(ProductWindow(channel.in_window, channel.out_window), entries)


def eb_necessary_test(channel, sigma):
    """(ppt, min_eig_pt) of the Choi state's partial transpose.

    ppt=False certifies the channel is not entanglement breaking;
    ppt=True is necessary-only evidence.
    """
    pt = partial_transpose(choi(channel, sigma))
    low = min_eigenvalue(pt.entries)
    return low >= -EPS_PSD, low


class SeparableChoiDecomposition:
    """Pure-product decomposition of a Choi state over a full-rank reference.

    Atoms are (weight, phi, psi) with phi a PureVector whose amplitudes are
    coordinates in the reference eigenbasis (descending eigenvalues, the
    same basis choi() uses) and psi a PureVector on the output window. The
    weighted pure-product sum must reproduce the target Choi state within
    EXTRACT_TOL in trace distance; this is validated at construction.
    """

    def __init__(self, reference, atoms, target):
        lam, basis = _reference_eigensystem(reference)
        atoms = [(float(w), phi, psi) for w, phi, psi in atoms]
        weights = _check_weights([w for w, _, _ in atoms], tol=1e-10)
        vectors = np.stack([np.kron(phi.amplitudes, psi.amplitudes) for _, phi, psi in atoms])
        self._reconstruction = StateOperator(target.window,
                                             (vectors.T * weights) @ vectors.conj())
        self._reference = reference
        self._lam = lam
        self._basis = basis
        self._atoms = tuple(atoms)
        residual = trace_norm_distance(self._reconstruction, target)
        if residual > EXTRACT_TOL:
            raise InvariantViolationError(
                f"decomposition misses the Choi target by {residual:.3e} > {EXTRACT_TOL}")

    @property
    def reference(self):
        return self._reference

    @property
    def atoms(self):
        return self._atoms

    @property
    def eigenvalues(self):
        return self._lam

    @property
    def eigenbasis(self):
        return self._basis

    def reconstruction(self):
        return self._reconstruction


def separable_choi_from_holevo(form, sigma):
    """Known product decomposition of the Choi state of a Holevo-form channel.

    Each POVM atom contributes the left factor sqrt(sigma) conj(M_b) sqrt(sigma)
    (in the reference eigenbasis); spectral branches of both factors become
    pure-product atoms.
    """
    channel = blocks_from_holevo(form)
    target = choi(channel, sigma)
    lam, basis = _reference_eigensystem(sigma)
    root = np.sqrt(lam)
    atoms = []
    for m_op, rho_out in form.atoms:
        m_eig = basis.conj().T @ m_op.entries @ basis
        left = (root[:, None] * m_eig.conj()) * root[None, :]
        c_vals, c_vecs = eig_hermitian(MatrixOperator(form.in_window, left))
        d_vals, d_vecs = eig_hermitian(rho_out)
        for r in np.flatnonzero(c_vals > ATOM_DROP_TOL):
            for s in np.flatnonzero(d_vals > ATOM_DROP_TOL):
                atoms.append((c_vals[r] * d_vals[s],
                              PureVector(form.in_window, c_vecs[:, r]),
                              PureVector(form.out_window, d_vecs[:, s])))
    return SeparableChoiDecomposition(sigma, atoms, target)


def eb_extract(decomposition, channel):
    """Holevo form from a separable Choi decomposition of the channel.

    Each decomposition atom yields the POVM element
    w * sigma^{-1/2} |conj(phi)><conj(phi)| sigma^{-1/2} (conjugation taken
    in the reference eigenbasis, then rotated back to the mode basis) paired
    with the prepared output |psi><psi|. The result is verified against the
    channel on every matrix unit; failure raises ExtractionInconsistentError
    with the worst block residual.
    """
    sigma = decomposition.reference
    if sigma.window != channel.in_window:
        raise WindowMismatchError("decomposition reference and channel input windows differ")
    target = choi(channel, sigma)
    residual = trace_norm_distance(decomposition.reconstruction(), target)
    if residual > EXTRACT_TOL:
        raise InvariantViolationError(
            f"decomposition does not match this channel's Choi state: "
            f"trace distance {residual:.3e} > {EXTRACT_TOL}")
    lam = decomposition.eigenvalues
    basis = decomposition.eigenbasis
    inv_root = lam ** -0.5
    atoms = []
    for w, phi, psi in decomposition.atoms:
        v = inv_root * phi.amplitudes.conj()
        m_eig = w * np.outer(v, v.conj())
        m_win = basis @ m_eig @ basis.conj().T
        atoms.append((MatrixOperator(channel.in_window, m_win), psi.projector()))
    total = sum(m_op.entries for m_op, _ in atoms)
    povm_defect = float(np.abs(total - np.eye(channel.in_window.dimension)).max())
    if povm_defect > EXTRACT_TOL:
        raise ExtractionInconsistentError("extracted POVM does not resolve the identity",
                                          povm_defect)
    form = HolevoForm(atoms, povm_tol=EXTRACT_TOL)
    block_residual = float(np.abs(blocks_from_holevo(form).blocks - channel.blocks).max())
    if block_residual > EXTRACT_TOL:
        raise ExtractionInconsistentError(
            "extracted form disagrees with the channel on matrix units", block_residual)
    return form


class KrausRankOne:
    """Family of rank-one operators A_a with sum A_a^dag A_a = I."""

    def __init__(self, operators, in_window, out_window):
        ops = [np.array(a, dtype=complex) for a in operators]
        d_in, d_out = in_window.dimension, out_window.dimension
        for a in ops:
            if a.shape != (d_out, d_in):
                raise InvariantViolationError(
                    f"Kraus operator shape {a.shape} does not match ({d_out}, {d_in})")
            singular = np.linalg.svd(a, compute_uv=False)
            if len(singular) > 1 and singular[1] > KRAUS_RANK_TOL:
                raise InvariantViolationError(
                    f"Kraus operator has rank > 1: second singular value {singular[1]:.3e}")
        total = sum(a.conj().T @ a for a in ops)
        defect = float(np.abs(total - np.eye(d_in)).max())
        if defect > EPS_TRACE:
            raise InvariantViolationError(
                f"Kraus family incomplete: max |sum A^dag A - I| = {defect:.3e}")
        for a in ops:
            a.setflags(write=False)
        self._operators = tuple(ops)
        self._in_window = in_window
        self._out_window = out_window

    @property
    def operators(self):
        return self._operators

    @property
    def in_window(self):
        return self._in_window

    @property
    def out_window(self):
        return self._out_window


def kraus_apply(kraus, rho):
    """sum_a A_a rho A_a^dag as a state."""
    if rho.window != kraus.in_window:
        raise WindowMismatchError("state window differs from the Kraus input window")
    out = sum(a @ rho.entries @ a.conj().T for a in kraus.operators)
    return StateOperator(kraus.out_window, out)


def kraus_rank_one(form):
    """Rank-one Kraus family reproducing a Holevo form's action.

    Mixed prepared states are first split into spectral branches (each
    branch keeps the POVM atom rescaled by its eigenvalue); every POVM
    atom M = sum_r |m_r><m_r| then contributes operators |psi><m_r|.
    Atoms with max-entry norm at or below ATOM_DROP_TOL are dropped as noise.
    """
    pure_atoms = []
    for m_op, rho_out in form.atoms:
        d_vals, d_vecs = eig_hermitian(rho_out)
        for s in np.flatnonzero(d_vals > ATOM_DROP_TOL):
            pure_atoms.append((d_vals[s] * m_op.entries, d_vecs[:, s]))
    operators = []
    for m_entries, psi in pure_atoms:
        if float(np.abs(m_entries).max()) <= ATOM_DROP_TOL:
            continue
        m_vals, m_vecs = eig_hermitian(MatrixOperator(form.in_window, m_entries))
        for r in np.flatnonzero(m_vals > ATOM_DROP_TOL):
            factor = np.sqrt(m_vals[r]) * m_vecs[:, r]
            operators.append(np.outer(psi, factor.conj()))
    return KrausRankOne(operators, form.in_window, form.out_window)


def apply_with_identity(channel, omega):
    """(Phi x Id)(omega) for omega on ProductWindow(channel input, ancilla)."""
    w = omega.window
    if not isinstance(w, ProductWindow) or w.left != channel.in_window:
        raise WindowMismatchError(
            "omega must live on ProductWindow(channel input window, ancilla window)")
    d_in = channel.in_window.dimension
    d_anc = w.right.dimension
    d_out = channel.out_window.dimension
    w4 = omega.entries.reshape(d_in, d_anc, d_in, d_anc)
    out = np.einsum("ijkl,imjn->kmln", channel.blocks, w4).reshape(d_out * d_anc, d_out * d_anc)
    return StateOperator(ProductWindow(channel.out_window, w.right), out)
