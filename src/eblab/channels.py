"""Channels as matrix-unit block families, Choi states, and measure-and-prepare forms.

A channel on a truncated window is pinned down by the blocks
B[i, j] = Phi(|i><j|). Complete positivity is equivalent to positivity of
the stacked matrix S[(i,k),(j,l)] = B[i,j][k,l], which is also the Choi
matrix for an unnormalized maximally entangled reference. The PPT test on
a (normalized, full-rank-reference) Choi state is the only separability
screen implemented here; it is necessary-only beyond 2x2 and 2x3.

A FactoredChannel carries factors S = X X^dag and S^(T_out) = X' X'^dag
instead of the blocks (rotation.factored_channel builds them from the
U(1) charge sectors, with 4K + 1 columns against (2K+1)^2 rows). Every
stage then runs on factors: the Choi state is the factored state
(W^T x I) X with W = B Lambda^(1/2) from the reference sigma = B Lambda B^dag,
its partial transpose is (W^T x I) X', both positive by construction, so
no stage checks their eigenvalues; the minimum eigenvalues of cp_check
and eb_necessary_test are exactly 0.0 below full rank, POVM atoms that
carry factors (RankOneOperator) are split without eigensolves, and
eb_extract reports the operator norm of the stacked-matrix difference
(which bounds the dense path's max-entry block residual). ChannelBlocks
stays the dense path for generic input and the oracle for the factored one.
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
    RankOneOperator,
    StateOperator,
    _at_least,
    _at_most,
    _difference_eigenvalues,
    _finite,
    _hermitian_part,
    _init_factored,
    eig_hermitian,
    factored_min_eigenvalue,
    factored_state,
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
        _at_most(float(np.abs(b - b.conj().transpose(1, 0, 3, 2)).max()), EPS_HERM,
                 "block family not Hermitian: max |B_ij - B_ji^dag|")
        _at_most(float(np.abs(np.einsum("ijkk->ij", b) - np.eye(d_in)).max()), EPS_TRACE,
                 "block family not trace preserving: max |Tr B_ij - delta_ij|")
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


class FactoredChannel:
    """Channel given by a factor X of its stacked matrix, S = X X^dag, and a factor X' of S^(T_out).

    S^(T_out)[(i,k),(j,l)] = S[(i,l),(j,k)] transposes the output factor.
    The channel is completely positive by construction. Construction checks
    that both factors are finite and trace preserving, Tr_out S = I (the
    output partial transpose leaves Tr_out unchanged), and screens that X'
    belongs to X: on a product vector a x b, <a x b| S^(T_out) |a x b> is
    <a x conj(b)| S |a x conj(b)>, compared on three fixed generic unit
    probes at O(d_in d_out m) each. Nothing (d_in d_out)-square is built.
    It has no blocks, so apply_matrix and apply_with_identity take
    ChannelBlocks only.
    """

    def __init__(self, in_window, out_window, factor, pt_factor):
        d_in, d_out = in_window.dimension, out_window.dimension
        factors = []
        for name, f in (("factor", factor), ("partial-transpose factor", pt_factor)):
            x = np.array(f, dtype=complex)
            if x.ndim != 2 or x.shape[0] != d_in * d_out:
                raise InvariantViolationError(
                    f"{name} shape {x.shape} does not have {d_in * d_out} rows")
            rows = _finite(x, name).reshape(d_in, -1)  # row i holds X[(i, k), t] over (k, t)
            _at_most(float(np.abs(rows @ rows.conj().T - np.eye(d_in)).max()), EPS_TRACE,
                     f"{name} not trace preserving: max |Tr_out S - I|")
            x.setflags(write=False)
            factors.append(x)
        a, b = (_generic_unit_columns(n) for n in (d_in, d_out))

        def expectations(x, right):  # <a_p x right_p| X X^dag |a_p x right_p> for each probe p
            probes = np.einsum("ip,kp->ikp", a, right).reshape(d_in * d_out, -1)
            return np.linalg.norm(x.conj().T @ probes, axis=0) ** 2

        defect = np.abs(expectations(factors[1], b) - expectations(factors[0], b.conj())).max()
        _at_most(float(defect), EPS_TRACE,
                 "partial-transpose factor does not match the factor: max probe defect")
        self._in_window = in_window
        self._out_window = out_window
        self._factor, self._pt_factor = factors

    @property
    def in_window(self):
        return self._in_window

    @property
    def out_window(self):
        return self._out_window

    @property
    def factor(self):
        return self._factor

    @property
    def pt_factor(self):
        return self._pt_factor


def _generic_unit_columns(n):
    """Three fixed unit vectors in C^n with irrational phases and unequal moduli."""
    t = np.arange(1.0, n + 1.0)[:, None]
    z = np.exp(1j * np.sqrt([2.0, 3.0, 5.0]) * t * t) * np.sqrt(t + np.sqrt([7.0, 11.0, 13.0]))
    return z / np.linalg.norm(z, axis=0)


def cp_check(channel):
    """(is_cp, min_eig) from the stacked block matrix, or from the factor of a FactoredChannel."""
    if isinstance(channel, FactoredChannel):
        low = factored_min_eigenvalue(channel.factor)
    else:
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

    Each M_b must be Hermitian within EPS_HERM and positive within EPS_PSD,
    and the atoms must sum to the identity within povm_tol in max-entry norm.
    An atom that carries a factor U_b (RankOneOperator) is positive by
    construction; when every atom does, completeness is checked as
    U U^dag = I on U = [U_1, U_2, ...], without building any atom.
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
            if m_op.factor is None:
                _at_least(min_eigenvalue(_hermitian_part(m_op.entries, "POVM atom")), -EPS_PSD,
                          "POVM atom not positive: min eigenvalue")
        if any(m_op.factor is None for m_op, _ in atoms):
            total = sum(m_op.entries for m_op, _ in atoms)
        else:
            u = np.hstack([m_op.factor for m_op, _ in atoms])
            total = u @ u.conj().T
        _at_most(float(np.abs(total - np.eye(in_window.dimension)).max()), povm_tol,
                 "POVM incomplete: max |sum M - I|")
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


class ChoiState(StateOperator):
    """Choi state sum_ij sqrt(l_i l_j) |i><j| x Phi(|i><j|) for a full-rank reference.

    The first tensor factor is expressed in the reference's eigenbasis
    (descending eigenvalues, kept as eigenvalues/eigenbasis with the channel
    and the reference); the marginal over the output factor is diag(l_i).
    """

    _pt_factor = None

    def __init__(self, channel, reference):
        if reference.window != channel.in_window:
            raise WindowMismatchError("reference state window differs from the channel input window")
        lam, basis = eig_hermitian(reference)
        _at_least(lam[-1], CHOI_RANK_TOL, "reference state is rank deficient: min eigenvalue")
        w = basis * np.sqrt(lam)  # column a is sqrt(l_a) times the a-th eigenvector
        d_in, d_out = channel.in_window.dimension, channel.out_window.dimension
        window = ProductWindow(channel.in_window, channel.out_window)
        if isinstance(channel, FactoredChannel):
            def congruence(x):  # (W^T x I) X: row (a, k) is sum_m w[m, a] X[(m, k), :]
                return np.tensordot(w, x.reshape(d_in, d_out, -1), axes=(0, 0)).reshape(
                    d_in * d_out, -1)

            _init_factored(self, window, congruence(channel.factor))
            self._pt_factor = congruence(channel.pt_factor)
            self._pt_factor.setflags(write=False)
        else:
            entries = np.einsum("ma,nb,mnkl->akbl", w, w.conj(), channel.blocks,
                                optimize=True).reshape(d_in * d_out, d_in * d_out)
            super().__init__(window, entries)
        lam.setflags(write=False)
        basis.setflags(write=False)
        self._channel, self._reference, self._lam, self._basis = channel, reference, lam, basis

    @property
    def channel(self):
        return self._channel

    @property
    def reference(self):
        return self._reference

    @property
    def eigenvalues(self):
        return self._lam

    @property
    def eigenbasis(self):
        return self._basis

    @property
    def pt_factor(self):
        """Factor of the output partial transpose for a FactoredChannel, else None."""
        return self._pt_factor


def choi(channel, sigma):
    """The ChoiState of channel over sigma; StateOperator.maximally_mixed is the usual reference."""
    return ChoiState(channel, sigma)


def eb_necessary_test(state):
    """(ppt, min_eig_pt) of a Choi state's partial transpose.

    ppt=False certifies the channel is not entanglement breaking;
    ppt=True is necessary-only evidence. A ChoiState of a FactoredChannel
    is screened on its partial-transpose factor.
    """
    pt = getattr(state, "pt_factor", None)
    low = min_eigenvalue(partial_transpose(state).entries) if pt is None else factored_min_eigenvalue(pt)
    return low >= -EPS_PSD, low


class SeparableChoiDecomposition:
    """Pure-product decomposition of a ChoiState target.

    Atoms are (weight, phi, psi) with phi a PureVector whose amplitudes are
    coordinates in the target's reference eigenbasis and psi a PureVector on
    the output window. The weighted sum, kept as a factored state, must
    reproduce the target within EXTRACT_TOL in trace distance; this is
    validated at construction.
    """

    def __init__(self, target, atoms):
        atoms = [(float(w), phi, psi) for w, phi, psi in atoms]
        weights = _check_weights([w for w, _, _ in atoms], tol=1e-10)
        products = [np.kron(phi.amplitudes, psi.amplitudes) for _, phi, psi in atoms]
        self._reconstruction = factored_state(target.window,
                                              np.stack(products, axis=1) * np.sqrt(weights))
        del products  # the trace distance below holds two more copies of the factor
        self._target = target
        self._atoms = tuple(atoms)
        _at_most(trace_norm_distance(self._reconstruction, target), EXTRACT_TOL,
                 "decomposition misses the Choi target: trace distance")

    @property
    def target(self):
        return self._target

    @property
    def atoms(self):
        return self._atoms

    def reconstruction(self):
        return self._reconstruction


def _branches(matrix):
    """(eigenvalue, eigenvector) pairs of a Hermitian matrix above ATOM_DROP_TOL, descending."""
    vals, vecs = eig_hermitian(matrix)
    return [(vals[r], vecs[:, r]) for r in np.flatnonzero(vals > ATOM_DROP_TOL)]


def _column_branches(factor):
    """(squared norm, column) pairs of a factor X above ATOM_DROP_TOL; their projectors sum to X X^dag."""
    weights = np.einsum("ij,ij->j", factor.conj(), factor).real
    return [(weights[r], factor[:, r]) for r in np.flatnonzero(weights > ATOM_DROP_TOL)]


def separable_choi_from_holevo(form, target):
    """Known product decomposition of the ChoiState target from a Holevo form of its channel.

    Each POVM atom contributes the left factor sqrt(sigma) conj(M_b) sqrt(sigma)
    (in the reference eigenbasis); spectral branches of both factors become
    pure-product atoms. An atom or output state that carries a factor is
    split along its columns instead, with no eigensolve: the column u of a
    POVM factor gives the single left branch sqrt(Lambda) conj(B^dag u). A
    form of another channel fails validation.
    """
    if target.window != ProductWindow(form.in_window, form.out_window):
        raise WindowMismatchError("Holevo form windows differ from the Choi state's factors")
    basis = target.eigenbasis
    root = np.sqrt(target.eigenvalues)
    atoms = []
    for m_op, rho_out in form.atoms:
        if m_op.factor is None:
            m_eig = basis.conj().T @ m_op.entries @ basis
            lefts = _branches((root[:, None] * m_eig.conj()) * root[None, :])
        else:
            lefts = _column_branches(root[:, None] * (basis.conj().T @ m_op.factor).conj())
        if rho_out.factor is None:
            out_branches = _branches(rho_out.entries)
        else:
            out_branches = _column_branches(rho_out.factor)
        outputs = [(d, PureVector(form.out_window, v)) for d, v in out_branches]
        for c, v in lefts:
            phi = PureVector(form.in_window, v)
            atoms.extend((c * d, phi, psi) for d, psi in outputs)
    return SeparableChoiDecomposition(target, atoms)


def eb_extract(decomposition):
    """(form, residual): the Holevo form of a separable Choi decomposition's channel.

    Each decomposition atom yields the rank-one POVM element w |u><u| with
    u = B Lambda^{-1/2} conj(phi), where sigma = B Lambda B^dag and phi's
    coordinates are in the eigenbasis B, paired with the prepared output
    |psi><psi|. The form is verified against the target's channel on every
    matrix unit: the residual is the worst block entry of the difference.
    For a FactoredChannel the atoms are RankOneOperators and the residual is
    the operator norm of A A^dag - X X^dag, with A's columns
    conj(sqrt(w) u) x psi, taken from one QR of [A, X]; it bounds the
    max-entry residual and builds no block array. Failure raises
    ExtractionInconsistentError with the residual.
    """
    target = decomposition.target
    channel = target.channel
    factored = isinstance(channel, FactoredChannel)
    basis = target.eigenbasis
    inv_root = target.eigenvalues ** -0.5
    atoms = []
    for w, phi, psi in decomposition.atoms:
        u = basis @ (inv_root * phi.amplitudes.conj())
        m_op = (RankOneOperator(channel.in_window, np.sqrt(w) * u) if factored
                else MatrixOperator(channel.in_window, w * np.outer(u, u.conj())))
        atoms.append((m_op, psi.projector()))
    form = HolevoForm(atoms, povm_tol=EXTRACT_TOL)
    if factored:
        # A's columns go straight into [A, X], the QR input, which is held once
        x = channel.factor
        joined = np.empty((x.shape[0], len(atoms) + x.shape[1]), dtype=complex)
        for n, (m_op, rho_out) in enumerate(form.atoms):
            joined[:, n] = np.kron(m_op.factor[:, 0].conj(), rho_out.factor[:, 0])
        joined[:, len(atoms):] = x
        residual = float(np.abs(_difference_eigenvalues(joined, len(atoms))).max())
    else:
        residual = float(np.abs(blocks_from_holevo(form).blocks - channel.blocks).max())
    if not residual <= EXTRACT_TOL:
        raise ExtractionInconsistentError(
            "extracted form disagrees with the channel on matrix units", residual)
    return form, residual


class KrausRankOne:
    """Family of rank-one operators A_a with sum A_a^dag A_a = I."""

    def __init__(self, operators, in_window, out_window):
        ops = [np.array(a, dtype=complex) for a in operators]
        d_in, d_out = in_window.dimension, out_window.dimension
        for a in ops:
            if a.shape != (d_out, d_in):
                raise InvariantViolationError(
                    f"Kraus operator shape {a.shape} does not match ({d_out}, {d_in})")
            _finite(a, "Kraus operator")  # the SVD would raise LinAlgError
            singular = np.linalg.svd(a, compute_uv=False)
            if len(singular) > 1:
                _at_most(singular[1], KRAUS_RANK_TOL,
                         "Kraus operator has rank > 1: second singular value")
        total = sum(a.conj().T @ a for a in ops)
        _at_most(float(np.abs(total - np.eye(d_in)).max()), EPS_TRACE,
                 "Kraus family incomplete: max |sum A^dag A - I|")
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
    operators = []
    for m_op, rho_out in form.atoms:
        for d, psi in _branches(rho_out.entries):
            m_entries = d * m_op.entries
            if float(np.abs(m_entries).max()) <= ATOM_DROP_TOL:
                continue
            operators.extend(np.outer(psi, (np.sqrt(m) * u).conj())
                             for m, u in _branches(m_entries))
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
