"""Channels, Choi states, and measure-and-prepare forms.

A channel on a truncated window is pinned down by the blocks
B[i, j] = Phi(|i><j|), or by its stacked matrix S[(i,k),(j,l)] = B[i,j][k,l].
Complete positivity is equivalent to positivity of S, which is also the
Choi matrix for an unnormalized maximally entangled reference. The PPT test
on a (normalized, full-rank-reference) Choi state is the only separability
screen implemented here; it is necessary-only beyond 2x2 and 2x3.

ChannelBlocks is the one channel type: it holds S and its output partial
transpose S^(T_out) as operators, dense from blocks and factored from
from_factors (S = X X^dag, S^(T_out) = X' X'^dag; rotation.factored_channel
gives 4K + 1 charge-sector columns against (2K+1)^2 rows). On factors the
Choi state is the factored state (W^T x I) X with W = B Lambda^(1/2) from
sigma = B Lambda B^dag and its partial transpose is (W^T x I) X', both
positive by construction, and lowest_eigenvalue is exactly 0.0 below full
rank. The blocks are read off S, so every function takes every channel.

A HolevoForm keeps every POVM atom M_b = F F^dag and prepared state
rho'_b = G G^dag as a factored operator (factored_operator,
factored_state); a dense one is split once, when the form is built. Its
rank-one Kraus operators are |g><f| over the columns, so holevo_channel
gives its channel from the columns conj(f) x g, and an atoms file runs the
same factored chain as a rotation channel. On every path eb_extract reports
the operator norm of the difference between the extracted form's stacked
matrix and the channel's.
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
    _at_least,
    _at_most,
    _difference_eigenvalues,
    _finite,
    _hermitian_part,
    _init_factored,
    eig_hermitian,
    factored_operator,
    factored_state,
    lowest_eigenvalue,
    partial_transpose,
    trace_norm_distance,
)
from .measures import _check_weights

CHOI_RANK_TOL = 1e-8      # reference states below this eigenvalue floor are rank-deficient
EXTRACT_TOL = 1e-8        # decomposition / extraction verification tolerance
ATOM_DROP_TOL = 1e-14     # POVM atoms and spectral branches below this are noise
KRAUS_RANK_TOL = 1e-12    # second singular value allowed on a rank-one factor


class ChannelBlocks:
    """Channel as two operators on ProductWindow(in, out): stacked S and transposed S^(T_out).

    S[(i,k),(j,l)] = B[i,j][k,l] for the blocks B[i, j] = Phi(|i><j|), and
    S^(T_out)[(i,k),(j,l)] = S[(i,l),(j,k)]. Construction from blocks
    enforces Hermiticity (B[j,i] = B[i,j]^dag) and trace preservation
    (Tr B[i,j] = delta_ij) but not complete positivity, so non-CP candidates
    (e.g. the transposition map) can be diagnosed via cp_check.
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
        self._stacked = MatrixOperator(ProductWindow(in_window, out_window),
                                       b.transpose(0, 2, 1, 3).reshape(d_in * d_out, -1))
        self._transposed = None

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

    @classmethod
    def from_factors(cls, in_window, out_window, factor, transposed_factor):
        """The channel with S = X X^dag and S^(T_out) = X' X'^dag, both kept as factored operators.

        It is completely positive by construction. Construction checks that
        both factors are finite and trace preserving, Tr_out S = I (the
        output partial transpose leaves Tr_out unchanged), and screens that
        X' belongs to X: on a product vector a x b, <a x b| S^(T_out) |a x b>
        is <a x conj(b)| S |a x conj(b)>, compared on three fixed generic
        unit probes at O(d_in d_out m) each. Nothing (d_in d_out)-square is
        built until the entries or the blocks are read.
        """
        d_in, d_out = in_window.dimension, out_window.dimension
        factors = []
        for name, f in (("factor", factor), ("partial-transpose factor", transposed_factor)):
            x = np.asarray(f, dtype=complex)
            if x.ndim != 2 or x.shape[0] != d_in * d_out:
                raise InvariantViolationError(
                    f"{name} shape {x.shape} does not have {d_in * d_out} rows")
            rows = _finite(x, name).reshape(d_in, -1)  # row i holds X[(i, k), t] over (k, t)
            _at_most(float(np.abs(rows @ rows.conj().T - np.eye(d_in)).max()), EPS_TRACE,
                     f"{name} not trace preserving: max |Tr_out S - I|")
            factors.append(x)
        a, b = (_generic_unit_columns(n) for n in (d_in, d_out))

        def expectations(x, right):  # <a_p x right_p| X X^dag |a_p x right_p> for each probe p
            probes = np.einsum("ip,kp->ikp", a, right).reshape(d_in * d_out, -1)
            return np.linalg.norm(x.conj().T @ probes, axis=0) ** 2

        defect = np.abs(expectations(factors[1], b) - expectations(factors[0], b.conj())).max()
        _at_most(float(defect), EPS_TRACE,
                 "partial-transpose factor does not match the factor: max probe defect")
        window = ProductWindow(in_window, out_window)
        channel = cls.__new__(cls)
        channel._stacked, channel._transposed = (factored_operator(window, x) for x in factors)
        return channel

    @property
    def in_window(self):
        return self._stacked.window.left

    @property
    def out_window(self):
        return self._stacked.window.right

    @property
    def stacked(self):
        """S, dense when built from blocks and factored when built from factors."""
        return self._stacked

    @property
    def transposed(self):
        """S^(T_out): factored when S is, else partial_transpose(S), built on first read."""
        if self._transposed is None:
            self._transposed = partial_transpose(self._stacked)
        return self._transposed

    @property
    def blocks(self):
        """B[i,j][k,l] = S[(i,k),(j,l)], read off the entries of S."""
        d_in, d_out = self.in_window.dimension, self.out_window.dimension
        return self._stacked.entries.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3)

    def block(self, i, j):
        return MatrixOperator(self.out_window, self.blocks[i, j])


def _generic_unit_columns(n):
    """Three fixed unit vectors in C^n with irrational phases and unequal moduli."""
    t = np.arange(1.0, n + 1.0)[:, None]
    z = np.exp(1j * np.sqrt([2.0, 3.0, 5.0]) * t * t) * np.sqrt(t + np.sqrt([7.0, 11.0, 13.0]))
    return z / np.linalg.norm(z, axis=0)


def cp_check(channel):
    """(is_cp, min_eig) of the channel's stacked matrix."""
    low = lowest_eigenvalue(channel.stacked)
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
    """Finite measure-and-prepare form: POVM atoms M_b paired with prepared states rho'_b.

    Every atom and prepared state is kept as a factored operator, M_b =
    F_b F_b^dag and rho'_b = G_b G_b^dag. One that carries a factor keeps
    it; a dense one is checked and split once, here (_factored). The atoms
    must sum to the identity within povm_tol in max-entry norm, which is
    checked as U U^dag = I on U = [F_1, F_2, ...] without building any atom.
    """

    def __init__(self, atoms, povm_tol=1e-10):
        atoms = [(_factored(m_op, "POVM atom"), _factored(rho_out, "prepared state"))
                 for m_op, rho_out in atoms]
        if not atoms:
            raise InvariantViolationError("Holevo form needs at least one atom")
        in_window = atoms[0][0].window
        out_window = atoms[0][1].window
        if any(m_op.window != in_window or rho_out.window != out_window for m_op, rho_out in atoms):
            raise WindowMismatchError("all Holevo atoms share the same windows")
        u = np.hstack([m_op.factor for m_op, _ in atoms])
        _at_most(float(np.abs(u @ u.conj().T - np.eye(in_window.dimension)).max()), povm_tol,
                 "POVM incomplete: max |sum M - I|")
        self._atoms = tuple(atoms)
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


def _factored(op, what):
    """op as a factored operator: op itself if it carries a factor, else its eigen-split.

    The split is one eig_hermitian. It refuses op when op is not Hermitian
    within EPS_HERM or its minimum eigenvalue is below -EPS_PSD, and keeps
    the eigenpairs (l, v) above ATOM_DROP_TOL as the columns sqrt(l) v,
    in descending order. A state stays a state.
    """
    if op.factor is None:
        vals, vecs = eig_hermitian(_hermitian_part(op.entries, what))
        _at_least(vals[-1], -EPS_PSD, f"{what} not positive: min eigenvalue")
        keep = vals > ATOM_DROP_TOL
        make = factored_state if isinstance(op, StateOperator) else factored_operator
        op = make(op.window, vecs[:, keep] * np.sqrt(vals[keep]))
    return op


def _kraus_columns(form, conjugate_output=False):
    """Per atom, the columns conj(f) x g over the columns f of F_b and, inside, g of G_b.

    |g><f| are the form's rank-one Kraus operators, so these columns factor
    the stacked matrix; with conjugate_output they are conj(f) x conj(g)
    and factor its output partial transpose.
    """
    for m_op, rho_out in form.atoms:
        f = m_op.factor.conj()
        g = rho_out.factor.conj() if conjugate_output else rho_out.factor
        yield (f[:, None, :, None] * g[None, :, None, :]).reshape(len(f) * len(g), -1)


def holevo_channel(form):
    """The channel of a Holevo form, built from its factors with no block array."""
    return ChannelBlocks.from_factors(
        form.in_window, form.out_window,
        *(np.hstack(list(_kraus_columns(form, conj))) for conj in (False, True)))


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
    transposed is its output partial transpose: the congruence of the
    channel's transposed factor when S is factored, else
    partial_transpose(self), built on first read.
    """

    def __init__(self, channel, reference):
        if reference.window != channel.in_window:
            raise WindowMismatchError("reference state window differs from the channel input window")
        lam, basis = eig_hermitian(reference)
        _at_least(lam[-1], CHOI_RANK_TOL, "reference state is rank deficient: min eigenvalue")
        w = basis * np.sqrt(lam)  # column a is sqrt(l_a) times the a-th eigenvector
        d_in, d_out = channel.in_window.dimension, channel.out_window.dimension
        window = ProductWindow(channel.in_window, channel.out_window)
        self._transposed = None
        if channel.stacked.factor is not None:
            def congruence(x):  # (W^T x I) X: row (a, k) is sum_m w[m, a] X[(m, k), :]
                return np.tensordot(w, x.reshape(d_in, d_out, -1), axes=(0, 0)).reshape(
                    d_in * d_out, -1)

            _init_factored(self, window, congruence(channel.stacked.factor))
            self._transposed = factored_operator(window, congruence(channel.transposed.factor))
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
    def transposed(self):
        if self._transposed is None:
            self._transposed = partial_transpose(self)
        return self._transposed


def choi(channel, sigma):
    """The ChoiState of channel over sigma; StateOperator.maximally_mixed is the usual reference."""
    return ChoiState(channel, sigma)


def eb_necessary_test(state):
    """(ppt, min_eig_pt) of a Choi state's partial transpose.

    ppt=False certifies the channel is not entanglement breaking;
    ppt=True is necessary-only evidence.
    """
    low = lowest_eigenvalue(state.transposed)
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


def _column_branches(factor):
    """(squared norm, column) pairs of a factor X above ATOM_DROP_TOL; their projectors sum to X X^dag."""
    weights = np.einsum("ij,ij->j", factor.conj(), factor).real
    return [(weights[r], factor[:, r]) for r in np.flatnonzero(weights > ATOM_DROP_TOL)]


def separable_choi_from_holevo(form, target):
    """Known product decomposition of the ChoiState target from a Holevo form of its channel.

    In the reference eigenbasis (sigma = B Lambda B^dag), the column f of a
    POVM atom's factor gives the left branch sqrt(Lambda) conj(B^dag f),
    and the column g of its prepared state's factor gives the right branch
    g; each pair is a pure-product atom, and no eigensolve runs. A form of
    another channel fails validation.
    """
    if target.window != ProductWindow(form.in_window, form.out_window):
        raise WindowMismatchError("Holevo form windows differ from the Choi state's factors")
    basis = target.eigenbasis
    root = np.sqrt(target.eigenvalues)
    atoms = []
    for m_op, rho_out in form.atoms:
        lefts = _column_branches(root[:, None] * (basis.conj().T @ m_op.factor).conj())
        outputs = [(d, PureVector(form.out_window, v)) for d, v in _column_branches(rho_out.factor)]
        for c, v in lefts:
            phi = PureVector(form.in_window, v)
            atoms.extend((c * d, phi, psi) for d, psi in outputs)
    return SeparableChoiDecomposition(target, atoms)


def eb_extract(decomposition):
    """(form, residual): the Holevo form of a separable Choi decomposition's channel.

    Each decomposition atom yields the rank-one POVM atom w |u><u|, kept as
    its factor sqrt(w) u with u = B Lambda^{-1/2} conj(phi), where sigma =
    B Lambda B^dag and phi's coordinates are in the eigenbasis B, paired
    with the prepared state |psi><psi|. The residual is the operator norm
    of A A^dag - S, with A's columns conj(sqrt(w) u) x psi and S the
    channel's stacked matrix; it bounds the largest entry difference. For a
    factored S = X X^dag it comes from one QR of [A, X], with no
    (d_in d_out)-square array; for a dense S from one dense eigvalsh.
    Failure raises ExtractionInconsistentError with the residual.
    """
    target = decomposition.target
    channel = target.channel
    basis = target.eigenbasis
    inv_root = target.eigenvalues ** -0.5
    atoms = []
    for w, phi, psi in decomposition.atoms:
        u = basis @ (inv_root * phi.amplitudes.conj())
        atoms.append((factored_operator(channel.in_window, (np.sqrt(w) * u)[:, None]),
                      psi.projector()))
    form = HolevoForm(atoms, povm_tol=EXTRACT_TOL)
    x = channel.stacked.factor
    width = 0 if x is None else x.shape[1]
    # A's columns go straight into [A, X], the QR input, which is held once
    joined = np.empty((target.window.dimension, len(atoms) + width), dtype=complex)
    for n, column in enumerate(_kraus_columns(form)):  # one column per rank-one, pure atom
        joined[:, n:n + 1] = column
    if x is None:
        diff = joined @ joined.conj().T - channel.stacked.entries
        eigenvalues = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    else:
        joined[:, len(atoms):] = x
        eigenvalues = _difference_eigenvalues(joined, len(atoms))
    residual = float(np.abs(eigenvalues).max())
    if not residual <= EXTRACT_TOL:
        raise ExtractionInconsistentError(
            "extracted form disagrees with the channel's stacked matrix", residual)
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
    """Rank-one Kraus family |g><f| of a Holevo form, with no eigensolve.

    f runs over the columns of each POVM atom's factor and, inside, g over
    the columns of its prepared state's factor, so sum |f><g|g><f| =
    sum_b Tr(rho'_b) M_b = I.
    """
    operators = [np.outer(g, f.conj()) for m_op, rho_out in form.atoms
                 for f in m_op.factor.T for g in rho_out.factor.T]
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
