"""Channels, Choi states, and measure-and-prepare forms.

A channel on a truncated window is pinned down by the blocks
B[i, j] = Phi(|i><j|), or by its stacked matrix S[(i,k),(j,l)] = B[i,j][k,l].
Complete positivity is equivalent to positivity of S, which is also the
Choi matrix for an unnormalized maximally entangled reference. The PPT test
on a (normalized, full-rank-reference) Choi state is the only separability
screen implemented here; it is necessary-only beyond 2x2 and 2x3.

ChannelBlocks is the one channel type: it holds S and its output partial
transpose S^(T_out) as operators, dense from blocks and factored from
from_factors (S = X X^dag for one factor X, and S^(T_out) = X' X'^dag for
the X' derived from it; rotation.factored_channel gives 4K + 1
charge-sector columns against (2K+1)^2 rows). On factors the
Choi state and its partial transpose are the factored states (W^T x I) X
and (W^T x I) X', W = B Lambda^(1/2) from sigma = B Lambda B^dag, kept
unformed under every sigma (_Congruence) and formed only when read. Both
are positive by construction, so lowest_eigenvalue is exactly 0.0 below
full rank. The blocks are read off S, so every function takes every channel.
A dense channel is built from its block array, ChannelBlocks(in, out, B);
the module ships no example maps.

A HolevoForm is its rank-one (Horodecki-Shor-Ruskai) Kraus family
|g_n><f_n|, kept as two arrays of vectors, and builds its per-atom objects
only when atoms is read; a SeparableChoiDecomposition is its arrays of
weights and unit vectors, built and read as arrays only. A dense atom is
split once, when the form is built, and its factors paired once, when the
pairs are first read; every reader takes the pairs as kept: holevo_apply
is G diag(<f_n|rho|f_n>) G^dag, and each column-pair factor is a
Khatri-Rao product (_khatri_rao), such as holevo_channel's columns
conj(f_n) x g_n. An atoms file runs the same
factored chain as a rotation channel. A chain makes one comparison
(_difference_norms), of the extracted Kraus columns with the channel's
stacked matrix: sector by sector, as a certified bound, when it is stored
as a SectorFactor, and otherwise exactly, from one QR or one dense
eigensolve. The decomposition makes it when it is built, and its trace
distance to the Choi state follows by the congruence W^T x I, whatever
the reference; eb_extract reads the result.
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
    SectorFactor,
    StateOperator,
    _at_least,
    _at_most,
    _checked_trace,
    _difference_eigenvalues,
    _finite,
    _hermitian_part,
    _init_factored,
    _owned,
    _unit_columns,
    eig_hermitian,
    lowest_eigenvalue,
    partial_transpose,
)
from .measures import _check_weights

CHOI_RANK_TOL = 1e-8      # references with l_min below this times l_max are rank-deficient
EXTRACT_TOL = 1e-8        # decomposition / extraction verification tolerance
ATOM_DROP_TOL = 1e-14     # POVM atoms and spectral branches below this are noise
_U = 2.0 ** -53           # unit round-off u: k roundings move a value by gamma_k = k u / (1 - k u)
_PHASE_ERROR = np.pi * 3 * _U / (1 - 3 * _U) + 2 * _U  # pi gamma_3 + 2u: a node phase's error
_ROUNDING = 2 * _PHASE_ERROR + (12 * np.sqrt(2) / (1 - 2 * _U) + 10 / (1 - 10 * _U)) * _U
_ROUNDING /= 1 - _ROUNDING  # rho = S / (1 - S) of _sector_difference


class ChannelBlocks:
    """Channel as two operators on ProductWindow(in, out): stacked S and transposed S^(T_out).

    S[(i,k),(j,l)] = B[i,j][k,l] for the blocks B[i, j] = Phi(|i><j|), and
    S^(T_out)[(i,k),(j,l)] = S[(i,l),(j,k)]; from_factors keeps both
    factored, from one factor of S. Construction from blocks enforces
    Hermiticity (B[j,i] = B[i,j]^dag) and trace preservation (Tr B[i,j] =
    delta_ij) but not complete positivity, so non-CP candidates (e.g. the
    transposition map) can be diagnosed via cp_check. Entries near the
    double range's edge overflow in those gates to inf or NaN without a
    warning, and the gates refuse them.
    """

    def __init__(self, in_window, out_window, blocks):
        b = np.asarray(blocks, dtype=complex)
        d_in, d_out = in_window.dimension, out_window.dimension
        if b.shape != (d_in, d_in, d_out, d_out):
            raise InvariantViolationError(
                f"blocks shape {b.shape} does not match windows ({d_in}, {d_in}, {d_out}, {d_out})")
        with np.errstate(over="ignore", invalid="ignore"):
            _at_most(float(np.abs(b - b.conj().transpose(1, 0, 3, 2)).max()), EPS_HERM,
                     "block family not Hermitian: max |B_ij - B_ji^dag|")
            _at_most(float(np.abs(np.einsum("ijkk->ij", b) - np.eye(d_in)).max()), EPS_TRACE,
                     "block family not trace preserving: max |Tr B_ij - delta_ij|")
        stacked = b.transpose(0, 2, 1, 3).copy()  # the one copy of the caller's blocks, row-major
        self._stacked = MatrixOperator.__new__(MatrixOperator)._adopt(
            ProductWindow(in_window, out_window), stacked.reshape(d_in * d_out, -1))
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
    def from_factors(cls, in_window, out_window, factor):
        """The channel with S = X X^dag and S^(T_out) = X' X'^dag, X' derived from X.

        factor is a pair (a, b) of d_in x n and d_out x n arrays, for the
        columns a_n x b_n of X and a_n x conj(b_n) of X' (_khatri_rao), or a
        SectorFactor X, copied, whose X' is its mirror (_mirrored): X' X'^dag is
        S^(T_out) by construction; both are kept, uncopied, as factored operators.
        Construction checks that X is finite and trace preserving,
        Tr_out S = I; X' passes with it, as Tr_out X' X'^dag = Tr_out X X^dag.
        It is completely positive by construction, and nothing
        (d_in d_out)-square is built until the entries or blocks are read.
        """
        d_in, d_out = in_window.dimension, out_window.dimension
        sectors = isinstance(factor, SectorFactor)
        a, b = ((factor.u[:, None], factor.v[:, None]) if sectors
                else (np.asarray(side, dtype=complex) for side in factor))
        if a.ndim != 2 or a.shape[1:] != b.shape[1:] or (len(a), len(b)) != (d_in, d_out):
            raise InvariantViolationError(
                f"factor shape {a.shape} x {b.shape} does not have {d_in} x {d_out} rows")
        x = _owned(factor) if sectors else _khatri_rao(a, b)
        window = ProductWindow(in_window, out_window)
        channel = cls.__new__(cls)
        channel._stacked = _init_factored(MatrixOperator, window, x)  # refuses a non-finite X
        _at_most(float(np.abs(_traced_out(x, d_in) - np.eye(d_in)).max()), EPS_TRACE,
                 "factor not trace preserving: max |Tr_out S - I|")
        transposed = _mirrored(x, out_window.k_min) if sectors else _khatri_rao(a, b.conj())
        channel._transposed = _init_factored(MatrixOperator, window, transposed)
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


def _traced_out(x, d_in):
    """Tr_out X X^dag, d_in x d_in, of a factor whose rows (i, k) run i-major.

    On a SectorFactor u x v with d_in distinct offsets, as the rotation
    channel's factors are, X X^dag has no entry between rows (i, k) and
    (j, k) for i != j, so the partial trace is diagonal: |u_i|^2 |v|^2.
    """
    if isinstance(x, SectorFactor):
        if len(x.u) == d_in and (np.diff(np.sort(x.offset)) > 0).all():
            return np.diag(np.abs(x.u) ** 2 * np.vdot(x.v, x.v).real)
        x = x.dense()
    rows = x.reshape(d_in, -1)  # row i holds X[(i, k), t] over (k, t)
    return rows @ rows.conj().T


def _mirrored(x, k_min):
    """The SectorFactor X' with X' X'^dag = (X X^dag)^(T_out), for outputs from charge k_min.

    Rows (i, k), (j, l) share a sector of X' when (i, l), (j, k) share one
    of X, so offset' = top - offset, top = max(offset), with u and conj(v);
    the output charges change sign, so first' = 2 k_min - first - top.
    """
    top = int(x.offset.max())
    return SectorFactor(top - x.offset, x.u, x.v.conj(), 2 * k_min - x.first - top)


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


class HolevoForm:
    """Finite measure-and-prepare form: POVM atoms M_b paired with prepared states rho'_b.

    Every atom and prepared state is a factored operator, M_b = F_b F_b^dag
    and rho'_b = G_b G_b^dag. One that carries a factor keeps it; a dense one
    is checked and split once, here (_factored). Every prepared state's
    trace ||G_b||_F^2, whatever its class, must be within EPS_TRACE of 1, as
    rank_one checks it. The atoms must sum to the identity within povm_tol
    in max-entry norm, which is checked as U U^dag = I on U = [F_1, F_2, ...].
    The form is its rank-one (Horodecki-Shor-Ruskai) Kraus family: the
    operators |g_n><f_n| are kept as two arrays, inputs = [f_1, f_2, ...]
    and outputs = [g_1, g_2, ...], paired once, atom by atom, with f over
    the columns of F_b outer and g over those of G_b inner, so the family's
    completeness, sum_n |f_n><g_n|g_n><f_n| = sum_b Tr(rho'_b) M_b = I, is
    the POVM gate at povm_tol. holevo_apply reads the pairs, and operators
    forms each |g_n><f_n| densely. The pairs can outnumber the factors'
    columns by far (sum_b p_b q_b against sum_b p_b + q_b), so a form built
    from atoms forms them only when inputs or outputs is first read, and its
    pair count can be taken from atoms before that. A form built from
    vectors (rank_one) stores one copy of them and builds its operator pairs
    only when atoms is first read.
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
        defect = max(abs(_checked_trace(r.factor, "prepared state") - 1.0) for _, r in atoms)
        _at_most(float(defect), EPS_TRACE, "state trace defect |Tr - 1|")
        _check_povm(np.hstack([m_op.factor for m_op, _ in atoms]), povm_tol)
        self._init(in_window, out_window, None, tuple(atoms))

    @classmethod
    def rank_one(cls, in_window, out_window, inputs, outputs, povm_tol=1e-10):
        """The form of the atoms f_n f_n^dag and pure states g_n g_n^dag, one per column pair.

        Each column g_n must be a unit vector within the state trace gate,
        |g_n|^2 - 1 at most EPS_TRACE, as factored_state checks it.
        """
        f, g = (_finite(_owned(v, complex), what)
                for v, what in ((inputs, "POVM vectors"), (outputs, "prepared states")))
        if f.ndim != 2 or g.ndim != 2 or f.shape[1] != g.shape[1] or not f.shape[1]:
            raise InvariantViolationError(f"Holevo vector shapes {f.shape}, {g.shape} differ")
        if (len(f), len(g)) != (in_window.dimension, out_window.dimension):
            raise WindowMismatchError(f"Holevo vector shapes {f.shape}, {g.shape} do not match "
                                      f"the windows {in_window}, {out_window}")
        _at_most(float(np.abs(np.einsum("kn,kn->n", g.conj(), g).real - 1.0).max()), EPS_TRACE,
                 "state trace defect |Tr - 1|")
        _check_povm(f, povm_tol)
        return cls.__new__(cls)._init(in_window, out_window, (f, g), None)

    def _init(self, in_window, out_window, pairs, atoms):
        self._pairs, self._atoms = pairs, atoms
        self._in_window = in_window
        self._out_window = out_window
        return self

    @property
    def inputs(self):
        """The Kraus vectors f_n side by side, d_in x n."""
        return self._kraus_pairs()[0]

    @property
    def outputs(self):
        """The Kraus vectors g_n side by side, d_out x n, paired with inputs column by column."""
        return self._kraus_pairs()[1]

    def _kraus_pairs(self):
        """(inputs, outputs), paired from the atoms' factors on first read, each side in one array."""
        if self._pairs is None:
            (f, p), (g, q) = ((np.hstack(side), np.array([x.shape[1] for x in side]))
                              for side in zip(*((m.factor, r.factor) for m, r in self._atoms)))
            g_columns = [np.tile(np.arange(start, start + q_b), p_b)
                         for start, p_b, q_b in zip(np.cumsum(q) - q, p, q)]
            self._pairs = (_owned(np.repeat(f, np.repeat(q, p), axis=1), copy=False),
                           _owned(g[:, np.concatenate(g_columns)], copy=False))
        return self._pairs

    @property
    def operators(self):
        """The dense Kraus operators |g_n><f_n|, built on each read."""
        return tuple(np.outer(g, f.conj()) for f, g in zip(self.inputs.T, self.outputs.T))

    @property
    def atoms(self):
        """The pairs (M_b, rho'_b) as factored operators."""
        if self._atoms is None:
            f, g = self._pairs
            self._atoms = tuple((_init_factored(MatrixOperator, self._in_window, f[:, n:n + 1]),
                                 _init_factored(StateOperator, self._out_window, g[:, n:n + 1]))
                                for n in range(f.shape[1]))
        return self._atoms

    @property
    def in_window(self):
        return self._in_window

    @property
    def out_window(self):
        return self._out_window


def _check_povm(u, povm_tol):
    """Refuse the POVM factor U = [F_1, F_2, ...] unless U U^dag is I within povm_tol."""
    _at_most(float(np.abs(u @ u.conj().T - np.eye(len(u))).max()),
             povm_tol, "POVM incomplete: max |sum M - I|")


def holevo_apply(form, rho):
    """sum_b Tr(rho M_b) rho'_b = sum_n A_n rho A_n^dag = G diag(<f_n|rho|f_n>) G^dag, O(n d^2).

    It reads the form's Kraus pairs (f_n, g_n) and is trace preserving by
    the POVM completeness HolevoForm checks.
    """
    if rho.window != form.in_window:
        raise WindowMismatchError("state window differs from the form input window")
    f, g = form.inputs, form.outputs
    weights = np.einsum("in,in->n", f.conj(), rho.entries @ f).real
    return StateOperator(form.out_window, (g * weights) @ g.conj().T)


def _factored(op, what):
    """op as a factored operator: op itself if it carries a factor, else its eigen-split.

    The split symmetrizes op once (refused, as what, when not Hermitian within
    EPS_HERM or when an entry overflows there) and runs one eigh (refused when
    its minimum eigenvalue is below -EPS_PSD). The eigenpairs (l, v) above
    ATOM_DROP_TOL are the columns sqrt(l) v, descending. A state stays a state:
    its kept trace t, the sum of the kept eigenvalues, is gated within
    EPS_TRACE plus the mass of the dropped ones (negative round-off included)
    of 1, so a state that StateOperator accepts passes here too and a trace
    off 1 by more than that is refused; its columns are then sqrt(l / t) v,
    of unit trace, so every gate after sees a state.
    """
    if op.factor is None:
        vals, vecs = np.linalg.eigh(_finite(_hermitian_part(op.entries, what), what))
        _at_least(vals[0], -EPS_PSD, f"{what} not positive: min eigenvalue")
        keep = np.argsort(-vals, kind="stable")[:np.count_nonzero(vals > ATOM_DROP_TOL)]
        if isinstance(op, StateOperator):
            kept = vals[keep].sum()
            _at_most(abs(kept - 1.0), EPS_TRACE + float(np.abs(vals[vals <= ATOM_DROP_TOL]).sum()),
                     "state trace defect |Tr - 1|")
            op = _init_factored(StateOperator, op.window, vecs[:, keep] * np.sqrt(vals[keep] / kept))
        else:
            op = _init_factored(MatrixOperator, op.window, vecs[:, keep] * np.sqrt(vals[keep]))
    return op


def _monomial_rows(m):
    """The column of each row's one nonzero when m has one nonzero per row and column, else None."""
    nonzero = m != 0
    if all((np.count_nonzero(nonzero, axis=axis) == 1).all() for axis in (0, 1)):
        return np.argmax(nonzero, axis=1)
    return None


def _basis_product(m, vectors):
    """m @ vectors, in one product; a monomial m (a diagonal reference's eigenbasis) moves rows."""
    source = _monomial_rows(m)
    if source is not None:
        return m[np.arange(len(m)), source][:, None] * vectors[source]
    return m @ vectors


def _khatri_rao(a, b):
    """Column n is a[:, n] x b[:, n], one product per entry, in a C-ordered array."""
    out = np.empty((len(a), len(b), a.shape[1]), dtype=complex)
    for i, row in enumerate(a):  # row by row, as one broadcast multiply takes ufunc buffers
        np.multiply(row, b, out=out[i])
    return out.reshape(len(a) * len(b), -1)


def holevo_channel(form):
    """The channel of a Holevo form from its Kraus vectors: X's columns are conj(f_n) x g_n."""
    return ChannelBlocks.from_factors(form.in_window, form.out_window,
                                      (form.inputs.conj(), form.outputs))


class _Congruence:
    """(W^T x I) X, W = B Lambda^(1/2), kept as B, Lambda and X; dense() forms it on each call.

    X is an array or a SectorFactor, kept as it is: the one factored form of
    a Choi state, whatever the reference.
    """

    __slots__ = ("basis", "lam", "x", "shape")

    def __init__(self, basis, lam, x):
        self.basis, self.lam, self.x, self.shape = basis, lam, x, x.shape

    def dense(self):
        x, w = self.x, self.basis * np.sqrt(self.lam)
        x = x.dense() if isinstance(x, SectorFactor) else x
        return np.tensordot(w, x.reshape(len(w), -1, x.shape[1]), axes=(0, 0)).reshape(x.shape)


class ChoiState(StateOperator):
    """Choi state sum_ij sqrt(l_i l_j) |i><j| x Phi(|i><j|) for a full-rank reference.

    The first tensor factor is expressed in the reference's eigenbasis
    (descending eigenvalues, kept as eigenvalues/eigenbasis with the channel
    and the reference); the marginal over the output factor is diag(l_i).
    The reference is full rank when l_min >= CHOI_RANK_TOL * l_max, a floor
    that scales with it. On factors the state and transposed are the
    congruences W^T x I of the channel's two factors (module docstring),
    kept unformed (_Congruence) under every reference. Their trace
    Tr W^T T conj(W), T = Tr_out(X X^dag), is gated as sum_ij T_ij sigma_ij,
    since conj(W) W^T = conj(sigma): O(d_in^2) with no eigenbasis, T being
    diagonal for the rotation channel's SectorFactor. It needs no finiteness
    gate: from_factors' trace-preservation gate bounds every entry of X by
    1, and the reference's trace gate every entry of W, within EPS_TRACE.
    On blocks transposed is partial_transpose(self).
    """

    def __init__(self, channel, reference):
        if reference.window != channel.in_window:
            raise WindowMismatchError("reference state window differs from the channel input window")
        lam, basis = (_owned(a, copy=False) for a in eig_hermitian(reference))
        _at_least(lam[-1], CHOI_RANK_TOL * lam[0],
                  "reference state is rank deficient: min eigenvalue")
        d_in, d_out = channel.in_window.dimension, channel.out_window.dimension
        window = ProductWindow(channel.in_window, channel.out_window)
        self._transposed = None
        if channel.stacked.sectors is not None or channel.stacked.factor is not None:
            x, y = (op.factor if op.sectors is None else op.sectors
                    for op in (channel.stacked, channel.transposed))
            trace = np.sum(_traced_out(x, d_in) * reference.entries).real
            _at_most(abs(trace - 1.0), EPS_TRACE, "state trace defect |Tr - 1|")
            _init_factored(self, window, _Congruence(basis, lam, x))
            self._transposed = _init_factored(MatrixOperator, window, _Congruence(basis, lam, y))
        else:
            w = basis * np.sqrt(lam)  # column a is sqrt(l_a) times the a-th eigenvector
            entries = np.einsum("ma,nb,mnkl->akbl", w, w.conj(), channel.blocks,
                                optimize=True).reshape(d_in * d_out, d_in * d_out)
            super().__init__(window, entries)
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
    """ChoiState(channel, sigma), which solves sigma itself; maximally_mixed is the usual sigma."""
    return ChoiState(channel, sigma)


def eb_necessary_test(state):
    """(ppt, min_eig_pt) of a Choi state's partial transpose.

    ppt=False certifies the channel is not entanglement breaking;
    ppt=True is necessary-only evidence.
    """
    low = lowest_eigenvalue(state.transposed)
    return low >= -EPS_PSD, low


class SeparableChoiDecomposition:
    """Pure-product decomposition of a ChoiState target, kept as its arrays.

    Atom n is (weights[n], phi_n, psi_n), for the unit columns phi_n of
    lefts, whose amplitudes are coordinates in the target's reference
    eigenbasis, and psi_n of rights, on the output window. lefts and rights
    must have the rows of the target's two windows and the weights' column
    count. The weighted sum must reproduce the target within EXTRACT_TOL in
    trace distance, checked at construction by congruence: with W = B
    Lambda^(1/2), the atoms' factor is (W^T x I) A and the Choi state's
    (W^T x I) X, for eb_extract's Kraus columns A and the channel's S = X
    X^dag, so the distance is at most l_max ||A A^dag - S||_1 / 2, which
    _difference_norms bounds; A's vectors and operator bound are kept.
    """

    def __init__(self, target, weights, lefts, rights):
        weights, window = _check_weights(weights, tol=EPS_TRACE), target.window
        if (weights.ndim, lefts.ndim, rights.ndim) != (1, 2, 2) or not (
                len(weights) == lefts.shape[1] == rights.shape[1]):
            raise InvariantViolationError(f"decomposition shapes {weights.shape}, {lefts.shape}, "
                                          f"{rights.shape} differ")
        if (len(lefts), len(rights)) != (window.left.dimension, window.right.dimension):
            raise WindowMismatchError(f"decomposition vector shapes {lefts.shape}, {rights.shape} "
                                      f"do not match the windows {window.left}, {window.right}")
        self._target, self._reconstruction = target, None
        povm = _basis_product(target.eigenbasis, target.eigenvalues[:, None] ** -0.5 * lefts.conj())
        povm *= np.sqrt(weights)  # in place, so u is not held beside sqrt(w) u
        self._residual, trace = _difference_norms(povm.conj(), rights, target.channel.stacked)
        _at_most(0.5 * target.eigenvalues[0] * trace, EXTRACT_TOL,
                 "decomposition misses the Choi target: trace distance bound")
        self._povm = povm  # the arrays handed in are copied only now, past the comparison's peak
        self._weights, self._lefts, self._rights = _owned(weights), _owned(lefts), _owned(rights)

    @property
    def target(self):
        return self._target

    @property
    def weights(self):
        return self._weights

    @property
    def lefts(self):
        return self._lefts

    @property
    def rights(self):
        return self._rights

    def reconstruction(self):
        """The weighted atom sum as a factored state, built on the first call."""
        if self._reconstruction is None:
            self._reconstruction = _init_factored(StateOperator, self._target.window, _khatri_rao(
                self._lefts, self._rights) * np.sqrt(self._weights))
        return self._reconstruction


def separable_choi_from_holevo(form, target):
    """Known product decomposition of the ChoiState target from a Holevo form of its channel.

    In the reference eigenbasis (sigma = B Lambda B^dag), the Kraus vectors
    f_n and g_n give the branches sqrt(Lambda) conj(B^dag f_n) and g_n; each
    pair of branches with squared norms above ATOM_DROP_TOL is a
    pure-product atom: its weight is the product of the two squared norms,
    and its unit columns phi_n, psi_n go to lefts and rights. No eigensolve
    runs. A form of another channel fails validation.
    """
    if target.window != ProductWindow(form.in_window, form.out_window):
        raise WindowMismatchError("Holevo form windows differ from the Choi state's factors")
    lefts = np.sqrt(target.eigenvalues)[:, None] * _basis_product(
        target.eigenbasis.conj().T, form.inputs).conj()
    rights = form.outputs
    c, d = (np.einsum("ij,ij->j", x.conj(), x).real for x in (lefts, rights))
    kept = (c > ATOM_DROP_TOL) & (d > ATOM_DROP_TOL)
    lefts, rights = _unit_columns(lefts[:, kept]), _unit_columns(rights[:, kept])
    return SeparableChoiDecomposition(target, c[kept] * d[kept], lefts, rights)


def _difference_norms(left, right, op):
    """Bounds on the operator and trace norms of K K^dag - op, for K = _khatri_rao(left, right).

    When op is stored as a SectorFactor and K has at least as many columns
    as it has sectors, they are the per-sector bounds (_sector_difference);
    otherwise they are exact, from the eigenvalues: one QR of [K, X] for a
    factored op = X X^dag (_difference_eigenvalues), or one dense eigvalsh.
    """
    sectors = op.sectors
    if sectors is not None and left.shape[1] >= sectors.width:
        return _sector_difference(left, right, sectors)
    k = _khatri_rao(left, right)
    x = op.factor
    if x is None:
        diff = k @ k.conj().T - op.entries
        eigenvalues = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    else:
        eigenvalues = _difference_eigenvalues(np.hstack([k, x]), k.shape[1])
    magnitudes = np.abs(eigenvalues)
    return float(magnitudes.max()), float(magnitudes.sum())


def _squares(a):
    """sum_i |a[i, ...]|^2 over the first axis, in numpy's own loops (no BLAS, no thread count)."""
    return np.einsum("i...,i...->...", a.real, a.real) + np.einsum("i...,i...->...", a.imag, a.imag)


def _sector_difference(left, right, x):
    """Certified bounds on the operator and trace norms of K K^dag - X X^dag, X a SectorFactor.

    Row r = (i, k) of K = _khatri_rao(left, right) (n >= width columns) is in
    sector s = offset[i] + k; the phases c_i, d_k of charges offset[i] and
    first + k (x.node_phases) multiply to e_s = sqrt(n) E_s, E_s the
    orthonormal DFT rows at the sector charges. So K_r = e_s A_i B_k for
    A_i = h conj(c_i) left_i, B_k = conj(d_k) right_k / h, any column scale h;
    h makes A's columns unit and in phase with its longest, so neither a
    column pair's common scale nor a shifted charge split moves A, B off their
    node means. K is P' = SectorFactor(offset, sqrt(n) Abar, Bbar) plus L, row
    r of L being e_s (Abar_i dB_k + Bbar_k dA_i + dA_i dB_k) for dA = A - Abar,
    dB = B - Bbar formed directly: ||L||_F^2 is a sum over the nodes of
    products of O(d) sums. Per sector P' P'^dag - X X^dag is a a^dag - x x^dag,
    of eigenvalues t/2 +- sqrt(t^2/4 + |a|^2 |r|^2), t = |a|^2 - |x|^2, r = x -
    (a^dag x / |a|^2) a formed directly (SectorFactor.projection); L adds
    2 ||L||_F max |a_s| + ||L||_F^2 to the operator norm and
    2 ||L||_F ||P'||_F + ||L||_F^2 to the trace norm.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3,
    with u = 2^-53 and gamma_k = k u / (1 - k u)). A node phase is within
    p = _PHASE_ERROR of exact (SectorFactor.node_phases), and a complex product
    within sqrt(2) gamma_2, relatively, with or without a fused multiply-add
    (Lemma 3.5). A computed A_i[g] B_k[g] is conj(e_s[g]) K_r[g] times the
    factors of two phases, four products (demodulation and scaling), and h
    times its computed inverse, within gamma_8 of 1 (|turn|^2 within gamma_4,
    1 / norm and two componentwise roundings). Forming K in floating point,
    as a reader of _khatri_rao does, is a fifth product, and a share row
    sqrt(n) Abar_i Bbar_k is two roundings and a sixth. With the sum
    S = 2 p + 6 sqrt(2) gamma_2 + gamma_10 (about 50 u) of their bounds, the
    product of the factors is within exp(S) - 1 <= rho = S / (1 - S) of 1, so
    each entry of L, for K or for its rounded form, moves by at most rho of
    |K_r[g]| or of |P'_r|, and ||L||_F by rho max(||K||_F, ||P'||_F), with
    ||K||_F^2 = sum_g |left_g|^2 |right_g|^2 (_ROUNDING is rho). Each sum
    here has fewer than m = n + d_in + d_out + 8 terms and products, so it
    rounds by at most gamma_m of its terms' magnitudes ((3.4), (3.5)); the
    overlaps are at most twice the squares (AM-GM), so the squares are taken
    3 gamma_m high, and ||L||_F gamma_m high. The sector sums and the closed
    form are evaluated as they stand.
    """
    d_out, n = right.shape
    a, b = x.node_phases(n, -x.offset), x.node_phases(n, -x.first - np.arange(d_out))
    a *= left  # conj(c_i) left_i
    b *= right  # conj(d_k) right_k
    norms = np.sqrt(_squares(a))
    turn = np.exp(-1j * np.angle(np.einsum("i,ig->g", a[:, np.argmax(norms)].conj(), a)))
    norms[norms == 0.0] = 1.0
    a *= turn / norms  # h
    b *= turn.conj() * norms  # 1 / h
    a_mean, b_mean = a.mean(axis=1), b.mean(axis=1)
    a -= a_mean[:, None]
    b -= b_mean[:, None]
    x2, y2 = _squares(a), _squares(b)  # per node
    v, w = np.einsum("i,ig->g", a_mean.conj(), a), np.einsum("k,kg->g", b_mean.conj(), b)
    squares = np.sum(_squares(a_mean) * y2 + _squares(b_mean) * x2 + x2 * y2)
    overlaps = 2.0 * np.sum((v * w.conj()).real + v.real * y2 + x2 * w.real)
    share = np.sqrt(n) * a_mean  # P' = SectorFactor(offset, share, b_mean, ...)
    a2, _, r2 = x.projection(lambda i, cols, row: share[i] * b_mean, lambda i, cols, row: row)
    m = 1.0 / (1.0 / ((n + len(left) + d_out + 8) * _U) - 1.0)  # gamma_m
    k_norm = np.sqrt(np.einsum("g,g->", _squares(left), _squares(right)))
    leak = (1 + m) * (np.sqrt((1 + 3 * m) * squares + overlaps)
                      + _ROUNDING * max(k_norm, np.sqrt(a2.sum())))
    t = a2 - x.norms()
    spread = np.sqrt(0.25 * t * t + a2 * r2)
    return (float((0.5 * np.abs(t) + spread).max() + leak * (2.0 * np.sqrt(a2.max()) + leak)),
            float(2.0 * spread.sum() + leak * (2.0 * np.sqrt(a2.sum()) + leak)))


def eb_extract(decomposition):
    """(form, residual): the Holevo form of a separable Choi decomposition's channel.

    Each decomposition atom yields the rank-one POVM atom w |u><u|, kept as
    its vector sqrt(w) u with u = B Lambda^{-1/2} conj(phi), where sigma =
    B Lambda B^dag and phi's coordinates are in the eigenbasis B, paired
    with the prepared state |psi><psi|. The residual bounds the operator
    norm of A A^dag - S, with A's columns conj(sqrt(w) u) x psi and S the
    channel's stacked matrix; it bounds the largest entry difference. The
    decomposition formed A and took it (_difference_norms: the per-sector
    bound when S is a SectorFactor, as for a rotation channel under any
    reference, else the norm itself), so no comparison runs here. A form
    off POVM completeness by more than EXTRACT_TOL is refused, and a
    residual above it raises ExtractionInconsistentError with the residual.
    """
    channel = decomposition.target.channel
    form = HolevoForm.rank_one(channel.in_window, channel.out_window, decomposition._povm,
                               decomposition.rights, povm_tol=EXTRACT_TOL)
    residual = decomposition._residual
    if not residual <= EXTRACT_TOL:
        raise ExtractionInconsistentError(
            "extracted form disagrees with the channel's stacked matrix", residual)
    return form, residual


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
