"""Operators over truncated Fourier mode windows.

All matrices are dense complex arrays indexed by integer modes k in a
finite window [k_min, k_max]; bipartite objects carry a product window
and use lexicographic (left, right) row ordering, matching np.kron.
Values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads (the lazily
built entries of a factored operator are at worst built twice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError

EPS_PSD = 1e-10      # slack on minimum eigenvalues of nominally PSD matrices
                     # absolute: not scaled by the matrix norm
EPS_HERM = 1e-12     # max-entry slack for Hermiticity checks
                     # absolute: not scaled by the largest entry
EPS_TRACE = 1e-10    # slack for unit-trace checks
                     # absolute, on a trace whose target is 1
EPS_SUPPORT = 1e-12  # eigenvalues at or below this count as zero support
                     # absolute in relative_entropy and the BA optimizer; the dense
                     # domination probe makes it relative to the largest eigenvalue
EPS_RANGE = 1e-10    # a unit vector whose part off a support has a larger norm is out of range
                     # absolute, on unit vectors, so relative to the vector norm


@dataclass(frozen=True)
class ModeWindow:
    """Contiguous range of integer Fourier modes."""

    k_min: int
    k_max: int

    def __post_init__(self):
        if int(self.k_min) != self.k_min or int(self.k_max) != self.k_max:
            raise WindowMismatchError("mode indices must be integers")
        if self.k_min > self.k_max:
            raise WindowMismatchError(
                f"empty window: k_min={self.k_min} > k_max={self.k_max}")

    @classmethod
    def symmetric(cls, half_width):
        """Window [-K, K]; dimension 2K + 1."""
        if half_width < 0:
            raise WindowMismatchError("half width must be >= 0")
        return cls(-int(half_width), int(half_width))

    @property
    def dimension(self):
        return self.k_max - self.k_min + 1

    def modes(self):
        """Mode indices in row order."""
        return np.arange(self.k_min, self.k_max + 1)

    def index(self, k):
        """Row index of mode k."""
        if not self.k_min <= k <= self.k_max:
            raise WindowMismatchError(f"mode {k} outside window [{self.k_min}, {self.k_max}]")
        return int(k - self.k_min)


@dataclass(frozen=True)
class ProductWindow:
    """Declared tensor-product structure over two windows (left x right)."""

    left: "ModeWindow | ProductWindow"
    right: "ModeWindow | ProductWindow"

    @property
    def dimension(self):
        return self.left.dimension * self.right.dimension


def _require_same_window(a, b):
    if a.window != b.window:
        raise WindowMismatchError(f"window mismatch: {a.window} vs {b.window}")


def _require_product(op):
    if not isinstance(op.window, ProductWindow):
        raise WindowMismatchError("operation needs a product window; "
                                  f"got {op.window}")
    return op.window


def _at_most(value, bound, what):
    """Refuse value unless value <= bound, so NaN is refused too.

    Every tolerance check of the package goes through this gate or
    _at_least; the message names the quantity, its value and its bound.
    """
    if not value <= bound:
        raise InvariantViolationError(f"{what} = {value:.3e} > {bound}")


def _at_least(value, bound, what):
    """Refuse value unless value >= bound, so NaN is refused too."""
    if not value >= bound:
        raise InvariantViolationError(f"{what} = {value:.3e} < {bound}")


def _finite(x, what):
    """x as an array, after refusing it when an entry is NaN or infinite."""
    a = np.asarray(x)
    if not np.isfinite(a).all():
        raise InvariantViolationError(f"{what} has non-finite entries")
    return a


def min_eigenvalue(matrix):
    """Smallest eigenvalue of a Hermitian matrix; non-finite entries are rejected."""
    return float(np.linalg.eigvalsh(_finite(matrix, "matrix"))[0])


class MatrixOperator:
    """Dense complex matrix tied to a mode window.

    An operator built from a factor X (factored_operator, factored_state)
    is X X^dag, positive by construction: it keeps X, checks no
    eigenvalue and builds its entries only on first access.
    """

    _factor = None

    def __init__(self, window, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolationError(f"operator entries must be square, got {m.shape}")
        if m.shape[0] != window.dimension:
            raise WindowMismatchError(
                f"entries shape {m.shape} does not match window dimension {window.dimension}")
        m.setflags(write=False)
        self._window = window
        self._entries = m

    @property
    def window(self):
        return self._window

    @property
    def entries(self):
        if self._entries is None:
            m = self._expand()
            m.setflags(write=False)
            self._entries = m
        return self._entries

    @property
    def factor(self):
        """The d x m factor X with entries X X^dag if the operator was built from one, else None."""
        return self._factor

    def _expand(self):
        """Entries from the factor: the Hermitian part of X X^dag, its zeros stored as +0.0."""
        m = self._factor @ self._factor.conj().T
        m += m.conj().T  # in place, so at most one transient d x d array is alive
        m *= 0.5
        m += 0.0  # -0.0 + 0.0 is +0.0
        return m

    def trace(self):
        return complex(np.trace(self.entries))

    def __repr__(self):
        return f"{type(self).__name__}(window={self._window}, dim={self._window.dimension})"


class StateOperator(MatrixOperator):
    """Density operator: Hermitian, positive, unit trace.

    Construction symmetrizes the entries, rejects matrices whose minimum
    eigenvalue is below -EPS_PSD, clips eigenvalues in [-EPS_PSD, 0) to
    zero and renormalizes the trace, so round-off from quadrature never
    invalidates a state. factored_state builds a low-rank state from a
    factor instead; it is positive by construction, so no eigensolve runs.
    """

    def __init__(self, window, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolationError(f"state entries must be square, got {m.shape}")
        m, low = _checked_state(m)
        if low < 0.0:
            vals, vecs = np.linalg.eigh(m)
            vals = np.clip(vals, 0.0, None)
            m = (vecs * vals) @ vecs.conj().T
            m = 0.5 * (m + m.conj().T)
            m = m / np.trace(m).real
        super().__init__(window, m)

    @staticmethod
    def maximally_mixed(window):
        """I / d; its spectrum is known, so no eigensolve checks it."""
        d = window.dimension
        state = StateOperator.__new__(StateOperator)
        MatrixOperator.__init__(state, window, np.eye(d) / d)
        return state

    @staticmethod
    def from_operator(op):
        """Promote a MatrixOperator that already satisfies the state invariants."""
        return StateOperator(op.window, op.entries)


def _hermitian_part(m, what):
    """(m + m^dag) / 2 after refusing m when max |m - m^dag| exceeds EPS_HERM."""
    defect = float(np.abs(m - m.conj().T).max())
    _at_most(defect, EPS_HERM, f"{what} not Hermitian: max |A - A^dag|")
    return 0.5 * (m + m.conj().T)


def _checked_state(m):
    """(symmetrized m, min eigenvalue) after the Hermiticity, trace and positivity checks."""
    m = _hermitian_part(m, "state")
    _at_most(abs(np.trace(m).real - 1.0), EPS_TRACE, "state trace defect |Tr - 1|")
    low = min_eigenvalue(m)
    _at_least(low, -EPS_PSD, "state not positive: min eigenvalue")
    return m, low


def _init_factored(op, window, factor):
    """Make op the operator X X^dag of the d x m factor X, checked on X alone.

    X must be finite, and a StateOperator's trace ||X||_F^2 must be 1 within
    EPS_TRACE. X X^dag is positive by construction, so no eigensolve runs and
    no clipping is needed; the d x d entries are built only on first access,
    with exact zeros stored as +0.0.
    """
    x = np.array(factor, dtype=complex)
    if x.ndim != 2 or x.shape[0] != window.dimension:
        raise WindowMismatchError(
            f"factor shape {x.shape} does not match window dimension {window.dimension}")
    _finite(x, "factor")
    if isinstance(op, StateOperator):
        _at_most(abs(np.vdot(x, x).real - 1.0), EPS_TRACE, "state trace defect |Tr - 1|")
    x.setflags(write=False)
    op._window, op._entries, op._factor = window, None, x


def factored_operator(window, factor):
    """The positive operator X X^dag of a d x m factor X, which it keeps as its factor."""
    op = MatrixOperator.__new__(MatrixOperator)
    _init_factored(op, window, factor)
    return op


def factored_state(window, factor):
    """The state X X^dag of a d x m factor X with ||X||_F = 1, kept as its factor."""
    state = StateOperator.__new__(StateOperator)
    _init_factored(state, window, factor)
    return state


def lowest_eigenvalue(op):
    """Smallest eigenvalue of a Hermitian operator.

    On an operator built from a d x m factor X it is exactly 0.0 when
    m < d, since the rank is then below d; otherwise it is taken on X X^dag,
    or on the entries of a dense operator.
    """
    x = op.factor
    if x is None:
        return min_eigenvalue(op.entries)
    d, m = x.shape
    return 0.0 if m < d else min_eigenvalue(x @ x.conj().T)


class PureVector:
    """Unit vector of mode amplitudes; renormalized at construction."""

    def __init__(self, window, amplitudes):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if v.shape[0] != window.dimension:
            raise WindowMismatchError(
                f"amplitude length {v.shape[0]} does not match window dimension {window.dimension}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not 0.0 < norm < np.inf:
            # the sum of squares under- or overflowed: rescale by the largest part first
            parts = v.view(float)
            scale = float(np.abs(parts).max())
            if 0.0 < scale < np.inf:
                # a real divide: dividing the complex vector overflows on subnormal parts
                v = (parts / scale).view(complex)
                norm = float(np.linalg.norm(v))
        if not 0.0 < norm < np.inf:  # all zero, or a NaN or inf part
            raise InvariantViolationError(f"pure vector needs a finite nonzero norm, got {norm!r}")
        v = v / norm
        v.setflags(write=False)
        self._window = window
        self._amplitudes = v

    @property
    def window(self):
        return self._window

    @property
    def amplitudes(self):
        return self._amplitudes

    def projector(self):
        """Rank-one density operator |psi><psi|, factored by psi itself."""
        return factored_state(self._window, self._amplitudes[:, None])

    def __repr__(self):
        return f"PureVector(window={self._window})"


def basis_vector(window, k):
    """Basis mode |k> as a PureVector."""
    v = np.zeros(window.dimension)
    v[window.index(k)] = 1.0
    return PureVector(window, v)


def tensor(a, b):
    """Kronecker product on the product window, rows lexicographic in (left, right)."""
    return MatrixOperator(ProductWindow(a.window, b.window), np.kron(a.entries, b.entries))


def _partial_trace_matrix(entries, d_left, d_right, side):
    r4 = entries.reshape(d_left, d_right, d_left, d_right)
    if side == "first":
        return np.trace(r4, axis1=0, axis2=2)
    if side == "second":
        return np.trace(r4, axis1=1, axis2=3)
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def partial_trace(op, side):
    """Trace out one factor of a product-window operator.

    side='first' removes the left factor, side='second' the right one.
    StateOperator inputs yield StateOperator outputs.
    """
    w = _require_product(op)
    reduced = _partial_trace_matrix(op.entries, w.left.dimension, w.right.dimension, side)
    remaining = w.right if side == "first" else w.left
    if isinstance(op, StateOperator):
        return StateOperator(remaining, reduced)
    return MatrixOperator(remaining, reduced)


def partial_transpose(op):
    """Transpose the right factor: out[(k1,k2),(l1,l2)] = in[(k1,l2),(l1,k2)]."""
    w = _require_product(op)
    d1, d2 = w.left.dimension, w.right.dimension
    pt = op.entries.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)
    return MatrixOperator(w, pt)


def eig_hermitian(op):
    """Eigenvalues (descending, ties keep solver order) and matching eigenvector columns."""
    m = op.entries if isinstance(op, MatrixOperator) else np.asarray(op, dtype=complex)
    vals, vecs = np.linalg.eigh(_hermitian_part(m, "eig_hermitian input"))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def _difference_eigenvalues(joined, positive):
    """Nonzero eigenvalues of W J W^dag from one QR of W = joined.

    J is +1 on W's first `positive` columns and -1 on the rest, so with
    W = [fa, fb] the operator is fa fa^dag - fb fb^dag. With W = QR its
    nonzero eigenvalues are those of R J R^dag, which is at most
    W.shape[1]-square.
    """
    r = np.linalg.qr(joined, mode="r")
    signs = np.concatenate([np.ones(positive), -np.ones(joined.shape[1] - positive)])
    diff = (r * signs) @ r.conj().T
    return np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))


def trace_norm_distance(a, b):
    """Half the trace norm of a - b (both Hermitian on the same window).

    When both are factored states the eigenvalues come from the factors
    (_difference_eigenvalues), without a d x d eigensolve.
    """
    _require_same_window(a, b)
    if a.factor is not None and b.factor is not None:
        joined = np.hstack([a.factor, b.factor])
        return 0.5 * float(np.abs(_difference_eigenvalues(joined, a.factor.shape[1])).sum())
    diff = a.entries - b.entries
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def _entropy_from_eigenvalues(vals):
    p = np.clip(np.asarray(vals, dtype=float), 0.0, None)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0  # a pure spectrum gives -0.0; + 0.0 makes it +0.0


def von_neumann_entropy(rho):
    """-Tr rho log rho in nats, with 0 log 0 = 0."""
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(rho.entries))


def shannon_entropy(probabilities):
    """-sum p log p in nats over a probability vector, with 0 log 0 = 0."""
    return _entropy_from_eigenvalues(probabilities)


def relative_entropy(rho, sigma):
    """Tr rho (log rho - log sigma) in nats; +inf outside sigma's support.

    Support is detected at eigenvalue threshold EPS_SUPPORT; the value is
    clipped at zero to absorb round-off.
    """
    _require_same_window(rho, sigma)
    s_vals, s_vecs = np.linalg.eigh(sigma.entries)
    support = s_vals > EPS_SUPPORT
    r = rho.entries
    if not np.all(support):
        null_vecs = s_vecs[:, ~support]
        leak = float(np.real(np.einsum("ij,ik,kj->", null_vecs.conj(), r, null_vecs)))
        if leak > EPS_SUPPORT:
            return float("inf")
    tr_rho_log_rho = -von_neumann_entropy(rho)
    weights = np.clip(np.real(np.einsum("ij,ik,kj->j", s_vecs.conj(), r, s_vecs)), 0.0, None)
    tr_rho_log_sigma = float((weights[support] * np.log(s_vals[support])).sum())
    return max(0.0, tr_rho_log_rho - tr_rho_log_sigma)
