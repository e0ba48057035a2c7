"""Operators over truncated Fourier mode windows.

All matrices are dense complex arrays indexed by integer modes k in a
finite window [k_min, k_max]; bipartite objects carry a product window
and use lexicographic (left, right) row ordering, matching np.kron.
Values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError

EPS_PSD = 1e-10      # slack on minimum eigenvalues of nominally PSD matrices
EPS_HERM = 1e-12     # max-entry slack for Hermiticity checks
EPS_TRACE = 1e-10    # slack for unit-trace checks
EPS_SUPPORT = 1e-12  # eigenvalues at or below this count as zero support; the dense
                     # domination probe scales it by the largest eigenvalue
EPS_RANGE = 1e-10    # a unit vector whose part off a support has a larger norm is out of range


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


def min_eigenvalue(matrix):
    """Smallest eigenvalue of a Hermitian matrix; non-finite entries are rejected."""
    m = np.asarray(matrix)
    if not np.isfinite(m).all():
        raise InvariantViolationError("matrix has non-finite entries")
    return float(np.linalg.eigvalsh(m)[0])


class MatrixOperator:
    """Dense complex matrix tied to a mode window."""

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
        return self._entries

    def trace(self):
        return complex(np.trace(self._entries))

    def __repr__(self):
        return f"{type(self).__name__}(window={self._window}, dim={self._window.dimension})"


class StateOperator(MatrixOperator):
    """Density operator: Hermitian, positive, unit trace.

    Construction symmetrizes the entries, rejects matrices whose minimum
    eigenvalue is below -EPS_PSD, clips eigenvalues in [-EPS_PSD, 0) to
    zero and renormalizes the trace, so round-off from quadrature never
    invalidates a state.
    """

    def __init__(self, window, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolationError(f"state entries must be square, got {m.shape}")
        herm_defect = float(np.abs(m - m.conj().T).max())
        if herm_defect > EPS_HERM:
            raise InvariantViolationError(
                f"state not Hermitian: max |A - A^dag| = {herm_defect:.3e} > {EPS_HERM}")
        m = 0.5 * (m + m.conj().T)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > EPS_TRACE:
            raise InvariantViolationError(f"state trace {tr!r} differs from 1 beyond {EPS_TRACE}")
        low = min_eigenvalue(m)
        if low < -EPS_PSD:
            raise InvariantViolationError(
                f"state not positive: min eigenvalue {low:.3e} < -{EPS_PSD}")
        if low < 0.0:
            vals, vecs = np.linalg.eigh(m)
            vals = np.clip(vals, 0.0, None)
            m = (vecs * vals) @ vecs.conj().T
            m = 0.5 * (m + m.conj().T)
            m = m / np.trace(m).real
        super().__init__(window, m)

    @classmethod
    def maximally_mixed(cls, window):
        d = window.dimension
        return cls(window, np.eye(d) / d)

    @classmethod
    def from_operator(cls, op):
        """Promote a MatrixOperator that already satisfies the state invariants."""
        return cls(op.window, op.entries)


class PureVector:
    """Unit vector of mode amplitudes; renormalized at construction."""

    def __init__(self, window, amplitudes):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if v.shape[0] != window.dimension:
            raise WindowMismatchError(
                f"amplitude length {v.shape[0]} does not match window dimension {window.dimension}")
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not np.isfinite(norm):
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
        """Rank-one density operator |psi><psi|."""
        return StateOperator(self._window, np.outer(self._amplitudes, self._amplitudes.conj()))

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
    defect = float(np.abs(m - m.conj().T).max())
    if defect > EPS_HERM:
        raise InvariantViolationError(
            f"eig_hermitian needs a Hermitian matrix: max |A - A^dag| = {defect:.3e}")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def trace_norm_distance(a, b):
    """Half the trace norm of a - b (both Hermitian on the same window)."""
    _require_same_window(a, b)
    diff = a.entries - b.entries
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _entropy_from_eigenvalues(vals):
    p = np.clip(np.asarray(vals, dtype=float), 0.0, None)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


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
