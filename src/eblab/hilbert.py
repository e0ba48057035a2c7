"""Operators over truncated Fourier mode windows.

Operators are complex matrices indexed by integer modes k in a finite
window [k_min, k_max], stored dense or as a factor X of X X^dag whose
dense entries are built on first access; bipartite objects carry a
product window and use lexicographic (left, right) row ordering,
matching np.kron.
Values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads (the lazily
built entries of a factored operator are at worst built twice). Every
array kept is read-only and eblab's own: _owned states the copy rule.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError

EPS_PSD = 1e-10      # slack on minimum eigenvalues of nominally PSD matrices
                     # absolute: not scaled by the matrix norm
EPS_HERM = 1e-12     # max-entry slack for Hermiticity checks
                     # absolute: not scaled by the largest entry
EPS_TRACE = 1e-10    # slack for unit-trace checks
                     # absolute, on a trace whose target is 1
EPS_SUPPORT = 1e-12  # eigenvalues at or below this count as zero support
                     # absolute in relative_entropy; the dense domination probe
                     # makes it relative to the largest eigenvalue
EPS_RANGE = 1e-10    # a unit vector whose part off a support has a larger norm is out of range
                     # absolute, on unit vectors, so relative to the vector norm


class _Frozen:
    """Immutable value: compared, hashed and shown by the fields named in __slots__.

    It behaves as a frozen dataclass would, without importing dataclasses:
    __init__ takes one value per field, equality needs the same class, the
    repr is Name(field=value, ...), and assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.__slots__)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class ModeWindow(_Frozen):
    """Contiguous range of integer Fourier modes."""

    __slots__ = ("k_min", "k_max")

    def __init__(self, k_min, k_max):
        super().__init__(k_min, k_max)
        if int(k_min) != k_min or int(k_max) != k_max:
            raise WindowMismatchError("mode indices must be integers")
        if k_min > k_max:
            raise WindowMismatchError(f"empty window: k_min={k_min} > k_max={k_max}")

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


class ProductWindow(_Frozen):
    """Declared tensor-product structure over two windows (left x right)."""

    __slots__ = ("left", "right")

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


def _owned(x, dtype=None, copy=True):
    """x as a read-only array of dtype, or a SectorFactor of read-only arrays, eblab's to keep.

    A public constructor copies what its caller hands in, once (copy=True), so
    the caller's array keeps its flags and a later write to it changes nothing
    kept; an array eblab has just made is frozen where it is (copy=False).
    This is the one place an array is made read-only.
    """
    if isinstance(x, SectorFactor):
        return SectorFactor(*(_owned(a, None, copy) for a in (x.offset, x.u, x.v)), x.first)
    a = np.array(x, dtype=dtype) if copy else np.asarray(x, dtype=dtype)
    a.setflags(write=False)
    return a


def min_eigenvalue(matrix):
    """Smallest eigenvalue of a Hermitian matrix; non-finite entries are rejected."""
    return float(np.linalg.eigvalsh(_finite(matrix, "matrix"))[0])


def _gram(x):
    """The Hermitian part of X X^dag, zeros stored as +0.0: a factored operator's entries."""
    m = x @ x.conj().T
    m += m.conj().T  # in place, so at most one transient d x d array is alive
    m *= 0.5
    m += 0.0  # -0.0 + 0.0 is +0.0
    return m


class SectorFactor:
    """A factor with one nonzero per row, the product u x v, stored as offset, u and v.

    Row (i, k) of the len(u) len(v) x width factor X holds u[i] v[k] in
    column offset[i] + k (walk), so X X^dag is zero between sectors and rank
    one in each; width = max(offset) + len(v). Readers sum over sectors
    along walk() in O(len(v)) memory; only dense(), the oracle, and the
    writer, _sector_cells, lay X out flat. rotation._sector_factor and
    channels._mirrored build every such factor, sector s at charge first + s,
    along the phases e^{i x_g (first + s)} over n orbit nodes x_g =
    2 pi g / n, which node_phases gives. _checked_trace checks the values.
    """

    __slots__ = ("offset", "u", "v", "width", "first")

    def __init__(self, offset, u, v, first):
        self.offset, self.u, self.v, self.first = offset, u, v, first
        self.width = int(np.max(offset)) + len(v)

    @staticmethod
    def node_phases(n, charges):
        """The len(charges) x n matrix whose row is e^{i x_g q} over the nodes x_g = 2 pi g / n.

        Column g of an orbit over these nodes is V_{x_g} v, whose row of charge q
        is e^{i x_g q} v_q. The exponent's g q is reduced mod n in integers, so
        each entry is a root e^{2 pi i j / n}, taken at the angle 2 pi j / n with
        j in (-n/2, n/2]: three roundings (pi, the product, the quotient) move an
        angle of at most pi by pi gamma_3, and cos and sin, one ulp each, add 2u,
        so every entry is within channels._PHASE_ERROR of exact, whatever q.
        """
        j = np.arange(n)
        roots = np.exp(1j * (2.0 * np.pi * (j - n * (2 * j > n)) / n))
        return roots[np.outer(charges, j) % n]

    @property
    def shape(self):
        return len(self.u) * len(self.v), self.width

    def walk(self):
        """(i, cols, row) per input row i in order: row = u[i] * v (np.kron's operand order).

        Row (i, k) lies in sector cols.start + k, cols = offset[i] : offset[i] +
        len(v). Sums along the walk add in a flat bincount's order, with its bits.
        """
        n = len(self.v)
        for i, first in enumerate(self.offset.tolist()):
            yield i, slice(first, first + n), self.u[i] * self.v

    def dense(self):
        """The d x width array X, built on each call: the oracle of every reader."""
        x = np.zeros(self.shape, dtype=complex)
        for i, cols, row in self.walk():
            x[i * len(row):(i + 1) * len(row), cols] = np.diag(row)
        return x

    def norms(self):
        """|x_s|^2 for each sector s, x_s this factor's rows in sector s."""
        out = np.zeros(self.width)
        for _, cols, row in self.walk():
            out[cols] += np.abs(row) ** 2
        return out

    def projection(self, x, w):
        """(|x_s|^2, c_s, |w_s - c_s x_s|^2) for each sector s, of two d-vectors x and w.

        x(*step) and w(*step) give their rows at each step of the walk; x_s and
        w_s are their rows in sector s and c_s = <x_s, w_s> / |x_s|^2 (0 where
        x_s = 0): w_s's share along x_s and what is left.
        """
        norms, overlap = np.zeros(self.width), np.zeros(self.width, dtype=complex)
        for step in self.walk():
            row, cols = x(*step), step[1]
            norms[cols] += np.abs(row) ** 2
            overlap[cols] += row.conj() * w(*step)
        c = np.divide(overlap, norms, out=np.zeros_like(overlap), where=norms > 0.0)
        residual = np.zeros(self.width)
        for step in self.walk():
            residual[step[1]] += np.abs(w(*step) - c[step[1]] * x(*step)) ** 2
        return norms, c, residual


def _sector_cells(x):
    """Row, column and value of the cells of X X^dag that may be nonzero, row-major.

    For a SectorFactor X, X X^dag is zero between sectors and the block of
    sector s is the rank-one _gram of its nonzero rows. The dense entries of
    such a factor are these cells (MatrixOperator._expand), so a writer that
    takes them from here writes the same bits.
    """
    steps = list(x.walk())  # the flat sector and value of each row (i, k), d long
    sector = np.concatenate([np.arange(cols.start, cols.stop) for _, cols, _ in steps])
    values = np.concatenate([row for _, _, row in steps])
    live = np.flatnonzero(values)
    sector = sector[live]
    counts = np.bincount(sector, minlength=x.width)
    groups = np.split(live[np.argsort(sector, kind="stable")], np.cumsum(counts)[:-1])
    rows = np.concatenate([np.repeat(g, g.size) for g in groups])
    cols = np.concatenate([np.tile(g, g.size) for g in groups])
    values = np.concatenate([_gram(values[g, None]).ravel() for g in groups])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order]


class MatrixOperator:
    """Dense complex matrix tied to a mode window.

    An operator built from a factor X (factored_operator, factored_state)
    is X X^dag, positive by construction: it keeps X, checks no
    eigenvalue and builds its entries only on first access.
    """

    _factor = None

    def __init__(self, window, entries):
        m = np.array(entries, dtype=complex)  # the one copy of the caller's entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolationError(f"operator entries must be square, got {m.shape}")
        self._adopt(window, m)

    def _adopt(self, window, m):
        """Keep eblab's own square complex array m as the entries on window, without a copy."""
        if m.shape[0] != window.dimension:
            raise WindowMismatchError(
                f"entries shape {m.shape} does not match window dimension {window.dimension}")
        self._window, self._entries = window, _owned(m, copy=False)
        return self

    @property
    def window(self):
        return self._window

    @property
    def entries(self):
        if self._entries is None:
            self._entries = _owned(self._expand(), copy=False)
        return self._entries

    @property
    def factor(self):
        """The d x m array X with entries X X^dag if the operator was built from one, else None.

        A factor stored as anything but an array is returned as its dense().
        """
        x = self._factor
        return x if x is None or isinstance(x, np.ndarray) else x.dense()

    @property
    def sectors(self):
        """The SectorFactor the operator was built from, else None."""
        x = self._factor
        return x if isinstance(x, SectorFactor) else None

    def _expand(self):
        """Entries from the factor; a SectorFactor's are its sector blocks, zero between."""
        x = self._factor
        if not isinstance(x, SectorFactor):
            return _gram(self.factor)
        rows, cols, values = _sector_cells(x)
        m = np.zeros((x.shape[0],) * 2, dtype=complex)
        m[rows, cols] = values
        return m

    def trace(self):
        return complex(np.trace(self.entries))

    def __repr__(self):
        return f"{type(self).__name__}(window={self._window}, dim={self._window.dimension})"


class StateOperator(MatrixOperator):
    """Density operator: Hermitian, positive, unit trace.

    Construction stores the Hermitian part of the entries after refusing a
    trace off 1 by more than EPS_TRACE or a minimum eigenvalue below
    -EPS_PSD. A minimum eigenvalue in [-EPS_PSD, 0), round-off from
    quadrature, is accepted and kept: the stored entries are the checked
    ones. factored_state builds a low-rank state from a factor instead; it
    is positive by construction, so no eigensolve runs.
    """

    def __init__(self, window, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolationError(f"state entries must be square, got {m.shape}")
        m = _hermitian_part(m, "state")  # the one copy of the caller's entries
        _at_most(abs(np.trace(m).real - 1.0), EPS_TRACE, "state trace defect |Tr - 1|")
        _at_least(min_eigenvalue(m), -EPS_PSD, "state not positive: min eigenvalue")
        self._adopt(window, m)

    @staticmethod
    def maximally_mixed(window):
        """I / d; its spectrum is known, so no eigensolve checks it or solves it (eig_hermitian)."""
        d = window.dimension
        state = StateOperator.__new__(StateOperator)._adopt(window, (np.eye(d) / d).astype(complex))
        state._mixed = True
        return state

    @staticmethod
    def from_operator(op):
        """Promote a MatrixOperator that already satisfies the state invariants."""
        return StateOperator(op.window, op.entries)


def _hermitian_part(m, what):
    """(m + m^dag) / 2 after refusing m when max |m - m^dag| exceeds EPS_HERM.

    Entries near the double range's edge overflow here to inf or NaN
    without a warning; the gates after this one refuse those.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.abs(m - m.conj().T).max())
        _at_most(defect, EPS_HERM, f"{what} not Hermitian: max |A - A^dag|")
        return 0.5 * (m + m.conj().T)


def _checked_trace(x, what):
    """||X||_F^2 after refusing a non-finite X; a SectorFactor's is ||u||^2 ||v||^2.

    Two finite vectors can have an infinite product, so u, v and max|u| max|v| are checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not isinstance(x, SectorFactor):
            return np.vdot(_finite(x, what), x).real
        _finite(np.abs(_finite(x.u, what)).max() * np.abs(_finite(x.v, what)).max(), what)
        return np.vdot(x.u, x.u).real * np.vdot(x.v, x.v).real


def _init_factored(op, window, factor, copy=False):
    """Make op, an operator or the class of a new one, X X^dag of the d x m factor X; return it.

    An array or a SectorFactor is _owned (copied if copy is set) and checked
    by _checked_trace: finite, and of trace within EPS_TRACE of 1 for a
    StateOperator. Any other factor with a shape and a dense() is kept
    unformed, its maker's to gate. X X^dag is positive by construction, so no
    eigensolve runs; the d x d entries are built on first access, with exact
    zeros as +0.0.
    """
    op = op.__new__(op) if isinstance(op, type) else op
    owned = isinstance(factor, SectorFactor) or not hasattr(factor, "dense")
    x = _owned(factor, complex, copy) if owned else factor
    if len(x.shape) != 2 or x.shape[0] != window.dimension:
        raise WindowMismatchError(
            f"factor shape {x.shape} does not match window dimension {window.dimension}")
    if owned:
        trace = _checked_trace(x, "factor")
        if isinstance(op, StateOperator):
            _at_most(abs(trace - 1.0), EPS_TRACE, "state trace defect |Tr - 1|")
    op._window, op._entries, op._factor = window, None, x
    return op


def factored_operator(window, factor):
    """The positive operator X X^dag of a d x m factor X, which it keeps as its own copy."""
    return _init_factored(MatrixOperator, window, factor, copy=True)


def factored_state(window, factor):
    """The state X X^dag of a d x m factor X with ||X||_F = 1, kept as its own copy."""
    return _init_factored(StateOperator, window, factor, copy=True)


def lowest_eigenvalue(op):
    """Smallest eigenvalue of a Hermitian operator.

    On an operator built from a d x m factor X it is exactly 0.0 when
    m < d, since the rank is then below d; otherwise it is taken on X X^dag,
    or on the entries of a dense operator.
    """
    if op._factor is None:
        return min_eigenvalue(op.entries)
    d, m = op._factor.shape
    if m < d:
        return 0.0
    x = op.factor
    return min_eigenvalue(x @ x.conj().T)


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
        v /= norm  # in place: v is already this vector's one copy
        self._window, self._amplitudes = window, _owned(v, copy=False)

    @property
    def window(self):
        return self._window

    @property
    def amplitudes(self):
        return self._amplitudes

    def projector(self):
        """Rank-one density operator |psi><psi|, factored by psi itself."""
        return _init_factored(StateOperator, self._window, self._amplitudes[:, None])

    def __repr__(self):
        return f"PureVector(window={self._window})"


def _unit_columns(v):
    """v with each column divided by its norm, taken column by column as PureVector takes it."""
    return v / np.sqrt([c.real.dot(c.real) + c.imag.dot(c.imag) for c in v.T])


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
    return MatrixOperator.__new__(MatrixOperator)._adopt(w, pt)


def eig_hermitian(op):
    """Eigenvalues (descending, ties keep solver order) and matching eigenvector columns.

    A maximally_mixed state's are the bits eigh gives for I / d, taken with no eigh.
    """
    if getattr(op, "_mixed", False):
        d = op.window.dimension
        return np.full(d, 1.0 / d), np.eye(d, dtype=complex)
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
    if a._factor is not None and b._factor is not None:
        x = a.factor  # a SectorFactor's dense array is built on each read
        eigenvalues = _difference_eigenvalues(np.hstack([x, b.factor]), x.shape[1])
        return 0.5 * float(np.abs(eigenvalues).sum())
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
