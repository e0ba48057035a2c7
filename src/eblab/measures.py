"""Finitely supported measures on state space and domination probes.

Continuous measures enter only through quadrature discretization done by
callers; atoms are plain (weight, state) pairs and duplicates are allowed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError
from .hilbert import (
    EPS_PSD,
    EPS_RANGE,
    EPS_SUPPORT,
    ProductWindow,
    StateOperator,
    _at_most,
    min_eigenvalue,
    tensor,
)

WEIGHT_TOL = 1e-12


def _check_weights(weights, tol=WEIGHT_TOL):
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InvariantViolationError("measure needs at least one atom")
    if np.any(w <= 0.0):
        raise InvariantViolationError("measure weights must be positive")
    total = float(w.sum())
    _at_most(abs(total - 1.0), tol, f"measure weights sum to {total!r}: |sum - 1|")
    return w


class StateMeasure:
    """Probability-weighted finite collection of states on one window."""

    def __init__(self, atoms):
        atoms = [(float(w), s) for w, s in atoms]
        self._weights = _check_weights([w for w, _ in atoms])
        states = [s for _, s in atoms]
        window = states[0].window
        for s in states[1:]:
            if s.window != window:
                raise WindowMismatchError("all atoms of a state measure share one window")
        self._states = tuple(states)
        self._window = window

    @property
    def atoms(self):
        return tuple(zip(self._weights.tolist(), self._states))

    @property
    def window(self):
        return self._window


class ProductMeasure:
    """Finite measure on pairs (left state, right state)."""

    def __init__(self, atoms):
        atoms = [(float(w), l, r) for w, l, r in atoms]
        self._weights = _check_weights([w for w, _, _ in atoms])
        lefts = [l for _, l, _ in atoms]
        rights = [r for _, _, r in atoms]
        for l in lefts[1:]:
            if l.window != lefts[0].window:
                raise WindowMismatchError("all left atoms share one window")
        for r in rights[1:]:
            if r.window != rights[0].window:
                raise WindowMismatchError("all right atoms share one window")
        self._lefts = tuple(lefts)
        self._rights = tuple(rights)

    @property
    def atoms(self):
        return tuple(zip(self._weights.tolist(), self._lefts, self._rights))

    @property
    def left_window(self):
        return self._lefts[0].window

    @property
    def right_window(self):
        return self._rights[0].window


def barycenter(measure):
    """Weighted average state of a StateMeasure."""
    total = sum(w * s.entries for w, s in measure.atoms)
    return StateOperator(measure.window, total)


def separable_from_measure(measure):
    """Assemble sum_a w_a (left_a x right_a); separable by construction."""
    total = sum(w * tensor(l, r).entries for w, l, r in measure.atoms)
    window = ProductWindow(measure.left_window, measure.right_window)
    return StateOperator(window, total)


def product_bound_probe(rho, alpha, beta):
    """Largest eps with rho - eps |alpha><alpha| x |beta><beta| positive.

    Exact Lewenstein-Sanpera bound on a dense state: with v = alpha x beta,
    eps = 1 / <v| rho^+ |v> when v lies in the range of rho, and 0 when
    the part of v off the support of rho has norm above EPS_RANGE. The
    support is the eigenvalues above EPS_SUPPORT times the largest one,
    from one eigendecomposition of rho. When rho - |v><v| is already
    positive within EPS_PSD the answer is exactly 1. This is a necessary-
    condition diagnostic only: a positive value certifies domination by
    the given pure product state, a zero proves nothing beyond it. For
    rho12 states, rotation.rho12_probe evaluates the same bound sector by
    sector without the dense matrix.
    """
    w = rho.window
    if not isinstance(w, ProductWindow):
        raise WindowMismatchError("probe needs a state on a product window")
    if w.left != alpha.window or w.right != beta.window:
        raise WindowMismatchError("candidate vectors must match the product factors")
    v = np.kron(alpha.amplitudes, beta.amplitudes)
    if min_eigenvalue(rho.entries - np.outer(v, v.conj())) >= -EPS_PSD:
        return 1.0
    vals, vecs = np.linalg.eigh(rho.entries)
    support = vals > EPS_SUPPORT * vals[-1]
    coords = vecs.conj().T @ v
    if np.linalg.norm(coords[~support]) > EPS_RANGE:
        return 0.0
    return 1.0 / float(np.sum(np.abs(coords[support]) ** 2 / vals[support]))


def fourier_necessary_check(phi, alpha, tol=1e-12):
    """True when |alpha_k| <= |phi_k| + tol for every mode.

    Necessary (never sufficient) for phi's orbit average to dominate a
    product state built on alpha. Accepts PureVector or raw amplitude
    arrays; windows must agree when both carry one.
    """
    pa = phi.amplitudes if hasattr(phi, "amplitudes") else np.asarray(phi, dtype=complex)
    aa = alpha.amplitudes if hasattr(alpha, "amplitudes") else np.asarray(alpha, dtype=complex)
    if hasattr(phi, "window") and hasattr(alpha, "window") and phi.window != alpha.window:
        raise WindowMismatchError("vectors live on different windows")
    if pa.shape != aa.shape:
        raise WindowMismatchError("amplitude vectors differ in length")
    return bool(np.all(np.abs(aa) <= np.abs(pa) + tol))
