"""Classical capacity of the rotation channel.

The closed form is the Shannon entropy of the fiducial mode weights
|phi_k|^2, attained by the diagonal orbit average Omega. The optimizer
side restricts inputs to orbit point preparations (the extreme points of
the channel range), which turns the ensemble search into a classical
weight optimization over pure outputs solved by Blahut-Arimoto iteration
with a duality-gap stopping certificate. Everything is reported in nats;
converting to bits is a presentation concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError
from .hilbert import (
    EPS_SUPPORT,
    StateOperator,
    _at_most,
    relative_entropy,
    shannon_entropy,
)
from .measures import StateMeasure, barycenter
from .rotation import _nodes, _orbit, apply_closed_form

UPPER_BOUND_SLACK = 1e-9  # optimizer and chi values may exceed the closed form by at most this


class InputEnsemble(StateMeasure):
    """Finite ensemble of input states with positive weights summing to one."""

    def average(self):
        return barycenter(self)


@dataclass(frozen=True)
class CapacityReport:
    """Closed form vs optimizer outcome, both in nats.

    gap is closed_form - optimizer_value clipped at 0: round-off may put
    the optimizer above the closed form, by at most UPPER_BOUND_SLACK.
    """

    closed_form: float
    optimizer_value: float
    gap: float
    grid_size: int
    iterations: int
    converged: bool
    iterate_values: tuple = field(default=())

    def __post_init__(self):
        _at_most(self.optimizer_value, self.closed_form + UPPER_BOUND_SLACK,
                 f"optimizer value against the closed form {self.closed_form!r} plus slack")


def closed_form_capacity(phi):
    """Shannon entropy of the mode weights |phi_k|^2 in nats."""
    return shannon_entropy(np.abs(phi.amplitudes) ** 2)


def omega(phi):
    """Full orbit average: the diagonal state diag(|phi_k|^2).

    Fixed point of the channel and the entropy maximizer over its range.
    """
    return StateOperator(phi.window, np.diag(np.abs(phi.amplitudes) ** 2))


def chi_quantity(channel, ensemble):
    """Holevo quantity sum_i w_i H(Phi(rho_i); Phi(rho_bar)) in nats."""
    if ensemble.window != channel.window:
        raise WindowMismatchError("ensemble window differs from the channel window")
    out_bar = apply_closed_form(channel, ensemble.average())
    return float(sum(w * relative_entropy(apply_closed_form(channel, s), out_bar)
                     for w, s in ensemble.atoms))


def sup_relative_entropy_check(channel, rho):
    """H(Phi(rho); Omega) in nats; never above the closed form."""
    return relative_entropy(apply_closed_form(channel, rho), omega(channel.phi))


def _ba_pure_outputs(outputs, max_iter, tol):
    """Blahut-Arimoto weight iteration over a fixed family of pure outputs.

    outputs rows are output amplitude vectors. Holevo quantities of pure
    output families reduce to the mixture entropy, and the update
    w_j <- w_j exp(D(psi_j || rho_bar)) / Z yields a non-decreasing value
    sequence with the duality bracket max_j D_j - chi as the stopping
    certificate.
    """
    count = outputs.shape[0]
    weights = np.full(count, 1.0 / count)
    values = []
    iterations = 0
    converged = False
    chi = 0.0
    for iterations in range(1, max_iter + 1):
        rho_bar = (outputs * weights[:, None]).T @ outputs.conj()
        vals, vecs = np.linalg.eigh(rho_bar)
        keep = vals > EPS_SUPPORT
        log_vals = np.log(vals[keep])
        overlaps = np.abs(outputs.conj() @ vecs[:, keep]) ** 2
        divergences = np.maximum(-(overlaps @ log_vals), 0.0)  # D(psi_j || rho_bar) >= 0
        chi = float(weights @ divergences)
        values.append(chi)
        if float(divergences.max()) - chi < tol:
            converged = True
            break
        weights = weights * np.exp(divergences - divergences.max())
        weights = weights / weights.sum()
    return chi, iterations, converged, tuple(values)


def ba_optimize(channel, grid, max_iter=10000, tol=1e-9):
    """Capacity estimate over the equispaced orbit grid of the given size.

    The candidate outputs are the rotated fiducial projectors at phases
    2 pi j / grid; non-convergence is reported through the flag, never as
    an exception.
    """
    if grid < 1:
        raise InvariantViolationError("grid must hold at least one phase")
    if max_iter < 1:
        raise InvariantViolationError("max_iter must allow at least one iteration")
    phi = channel.phi
    outputs = _orbit(phi.window, phi.amplitudes, _nodes(grid))  # row j is V_{2 pi j / grid} phi
    value, iterations, converged, values = _ba_pure_outputs(outputs, max_iter, tol)
    closed = closed_form_capacity(phi)
    return CapacityReport(
        closed_form=closed,
        optimizer_value=value,
        gap=max(closed - value, 0.0),
        grid_size=int(grid),
        iterations=iterations,
        converged=converged,
        iterate_values=values,
    )
