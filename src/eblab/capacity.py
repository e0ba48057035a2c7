"""Classical capacity of the rotation channel.

The closed form is the Shannon entropy of the fiducial mode weights
|phi_k|^2, attained by the diagonal orbit average Omega. The optimizer
side restricts inputs to the orbit point preparations at G equispaced
phases. The grid is invariant under its own shift, so the uniform
weights are optimal, and the uniform mixture of the pure outputs is a
direct sum of rank-one blocks, one per residue class of k mod G: the
optimum is the entropy of the mode weights folded mod G. Everything is
reported in nats; converting to bits is a presentation concern.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolationError, WindowMismatchError
from .hilbert import StateOperator, _at_most, _Frozen, relative_entropy, shannon_entropy
from .measures import StateMeasure, barycenter
from .rotation import _charges, _sector_index, apply_closed_form

UPPER_BOUND_SLACK = 1e-9  # optimizer and chi values may exceed the closed form by at most this


class InputEnsemble(StateMeasure):
    """Finite ensemble of input states with positive weights summing to one."""

    def average(self):
        return barycenter(self)


class CapacityReport(_Frozen):
    """Closed form vs optimizer outcome, both in nats.

    gap is closed_form - optimizer_value clipped at 0: round-off may put
    the optimizer above the closed form, by at most UPPER_BOUND_SLACK. The
    uniform grid weights are the Blahut-Arimoto fixed point, so every report
    is one converged iterate: iterations, converged and iterate_values are
    read-only constants of the class, not fields.
    """

    __slots__ = ("closed_form", "optimizer_value", "gap", "grid_size")
    iterations = 1
    converged = True

    def __init__(self, closed_form, optimizer_value, gap, grid_size):
        super().__init__(closed_form, optimizer_value, gap, grid_size)
        _at_most(optimizer_value, closed_form + UPPER_BOUND_SLACK,
                 f"optimizer value against the closed form {closed_form!r} plus slack")

    @property
    def iterate_values(self):
        return (self.optimizer_value,)


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


def ba_optimize(channel, grid):
    """Holevo quantity of the uniform ensemble on the equispaced orbit grid of the given size.

    The outputs are V_{2 pi j / grid} phi. Their uniform mixture has
    entries phi_k conj(phi_l) [k = l mod grid], so its entropy, and the
    optimum over the grid's weights, is H(w) with w_c the sum of |phi_k|^2
    over rotation's charge sectors k - k_min = c mod grid, or mod 2K + 1 for
    a larger grid: from 2K + 1 phases on each class holds one mode and the
    value is the closed form, bit for bit. The shift symmetry makes the uniform
    weights the Blahut-Arimoto fixed point, so the report shows one converged iterate.
    """
    if grid < 1:
        raise InvariantViolationError("grid must hold at least one phase")
    weights = np.abs(channel.phi.amplitudes) ** 2
    sector = _sector_index(_charges(channel.window))
    folded = np.bincount(sector % min(grid, sector.size), weights=weights)
    value = max(shannon_entropy(folded), 0.0)  # a class can sum past 1 by round-off
    closed = closed_form_capacity(channel.phi)
    return CapacityReport(
        closed_form=closed,
        optimizer_value=value,
        gap=max(closed - value, 0.0),
        grid_size=int(grid),
    )
