#!/usr/bin/env python3
"""Classical capacity: closed form, Holevo quantities, and the grid optimizer."""

import numpy as np

from eblab import (
    InputEnsemble,
    RotationChannel,
    ba_optimize,
    chi_quantity,
    closed_form_capacity,
    omega,
    orbit_state,
    phi_profile,
    sup_relative_entropy_check,
    von_neumann_entropy,
)

# The capacity is the Shannon entropy of the fiducial mode weights; the
# maximizing output is the diagonal orbit average.
phi = phi_profile("two-mode", 1)
print("two-mode capacity:", closed_form_capacity(phi), "(= log 2)")
print("maximizer diagonal:", np.round(np.diag(omega(phi).entries).real, 6))

# The Holevo quantity of any finite input ensemble stays below the closed
# form; relative entropy to the maximizer gives the same bound pointwise.
channel = RotationChannel(phi)
pair = InputEnsemble([(0.5, orbit_state(phi, 0.0)), (0.5, orbit_state(phi, np.pi))])
print("\nchi of the antipodal orbit pair:", chi_quantity(channel, pair))
print("relative-entropy check on |+><+|:",
      sup_relative_entropy_check(channel, phi.projector()))

# The optimizer fixes the candidate outputs at equispaced orbit points.
# The grid's shift symmetry makes uniform weights optimal, and the value
# is the entropy of the mode weights folded mod the grid size, so it
# takes one step. Two phases already saturate the two-mode channel.
report = ba_optimize(channel, 2)
print("\ntwo-mode grid n=2:", report.optimizer_value, "gap:", report.gap,
      "iterations:", report.iterations)

# A spread-out profile needs a denser grid: the gap closes once the grid
# has 2K+1 phases, where every mode is its own residue class.
geo = phi_profile("geometric(0.7)", 8)
geo_channel = RotationChannel(geo)
print("\ngeometric(0.7), K=8, closed form:", closed_form_capacity(geo))
for n in (8, 16, 33, 64):
    report = ba_optimize(geo_channel, n)
    print(f"  n={n:>3}: optimizer {report.optimizer_value:.9f} gap {report.gap:.3e} "
          f"converged {report.converged}")

# Output entropies never exceed the maximizer entropy.
rng = np.random.default_rng(5)
top = von_neumann_entropy(omega(geo))
worst = 0.0
from eblab import StateOperator, apply_closed_form
for _ in range(20):
    a = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
    h = a @ a.conj().T
    rho = StateOperator(geo.window, h / np.trace(h).real)
    worst = max(worst, von_neumann_entropy(apply_closed_form(geo_channel, rho)))
print("\nmax random output entropy:", worst, "<= maximizer entropy:", top)
