#!/usr/bin/env python3
"""Channel blocks, Choi states, the PPT screen, and measure-and-prepare forms."""

import numpy as np

from eblab import (
    MatrixOperator,
    ModeWindow,
    StateOperator,
    blocks_from_holevo,
    choi,
    constant_channel,
    cp_check,
    eb_extract,
    eb_necessary_test,
    holevo_apply,
    holevo_channel,
    HolevoForm,
    identity_channel,
    kraus_apply,
    kraus_rank_one,
    separable_choi_from_holevo,
    transpose_channel,
)

w = ModeWindow(0, 2)
rng = np.random.default_rng(3)

# A channel is pinned down by its blocks Phi(|i><j|); complete positivity
# is the positivity of the stacked block matrix.
print("identity channel cp:", cp_check(identity_channel(w)))
print("transposition map cp:", cp_check(transpose_channel(w)), "(swap spectrum: not a channel)")

# The Choi state over a full-rank reference separates the entanglement-
# breaking candidates from the rest: the identity fails PPT, a constant
# channel passes.
sigma = StateOperator.maximally_mixed(w)
print("\nidentity channel PPT:", eb_necessary_test(choi(identity_channel(w), sigma)))
target = StateOperator(w, np.diag([0.5, 0.3, 0.2]))
print("constant channel PPT:", eb_necessary_test(choi(constant_channel(w, target), sigma)))

# A measure-and-prepare form: measure a POVM, prepare a state per outcome.
form = HolevoForm([
    (MatrixOperator(w, np.diag([1.0, 0.0, 0.0])), StateOperator(w, np.diag([0.6, 0.4, 0.0]))),
    (MatrixOperator(w, np.diag([0.0, 1.0, 1.0])), StateOperator(w, np.diag([0.0, 0.1, 0.9]))),
])
rho = StateOperator(w, np.diag([0.3, 0.3, 0.4]))
print("\nmeasure-and-prepare output diag:",
      np.round(np.diag(holevo_apply(form, rho).entries).real, 6))

# Round trip: the Choi state of a measure-and-prepare channel decomposes
# into pure products, and the decomposition extracts back to an equivalent
# form (a different atom list, the same channel). The Choi state carries its
# channel and the reference's eigensystem through both steps. The form keeps
# each atom and prepared state as a factor, so holevo_channel builds its
# channel from the columns conj(f_n) x g_n of its rank-one Kraus vectors
# (f_n, g_n), with no block array; the dense blocks give the same Choi state.
sigma_full = StateOperator(w, 0.5 * np.eye(3) / 3 + 0.5 * np.diag([0.5, 0.3, 0.2]))
state = choi(holevo_channel(form), sigma_full)
print("\nfactored vs dense Choi state:",
      np.abs(state.entries - choi(blocks_from_holevo(form), sigma_full).entries).max())
print("reference eigenvalues (descending):", np.round(state.eigenvalues, 6))
decomposition = separable_choi_from_holevo(form, state)
extracted, residual = eb_extract(decomposition)
print("extraction residual (operator norm):", residual)
print("extracted atom count:", len(extracted.atoms), "(one per factor column pair)")

# Atomic forms synthesize rank-one Kraus families with the same action; the
# family keeps its vectors, so each |g_n><f_n| has rank one by construction.
kraus = kraus_rank_one(form)
out_difference = np.abs(kraus_apply(kraus, rho).entries
                        - holevo_apply(form, rho).entries).max()
print("\nrank-one Kraus operators:", len(kraus.operators),
      "| action residual:", out_difference)
completeness = sum(a.conj().T @ a for a in kraus.operators)
print("completeness residual:", np.abs(completeness - np.eye(3)).max())
