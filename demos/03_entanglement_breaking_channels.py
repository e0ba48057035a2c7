#!/usr/bin/env python3
"""Channel blocks, Choi states, the PPT screen, and measure-and-prepare forms."""

import numpy as np

from eblab import (
    ChannelBlocks,
    HolevoForm,
    MatrixOperator,
    ModeWindow,
    StateOperator,
    choi,
    cp_check,
    eb_extract,
    eb_necessary_test,
    holevo_apply,
    holevo_channel,
    separable_choi_from_holevo,
)

w = ModeWindow(0, 2)
rng = np.random.default_rng(3)

# A channel is pinned down by its blocks B[i, j] = Phi(|i><j|); complete
# positivity is the positivity of the stacked block matrix. The identity
# has B[i, j] = |i><j|, the transposition map |j><i|.
eye = np.eye(w.dimension)
identity = ChannelBlocks(w, w, np.einsum("ik,jl->ijkl", eye, eye))
transposition = ChannelBlocks(w, w, np.einsum("il,jk->ijkl", eye, eye))
print("identity channel cp:", cp_check(identity))
print("transposition map cp:", cp_check(transposition), "(swap spectrum: not a channel)")

# The Choi state over a full-rank reference separates the entanglement-
# breaking candidates from the rest: the identity fails PPT, a constant
# channel Phi(A) = Tr(A) target (B[i, j] = delta_ij target) passes.
sigma = StateOperator.maximally_mixed(w)
print("\nidentity channel PPT:", eb_necessary_test(choi(identity, sigma)))
target = StateOperator(w, np.diag([0.5, 0.3, 0.2]))
constant = ChannelBlocks(w, w, np.einsum("ij,kl->ijkl", eye, target.entries))
print("constant channel PPT:", eb_necessary_test(choi(constant, sigma)))

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
# (f_n, g_n), with no block array; the dense blocks
# B[i, j] = sum_b (M_b)_ji rho'_b give the same Choi state.
sigma_full = StateOperator(w, 0.5 * np.eye(3) / 3 + 0.5 * np.diag([0.5, 0.3, 0.2]))
state = choi(holevo_channel(form), sigma_full)
povm, prepared = (np.stack([op.entries for op in side]) for side in zip(*form.atoms))
dense = ChannelBlocks(w, w, np.einsum("bji,bkl->ijkl", povm, prepared))
print("\nfactored vs dense Choi state:",
      np.abs(state.entries - choi(dense, sigma_full).entries).max())
print("reference eigenvalues (descending):", np.round(state.eigenvalues, 6))
decomposition = separable_choi_from_holevo(form, state)
extracted, residual = eb_extract(decomposition)
print("extraction residual (operator norm):", residual)
print("extracted atom count:", len(extracted.atoms), "(one per factor column pair)")

# The form is its rank-one Kraus family |g_n><f_n| (Horodecki-Shor-Ruskai):
# it keeps the vectors, so each operator has rank one by construction, and
# holevo_apply is G diag(<f_n|rho|f_n>) G^dag, the per-atom sum
# sum_b Tr(rho M_b) rho'_b read off the pairs.
per_atom = StateOperator(w, sum(float(np.trace(rho.entries @ m_op.entries).real)
                                * rho_out.entries for m_op, rho_out in form.atoms))
out_difference = np.abs(holevo_apply(form, rho).entries - per_atom.entries).max()
print("\nrank-one Kraus operators:", len(form.operators),
      "| action residual:", out_difference)
completeness = sum(a.conj().T @ a for a in form.operators)
print("completeness residual:", np.abs(completeness - np.eye(3)).max())
