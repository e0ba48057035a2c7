#!/usr/bin/env python3
"""The rotation-covariant channel: closed form, quadrature, and orbit averages."""

import numpy as np

from eblab import (
    RotationChannel,
    StateOperator,
    apply_closed_form,
    apply_quadrature,
    channel_blocks,
    choi,
    covariance_residual,
    eb_necessary_test,
    mu_density,
    phi_profile,
    rho12,
    rho12_n,
    tensor,
    trace_norm_distance,
)

phi = phi_profile("two-mode", 1)
channel = RotationChannel(phi)

# The readout density of a state: diagonal states are flat, coherences
# produce harmonics.
rho = phi.projector()
p = mu_density(channel, rho)
print("readout density of (|0>+|1>)/sqrt(2) at the first nodes:", np.round(p[:4], 6))
print("(analytically 1 + cos x)")

# Closed form and quadrature are the same map; the grid is exact because
# every integrand is a trigonometric polynomial of bounded degree.
out_closed = apply_closed_form(channel, rho)
out_grid = apply_quadrature(channel, rho)
print("\nchannel output block:", np.round(out_closed.entries.real[1:, 1:], 4))
print("closed form vs quadrature residual:",
      np.abs(out_closed.entries - out_grid.entries).max())

# Rotation covariance holds exactly under the fixed phase convention.
rng = np.random.default_rng(4)
residuals = [covariance_residual(channel, rho, u) for u in rng.uniform(0, 2 * np.pi, 5)]
print("covariance residuals:", [format(r, ".2e") for r in residuals])

# The channel is entanglement breaking; its Choi state passes the PPT screen.
blocks = channel_blocks(channel)
sigma = StateOperator.maximally_mixed(channel.window)
print("rotation channel Choi PPT:", eb_necessary_test(choi(blocks, sigma)))

# Simultaneous orbit averaging of a pure product state: the result keeps
# only coherences with matched total mode, and partial-interval averages
# approach the product state as the interval shrinks.
state = rho12(phi, phi)
print("\nrho12 eigenvalues:", np.round(np.linalg.eigvalsh(state.entries), 6))
product = StateOperator.from_operator(tensor(phi.projector(), phi.projector()))
print("distance of partial-orbit averages to the product state:")
for n in (1, 2, 4, 8, 16, 32):
    d = trace_norm_distance(rho12_n(phi, phi, n), product)
    print(f"  n={n:>2}: {d:.6f}")
print("(note the rise at n=2: the one-sided interval offsets the orbit center)")
