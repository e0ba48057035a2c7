#!/usr/bin/env python3
"""Finite measures on state space, barycenters, and domination probes."""

import numpy as np

from eblab import (
    ProductMeasure,
    StateMeasure,
    barycenter,
    basis_vector,
    fourier_necessary_check,
    orbit_state,
    phi_profile,
    product_bound_probe,
    rho12,
    rho12_probe,
    separable_from_measure,
)

# A finitely supported measure is a list of (weight, state) atoms; its
# barycenter is the weighted average state.
phi = phi_profile("two-mode", 1)
n = 6
orbit = StateMeasure([(1.0 / n, orbit_state(phi, 2.0 * np.pi * j / n)) for j in range(n)])
avg = barycenter(orbit)
print("orbit barycenter diagonal:", np.round(np.diag(avg.entries).real, 12))
print("(phase sums cancel: the average is diag(|phi_k|^2))")

# Product measures assemble separable states.
pairs = ProductMeasure([(1.0 / 4,
                         orbit_state(phi, 2.0 * np.pi * j / 4),
                         orbit_state(phi, 2.0 * np.pi * j / 4)) for j in range(4)])
assembled = separable_from_measure(pairs)
direct = rho12(phi, phi)
print("4-point orbit assembly matches the closed-form rho12:",
      np.abs(assembled.entries - direct.entries).max() < 1e-12)

# The domination probe finds the largest eps with
# rho - eps |alpha><alpha| x |beta><beta| still positive. For the two-mode
# rho12 and the candidate |0>|0> the answer is exactly 1/4.
e0 = basis_vector(phi.window, 0)
print("\nprobe(rho12, |0>, |0>) =", product_bound_probe(direct, e0, e0))

# With all Fourier coefficients nonvanishing the probes shrink as the
# window grows: evidence that no pure product state fits under the orbit
# average in the untruncated limit.
for half in (2, 4, 8):
    geo = phi_profile("geometric(0.7)", half)
    state = rho12(geo, geo)
    eps = product_bound_probe(state, geo, geo)
    print(f"K={half}: probe(rho12, phi, phi) = {eps:.6f}  (analytic 1/(4K+1) = {1/(4*half+1):.6f})")

# rho12 is rank one in each sector of total charge k1 + k2, so the same
# bound has an O(K^2) sector form that reaches windows far past the dense one.
for half in (16, 64, 256):
    geo = phi_profile("geometric(0.7)", half)
    eps = rho12_probe(geo, geo, geo, geo)
    print(f"K={half}: rho12_probe(phi, phi, phi, phi) = {eps:.3e}  (1/(4K+1) = {1/(4*half+1):.3e})")

# A cheap necessary screen: domination forces coefficient-wise domination
# of the Fourier profiles.
alpha = basis_vector(phi.window, -1)  # two-mode phi has no weight at k = -1
print("\ncoefficient check for a candidate off the support:",
      fourier_necessary_check(phi, alpha))
