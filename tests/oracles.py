"""Independent brute-force oracles used to freeze expected values.

Everything here is written with explicit loops and raw numpy, on purpose:
these routines must not share code paths with the library they check.
"""

import json

import numpy as np


def rotation_matrix(modes, x):
    """Dense V_x = diag(e^{ixk}) over explicit mode labels."""
    return np.diag(np.exp(1j * x * np.asarray(modes, dtype=float)))


def grid_channel_apply(phi_amps, modes, rho, nodes):
    """Channel action summed node by node with dense rotation matrices.

    The readout weight is kept complex, so the sum is linear on any matrix
    (matrix units included), not only on Hermitian ones.
    """
    proj = np.outer(phi_amps, phi_amps.conj())
    out = np.zeros_like(proj)
    for g in range(nodes):
        x = 2.0 * np.pi * g / nodes
        v = rotation_matrix(modes, x)
        chi = np.diag(v)  # <x|k> conj: p(x) = chi^dag rho chi
        p = complex(chi.conj() @ rho @ chi)
        out = out + p * (v @ proj @ v.conj().T) / nodes
    return out


def grid_mu_density(rho, modes, x):
    """p(x) = sum_{mn} rho_{mn} e^{-ix(m-n)} by explicit double loop."""
    total = 0.0 + 0.0j
    for a, m in enumerate(modes):
        for b, n in enumerate(modes):
            total += rho[a, b] * np.exp(-1j * x * (m - n))
    return float(total.real)


def grid_orbit_average(phi_amps, modes, nodes):
    """(1/G) sum_g V_{x_g} |phi><phi| V_{x_g}^dag."""
    proj = np.outer(phi_amps, phi_amps.conj())
    out = np.zeros_like(proj)
    for g in range(nodes):
        v = rotation_matrix(modes, 2.0 * np.pi * g / nodes)
        out = out + v @ proj @ v.conj().T / nodes
    return out


def grid_rho12(phi1, modes1, phi2, modes2, nodes):
    """Simultaneous orbit average of the pure product state on a grid."""
    dim = len(phi1) * len(phi2)
    out = np.zeros((dim, dim), dtype=complex)
    for g in range(nodes):
        x = 2.0 * np.pi * g / nodes
        a = np.exp(1j * x * np.asarray(modes1)) * phi1
        b = np.exp(1j * x * np.asarray(modes2)) * phi2
        v = np.kron(a, b)
        out = out + np.outer(v, v.conj()) / nodes
    return out


def rho12_n_loop(phi1, modes1, phi2, modes2, n, nodes):
    """Partial-orbit average over [0, 2pi/n), one rotated product vector per node."""
    out = 0.0
    for s in range(nodes):
        x = (2.0 * np.pi / n) * s / nodes
        v = np.kron(np.exp(1j * x * np.asarray(modes1)) * phi1,
                    np.exp(1j * x * np.asarray(modes2)) * phi2)
        out = out + np.outer(v, v.conj()) / nodes
    return out


def partial_trace_loops(rho, d1, d2, side):
    """Element-wise partial trace with index arithmetic only."""
    if side == "first":
        out = np.zeros((d2, d2), dtype=complex)
        for k in range(d2):
            for l in range(d2):
                for m in range(d1):
                    out[k, l] += rho[m * d2 + k, m * d2 + l]
        return out
    out = np.zeros((d1, d1), dtype=complex)
    for k in range(d1):
        for l in range(d1):
            for m in range(d2):
                out[k, l] += rho[k * d2 + m, l * d2 + m]
    return out


def domination_bound(rho, vector, range_tol=1e-10):
    """Largest eps with rho - eps |v><v| >= 0, by pseudo-inverse.

    Equals 1 / <v| rho^+ |v> when v lies in the range of rho, else 0.
    """
    v = np.asarray(vector, dtype=complex)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > 1e-12
    coords = vecs.conj().T @ v
    outside = float(np.linalg.norm(coords[~keep]))
    if outside > range_tol:
        return 0.0
    quad = float(np.real(np.sum(np.abs(coords[keep]) ** 2 / vals[keep])))
    return 1.0 / quad


def scalar_entropy(probabilities):
    """Plain -sum p log p with explicit accumulation."""
    total = 0.0
    for p in probabilities:
        if p > 0.0:
            total -= p * np.log(p)
    return total


def scalar_relative_entropy(p, q):
    """Classical KL divergence in nats; +inf off support."""
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0 and b <= 0.0:
            return float("inf")
        if a > 0.0:
            total += a * (np.log(a) - np.log(b))
    return total


def selection_rule_rho12(phi1, modes1, phi2, modes2):
    """rho12 entry by entry: v_i conj(v_j) where the total charges agree, else 0."""
    v = np.kron(phi1, phi2)
    charge = [k1 + k2 for k1 in modes1 for k2 in modes2]
    out = np.zeros((len(v), len(v)), dtype=complex)
    for i in range(len(v)):
        for j in range(len(v)):
            if charge[i] == charge[j]:
                out[i, j] = v[i] * np.conj(v[j])
    return out


def per_cell_json(obj):
    """Canonical JSON text written one number at a time with format(v, ".17g").

    A complex 2-D array is walked cell by cell as [re, im] pairs; keys and
    strings go through json.dumps. Non-finite numbers raise ValueError.
    """
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + per_cell_json(v) for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        obj = [[[z.real, z.imag] for z in row] for row in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(per_cell_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite number {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot write {type(obj).__name__}")
