"""Independent brute-force oracles used to freeze expected values.

Everything here is written with explicit loops and raw numpy, on purpose:
these routines must not share code paths with the library they check.
"""

import json

import numpy as np


def map_blocks(fn, d_in, d_out):
    """The block family B[i, j] = fn(|i><j|) of a linear map, fed one matrix unit at a time."""
    blocks = np.zeros((d_in, d_in, d_out, d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            blocks[i, j] = fn(unit)
    return blocks


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

    An operator (anything with entries) is written as its dense entries. A
    complex 2-D array is walked cell by cell as [re, im] pairs; keys and
    strings go through json.dumps. Non-finite numbers raise ValueError.
    """
    if hasattr(obj, "entries"):
        obj = obj.entries
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


def orbit_outputs(phi_amps, modes, grid):
    """Rows V_{2 pi j / grid} phi, one per grid phase."""
    return np.array([np.exp(1j * (2.0 * np.pi * j / grid) * np.asarray(modes, dtype=float))
                     * phi_amps for j in range(grid)])


def ba_pure_outputs(outputs, max_iter=10000, tol=1e-9, support=1e-12):
    """Blahut-Arimoto weight iteration over a fixed family of pure outputs.

    outputs rows are output amplitude vectors. Holevo quantities of pure
    output families reduce to the mixture entropy, and the update
    w_j <- w_j exp(D(psi_j || rho_bar)) / Z yields a non-decreasing value
    sequence with the duality bracket max_j D_j - chi as the stopping
    certificate. Eigenvalues at or below support are dropped. Returns
    (chi, iterations, converged, iterate values).
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
        keep = vals > support
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


def flat_sector_table(factor):
    """The sector offset[i] + k and the value u[i] v[k] of each row (i, k) of a sector factor.

    Both are d-long, as SectorFactor's readers built them before they
    walked the input rows.
    """
    sector = (factor.offset[:, None] + np.arange(len(factor.v))).reshape(-1)
    return sector, np.kron(factor.u, factor.v)


def flat_sector_norms(factor):
    """|x_s|^2 of a sector factor's own rows, by one bincount over the flat table."""
    sector, values = flat_sector_table(factor)
    return np.bincount(sector, np.abs(values) ** 2, factor.width)


def flat_projection(factor, x, w):
    """(|x_s|^2, c_s, |w_s - c_s x_s|^2) per sector of two flat d-vectors, by bincount and add.at."""
    sector, _ = flat_sector_table(factor)
    width = factor.width
    norms = np.bincount(sector, np.abs(x) ** 2, width)
    overlap = np.zeros(width, dtype=complex)
    np.add.at(overlap, sector, x.conj() * w)
    c = np.divide(overlap, norms, out=np.zeros_like(overlap), where=norms > 0.0)
    return norms, c, np.bincount(sector, np.abs(w - c[sector] * x) ** 2, width)


def flat_rho12_probe(factor, alpha, beta, range_tol=1e-10):
    """The sector probe of rho12's sector factor on its flat tables, for candidate alpha x beta.

    Each sector is scaled by the power of two just above its largest |v|,
    the candidate is np.kron(alpha, beta), and the bound is 1 / sum |c_s|^2
    when every residual is at most range_tol, else 0.
    """
    sector, x = flat_sector_table(factor)
    peak = np.zeros(factor.width)
    np.maximum.at(peak, sector, np.abs(x))
    inv_scale = np.ldexp(1.0, -np.frexp(peak)[1])
    x *= inv_scale[sector]
    _, coeff, residual = flat_projection(factor, x, np.kron(alpha, beta))
    if np.sqrt(residual.max()) > range_tol:
        return 0.0
    with np.errstate(over="ignore"):
        return 1.0 / float(np.sum(np.abs(coeff * inv_scale) ** 2))


def qr_difference_norms(left, right, factor, rows=4096):
    """Operator and trace norms of K K^dag - X X^dag, K = Khatri-Rao(left, right), X a sector factor.

    The nonzero eigenvalues are those of R J R^dag for the R of one QR of
    [K, X] (J = +1 on K's columns, -1 on X's), taken here a block of about
    `rows` rows at a time (tall-skinny QR: R of [R; next block]), so no
    d_in d_out-row array is held. Every row is built from its definition.
    """
    n, width, d_out = right.shape[1], factor.width, len(right)
    r = np.zeros((0, n + width), dtype=complex)
    step = max(1, rows // d_out)
    for start in range(0, len(left), step):
        block = np.zeros((0, n + width), dtype=complex)
        for i in range(start, min(start + step, len(left))):
            rows_i = np.zeros((d_out, n + width), dtype=complex)
            for k in range(d_out):
                rows_i[k, :n] = left[i] * right[k]
                rows_i[k, n + factor.offset[i] + k] = factor.u[i] * factor.v[k]
            block = np.vstack([block, rows_i])
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    diff = (r * np.concatenate([np.ones(n), -np.ones(width)])) @ r.conj().T
    magnitudes = np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))
    return float(magnitudes.max()), float(magnitudes.sum())
