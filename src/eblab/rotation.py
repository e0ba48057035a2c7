"""Rotation-covariant measure-and-prepare channel on a symmetric mode window.

The channel is parameterized by a fiducial unit vector phi on [-K, K]:
an input state is read out along the circle through its diagonal density
p(x) = sum_{mn} rho_{mn} e^{-i x (m-n)} and re-prepared as the rotated
pure state V_x |phi>, where V_u |k> = e^{iuk} |k>. With that sign pairing
the covariance identity Phi(V_u rho V_u*) = V_u Phi(rho) V_u* holds
exactly.

Two equivalent actions are provided. The closed form uses the diagonal-sum
selection rule

    Phi(rho)_{kl} = phi_k conj(phi_l) * D_{k-l}(rho),
    D_t(rho) = sum_m rho_{m, m-t}   (indices kept inside the window),

obtained by integrating the phase e^{ix(k-l)} against p(x). The quadrature
action averages over a uniform grid of G nodes; every integrand that
appears is a trigonometric polynomial of degree at most 4K, so the
periodic rectangle rule is exact (not approximate) once G >= 4K + 1, and
the grid version serves as an independent oracle for the closed form.
Truncation of D_t at the window edge is the sole divergence from the
untruncated channel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, SchemaError, WindowMismatchError
from .hilbert import (
    EPS_RANGE,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    basis_vector,
    trace_norm_distance,
)
from .channels import ChannelBlocks, HolevoForm

DENSITY_CLIP = 1e-10  # grid densities may dip this far below zero before clipping


class RotationChannel:
    """Fiducial vector plus a quadrature grid size G >= 4K + 1 (default 4K + 2)."""

    def __init__(self, phi, quadrature_nodes=None):
        window = phi.window
        if window.k_min != -window.k_max:
            raise WindowMismatchError(
                f"rotation channel needs a symmetric window, got [{window.k_min}, {window.k_max}]")
        half = window.k_max
        nodes = 4 * half + 2 if quadrature_nodes is None else int(quadrature_nodes)
        if nodes < 4 * half + 1:
            raise InvariantViolationError(
                f"quadrature grid of {nodes} nodes is not exact; need at least {4 * half + 1}")
        self._phi = phi
        self._nodes = nodes

    @property
    def phi(self):
        return self._phi

    @property
    def window(self):
        return self._phi.window

    @property
    def half_width(self):
        return self._phi.window.k_max

    @property
    def quadrature_nodes(self):
        return self._nodes


def rotation_phases(window, u):
    """Diagonal of V_u: e^{iuk} over the window modes."""
    return np.exp(1j * u * window.modes())


def rotate_vector(psi, u):
    return PureVector(psi.window, rotation_phases(psi.window, u) * psi.amplitudes)


def rotate_state(rho, u):
    ph = rotation_phases(rho.window, u)
    rotated = (ph[:, None] * rho.entries) * ph.conj()[None, :]
    return StateOperator(rho.window, rotated)


def orbit_state(phi, u):
    """Rotated fiducial projector V_u |phi><phi| V_u*."""
    return rotate_vector(phi, u).projector()


def _grid(window, nodes):
    xs = 2.0 * np.pi * np.arange(nodes) / nodes
    phases = np.exp(1j * np.outer(xs, window.modes()))  # phases[g, k] = e^{i x_g k}
    return xs, phases


def mu_density(channel, rho):
    """Readout density p(x_g) = <x_g| rho |x_g> over the uniform grid.

    Values are clipped at zero (round-off may dip to -DENSITY_CLIP) and
    average exactly to 1 over the grid.
    """
    if rho.window != channel.window:
        raise WindowMismatchError("state window differs from the channel window")
    _, phases = _grid(channel.window, channel.quadrature_nodes)
    p = np.real(np.einsum("gm,mn,gn->g", phases.conj(), rho.entries, phases))
    low = float(p.min())
    if low < -DENSITY_CLIP:
        raise InvariantViolationError(f"readout density dipped to {low:.3e}")
    return np.clip(p, 0.0, None)


def _charge_gap(window):
    """Charge table q[k, l] = k - l: rotations scale entry (k, l) by e^{iu q[k, l]}."""
    modes = window.modes()
    return np.subtract.outer(modes, modes)


def _total_charge(phi1, phi2):
    """k1 + k2 over the product modes, in np.kron row order."""
    return np.add.outer(phi1.window.modes(), phi2.window.modes()).reshape(-1)


def _diagonal_sums(entries, gap):
    """Table of D_{k-l} over the charge table gap, with D_t = sum_m entries[m, m-t]."""
    d = entries.shape[0]
    sums = np.array([np.trace(entries, offset=-t) for t in range(-(d - 1), d)])
    return sums[gap + (d - 1)]


def apply_closed_form(channel, rho):
    """Channel action via the diagonal-sum selection rule."""
    if rho.window != channel.window:
        raise WindowMismatchError("state window differs from the channel window")
    phi = channel.phi.amplitudes
    sums = _diagonal_sums(rho.entries, _charge_gap(channel.window))
    return StateOperator(channel.window, np.outer(phi, phi.conj()) * sums)


def apply_quadrature(channel, rho):
    """Channel action via the exact uniform-grid average of rotated preparations."""
    if rho.window != channel.window:
        raise WindowMismatchError("state window differs from the channel window")
    p = mu_density(channel, rho)
    _, phases = _grid(channel.window, channel.quadrature_nodes)
    prepared = phases * channel.phi.amplitudes[None, :]  # row g is V_{x_g} phi
    weights = p / channel.quadrature_nodes
    out = (prepared * weights[:, None]).T @ prepared.conj()
    return StateOperator(channel.window, out)


def covariance_residual(channel, rho, u):
    """Trace distance between Phi(V_u rho V_u*) and V_u Phi(rho) V_u*."""
    lhs = apply_closed_form(channel, rotate_state(rho, u))
    rhs = rotate_state(apply_closed_form(channel, rho), u)
    return trace_norm_distance(lhs, rhs)


def channel_blocks(channel):
    """Block family of the channel: B[i,j]_{kl} = phi_k conj(phi_l) delta_{k-l, i-j}."""
    phi = channel.phi.amplitudes
    gap = _charge_gap(channel.window)
    blocks = (gap[:, :, None, None] == gap[None, None, :, :]) * np.outer(phi, phi.conj())
    return ChannelBlocks(channel.window, channel.window, blocks)


def holevo_form(channel):
    """Grid discretization as a measure-and-prepare form.

    POVM atoms M_g = (1/G) |chi_g><chi_g| with chi_g[k] = e^{i x_g k}
    resolve the identity exactly for G >= 2K + 1; the prepared states are
    the rotated fiducial projectors. holevo_apply of this form coincides
    with apply_quadrature.
    """
    window = channel.window
    xs, phases = _grid(window, channel.quadrature_nodes)
    atoms = []
    for g, x in enumerate(xs):
        chi = phases[g]
        m_op = MatrixOperator(window, np.outer(chi, chi.conj()) / channel.quadrature_nodes)
        atoms.append((m_op, orbit_state(channel.phi, x)))
    return HolevoForm(atoms)


def rho12(phi1, phi2):
    """Simultaneous full-orbit average of a pure product state.

    Entries obey the selection rule
    phi1_{k1} conj(phi1_{l1}) phi2_{k2} conj(phi2_{l2}) delta_{k1+k2, l1+l2};
    the result is separable by construction and passes the PPT screen.
    """
    sums = _total_charge(phi1, phi2)
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    entries = np.outer(v, v.conj()) * (sums[:, None] == sums[None, :])
    return StateOperator(ProductWindow(phi1.window, phi2.window), entries)


def rho12_probe(phi1, phi2, alpha, beta):
    """Largest eps with rho12(phi1, phi2) - eps |alpha><alpha| x |beta><beta| positive.

    rho12 = sum_s |v_s><v_s| is rank one in each sector of total charge
    k1 + k2 = s, with v = phi1 x phi2. For w = alpha x beta put
    c_s = <v_s|w_s> / |v_s|^2: w lies in the range of rho12 exactly when
    every residual |w_s - c_s v_s| is at most EPS_RANGE, and then the
    Lewenstein-Sanpera bound 1 / <w| rho12^+ |w> is 1 / sum_s |c_s|^2;
    otherwise it is 0. Each sector is scaled by the power of two just above
    its largest |v| before any square is formed; that scaling is exact, so
    nothing underflows and sectors of tiny weight are judged as exactly as
    heavy ones. If sum_s |c_s|^2 overflows, the bound is below the smallest
    double and 0.0 is returned. A fiducial pair with a nonzero |phi1_k phi2_l|
    below the smallest normal double, or a non-finite intermediate, raises
    InvariantViolationError. Runs in O(K^2); the dense matrix is never built.
    """
    if alpha.window != phi1.window or beta.window != phi2.window:
        raise WindowMismatchError("candidate vectors must match the fiducial windows")
    smallest = [np.abs(p.amplitudes[p.amplitudes != 0]).min() for p in (phi1, phi2)]
    if smallest[0] * smallest[1] < np.finfo(float).tiny:
        raise InvariantViolationError("fiducial amplitude products leave the normal double range")
    charge = _total_charge(phi1, phi2)
    sector = charge - charge.min()
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    w = np.kron(alpha.amplitudes, beta.amplitudes)
    peak = np.zeros(sector.max() + 1)
    np.maximum.at(peak, sector, np.abs(v))
    inv_scale = np.ldexp(1.0, -np.frexp(peak)[1])  # a power of two, so scaling is exact
    u = v * inv_scale[sector]
    weight = np.bincount(sector, np.abs(u) ** 2)
    products = u.conj() * w
    overlap = np.bincount(sector, products.real) + 1j * np.bincount(sector, products.imag)
    coeff = np.divide(overlap, weight, out=np.zeros_like(overlap), where=weight > 0.0)
    residual = np.bincount(sector, np.abs(w - coeff[sector] * u) ** 2)
    if not (np.isfinite(coeff).all() and np.isfinite(residual).all()):
        raise InvariantViolationError("sector probe produced a non-finite intermediate")
    if np.sqrt(residual.max()) > EPS_RANGE:
        return 0.0
    with np.errstate(over="ignore"):  # an overflow to inf returns 1 / inf = 0.0
        return 1.0 / float(np.sum(np.abs(coeff * inv_scale) ** 2))  # 1 / sum_s |c_s|^2


def default_subinterval_nodes(half_width, n):
    """ceil(max(4K+1, 32) / n) nodes per subinterval; union grid stays exact."""
    return int(np.ceil(max(4 * half_width + 1, 32) / n))


def rho12_n(phi1, phi2, n, subinterval_nodes=None):
    """Partial-orbit average over [0, 2pi/n) with density n/(2pi).

    Uses a uniform rectangle rule with subinterval_nodes points; n = 1 with
    at least 4K + 1 nodes reproduces rho12 exactly. The n rotated copies of
    this state average back to rho12 (grid union argument).
    """
    if n < 1:
        raise InvariantViolationError("n must be a positive integer")
    half = max(phi1.window.k_max, phi2.window.k_max)
    nodes = default_subinterval_nodes(half, n) if subinterval_nodes is None else int(subinterval_nodes)
    xs = (2.0 * np.pi / n) * np.arange(nodes) / nodes
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    rotated = np.exp(1j * np.outer(xs, _total_charge(phi1, phi2))) * v  # row s: V_{x_s} x V_{x_s} v
    out = rotated.T @ rotated.conj() / nodes
    return StateOperator(ProductWindow(phi1.window, phi2.window), out)


_PROFILE_RE = re.compile(r"^([a-z-]+)(?:\(([^()]*)\))?$")


def phi_profile(spec, half_width):
    """Named fiducial-vector profiles on the window [-K, K].

    two-mode        equal weight on modes 0 and 1
    geometric(r)    amplitudes r^|k|, 0 < r < 1
    uniform         equal amplitudes on the full window
    uniform(J)      equal amplitudes on [-J, J], J <= K
    mode(j)         single basis mode j
    """
    window = ModeWindow.symmetric(half_width)
    match = _PROFILE_RE.match(spec.strip())
    if match is None:
        raise SchemaError(f"unrecognized profile {spec!r}")
    name, arg = match.group(1), match.group(2)
    if name == "two-mode":
        if arg is not None:
            raise SchemaError("two-mode takes no argument")
        if half_width < 1:
            raise SchemaError("two-mode needs a window with K >= 1")
        amps = np.zeros(window.dimension)
        amps[window.index(0)] = 1.0
        amps[window.index(1)] = 1.0
        return PureVector(window, amps)
    if name == "geometric":
        try:
            ratio = float(arg)
        except (TypeError, ValueError):
            raise SchemaError("geometric(r) needs a numeric ratio") from None
        if not 0.0 < ratio < 1.0:
            raise SchemaError(f"geometric ratio must be in (0, 1), got {ratio}")
        return PureVector(window, ratio ** np.abs(window.modes()))
    if name == "uniform":
        sub = half_width if arg is None else int(arg)
        if not 0 <= sub <= half_width:
            raise SchemaError(f"uniform({sub}) does not fit in [-{half_width}, {half_width}]")
        amps = np.zeros(window.dimension)
        inner = np.abs(window.modes()) <= sub
        amps[inner] = 1.0
        return PureVector(window, amps)
    if name == "mode":
        try:
            k = int(arg)
        except (TypeError, ValueError):
            raise SchemaError("mode(j) needs an integer mode") from None
        return basis_vector(window, k)
    raise SchemaError(f"unknown profile name {name!r}")


@dataclass(frozen=True)
class ProbeSweepRow:
    half_width: int
    candidate: str
    eps_max: float


def decomposability_probe_sweep(profile1, profile2, half_widths, candidates):
    """Exact domination bounds of rho12 across window sizes.

    candidates is a sequence of (alpha_profile, beta_profile) name pairs,
    materialized on each window and probed with rho12_probe, so each row
    costs O(K^2). Returns one row per (K, candidate); the per-K diagnostic
    is the maximum over candidates (see sweep_maxima). A shrinking trend
    is evidence, not proof, against pure-product domination in the
    untruncated limit.
    """
    rows = []
    for half in half_widths:
        phi1 = phi_profile(profile1, half)
        phi2 = phi_profile(profile2, half)
        for alpha_spec, beta_spec in candidates:
            eps = rho12_probe(phi1, phi2, phi_profile(alpha_spec, half),
                              phi_profile(beta_spec, half))
            rows.append(ProbeSweepRow(half, f"{alpha_spec}|{beta_spec}", eps))
    return rows


def sweep_maxima(rows):
    """Per-window maxima of eps over candidates, keyed by half width."""
    out = {}
    for row in rows:
        out[row.half_width] = max(out.get(row.half_width, 0.0), row.eps_max)
    return out
