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
    ModeWindow,
    ProductWindow,
    PureVector,
    StateOperator,
    _at_least,
    _finite,
    basis_vector,
    factored_operator,
    factored_state,
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


def _charges(window):
    """U(1) charge of each row: k on a mode window, k1 + k2 on a product window (np.kron order)."""
    if isinstance(window, ProductWindow):
        return np.add.outer(_charges(window.left), _charges(window.right)).reshape(-1)
    return window.modes()


def _nodes(count, span=2.0 * np.pi):
    """count equispaced angles x_g = span * g / count."""
    return span * np.arange(count) / count


def _orbit(window, amplitudes, xs):
    """Row g is V_{x_g} v for v = amplitudes; amplitudes 1.0 give the phases e^{i x_g q}."""
    return np.exp(1j * np.outer(xs, _charges(window))) * amplitudes


def rotate_vector(psi, u):
    return PureVector(psi.window, _orbit(psi.window, psi.amplitudes, [u])[0])


def rotate_state(rho, u):
    ph = _orbit(rho.window, 1.0, [u])[0]
    return StateOperator(rho.window, (ph[:, None] * rho.entries) * ph.conj()[None, :])


def orbit_state(phi, u):
    """Rotated fiducial projector V_u |phi><phi| V_u*."""
    return rotate_vector(phi, u).projector()


def mu_density(channel, rho):
    """Readout density p(x_g) = <x_g| rho |x_g> over the uniform grid.

    Values are clipped at zero (round-off may dip to -DENSITY_CLIP) and
    average exactly to 1 over the grid.
    """
    if rho.window != channel.window:
        raise WindowMismatchError("state window differs from the channel window")
    phases = _orbit(channel.window, 1.0, _nodes(channel.quadrature_nodes))
    p = np.real(np.einsum("gm,mn,gn->g", phases.conj(), rho.entries, phases))
    _at_least(float(p.min()), -DENSITY_CLIP, "readout density dipped: minimum")
    return np.clip(p, 0.0, None)


def _charge_gap(window):
    """Charge table q[k, l] = k - l: rotations scale entry (k, l) by e^{iu q[k, l]}."""
    charge = _charges(window)
    return np.subtract.outer(charge, charge)


def _sector_index(charge):
    """U(1) sector of each row: its charge minus the smallest one."""
    return charge - charge.min()


def _sector_factor(charge, values):
    """Factor with one column per U(1) sector: column s holds values on the rows of sector s."""
    sector = _sector_index(charge)
    factor = np.zeros((values.size, sector.max() + 1), dtype=complex)
    factor[np.arange(values.size), sector] = values
    return factor


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
    prepared = _orbit(channel.window, channel.phi.amplitudes, _nodes(channel.quadrature_nodes))
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


def factored_channel(channel):
    """The channel as ChannelBlocks.from_factors, with one factor column per charge sector.

    The stacked matrix S[(i,k),(j,l)] = phi_k conj(phi_l) delta_{k-i, l-j}
    (channel_blocks) conserves the charge k - i of the row (i, k), so it is
    X X^dag with X[(i,k), t] = phi_k for k - i = t. Its output partial
    transpose phi_l conj(phi_k) delta_{i+k, j+l} conserves i + k, so it is
    X' X'^dag with X'[(i,k), t] = conj(phi_k) for i + k = t. Both are
    d^2 x (4K+1) with d = 2K + 1, so the channel's stacked and transposed
    operators are factored; its blocks match channel_blocks.
    """
    window = channel.window
    phi = channel.phi.amplitudes
    every_input = np.ones(window.dimension)
    stacked = _sector_factor(_charge_gap(window).T.reshape(-1), np.kron(every_input, phi))
    transposed = _sector_factor(_charges(ProductWindow(window, window)),
                                np.kron(every_input, phi.conj()))
    return ChannelBlocks.from_factors(window, window, stacked, transposed)


def holevo_form(channel):
    """Grid discretization as a measure-and-prepare form.

    POVM atoms M_g = (1/G) |chi_g><chi_g| with chi_g[k] = e^{i x_g k}
    resolve the identity exactly for G >= 2K + 1; they are kept as their
    factors chi_g / sqrt(G) (factored_operator). The prepared states are
    the rotated fiducial projectors. holevo_apply of this form coincides
    with apply_quadrature.
    """
    window, nodes = channel.window, channel.quadrature_nodes
    xs = _nodes(nodes)
    prepared = _orbit(window, channel.phi.amplitudes, xs)  # row g is V_{x_g} phi
    return HolevoForm((factored_operator(window, (chi / np.sqrt(nodes))[:, None]),
                       PureVector(window, row).projector())
                      for chi, row in zip(_orbit(window, 1.0, xs), prepared))


def rho12(phi1, phi2):
    """Simultaneous full-orbit average of a pure product state.

    Entries obey the selection rule
    phi1_{k1} conj(phi1_{l1}) phi2_{k2} conj(phi2_{l2}) delta_{k1+k2, l1+l2};
    the result is separable by construction and passes the PPT screen. It
    is the factored state whose column s is v = phi1 x phi2 restricted to
    the sector of total charge k1 + k2 = s, so every entry off the rule is
    exactly 0.
    """
    window = ProductWindow(phi1.window, phi2.window)
    factor = _sector_factor(_charges(window), np.kron(phi1.amplitudes, phi2.amplitudes))
    return factored_state(window, factor)


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
    sector = _sector_index(_charges(ProductWindow(phi1.window, phi2.window)))
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
    _finite(coeff, "sector probe coefficient")
    _finite(residual, "sector probe residual")
    if np.sqrt(residual.max()) > EPS_RANGE:
        return 0.0
    with np.errstate(over="ignore"):  # an overflow to inf returns 1 / inf = 0.0
        return 1.0 / float(np.sum(np.abs(coeff * inv_scale) ** 2))  # 1 / sum_s |c_s|^2


def rho12_n(phi1, phi2, n):
    """Partial-orbit average over [0, 2pi/n) with density n/(2pi).

    Uses a uniform rectangle rule with ceil(max(4K+1, 32) / n) points, so
    that the union of the n grids stays exact; n = 1 (at least 4K + 1
    nodes) reproduces rho12 exactly. The n rotated copies of this state
    average back to rho12 (grid union argument). The state is factored, one
    column per node.
    """
    if n < 1:
        raise InvariantViolationError("n must be a positive integer")
    half = max(phi1.window.k_max, phi2.window.k_max)
    nodes = int(np.ceil(max(4 * half + 1, 32) / n))
    window = ProductWindow(phi1.window, phi2.window)
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    rotated = _orbit(window, v, _nodes(nodes, 2.0 * np.pi / n))  # row s: V_{x_s} x V_{x_s} v
    return factored_state(window, rotated.T / np.sqrt(nodes))


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

    Each fiducial is a profile name or a callable mapping K to a
    PureVector on [-K, K]. candidates is a sequence of (alpha_profile,
    beta_profile) name pairs, materialized on each window and probed with
    rho12_probe, so each row costs O(K^2). Returns one row per (K,
    candidate); the per-K diagnostic is the maximum over candidates (see
    sweep_maxima). A shrinking trend is evidence, not proof, against
    pure-product domination in the untruncated limit.
    """
    rows = []
    for half in half_widths:
        phi1, phi2 = (p(half) if callable(p) else phi_profile(p, half)
                      for p in (profile1, profile2))
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
