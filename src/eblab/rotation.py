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
periodic rectangle rule is exact (not approximate) once G >= 4K + 1, K
fixes the grid (grid_nodes), and the grid version is an independent
oracle for the closed form.
Truncation of D_t at the window edge is the sole divergence from the
untruncated channel.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvariantViolationError, SchemaError, WindowMismatchError
from .hilbert import (
    EPS_RANGE,
    ModeWindow,
    ProductWindow,
    PureVector,
    SectorFactor,
    StateOperator,
    _Frozen,
    _at_least,
    _difference_eigenvalues,
    _finite,
    _init_factored,
    _unit_columns,
    basis_vector,
    trace_norm_distance,
)
from .channels import ChannelBlocks, HolevoForm

DENSITY_CLIP = 1e-10  # grid densities may dip this far below zero before clipping


def grid_nodes(half_width):
    """Nodes of the channel's quadrature grid on [-K, K]: 4K + 2, past the exact 4K + 1."""
    return 4 * half_width + 2


class RotationChannel:
    """The channel of a fiducial vector on a symmetric window; K fixes its quadrature grid."""

    def __init__(self, phi):
        window = phi.window
        if window.k_min != -window.k_max:
            raise WindowMismatchError(
                f"rotation channel needs a symmetric window, got [{window.k_min}, {window.k_max}]")
        self._phi = phi

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
        return grid_nodes(self.half_width)


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
    p = np.real(((phases.conj() @ rho.entries) * phases).sum(1))
    _at_least(float(p.min()), -DENSITY_CLIP, "readout density dipped: minimum")
    return np.clip(p, 0.0, None)


def _charge_gap(window):
    """Charge table q[k, l] = k - l: rotations scale entry (k, l) by e^{iu q[k, l]}."""
    charge = _charges(window)
    return np.subtract.outer(charge, charge)


def _sector_index(charge):
    """U(1) sector of each row: its charge minus the smallest one."""
    return charge - charge.min()


def _sector_factor(left, right, u, v):
    """The SectorFactor of u x v with one column per U(1) sector, for the row charges left[i] + q_k.

    q_k is mode k of the window right, so row (i, k) lies in sector left[i] - min(left) + k.
    """
    low = int(left.min())
    return SectorFactor(left - low, np.asarray(u, dtype=complex), np.asarray(v, dtype=complex),
                        low + right.k_min)


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
    X X^dag with X[(i,k), t] = phi_k for k - i = t: d^2 x (4K+1) with
    d = 2K + 1, stored as the sector factor of 1 x phi on the left charges
    -i. from_factors derives the output partial transpose's factor, of
    conj(phi_k) for i + k = t, as its mirror, so the channel's stacked and
    transposed operators are factored; its blocks match channel_blocks.
    """
    window = channel.window
    return ChannelBlocks.from_factors(window, window, _sector_factor(
        -_charges(window), window, np.ones(window.dimension), channel.phi.amplitudes))


def holevo_form(channel):
    """Grid discretization as a measure-and-prepare form.

    POVM atoms M_g = (1/G) |chi_g><chi_g| with chi_g[k] = e^{i x_g k}
    resolve the identity exactly for G >= 2K + 1; they are kept as their
    vectors chi_g / sqrt(G) (HolevoForm.rank_one). The prepared states are
    the rotated fiducials V_{x_g} phi, in node order, each normalized as a
    PureVector. holevo_apply of this form coincides with apply_quadrature.
    """
    window, nodes = channel.window, channel.quadrature_nodes
    phases = _orbit(window, 1.0, _nodes(nodes))  # row g is chi_g
    return HolevoForm.rank_one(window, window, phases.T / np.sqrt(nodes),
                               _unit_columns((phases * channel.phi.amplitudes).T))


def rho12(phi1, phi2):
    """Simultaneous full-orbit average of a pure product state.

    Entries obey the selection rule
    phi1_{k1} conj(phi1_{l1}) phi2_{k2} conj(phi2_{l2}) delta_{k1+k2, l1+l2};
    the result is separable by construction and passes the PPT screen. It
    is the factored state whose column s is v = phi1 x phi2 restricted to
    the sector of total charge k1 + k2 = s, so every entry off the rule is
    exactly 0.
    """
    factor = _sector_factor(_charges(phi1.window), phi2.window, phi1.amplitudes, phi2.amplitudes)
    return _init_factored(StateOperator, ProductWindow(phi1.window, phi2.window), factor)


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
    InvariantViolationError. It walks rho12's sector rows and forms alpha x
    beta row by row, alpha[i] beta: O(K^2) time and O(K) memory.
    """
    if alpha.window != phi1.window or beta.window != phi2.window:
        raise WindowMismatchError("candidate vectors must match the fiducial windows")
    smallest = [np.abs(p.amplitudes[p.amplitudes != 0]).min() for p in (phi1, phi2)]
    if smallest[0] * smallest[1] < np.finfo(float).tiny:
        raise InvariantViolationError("fiducial amplitude products leave the normal double range")
    v = rho12(phi1, phi2).sectors  # row i is phi1[i] phi2
    peak = np.zeros(v.width)
    for _, cols, row in v.walk():
        np.maximum(peak[cols], np.abs(row), out=peak[cols])
    inv_scale = np.ldexp(1.0, -np.frexp(peak)[1])  # a power of two, so scaling is exact
    a, b = alpha.amplitudes, beta.amplitudes
    _, coeff, residual = v.projection(lambda i, cols, row: row * inv_scale[cols],
                                      lambda i, cols, row: a[i] * b)  # row i of alpha x beta
    _finite(coeff, "sector probe coefficient")
    _finite(residual, "sector probe residual")
    if np.sqrt(residual.max()) > EPS_RANGE:
        return 0.0
    with np.errstate(over="ignore"):  # an overflow to inf returns 1 / inf = 0.0
        return 1.0 / float(np.sum(np.abs(coeff * inv_scale) ** 2))  # 1 / sum_s |c_s|^2


def _partial_orbit_nodes(sectors, n):
    """Nodes of rho12_n's grid on [0, 2pi/n) for S sectors: ceil(max(S, 32) / n), refusing n < 1."""
    if n < 1:
        raise InvariantViolationError("n must be a positive integer")
    return int(np.ceil(max(sectors, 32) / n))


def rho12_n(phi1, phi2, n):
    """The N-node left-endpoint rectangle rule of the partial-orbit average over [0, 2pi/n).

    Column g of its factor is V_{x_g} x V_{x_g} (phi1 x phi2) / sqrt(N) at
    x_g = 2 pi g / (n N), N = ceil(max(S, 32) / n) for the S total charges
    k1 + k2. At n = 1 (N >= S nodes) it is rho12 exactly, and the average of
    its n copies rotated by 2 pi j / n is exactly rho12 for every n. At n >= 2
    it is not the integral: two-mode, K = 1, n = 2 is 0.654502 from the
    product state with 16 nodes, against 0.684212 for the integral.
    """
    window = ProductWindow(phi1.window, phi2.window)
    nodes = _partial_orbit_nodes(int(np.ptp(_charges(window))) + 1, n)
    v = np.kron(phi1.amplitudes, phi2.amplitudes)
    rotated = _orbit(window, v, _nodes(nodes, 2.0 * np.pi / n))  # row g: V_{x_g} x V_{x_g} v
    return _init_factored(StateOperator, window, rotated.T / np.sqrt(nodes))


def rho12_n_distance(state, n):
    """Trace distance from rho12_n(phi1, phi2, n) to |phi1 phi2><phi1 phi2|, for rho12(phi1, phi2).

    With v = phi1 x phi2 and N nodes, rho12_n's factor is B D E and the
    product state's is B D 1: B puts each sector's part of v, normalized,
    into its own column, D = diag(|v_s|) and E[s, g] = e^{i x_g q_s} / sqrt(N)
    for the sector of total charge q_s. B is an isometry on the sectors where
    v is nonzero, so the difference has the nonzero eigenvalues of the
    S-row factors [D E, D 1] over the S sectors of state's sector factor,
    which holds |v_s| and q_s; no d^2-row array is built. A state with no
    sector factor raises InvariantViolationError.
    """
    v = state.sectors  # the product phi1 x phi2
    if v is None:
        raise InvariantViolationError("rho12_n_distance needs rho12's sector factor")
    nodes = _partial_orbit_nodes(v.width, n)
    weight = np.sqrt(v.norms())  # |v_s|
    sectors = ModeWindow(v.first, v.first + v.width - 1)  # the total charges q_s
    rotated = _orbit(sectors, weight, _nodes(nodes, 2.0 * np.pi / n))  # row g: e^{i x_g q} |v_q|
    joined = np.hstack([rotated.T / np.sqrt(nodes), weight[:, None]])
    return 0.5 * float(np.abs(_difference_eigenvalues(joined, nodes)).sum())


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
        try:
            sub = half_width if arg is None else int(arg)
        except ValueError:
            raise SchemaError("uniform(J) needs an integer half width") from None
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


class ProbeSweepRow(_Frozen):
    """One row of the probe sweep: window half width, candidate id, domination bound."""

    __slots__ = ("half_width", "candidate", "eps_max")


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
