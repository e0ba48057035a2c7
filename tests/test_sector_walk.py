"""A sector factor's readers walk its input rows and give the bits of the flat sums they replace.

hilbert.SectorFactor.walk() hands out each input row i with its contiguous
sector slice offset[i] : offset[i] + len(v), and every reader sums each
sector's terms along it in row order, which is the order in which a
bincount or np.add.at over the d-long flat tables sums them. So each reader
equals its flat oracle in tests/oracles.py bit for bit, with == and no
tolerance: the projection, the sector norms (rho12_n_distance's weights),
the adjoint and rho12_probe. rho12_probe holds O(K) numbers: at K = 990 it
traces under 5 MB (slow tier), where the flat tables took 283 MB.
channels._sector_difference reads K's columns demodulated, not row by row;
its bounds bracket the norms of a chunked QR of the same factors.
"""

import tracemalloc

import numpy as np
import pytest

from eblab import (ModeWindow, PureVector, RotationChannel, StateOperator, choi, eb_extract,
                   factored_channel, holevo_form, phi_profile, separable_choi_from_holevo)
from eblab.channels import _sector_difference
from eblab.hilbert import SectorFactor
from eblab.rotation import rho12, rho12_probe
from oracles import (flat_adjoint, flat_projection, flat_rho12_probe, flat_sector_norms,
                     qr_difference_norms)


def same_bits(a, b):
    """Whether two results are equal bit for bit, -0.0 and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_factor(rng):
    """A SectorFactor with random offsets (repeats allowed), random u and v, zeros among them."""
    d_in, d_out = rng.integers(1, 12, size=2)
    offset = rng.integers(0, 2 * d_in, size=d_in)
    u, v = complex_normal(rng, d_in), complex_normal(rng, d_out)
    u[rng.random(d_in) < 0.2] = 0.0
    v[rng.random(d_out) < 0.2] = 0.0
    return SectorFactor(offset, u, v, int(offset.max()) + d_out, 0)


def test_the_walk_and_dense_put_row_i_k_in_sector_offset_i_plus_k():
    factor = random_factor(np.random.default_rng(1))
    n, values = len(factor.v), np.kron(factor.u, factor.v)
    want = np.zeros(factor.shape, dtype=complex)
    for i, first in enumerate(factor.offset):
        for k in range(n):
            want[i * n + k, first + k] = values[i * n + k]
    assert same_bits(factor.dense(), want)
    for i, cols, row in factor.walk():
        assert same_bits(want[i * n:(i + 1) * n, cols], np.diag(row))


def test_the_projection_norms_and_adjoint_are_the_flat_sums_bit_for_bit():
    rng = np.random.default_rng(33)
    for _ in range(100):
        factor = random_factor(rng)
        d_in, d_out = len(factor.u), len(factor.v)
        x, w = complex_normal(rng, d_in * d_out), complex_normal(rng, d_in * d_out)
        x[rng.random(x.size) < 0.1] = 0.0
        rows_x, rows_w = x.reshape(d_in, d_out), w.reshape(d_in, d_out)
        walked = factor.projection(lambda i, cols, row: rows_x[i], lambda i, cols, row: rows_w[i])
        assert all(same_bits(a, b) for a, b in zip(walked, flat_projection(factor, x, w)))
        assert same_bits(factor.norms(), flat_sector_norms(factor))
        probes = complex_normal(rng, d_in * d_out, 3)
        assert same_bits(factor.adjoint(probes), flat_adjoint(factor, probes))


def z_family(phi, z):
    """The in-range candidate z^k phi_k, normalized."""
    return PureVector(phi.window, z ** phi.window.modes() * phi.amplitudes)


def assert_probe_is_flat(phi1, phi2, alpha, beta):
    eps = rho12_probe(phi1, phi2, alpha, beta)
    assert same_bits(eps, flat_rho12_probe(rho12(phi1, phi2).sectors, alpha.amplitudes,
                                           beta.amplitudes))
    return eps


def test_rho12_probe_is_the_flat_probe_bit_for_bit_on_random_pairs():
    rng = np.random.default_rng(427)
    in_range = 0
    for _ in range(120):
        windows = [ModeWindow.symmetric(int(h)) for h in rng.integers(1, 25, size=2)]
        phi1, phi2 = (PureVector(w, complex_normal(rng, w.dimension)) for w in windows)
        z = rng.uniform(0.8, 1.25) * np.exp(2j * np.pi * rng.random())
        in_range += assert_probe_is_flat(phi1, phi2, z_family(phi1, z), z_family(phi2, z)) > 0.0
        alpha, beta = (PureVector(w, complex_normal(rng, w.dimension)) for w in windows)
        assert_probe_is_flat(phi1, phi2, alpha, beta)
    assert in_range == 120


@pytest.mark.parametrize("half", [3, 50, 200])
def test_rho12_probe_is_the_flat_probe_bit_for_bit_on_the_named_candidates(half):
    names = ["geometric(0.7)", "uniform", "uniform(2)", "mode(0)", "two-mode", "geometric(0.5)"]
    profiles = {name: phi_profile(name, half) for name in names}
    for fiducial in ("geometric(0.7)", "uniform", "two-mode"):
        phi = profiles[fiducial]
        for alpha in names:
            for beta in names:
                assert_probe_is_flat(phi, phi, profiles[alpha], profiles[beta])


def rescaled(left, right, h):
    """The column pairs left[:, g] h[g], right[:, g] / h[g]: the same Kraus columns, rounded anew."""
    return left * h, right / h


@pytest.mark.parametrize("half", [1, 2, 4, 8, pytest.param(128, marks=pytest.mark.slow)])
def test_sector_difference_brackets_the_qr_norms(half):
    # the extraction's own columns (the grid form), the same columns with each pair
    # rescaled by a random h[g] of random modulus and phase, and the same with the
    # shifted charge split h[g] = e^{3 i x_g}: each bound is at least the QR norm of the
    # same factors, and at most 20 times it or 1e-13. Columns moved off the grid form
    # by 1e-3 need only be bounded
    rng = np.random.default_rng(half)
    d = 2 * half + 1
    phi = PureVector(ModeWindow.symmetric(half), complex_normal(rng, d))
    channel = RotationChannel(phi)
    form = holevo_form(channel)
    state = choi(factored_channel(channel), StateOperator(phi.window,
                                                          np.diag(rng.dirichlet(np.ones(d)))))
    extracted, _ = eb_extract(separable_choi_from_holevo(form, state))
    left, right = extracted.inputs.conj(), extracted.outputs
    sectors = state.channel.stacked.sectors
    n = right.shape[1]
    scale = np.exp(rng.uniform(-2.0, 2.0, n) + 2j * np.pi * rng.random(n))
    for pair in ((left, right), rescaled(left, right, scale),
                 rescaled(left, right, np.exp(6j * np.pi * np.arange(n) / n))):
        bounds, norms = _sector_difference(*pair, sectors), qr_difference_norms(*pair, sectors)
        assert all(norm <= bound <= max(20 * norm, 1e-13)
                   for bound, norm in zip(bounds, norms)), (bounds, norms)
    noisy = left + 1e-3 * complex_normal(rng, *left.shape), right
    bounds, norms = _sector_difference(*noisy, sectors), qr_difference_norms(*noisy, sectors)
    assert all(norm <= bound for bound, norm in zip(bounds, norms)), (bounds, norms)
    assert bounds[0] > 1e-4


@pytest.mark.slow
def test_rho12_probe_at_k990_holds_no_flat_table():
    # the flat sector and value tables and the projection's temporaries traced 283 MB here
    phi = phi_profile("geometric(0.7)", 990)
    tracemalloc.start()
    try:
        eps = rho12_probe(phi, phi, phi, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(eps * (4 * 990 + 1) - 1.0) < 1e-12
    assert peak < 5e6, peak
