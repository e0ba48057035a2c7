import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    ModeWindow,
    ProductWindow,
    StateOperator,
    apply,
    apply_with_identity,
    jsonio,
)
from oracles import map_blocks


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_density(rng, dim):
    """Full-rank random density matrix via a Wishart draw."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def identity_channel(window):
    d = window.dimension
    return ChannelBlocks(window, window, map_blocks(lambda m: m, d, d))


def constant_channel(in_window, rho_out):
    """Phi(A) = Tr(A) rho_out."""
    return ChannelBlocks(in_window, rho_out.window, map_blocks(
        lambda m: np.trace(m) * rho_out.entries, in_window.dimension, rho_out.window.dimension))


def transpose_channel(window):
    """The transposition map; trace preserving but not completely positive."""
    d = window.dimension
    return ChannelBlocks(window, window, map_blocks(lambda m: m.T, d, d))


def dephasing_channel(window):
    """Phi(A) = sum_i A_ii |i><i|."""
    d = window.dimension
    return ChannelBlocks(window, window, map_blocks(lambda m: np.diag(np.diag(m)), d, d))


def blocks_from_holevo(form):
    """The dense block family B[i,j] = sum_b (M_b)_{ji} rho'_b of a Holevo form, as a channel."""
    m_stack = np.stack([m_op.entries for m_op, _ in form.atoms])
    r_stack = np.stack([rho_out.entries for _, rho_out in form.atoms])
    blocks = np.einsum("bji,bkl->ijkl", m_stack, r_stack)
    return ChannelBlocks(form.in_window, form.out_window, blocks)


def assert_same_channel(channel, dense, rng, tol=1e-14):
    """channel against its dense oracle: blocks, S^(T_out), apply, apply_with_identity and JSON."""
    d = channel.in_window.dimension
    assert np.abs(channel.blocks - dense.blocks).max() <= tol
    assert np.abs(channel.transposed.entries - dense.transposed.entries).max() <= tol
    rho = StateOperator(channel.in_window, random_density(rng, d))
    assert np.abs(apply(channel, rho).entries - apply(dense, rho).entries).max() <= tol
    omega = StateOperator(ProductWindow(channel.in_window, ModeWindow(0, 1)),
                          random_density(rng, 2 * d))
    assert np.abs(apply_with_identity(channel, omega).entries
                  - apply_with_identity(dense, omega).entries).max() <= tol
    doc, want = jsonio.channel_to_json(channel), jsonio.channel_to_json(dense)
    assert (doc["in"], doc["out"]) == (want["in"], want["out"])
    written, wanted = (np.array([[op["entries"].entries for op in row] for row in d["blocks"]])
                       for d in (doc, want))
    assert np.abs(written - wanted).max() <= tol
