import numpy as np
import pytest

from eblab import ModeWindow, ProductWindow, StateOperator, apply, apply_with_identity, jsonio


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
