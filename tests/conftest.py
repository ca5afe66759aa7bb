import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_state(rng, n: int) -> np.ndarray:
    """Haar-ish random normalized n-qubit state."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


#: Floats whose JSON text is easy to get wrong: signed zeros, subnormals,
#: the switch to exponents, and reprs that need 17 digits.
EDGE_FLOATS = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 0.1 + 0.2, -5e-324, -1e22,
               1 / 3, 0.0, -1.0, 2.0 ** -1074 * 3, 1e-5, 123456789.0,
               1e15 + 0.3, -1e-7]


def sparse_state(rng, n: int, nonzero) -> np.ndarray:
    """Random [re, im] pairs at the pair indices `nonzero`; every other
    pair is a zero pair with random sign bits."""
    pairs = np.where(rng.random((1 << n, 2)) < 0.5, -0.0, 0.0)
    pairs[nonzero] = rng.standard_normal((len(nonzero), 2))
    return pairs.view(np.complex128).reshape(-1)


def signed_zero_state(rng, n: int) -> np.ndarray:
    """A sparse state whose pairs 1-4 are the four signed zero pairs and
    pair 5 has a -0.0 real part (n >= 3)."""
    v = sparse_state(rng, n, [0, (1 << n) - 1])
    v[1:5] = np.array([0.0, -0.0, 0.0, -0.0]) + 1j * np.array(
        [0.0, 0.0, -0.0, -0.0])
    v[5] = complex(-0.0, 0.5)
    return v


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
