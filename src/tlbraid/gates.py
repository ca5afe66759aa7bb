"""Named gate constants, looked up case-insensitively by `gate`.

CNOT convention: control = qubit 1 (most significant), target = qubit 2.
ALPHA..DELTA are the local unitaries of the decomposition
CNOT = (alpha x beta) B(2,1) (gamma x delta) that
`verify.verify_cnot_decomposition` checks; it holds exactly (no global
phase) only under this convention, which is how it was pinned down.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownGateError

_S2 = 1.0 / np.sqrt(2.0)

IDENTITY_2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = _S2 * np.array([[1, 1], [1, -1]], dtype=np.complex128)
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=np.complex128)

# local unitaries of the CNOT decomposition
ALPHA = _S2 * np.array([[1, 1j], [1, -1j]], dtype=np.complex128)
BETA = _S2 * np.array([[1, -1j], [1j, -1]], dtype=np.complex128)
GAMMA = _S2 * np.array([[-1, 1j], [1, 1j]], dtype=np.complex128)
DELTA = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_REGISTRY = {
    "i": IDENTITY_2,
    "h": HADAMARD,
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
    "sigma1": PAULI_X,
    "sigma2": PAULI_Y,
    "sigma3": PAULI_Z,
    "cnot": CNOT,
    "alpha": ALPHA,
    "beta": BETA,
    "gamma": GAMMA,
    "delta": DELTA,
}


def gate(name: str) -> np.ndarray:
    """Look up a named gate constant (case-insensitive). Returns a copy."""
    try:
        return _REGISTRY[name.strip().lower()].copy()
    except (AttributeError, KeyError):     # no such name, or no text
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownGateError(f"unknown gate {name!r}; known: {known}") from None

