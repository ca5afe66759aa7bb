"""Named gate constants and the CNOT universality decomposition.

CNOT convention: control = qubit 1 (most significant), target = qubit 2.
The decomposition CNOT = (alpha x beta) B(2,1) (gamma x delta) holds
exactly (no global phase) only under this convention, which is how it was
pinned down.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownGateError
from .linalg import kron, kron_all, max_abs
from .reports import RelationReport

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
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownGateError(f"unknown gate {name!r}; known: {known}") from None


def verify_cnot_decomposition(tol: float = 1e-12) -> RelationReport:
    """Residual of CNOT - (alpha x beta) B(2,1) (gamma x delta).

    The identity is exact at theta=pi/8, the default of
    `structured_braid_op` (the decomposition's local unitaries are specific
    to that B(2,1)); no phase freedom is allowed.
    """
    from .states import structured_braid_op
    from .tla import RepShape

    b21 = structured_braid_op(RepShape(n=2, k=1)).dense()
    assembled = kron(ALPHA, BETA) @ b21 @ kron(GAMMA, DELTA)
    residual = max_abs(assembled - CNOT)
    return RelationReport.from_residuals(
        [("cnot_decomposition", residual)], tol
    )


def verify_psi_ghz_relation(tol: float = 1e-13) -> RelationReport:
    """Residual of b1 b2 |000> (Bell representation) minus (HxHxH)|GHZ3>."""
    from .braidrep import bell_representation

    rep = bell_representation(3)
    v000 = np.zeros(8, dtype=np.complex128)
    v000[0] = 1.0
    psi = rep.generators[0] @ rep.generators[1] @ v000
    ghz3 = np.zeros(8, dtype=np.complex128)
    ghz3[0] = ghz3[7] = _S2
    target = kron_all(HADAMARD, HADAMARD, HADAMARD) @ ghz3
    residual = max_abs(psi - target)
    return RelationReport.from_residuals(
        [("psi_equals_hadamards_on_ghz", residual)], tol
    )
