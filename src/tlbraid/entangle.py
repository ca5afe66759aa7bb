"""Entanglement diagnostics: reduced density matrices, von Neumann entropy,
Schmidt rank, and projective single-qubit measurement.

Qubit labels are 1-based (qubit 1 = most significant index bit), matching
the rest of the package.  Bipartitions are given as the subset of qubit
labels to keep.

A cut's Schmidt coefficients are the singular values of the amplitudes
reshaped to (kept qubits) x (the rest).  For a state with zero amplitudes
the matrix is restricted to the rows and columns that hold a nonzero one,
so the cost follows the support rather than 2^n; a dense state keeps the
whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError, as_int
from .linalg import (apply_single_qubit, dagger, max_abs, num_qubits,
                     phase_equivalent, require_array)

_EIG_CUTOFF = 1e-12


def _items(values, what: str) -> list:
    """The items of a collection; DomainError for anything not iterable."""
    try:
        return list(values)
    except TypeError:
        raise DomainError(f"{what} must be a collection, got {values!r:.80}"
                          ) from None


def _validate_subset(subset, n: int) -> tuple[int, ...]:
    keep = tuple(sorted({as_int(q, "a qubit label")
                         for q in _items(subset, "a qubit subset")}))
    if not keep:
        raise DomainError("qubit subset must be non-empty")
    if any(q < 1 or q > n for q in keep):
        raise DomainError(f"subset {keep} out of range for {n} qubits")
    if len(keep) >= n:
        raise DomainError(f"subset {keep} must be a proper subset of 1..{n}")
    return keep


def _require_tol(tol) -> None:
    """DomainError unless tol is a finite real >= 0 (NaN fails too)."""
    try:
        ok = 0 <= tol < np.inf
    except (TypeError, ValueError):     # no number, or an array
        ok = False
    if not ok:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r:.40}")


def _require_density(rho: np.ndarray) -> None:
    """DomainError unless rho is a numeric array (`require_array`),
    DimensionMismatchError unless it is one square matrix."""
    require_array(rho, "a density matrix")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix over the kept qubits (trace preserved)."""
    _require_density(rho)
    dim = rho.shape[0]
    if not dim or dim & (dim - 1):
        raise DimensionMismatchError(f"dimension {dim} is not a power of two")
    n = dim.bit_length() - 1
    keep = _validate_subset(keep, n)
    labels = list(range(1, n + 1))
    t = rho.reshape([2] * (2 * n))
    for q in [q for q in labels if q not in keep]:
        m = len(labels)
        p = labels.index(q)
        t = np.trace(t, axis1=p, axis2=m + p)
        labels.remove(q)
    d = 1 << len(keep)
    return t.reshape(d, d)


def _cut_matrix(v: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Amplitudes reshaped to (kept qubits) x (the rest) for a validated cut."""
    n = num_qubits(v)
    rest = [q for q in range(1, n + 1) if q not in keep]
    axes = [q - 1 for q in keep] + [q - 1 for q in rest]
    return v.reshape([2] * n).transpose(axes).reshape(1 << len(keep), -1)


def reduced_density(v: np.ndarray, subset) -> np.ndarray:
    """Reduced density matrix of a pure state without forming |v><v|."""
    m = _cut_matrix(v, _validate_subset(subset, num_qubits(v)))
    return m @ m.conj().T


def _entropy_bits(lam: np.ndarray) -> float:
    """-sum lambda log2 lambda over the lambda above 1e-12, rescaled to sum 1."""
    lam = lam[lam > _EIG_CUTOFF]
    lam = lam / lam.sum()
    return float(-np.sum(lam * np.log2(lam))) + 0.0


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, -sum lambda log2 lambda.

    rho must be Hermitian, of trace 1 and with no negative eigenvalue, each
    within 1e-10.  Eigenvalues below 1e-12 are treated as exact zeros, and
    the rest are rescaled to sum 1, so a pure state reads exactly 0.
    """
    _require_density(rho)
    if not max_abs(rho - dagger(rho)) <= 1e-10:
        raise DomainError("density matrix must be Hermitian")
    lam = np.linalg.eigvalsh(rho)
    if not (abs(lam.sum() - 1.0) <= 1e-10 and lam.min() >= -1e-10):
        raise DomainError("a density matrix needs trace 1 and no negative "
                          f"eigenvalue, got eigenvalues {lam!r:.80}")
    return _entropy_bits(lam)


def measure_qubit(v: np.ndarray, qubit: int, outcome: int) -> tuple[float, np.ndarray]:
    """Born-rule probability and renormalized post-state on n-1 qubits;
    the only qubit of a 1-qubit state is refused."""
    n = num_qubits(v)
    qubit, outcome = as_int(qubit, "a qubit label"), as_int(outcome, "outcome")
    if not 1 <= qubit <= n:
        raise DomainError(f"qubit {qubit} out of range 1..{n}")
    if n == 1:
        raise DomainError("measuring the only qubit leaves no state")
    if outcome not in (0, 1):
        raise DomainError(f"outcome must be 0 or 1, got {outcome}")
    picked = v.reshape(1 << (qubit - 1), 2, 1 << (n - qubit))[:, outcome, :].reshape(-1)
    prob = float(np.vdot(picked, picked).real)
    if not 1e-12 < prob < np.inf:       # NaN and Inf too
        raise DomainError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}"
        )
    return prob, picked / np.sqrt(prob)


def nonzero_support(v: np.ndarray) -> Optional[np.ndarray]:
    """np.flatnonzero(v), or None (and no index array) for a dense v."""
    return np.flatnonzero(v) if np.count_nonzero(v) < v.size else None


def _packed_bits(index: np.ndarray, n: int, qubits) -> np.ndarray:
    """The bits of each n-qubit index at the sorted `qubits`, packed in
    their order (the first most significant): one shift and mask per run
    of adjacent qubits."""
    key = np.zeros_like(index)
    for _, run in groupby(enumerate(qubits), lambda pair: pair[1] - pair[0]):
        run = [q for _, q in run]
        key <<= len(run)
        key |= (index >> (n - run[-1])) & ((1 << len(run)) - 1)
    return key


def _schmidt_coefficients(v: np.ndarray, keep: tuple[int, ...],
                          support: Optional[np.ndarray] = None) -> np.ndarray:
    """Singular values of the amplitudes reshaped to a validated cut.

    When v has a zero amplitude, the matrix is restricted to the rows and
    columns of its support (`nonzero_support(v)`, found here when not
    given); the others add only zero singular values, which are left out.
    """
    if support is None:
        support = nonzero_support(v)
    if support is None or support.size == v.size:
        m = _cut_matrix(v, keep)
    else:
        n = num_qubits(v)
        rest = [q for q in range(1, n + 1) if q not in keep]
        (rows, at_row), (cols, at_col) = (
            np.unique(_packed_bits(support, n, side), return_inverse=True)
            for side in (keep, rest))
        m = np.zeros((rows.size, cols.size), np.complex128)
        m[at_row, at_col] = v[support]
    if m.shape[0] < m.shape[1]:
        # R of m^T = QR has m's singular values; an SVD of wide m is slower
        m = np.linalg.qr(m.T, mode="r")
    try:
        s = np.linalg.svd(m, compute_uv=False)
        if np.isfinite(s).all():
            return s
    except np.linalg.LinAlgError:       # the SVD does not converge on NaN
        pass
    raise DomainError("non-finite amplitudes (NaN/Inf) are not accepted")


def schmidt_rank(v: np.ndarray, bipartition, tol: float = 1e-9) -> int:
    """Number of Schmidt coefficients above tol for the given cut.

    The coefficients are the singular values of the cut-reshaped amplitudes.
    They are not taken as square roots of reduced-density eigenvalues, whose
    rounding noise of about 1e-17 would read as 3e-9 and count a product cut
    as entangled.
    """
    _require_tol(tol)
    sv = _schmidt_coefficients(v, _validate_subset(bipartition, num_qubits(v)))
    return int(np.count_nonzero(sv > tol))


def lu_equivalent(u: np.ndarray, v: np.ndarray, locals_, tol: float = 1e-10) -> bool:
    """True iff (local_1 x ... x local_n) v = u up to a global phase."""
    n = num_qubits(v)
    if num_qubits(u) != n:
        raise DimensionMismatchError("states have different qubit counts")
    locals_ = _items(locals_, "the local unitaries")
    if len(locals_) != n:
        raise DimensionMismatchError(f"need {n} local unitaries, got {len(locals_)}")
    w = v
    for pos, m2 in enumerate(locals_, start=1):
        w = apply_single_qubit(m2, w, pos)
    return phase_equivalent(u, w, mode="global", tol=tol)


@dataclass(frozen=True)
class EntanglementReport:
    bipartition: tuple[int, ...]
    entropy_bits: float
    schmidt_rank: int
    is_product: bool

    def to_json(self) -> dict:
        return {
            "bipartition": list(self.bipartition),
            "entropy_bits": self.entropy_bits,
            "schmidt_rank": self.schmidt_rank,
            "is_product": self.is_product,
        }


def entanglement_report(v: np.ndarray, bipartition, tol: float = 1e-9,
                        support: Optional[np.ndarray] = None
                        ) -> EntanglementReport:
    """Entropy / Schmidt-rank report for one cut of a normalized pure state.

    support, which must be `np.flatnonzero(v)` (a 1-D integer array of
    indices into v), may be passed to share it among the cuts of one state.
    """
    _require_tol(tol)
    keep = _validate_subset(bipartition, num_qubits(v))
    if support is not None and not (
            isinstance(support, np.ndarray) and support.ndim == 1
            and support.dtype.kind in "iu" and support.min(initial=0) >= 0
            and support.max(initial=0) < v.size):
        raise DomainError("support must be np.flatnonzero(v)")
    s = _schmidt_coefficients(v, keep, support)
    lam = s * s
    if not abs(lam.sum() - 1.0) <= 1e-10:
        raise DomainError(f"state norm^2 {lam.sum():.6g} is not 1")
    rank = int(np.count_nonzero(s > tol))
    return EntanglementReport(
        bipartition=keep,
        entropy_bits=_entropy_bits(lam),
        schmidt_rank=rank,
        is_product=rank == 1,
    )
