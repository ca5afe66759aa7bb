"""Reference results the benchmark checks the program's outputs against.

Everything here is written from the formulas of the paper and the interchange
conventions, not from tlbraid's code, so a defect in the program cannot hide
in its own oracle.  Conventions: qubit 1 is the most significant index bit;
B(n,k) = I..D..I + s_1..F..s_n with D = diag(d a^2, d b^2 + A^-2) and
F = [[0, -e^{-i phi} A^4 d a b], [e^{i phi} d a b, 0]].
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
INVOLUTIONS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": _S2 * np.array([[1, 1], [1, -1]], dtype=np.complex128),
}
BELL = _S2 * np.array([[1, 0, 0, -1],
                       [0, 1, -1, 0],
                       [0, 1, 1, 0],
                       [1, 0, 0, 1]], dtype=np.complex128)
#: Eigenvalues of a reduced density below this count as zero (as in the CLI).
EIG_CUTOFF = 1e-12
#: Schmidt coefficients above this count towards the rank (CLI default tol).
RANK_TOL = 1e-9


def scalars(theta: float):
    """(A, d, a, b) for the default signs a_sign = b_sign = +1."""
    d = -2.0 * math.cos(2.0 * theta)
    b_sq = 1.0 - 1.0 / (d * d)
    return (complex(math.cos(theta), math.sin(theta)), d, 1.0 / abs(d),
            math.sqrt(b_sq) if b_sq > 1e-14 else 0.0)


def blocks(theta: float, phi: float = 0.0, inverse: bool = False):
    """The 2x2 blocks (D, F) of B(n,k), or of its adjoint."""
    A, d, a, b = scalars(theta)
    e = complex(math.cos(phi), math.sin(phi))
    D = np.diag([d * a * a, d * b * b + A ** -2]).astype(np.complex128)
    F = np.array([[0, -A ** 4 * d * a * b / e], [e * d * a * b, 0]],
                 dtype=np.complex128)
    if inverse:
        return D.conj().T, F.conj().T
    return D, F


def default_names(n: int, k: int) -> list[str]:
    """Identity below slot k, X above: the dressing that yields GHZ states."""
    return ["I"] * (k - 1) + ["X"] * (n - k)


def tensor_slots(names, k: int, F: np.ndarray) -> list[np.ndarray]:
    """The n factors of the tensor term: involutions around F at slot k."""
    mats = [INVOLUTIONS[nm.upper()] for nm in names]
    return mats[:k - 1] + [F] + mats[k - 1:]


# --- sparse states: {index: amplitude} --------------------------------------

def apply_b_sparse(state: dict, n: int, k: int, theta: float, phi: float,
                   names, inverse: bool = False) -> dict:
    """B(n,k) (or its adjoint) on a few-term state, term by term."""
    D, F = blocks(theta, phi, inverse)
    slots = tensor_slots(names, k, F)
    out: dict = defaultdict(complex)
    for idx, amp in state.items():
        bk = (idx >> (n - k)) & 1
        out[idx] += D[bk, bk] * amp
        terms = [(0, amp)]
        for j, m in enumerate(slots, start=1):
            src = (idx >> (n - j)) & 1
            terms = [(acc | (t << (n - j)), c * m[t, src])
                     for t in (0, 1) if m[t, src] != 0 for acc, c in terms]
        for acc, c in terms:
            out[acc] += c
    return dict(out)


def ghz_closed_form(n: int, theta: float = math.pi / 8) -> dict:
    """B(n,1)|0..0> = d a^2 |0..0> + d a b |1..1> (phi = 0)."""
    _, d, a, b = scalars(theta)
    return {0: complex(d * a * a), (1 << n) - 1: complex(d * a * b)}


def cluster_state(n: int, k: int, theta: float = math.pi / 8) -> dict:
    """B(n,k) B^-1(n,1) |0..0> with the default dressings."""
    v = apply_b_sparse({0: 1.0 + 0j}, n, 1, theta, 0.0, default_names(n, 1),
                       inverse=True)
    return apply_b_sparse(v, n, k, theta, 0.0, default_names(n, k))


def densify(state: dict, n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=np.complex128)
    for idx, amp in state.items():
        v[idx] = amp
    return v


# --- entanglement -------------------------------------------------------------

def _entropy_rank(sv: np.ndarray) -> tuple[float, int]:
    p = sv * sv
    p = p[p > EIG_CUTOFF]
    return float(-np.sum(p * np.log2(p))), int(np.count_nonzero(sv > RANK_TOL))


def cut_entropy(v: np.ndarray, keep) -> tuple[float, int]:
    """(entropy in bits, Schmidt rank) of a dense state for a kept subset."""
    n = v.size.bit_length() - 1
    keep = sorted(keep)
    rest = [q for q in range(1, n + 1) if q not in keep]
    m = v.reshape([2] * n).transpose([q - 1 for q in keep + rest])
    m = m.reshape(1 << len(keep), -1)
    return _entropy_rank(np.linalg.svd(m, compute_uv=False))


def sparse_cut_entropy(state: dict, n: int, keep) -> tuple[float, int]:
    """cut_entropy for a few-term state, on the Schmidt matrix of its terms."""
    keep_mask = sum(1 << (n - q) for q in keep)
    rows: dict = {}
    cols: dict = {}
    entries = []
    for idx, amp in state.items():
        r = rows.setdefault(idx & keep_mask, len(rows))
        c = cols.setdefault(idx & ~keep_mask, len(cols))
        entries.append((r, c, amp))
    m = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    for r, c, amp in entries:
        m[r, c] += amp
    return _entropy_rank(np.linalg.svd(m, compute_uv=False))


def measure(v: np.ndarray, qubit: int, outcome: int):
    """Born probability and renormalised post-measurement state."""
    n = v.size.bit_length() - 1
    picked = v.reshape([2] * n).take(outcome, axis=qubit - 1).reshape(-1)
    prob = float(np.vdot(picked, picked).real)
    return prob, picked / math.sqrt(prob)


# --- dense states -----------------------------------------------------------

def b_amplitudes(v: np.ndarray, idxs, k: int, theta: float, phi: float,
                 names, inverse: bool = False) -> np.ndarray:
    """Entries `idxs` of B(n,k) v (or of its adjoint applied to v), each one
    summed straight from the tensor form: out[x] = D[x_k] v[x] +
    sum_y prod_j m_j[x_j, y_j] v[y].  Costs nothing like a full pass, so a
    sample of entries can check a 2^24-amplitude result."""
    n = v.size.bit_length() - 1
    D, F = blocks(theta, phi, inverse)
    slots = [m.tolist() for m in tensor_slots(names, k, F)]
    diag = [complex(D[0, 0]), complex(D[1, 1])]
    out = []
    for x in idxs:
        x = int(x)
        acc = diag[(x >> (n - k)) & 1] * v[x]
        terms = [(0, 1.0 + 0j)]
        for j, m in enumerate(slots, start=1):
            row = m[(x >> (n - j)) & 1]
            terms = [(src | (s << (n - j)), c * row[s])
                     for s in (0, 1) if row[s] != 0 for src, c in terms]
        out.append(acc + sum(c * v[src] for src, c in terms))
    return np.array(out, dtype=np.complex128)


def jones_generators(n: int, k: int, theta: float, phi: float, names):
    """Dense b_i = A d E_i + A^-1 I and their inverses, i = 1, 2."""
    A, d, a, b = scalars(theta)
    e = complex(math.cos(phi), math.sin(phi))
    eye2 = np.eye(2, dtype=np.complex128)

    def chain(mats):
        out = np.ones((1, 1), dtype=np.complex128)
        for m in mats:
            out = np.kron(out, m)
        return out

    at_k = lambda m: chain([eye2] * (k - 1) + [m] + [eye2] * (n - k))
    e3 = np.array([[0, 1 / e], [e, 0]], dtype=np.complex128)
    E1 = at_k(np.diag([1.0, 0.0]).astype(np.complex128))
    E2 = at_k(np.diag([a * a, b * b]).astype(np.complex128)) \
        + a * b * chain(tensor_slots(names, k, e3))
    eye = np.eye(1 << n, dtype=np.complex128)
    gens = [A * d * E + eye / A for E in (E1, E2)]
    invs = [d * E / A + A * eye for E in (E1, E2)]
    return gens, invs


def apply_jones_word(v: np.ndarray, factors, k: int, theta: float, phi: float,
                     names) -> np.ndarray:
    """The word acts on kets from the left: the rightmost factor goes first."""
    n = v.size.bit_length() - 1
    gens, invs = jones_generators(n, k, theta, phi, names)
    for index, exponent in reversed(factors):
        g = gens[index - 1] if exponent > 0 else invs[index - 1]
        for _ in range(abs(exponent)):
            v = g @ v
    return v


def apply_bell_word(v: np.ndarray, factors) -> np.ndarray:
    """Bell matrix R on qubits (i, i+1) for each factor b_i^e."""
    n = v.size.bit_length() - 1
    for index, exponent in reversed(factors):
        r = BELL if exponent > 0 else BELL.conj().T
        for _ in range(abs(exponent)):
            t = v.reshape(1 << (index - 1), 4, 1 << (n - index - 1))
            v = np.einsum("ab,xby->xay", r, t).reshape(-1)
    return v


def grid_points(ns=(1, 2, 3, 4, 5)) -> int:
    """Points of the verification grid: 5 thetas x 2 phis x, for each n,
    n slots k times 5^(n-1) involution assignments."""
    return 5 * 2 * sum(n * 5 ** (n - 1) for n in ns)
