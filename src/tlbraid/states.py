"""n-qubit state construction and the structured braiding operator.

Like every Jones operator (see `tla.StructuredBraidOp`), the braid b1 b2
has the slot-chain form

    B(n,k) = I^(k-1) x D x I^(n-k)  +  s_1..s_{k-1} x F x s_{k+1}..s_n

and the pair product gives D = diag(d a^2, d b^2 + A^-2) and antidiagonal
F = [[0, -e^{-i phi} A^4 d a b], [e^{i phi} d a b, 0]].  Acting on a basis
state it therefore produces at most two terms, and acting on an arbitrary
state it needs one linear pass over the amplitudes instead of a 2^n x 2^n
matrix.  Both forms read one per-slot table (`_slot_table`): the
coefficients each slot's source bit picks up, the slots that flip their
bit, the slots that mix basis states, and the slot-k diagonal.

States built from basis states (`ghz_state`, `cluster_like_state`,
`cluster_family`, `apply_to_basis`) go term by term (`_apply_terms`): each
term gives its diagonal term and one chain term, which each mixing slot
splits in two, so a basis state with m mixing slots gives at most
2^m + 1 terms at O(m) work each, never more work than the pass.  The terms
are added into one zero state, which is the only state-sized array.

`apply_structured` runs the pass on any state through the axis-wise kernel
in `_kernels`: monomial slots (I and the Paulis) scale and flip their qubit
axis, and slots that mix basis states (e.g. the Hadamard involution) are
contracted with their 2x2, in place in the result.  The result is the one
state-sized array a pass allocates; its other temporaries are bounded
blocks.  For a dressing with no mixing slot, from 2^20 amplitudes, the
kernel writes its blocks on the usable cores, one thread per 8 blocks at
most (see `_kernels`); the result is the same, bit for bit, on any number
of threads.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .errors import CapacityError, DimensionMismatchError, DomainError, as_int
from .linalg import DENSE_CAP_QUBITS, max_abs, num_qubits
from .tla import (RepShape, StructuredBraidOp, TLParams,
                  default_involution_spec, jones_pairs, tl_params)

STRUCTURED_CAP_QUBITS = 26      # 2^26 amplitudes ~ 1 GiB
_MONOMIAL_TOL = 1e-14

Bits = Union[str, Sequence[int]]


def parse_bits(bits: Bits) -> tuple[int, ...]:
    """Normalize "0101"-style strings or 0/1 sequences to a bit tuple."""
    if isinstance(bits, str):
        if set(bits.strip()) - {"0", "1"}:
            raise DomainError(f"bits must be 0 or 1, got {bits!r:.80}")
        bits = [int(c) for c in bits.strip()]
    try:
        out = tuple(as_int(b, "a bit") for b in bits)
    except TypeError:       # no iterable
        raise DomainError(f"bits must be a bit string or sequence, "
                          f"got {bits!r:.40}") from None
    if len(out) < 1:
        raise DomainError("bit string must contain at least one bit")
    if any(b not in (0, 1) for b in out):
        raise DomainError(f"bits must be 0 or 1, got {out}")
    return out


def bits_to_index(bits: Bits) -> int:
    idx = 0
    for b in parse_bits(bits):
        idx = (idx << 1) | b
    return idx


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    index, n = as_int(index, "an index"), as_int(n, "n")
    return tuple((index >> (n - j)) & 1 for j in range(1, n + 1))


def basis_state(bits: Bits) -> np.ndarray:
    """Computational basis state; qubit 1 is the most significant bit."""
    bits = parse_bits(bits)
    n = len(bits)
    if n > STRUCTURED_CAP_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the structured cap {STRUCTURED_CAP_QUBITS}")
    v = np.zeros(1 << n, dtype=np.complex128)
    v[bits_to_index(bits)] = 1.0
    return v


def _monomial_parts(m2: np.ndarray):
    """(flip, c0, c1) for a one-entry-per-column 2x2 matrix, else None.

    c0/c1 are the coefficients picked up by source bit 0/1.
    """
    off = max(abs(m2[0, 1]), abs(m2[1, 0]))
    diag = max(abs(m2[0, 0]), abs(m2[1, 1]))
    if off <= _MONOMIAL_TOL:
        return False, complex(m2[0, 0]), complex(m2[1, 1])
    if diag <= _MONOMIAL_TOL:
        return True, complex(m2[1, 0]), complex(m2[0, 1])
    return None


def structured_braid_op(shape: RepShape, params: Optional[TLParams] = None,
                        spec: Optional[tuple[np.ndarray, ...]] = None
                        ) -> StructuredBraidOp:
    """Build B(n,k) = b1 b2 as the product of the two generator pairs.

    Defaults: theta = pi/8 parameters and the identity-below / sigma1-above
    involution convention.  The pair is checked to be unitary,
    P^+P + Q^+Q = I and P^+Q + Q^+P = 0; for n <= 8 it is also
    cross-validated against the dense product of the Jones generators.
    """
    n = shape.n
    if n > STRUCTURED_CAP_QUBITS:
        raise CapacityError(
            f"n={n} exceeds the structured cap {STRUCTURED_CAP_QUBITS}"
        )
    if params is None:
        params = tl_params(np.pi / 8)
    if spec is None:
        spec = default_involution_spec(shape)
    b1, b2 = jones_pairs(shape, params, spec).generators
    op = b1 @ b2
    op.require_unitary()
    if n <= 8:
        residual = max_abs(op.dense() - b1.dense() @ b2.dense())
        if not residual <= 1e-12:
            raise DomainError(
                f"structured form deviates from dense b1 b2 by {residual:.3e}"
            )
    return op


def _slot_table(op: StructuredBraidOp, inverse: bool = False):
    """The per-slot table of a slot-chain operator (or of its adjoint), as
    `_kernels.gather_pass` takes it after the state: the (n, 2) coefficients
    picked up by source bit 0/1, whether each slot flips its bit, the
    (axis, 2x2) of the slots that mix basis states (their rows are (1, 1)),
    k, and the slot-k diagonal d(0), d(1)."""
    n, k = op.shape.n, op.shape.k
    if inverse:
        op = op.dagger()
    p, q = op.diag_block, op.offdiag_block

    factors = [*op.spec[:k - 1], q, *op.spec[k - 1:]]
    coeffs = _kernels.phase_vector(np.ones((n, 2)))
    flips, mixers = [], []
    for axis, m2 in enumerate(factors):
        # Q is antidiagonal by construction: it always flips its bit
        parts = (True, q[1, 0], q[0, 1]) if axis == k - 1 else _monomial_parts(m2)
        if parts is None:
            # mixes basis states: contracted with its 2x2, not scaled
            parts = (False, 1.0, 1.0)
            mixers.append((axis, m2))
        flips.append(parts[0])
        coeffs[axis] = parts[1:]
    return coeffs, flips, mixers, k, complex(p[0, 0]), complex(p[1, 1])


def apply_structured(op: StructuredBraidOp, v: np.ndarray,
                     inverse: bool = False) -> np.ndarray:
    """Apply a slot-chain operator (or its adjoint) in one pass over the
    amplitudes of a numeric state; the result is complex128."""
    n = op.shape.n
    if num_qubits(v) != n:
        raise DimensionMismatchError(
            f"state has {num_qubits(v)} qubits, operator acts on {n}"
        )
    return _kernels.gather_pass(v, *_slot_table(op, inverse))


def _apply_terms(op: StructuredBraidOp, idx, amps, inverse: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The terms (indices, amplitudes) of op (or its adjoint) applied to
    sum_i amps[i] |idx[i]>, without a state-sized array.

    Each input term gives its diagonal term d(x_k) amp at idx and a chain
    term at idx ^ (the flipping slots), whose coefficient is folded as the
    pass folds it (low block axes, then top axes); each mixing slot splits
    every chain term in two by its 2x2 column.  So m input terms give
    m (1 + 2^mixers) terms, output term j coming from input term j mod m.
    Terms are never merged: an index may repeat, and `_scatter` adds them.
    """
    coeffs, flips, mixers, k, diag0, diag1 = _slot_table(op, inverse)
    n = len(flips)
    idx = np.asarray(idx, dtype=np.int64)
    amps = np.asarray(amps, dtype=np.complex128)
    m = idx.size

    def fold(axes) -> np.ndarray:
        c = np.ones(m, dtype=np.complex128)
        for axis in axes:
            c *= coeffs[axis, (idx >> (n - 1 - axis)) & 1]
        return c

    top = n - _kernels.low_axes(n)
    flipmask = sum(1 << (n - 1 - axis) for axis, flip in enumerate(flips) if flip)
    out_idx = np.empty(m + (m << len(mixers)), dtype=np.int64)
    out_amps = np.empty(out_idx.size, dtype=np.complex128)
    out_idx[:m] = idx
    out_amps[:m] = amps * np.where((idx >> (n - k)) & 1, diag1, diag0)
    chain_idx, chain = out_idx[m:], out_amps[m:]
    chain_idx[:m] = idx ^ flipmask
    chain[:m] = amps * fold(range(top, n)) * fold(range(top))
    size = m
    for axis, m2 in mixers:
        bit = 1 << (n - 1 - axis)
        x = (chain_idx[:size] & bit) != 0
        chain_idx[size:2 * size] = chain_idx[:size] | bit
        chain_idx[:size] &= ~bit
        chain[size:2 * size] = chain[:size] * np.where(x, m2[1, 1], m2[1, 0])
        chain[:size] *= np.where(x, m2[0, 1], m2[0, 0])
        size *= 2
    return out_idx, out_amps


def _scatter(n: int, idx: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The n-qubit state sum_i amps[i] |idx[i]>, repeated indices added."""
    out = np.zeros(1 << n, dtype=np.complex128)
    np.add.at(out, idx, amps)
    return out


def apply_to_basis(op: StructuredBraidOp, bits: Bits,
                   inverse: bool = False) -> np.ndarray:
    """op|bits> (or its adjoint on |bits>), built from its at most
    1 + 2^(mixing slots) terms; the one state-sized array is the result."""
    bits = parse_bits(bits)
    n = op.shape.n
    if len(bits) != n:
        raise DimensionMismatchError(
            f"state has {len(bits)} qubits, operator acts on {n}")
    terms = _apply_terms(op, [bits_to_index(bits)], [1.0], inverse)
    return _scatter(n, *terms)


def ghz_state(n: int, params: Optional[TLParams] = None,
              use_inverse: bool = False) -> np.ndarray:
    """Generalized GHZ state B(n,1)|0...0> (or B^-1(n,1)|0...0>), built
    from its two terms.

    Uses the k=1, phi=0, sigma1-dressing convention; the returned state is
    the exact computed one, global phase included: the forward state is
    da^2|0..0> + dab|1..1> and the inverse one is -(|0..0> + i|1..1>)/sqrt2
    at theta=pi/8.
    """
    op = structured_braid_op(RepShape(n=n, k=1), params=params)
    return apply_to_basis(op, [0] * n, inverse=use_inverse)


def _cluster_size(n: int, k: int) -> tuple[int, int]:
    """n and k as integers, with n >= 2."""
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 2:
        raise DomainError(f"cluster-like states need n >= 2, got n={n}")
    return n, k


def _cluster_terms(n: int, k: int, params: Optional[TLParams],
                   sources) -> tuple[np.ndarray, np.ndarray]:
    """The terms of B(n,k) B^-1(n,1) on each basis state of `sources`:
    two per source, then four."""
    op1 = structured_braid_op(RepShape(n=n, k=1), params=params)
    opk = structured_braid_op(RepShape(n=n, k=k), params=params)
    ones = np.ones(len(sources))
    return _apply_terms(opk, *_apply_terms(op1, sources, ones, inverse=True))


def cluster_like_state(n: int, k: int,
                       params: Optional[TLParams] = None) -> np.ndarray:
    """B(n,k) B^-1(n,1) |0...0>: the four-term cluster-like superposition,
    built from its terms.

    Entangled for n >= 2 and k > 1 (k=1 collapses to the identity action);
    at n=4, k=3 this is the 4-qubit linear cluster state.
    """
    n, k = _cluster_size(n, k)
    return _scatter(n, *_cluster_terms(n, k, params, [0]))


def cluster_family(n: int, k: int,
                   params: Optional[TLParams] = None) -> list[np.ndarray]:
    """B(n,k) B^-1(n,1) applied to every basis state: 2^n orthonormal states,
    the rows of one 2^n x 2^n array filled from the terms of all 2^n inputs.

    Dense-cap bound (n <= DENSE_CAP_QUBITS): the family as a whole is
    matrix-sized.
    """
    n, k = _cluster_size(n, k)
    if n > DENSE_CAP_QUBITS:
        raise CapacityError(f"cluster family on {n} qubits stores 4^{n} "
                            f"amplitudes; capped at n={DENSE_CAP_QUBITS}")
    sources = np.arange(1 << n)
    idx, amps = _cluster_terms(n, k, params, sources)
    out = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    # output term j comes from source j mod 2^n
    np.add.at(out, (np.resize(sources, idx.size), idx), amps)
    return list(out)
