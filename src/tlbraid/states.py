"""n-qubit state construction and the structured braiding operator.

Like every Jones operator (see `tla.StructuredBraidOp`), the braid b1 b2
has the slot-chain form

    B(n,k) = I^(k-1) x D x I^(n-k)  +  s_1..s_{k-1} x F x s_{k+1}..s_n

and the pair product gives D = diag(d a^2, d b^2 + A^-2) and antidiagonal
F = [[0, -e^{-i phi} A^4 d a b], [e^{i phi} d a b, 0]].  Acting on a
product state it therefore gives two product states, and acting on an
arbitrary state it needs one linear pass over the amplitudes instead of a
2^n x 2^n matrix.

States built from basis states (`ghz_state`, `cluster_like_state`,
`cluster_family`, `apply_to_basis`) are held as product terms, which
`_product_terms` maps r to 2r whatever the dressing: a GHZ state is two
terms, a cluster-like state four.  `_expand` adds each term into one zero
state as one strided block, with no index array per amplitude.

`apply_structured` runs the pass on any state through the axis-wise kernel
in `_kernels`.  It reads every slot of the chain (`StructuredBraidOp.chain`,
stacked once) by one rule: a slot with a zero diagonal flips its bit, else
one with a zero off-diagonal only scales it, and any other slot (e.g. the
Hadamard involution) mixes basis states and is contracted with its 2x2, in
place in the result.  Q's diagonal is zero by construction, so slot k
flips, even where Q = 0 (b1, E1).  A chain of (m, 2, 2) stacks stands for
m operators: `dense()` takes it, no state does.  The result is the one
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
                  default_involution_spec, jones_pairs, require_instance,
                  tl_params)

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
    if n < 1 or index < 0 or index.bit_length() > n:
        raise DomainError(
            f"need n >= 1 and 0 <= index < 2^n, got index={index}, n={n}")
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


def structured_braid_op(shape: RepShape, params: Optional[TLParams] = None,
                        spec: Optional[tuple[np.ndarray, ...]] = None
                        ) -> StructuredBraidOp:
    """Build B(n,k) = b1 b2 as the product of the two generator pairs.

    Defaults: theta = pi/8 parameters and the identity-below / sigma1-above
    involution convention.  The pair is checked to be unitary,
    P^+P + Q^+Q = I and P^+Q + Q^+P = 0; for n <= 8 it is also
    cross-validated against the dense product of the Jones generators.
    """
    n = require_instance(shape, RepShape).n
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
    _state_chain(op)        # a stacked chain is refused before the cross-check
    if n <= 8:
        residual = max_abs(op.dense() - b1.dense() @ b2.dense())
        if not residual <= 1e-12:
            raise DomainError(
                f"structured form deviates from dense b1 b2 by {residual:.3e}"
            )
    return op


def _state_chain(op: StructuredBraidOp) -> np.ndarray:
    """op's chain as one (n, 2, 2) array; no state takes (m, 2, 2) stacks."""
    if any(factor.ndim != 2 for factor in op.chain):
        raise DomainError("a state takes no (m, 2, 2) involution stacks")
    return np.stack(op.chain)


def apply_structured(op: StructuredBraidOp, v: np.ndarray,
                     inverse: bool = False) -> np.ndarray:
    """Apply a slot-chain operator (or its adjoint) in one pass over the
    amplitudes of a numeric state; the result is complex128."""
    n = op.shape.n
    if num_qubits(v) != n:
        raise DimensionMismatchError(
            f"state has {num_qubits(v)} qubits, operator acts on {n}"
        )
    if inverse:
        op = op.dagger()
    chain = _state_chain(op)
    diagonal, anti = chain[:, (0, 1), (0, 1)], chain[:, (0, 1), (1, 0)]
    # a zero diagonal flips the bit, else a zero off-diagonal only scales;
    # any other slot mixes basis states: contracted, with coefficients 1
    flips = np.abs(diagonal).max(axis=1) <= _MONOMIAL_TOL
    mixes = ~flips & (np.abs(anti).max(axis=1) > _MONOMIAL_TOL)
    # target bit t picks up chain[j, t, t ^ flip]
    coeffs = _kernels.phase_vector(np.where(flips[:, None], anti, diagonal))
    coeffs[mixes] = 1
    mixers = [(axis, chain[axis]) for axis in np.flatnonzero(mixes).tolist()]
    return _kernels.gather_pass(v, coeffs, flips, mixers, op.shape.k,
                                *np.diagonal(op.diag_block).tolist())


def _basis_terms(bits) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the (..., n) bit array as one product term: coefficients
    (..., 1) of 1 and local vectors (..., 1, n, 2), e_0 or e_1 per qubit."""
    local = np.eye(2, dtype=np.complex128)[np.asarray(bits)][..., None, :, :]
    return np.ones(local.shape[:-2], np.complex128), local


def _product_terms(op: StructuredBraidOp, coeffs: np.ndarray,
                   local: np.ndarray, inverse: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """op (or its adjoint) on r product terms, coefficients (..., r) and
    local vectors (..., r, n, 2): the r diagonal terms (D on slot k's vector)
    then the r chain terms (each slot's 2x2 on its own vector)."""
    if inverse:
        op = op.dagger()
    diagonal = local.copy()
    diagonal[..., op.shape.k - 1, :] *= np.diagonal(op.diag_block)
    chain = (_state_chain(op) @ local[..., None])[..., 0]
    return (np.concatenate([coeffs, coeffs], axis=-1),
            np.concatenate([diagonal, chain], axis=-3))


def _expand(coeffs: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The states sum_t coeffs[..., t] (x)_j local[..., t, j], 2^n amplitudes
    per leading index.  Each term is added as one block of the state viewed
    as (2,)*n: a qubit whose vector has at most one nonzero entry fixes its
    bit, any other spans both values; terms spanning the same qubits are
    added together, repeated blocks summed."""
    *batch, r, n, _ = local.shape
    out = np.zeros((int(np.prod(batch)),) + (2,) * n, np.complex128)
    coeffs, local = coeffs.reshape(-1), local.reshape(-1, n, 2)
    rows = np.arange(coeffs.size) // r
    nonzero = local != 0
    spans = nonzero[..., 0] & nonzero[..., 1]
    bits = (nonzero[..., 1] & ~spans).astype(np.intp)
    factors = np.where(spans, 1, np.where(bits, local[..., 1], local[..., 0]))
    scale = coeffs.copy()
    for column in factors.T:    # not np.prod, which rounds some differently
        scale *= column
    patterns = spans @ (1 << np.arange(n))
    # not np.unique, whose first call imports numpy.ma (about 12 ms)
    for pattern in sorted(set(patterns.tolist())):
        terms = patterns == pattern
        span = spans[np.argmax(terms)]
        spanned, held = np.flatnonzero(span), np.flatnonzero(~span)
        block = scale[terms]
        for j in spanned[::-1]:
            # each new axis goes in front, so the multiply streams the block
            block = np.multiply(block[:, None], local[terms, j].reshape(
                -1, 2, *(1,) * (block.ndim - 1)))
        view = out.transpose(0, *(held + 1), *(spanned + 1))
        np.add.at(view, (rows[terms], *bits[terms][:, held].T), block)
    return out.reshape(*batch, 1 << n)


def apply_to_basis(op: StructuredBraidOp, bits: Bits,
                   inverse: bool = False) -> np.ndarray:
    """op|bits> (or its adjoint on |bits>), built from its two product
    terms; the one state-sized array is the result."""
    bits = parse_bits(bits)
    n = op.shape.n
    if len(bits) != n:
        raise DimensionMismatchError(
            f"state has {len(bits)} qubits, operator acts on {n}")
    return _expand(*_product_terms(op, *_basis_terms(bits), inverse))


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
                   bits) -> tuple[np.ndarray, np.ndarray]:
    """The four product terms of B(n,k) B^-1(n,1) on each basis state, the
    rows of the (..., n) bit array."""
    op1 = structured_braid_op(RepShape(n=n, k=1), params=params)
    opk = structured_braid_op(RepShape(n=n, k=k), params=params)
    return _product_terms(opk, *_product_terms(op1, *_basis_terms(bits),
                                               inverse=True))


def cluster_like_state(n: int, k: int,
                       params: Optional[TLParams] = None) -> np.ndarray:
    """B(n,k) B^-1(n,1) |0...0>: the four-term cluster-like superposition,
    built from its terms.

    Entangled for n >= 2 and k > 1 (k=1 collapses to the identity action);
    at n=4, k=3 this is the 4-qubit linear cluster state.
    """
    n, k = _cluster_size(n, k)
    return _expand(*_cluster_terms(n, k, params, [0] * n))


def cluster_family(n: int, k: int,
                   params: Optional[TLParams] = None) -> list[np.ndarray]:
    """B(n,k) B^-1(n,1) applied to every basis state: 2^n orthonormal states,
    the rows of one 2^n x 2^n array expanded from the terms of all 2^n inputs.

    Dense-cap bound (n <= DENSE_CAP_QUBITS): the family as a whole is
    matrix-sized.
    """
    n, k = _cluster_size(n, k)
    if n > DENSE_CAP_QUBITS:
        raise CapacityError(f"cluster family on {n} qubits stores 4^{n} "
                            f"amplitudes; capped at n={DENSE_CAP_QUBITS}")
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return list(_expand(*_cluster_terms(n, k, params, bits)))
