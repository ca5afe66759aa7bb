"""The amplitude-pass kernel for the structured braiding operator.

The structured operator is (diagonal term at slot k) + (tensor chain), so one
pass over the 2^n amplitudes suffices.  The kernel views the state as one
axis per qubit (qubit 1 = axis 0, the most significant index bit) and writes
the result block by block, one block per value of the top axes:

1. fill the block with the chain's scale-and-flip part: the flipped view of
   v (each maximal run of bit-flipping axes reversed) times the coefficient
   table by target bit, held as the Kronecker vector of the block's rows
   and one scalar per block;
2. contract each slot whose 2x2 mixes basis states (H, tilted axes) with
   its 2x2, in place with `linalg.apply_in_place`;
3. add the slot-k diagonal term d(x_k) v.

The chain's factors act on distinct axes and the mixing slots neither flip
nor scale, so the order of steps 1 and 2 does not matter.  Mixing slots
inside a block's axes are contracted while the block is in cache, and step 3
follows at once; mixing slots on the top axes need the whole result, and
then steps 2 and 3 run as passes of their own.  The result is the one array
of the state's size: every temporary holds at most a quarter of the state
and `linalg.BLOCK_AMPS` amplitudes.

Every block is written from its own source block, weights, scale and
diagonal, so `linalg._each_block` can spread the block loop (see `states`
for when); one thread per 8 blocks keeps the threads' block temporaries
within an eighth of the state.  Dressings with a mixing slot keep one
thread: spread, an inner mixer on the last block axes loses, as
`apply_in_place` contracts it by one matmul over rows of up to 32
amplitudes and OpenBLAS's own thread pool then competes with the block
threads.  The whole-state passes of outer mixers gained nothing below 2^24
amplitudes.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from . import linalg


def backend() -> str:
    """The kernel backend; numpy is the only one."""
    return "numpy"


def phase_vector(coeff_pairs) -> np.ndarray:
    """(n, 2) table of per-qubit (bit=0, bit=1) coefficients, qubit 1 first."""
    return np.array(coeff_pairs, dtype=np.complex128).reshape(-1, 2)


def _kron_rows(rows: np.ndarray) -> np.ndarray:
    """Kronecker product of the table's rows (first row most significant)."""
    out = np.ones(1, dtype=np.complex128)
    for row in rows:
        out = np.multiply.outer(out, row).reshape(-1)
    return out


def gather_pass(v: np.ndarray, coeffs: np.ndarray, flips: Sequence[bool],
                mixers: Sequence[tuple[int, np.ndarray]], k: int,
                diag0: complex, diag1: complex) -> np.ndarray:
    """d(x_k) v + (tensor chain) v for an n-qubit state v, as complex128.

    `coeffs` is the (n, 2) table from `phase_vector` by target bit: row j
    holds what target bit 0/1 of axis j picks up; `flips[j]` says whether
    axis j's slot flips its bit; `mixers` lists (axis, 2x2) for the slots that
    mix basis states, whose table rows are (1, 1).  `k` is the 1-based slot
    of the diagonal block diag(diag0, diag1).
    """
    n = len(coeffs)
    # blocks hold at most an eighth of the state and BLOCK_AMPS amplitudes
    low = max(0, min(n - 3, linalg.BLOCK_AMPS.bit_length() - 1))
    top = n - low
    scales = _kron_rows(coeffs[:top])
    runs = [(flip, len(list(group))) for flip, group in groupby(flips[top:])]
    shape = [1 << size for _, size in runs]
    flipped = tuple(slice(None, None, -1) if flip else slice(None)
                    for flip, _ in runs)
    weights = _kron_rows(coeffs[top:]).reshape(shape)
    source = sum(1 << (top - 1 - j) for j, flip in enumerate(flips[:top]) if flip)
    inner = [(axis - top + 1, m2) for axis, m2 in mixers if axis >= top]
    outer = [(axis + 1, m2) for axis, m2 in mixers if axis < top]

    out = np.empty(v.shape, dtype=np.complex128)
    blocks, v_blocks = out.reshape(1 << top, -1), v.reshape(1 << top, -1)
    diag = np.array([diag0, diag1], dtype=np.complex128)
    split = (1, 1, -1) if k <= top else (1 << (k - 1 - top), 2, -1)
    # at most one thread per 8 blocks, each with a block temporary
    threads = 1 if mixers else min(linalg._CORES, len(blocks) // 8)

    def add_diagonal(part: int, tmp: np.ndarray) -> None:
        d = diag[(part >> (top - k)) & 1] if k <= top else diag[:, None]
        np.multiply(v_blocks[part].reshape(split), d, out=tmp.reshape(split))
        blocks[part] += tmp

    def fill(parts: Iterable[int]) -> None:
        tmp = np.empty(1 << low, dtype=np.complex128)
        for part in parts:
            block = blocks[part]
            np.multiply(v_blocks[part ^ source].reshape(shape)[flipped],
                        weights, out=block.reshape(shape))
            if scales[part] != 1:
                block *= scales[part]
            for pos, m2 in inner:
                linalg.apply_in_place(m2, block, pos)
            if not outer:
                add_diagonal(part, tmp)

    linalg._each_block(len(blocks), fill, threads)
    for pos, m2 in outer:
        linalg.apply_in_place(m2, out, pos)
    if outer:
        tmp = np.empty(1 << low, dtype=np.complex128)
        for part in range(len(blocks)):
            add_diagonal(part, tmp)
    return out

