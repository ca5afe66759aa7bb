"""The amplitude-pass kernel for the structured braiding operator.

The structured operator is (diagonal term at slot k) + (tensor chain), so one
pass over the 2^n amplitudes suffices.  The kernel views the state as one
axis per qubit (qubit 1 = axis 0, the most significant index bit) and builds
the tensor-chain term axis by axis:

1. scale axis j by the coefficient its source bit picks up, coeffs[j, bit],
   as one broadcast multiply by two half-length Kronecker vectors;
2. contract the slots whose 2x2 mixes basis states (H, tilted axes), in
   place while the term is still contiguous;
3. reverse each maximal run of bit-flipping axes, as a view;
4. add the slot-k diagonal term d(x_k) v.

No index array and no 2^n coefficient vector is built; the peak is about
twice the state (the term and the result).
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np


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


def _contract_axis(term: np.ndarray, axis: int, m2: np.ndarray) -> None:
    """term <- m2 acting on `axis`, in place with half-size temporaries."""
    t = term.reshape(1 << axis, 2, -1)
    a, b = t[:, 0], t[:, 1]
    new_a = a * m2[0, 0]
    new_a += m2[0, 1] * b
    b *= m2[1, 1]
    b += m2[1, 0] * a
    a[...] = new_a


def gather_pass(v: np.ndarray, coeffs: np.ndarray, flips: Sequence[bool],
                mixers: Sequence[tuple[int, np.ndarray]], k: int,
                diag0: complex, diag1: complex) -> np.ndarray:
    """d(x_k) v + (tensor chain) v for an n-qubit state v.

    `coeffs` is the (n, 2) table from `phase_vector`; `flips[j]` says whether
    axis j's slot flips its bit; `mixers` lists (axis, 2x2) for the slots that
    mix basis states, whose table rows are (1, 1).  `k` is the 1-based slot
    of the diagonal block diag(diag0, diag1).
    """
    n = len(coeffs)
    half = n // 2
    term = v.reshape(1 << half, -1) * _kron_rows(coeffs[:half])[:, None]
    term *= _kron_rows(coeffs[half:])
    for axis, m2 in mixers:
        _contract_axis(term, axis, m2)

    # by parts of the top qubits: numpy's ufunc buffers grow with the
    # operands up to 128 KiB, so on small states whole-state operands would
    # add a third state to the peak
    top = min(n, 2)
    runs = [(flip, 1) for flip in flips[:top]]
    runs += [(flip, len(list(group))) for flip, group in groupby(flips[top:])]
    shape = [1 << size for _, size in runs]
    flipped = term.reshape(shape)[tuple(slice(None, None, -1) if flip
                                        else slice(None) for flip, _ in runs)]
    out = np.empty_like(v)
    dd = np.array([[diag0], [diag1]])
    for part, (out_p, v_p) in enumerate(zip(out.reshape(1 << top, -1),
                                            v.reshape(1 << top, -1))):
        bits = [(part >> (top - 1 - j)) & 1 for j in range(top)]
        if k <= top:
            np.multiply(v_p, dd[bits[k - 1], 0], out=out_p)
        else:
            np.multiply(v_p.reshape(1 << (k - 1 - top), 2, -1), dd,
                        out=out_p.reshape(1 << (k - 1 - top), 2, -1))
        np.add(out_p.reshape(shape[top:]), flipped[tuple(bits)],
               out=out_p.reshape(shape[top:]))
    return out
