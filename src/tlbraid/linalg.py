"""Dense complex linear algebra kernel.

Conventions used throughout the package:

  * matrices and state vectors are ``complex128`` ndarrays; a state over n
    qubits has 2**n amplitudes,
  * qubit 1 is the leftmost tensor factor and the most significant bit of
    the amplitude index, so |a1 a2 ... an> sits at index sum a_j 2**(n-j),
  * no function mutates its inputs but `apply_in_place`, the one primitive
    that applies a matrix to adjacent qubits (of a matrix's rows, too, in
    `braidlang.evaluate`, taken as a flat state of twice the qubits),
  * dense matrices, built by `kron_all` (stacks (..., rows, cols) that
    broadcast, as in `dagger` and `max_abs`), are capped at 2**12 x 2**12
    (DENSE_CAP_DIM) entries per matrix and per stack where they are asked
    for (`braidlang.evaluate`, a representation's `.generators`,
    `tla.tl_projectors`); braid words act on states of any size up to the
    structured cap of `states` without them,
  * work split into independent parts (the amplitude pass's blocks, the
    verify grid's slices) runs on the usable cores through `_each_block`.

JSON interchange: a state is {"n_qubits", "amplitudes"}, each amplitude a
two-element [re, im] list, bare or held under "state" as in the CLI's JSON
output; `state_to_json` writes it and `state_from_json` reads it.  Both
state writers, JSON and the CLI's text, stream through `_write_chunks`.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import CapacityError, DimensionMismatchError, DomainError, as_int

DENSE_CAP_QUBITS = 12
DENSE_CAP_DIM = 2**DENSE_CAP_QUBITS
#: Amplitudes in the largest temporary a pass over a state holds (1 MiB)
BLOCK_AMPS = 1 << 16
#: Widest rows on which `apply_in_place` applies m x I in one matmul
_ROWS = 32
#: Cores this process may run on, read at import; `_each_block` spreads
#: over at most this many threads
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)


def require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise DomainError("non-finite entries (NaN/Inf) are not accepted")


def require_array(x, what: str) -> None:
    """DomainError unless x is a numpy array of numbers (bool, integer, real
    or complex); x is neither copied nor converted."""
    if not isinstance(x, np.ndarray) or x.dtype.kind not in "biufc":
        got = f"dtype {x.dtype}" if isinstance(x, np.ndarray) else type(x).__name__
        raise DomainError(f"{what} must be a numeric numpy array, got {got}")


def _as_complex(x, what: str) -> np.ndarray:
    """x as a complex128 array, not copied if it is one: a numeric array
    (`require_array`) or nested lists of numbers (integers within 64 bits);
    text, None and ragged lists are refused with DomainError."""
    try:
        a = np.asarray(x)
    except ValueError:      # ragged nesting, refused below as a list
        a = x
    require_array(a, what)
    return a.astype(np.complex128, copy=False)


def num_qubits(v: np.ndarray) -> int:
    """Qubit count of a state vector: a numeric 1-D array (`require_array`)
    whose length is a power of two (at least 1)."""
    require_array(v, "a state")
    if v.ndim != 1 or not v.size or v.size & (v.size - 1):
        raise DimensionMismatchError(f"not a qubit state of shape {v.shape}")
    return v.size.bit_length() - 1


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor most significant, of matrices, rows
    (1-D) or stacks (..., rows, cols) that broadcast: entry i of a stack is
    the product of the factors' entries i, folded left to right from 1.

    Raises CapacityError, before allocating, if a result matrix would
    exceed the dense cap or the stack hold more entries than one would.
    """
    factors = [np.atleast_2d(f) for f in factors]
    try:
        batch = np.broadcast_shapes(*(f.shape[:-2] for f in factors))
    except ValueError:
        raise DimensionMismatchError(
            f"kron stacks {[f.shape for f in factors]} do not broadcast"
        ) from None
    rows = math.prod(f.shape[-2] for f in factors)
    cols = math.prod(f.shape[-1] for f in factors)
    if max(rows, cols) > DENSE_CAP_DIM or \
            math.prod(batch) * rows * cols > DENSE_CAP_DIM ** 2:
        raise CapacityError(
            f"kron of {len(factors)} factors stacked {batch} exceeds the "
            f"dense cap of {DENSE_CAP_DIM}x{DENSE_CAP_DIM} entries"
        )
    out = np.ones((1, 1), dtype=np.complex128)
    for f in factors:
        product = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = product.reshape(product.shape[:-4] + (
            out.shape[-2] * f.shape[-2], out.shape[-1] * f.shape[-1]))
    return out


def require_square(*ms) -> None:
    """DimensionMismatchError unless ms are square matrices of one size, or
    stacks (..., dim, dim) of them that broadcast together."""
    shapes = [np.shape(m) for m in ms]
    try:
        np.broadcast_shapes(*(s[:-2] for s in shapes))
        square = all(len(s) >= 2 and s[-2:] == (s[-1],) * 2 == shapes[0][-2:]
                     for s in shapes)
    except ValueError:
        square = False
    if not square:
        raise DimensionMismatchError(
            f"shapes {shapes} are no square matrices of one size")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack (..., rows, cols)."""
    return m.conj().swapaxes(-1, -2)


def apply_in_place(m: np.ndarray, v: np.ndarray, first: int) -> None:
    """v <- m acting on qubits first..first+j-1 (1-based) of the complex
    state v, for a 2^j x 2^j matrix m; the one function that writes to its
    input.

    Works slab by slab through temporaries of at most BLOCK_AMPS amplitudes
    and a quarter of v (but at least 2^j).  Where the qubits and those after
    them span at most _ROWS amplitudes, v is taken as rows of that span and
    multiplied by (m x I)^T, one matmul per slab: as a stack of 2^j-row
    slices these would be many tiny matmuls.
    """
    m = _as_complex(m, "a matrix")
    n, first = num_qubits(v), as_int(first, "a qubit label")
    if v.dtype != np.complex128 or not v.flags.c_contiguous:
        raise DomainError("a state is changed in place only as one "
                          "contiguous complex128 array")
    d = m.shape[0]
    j = d.bit_length() - 1
    if m.shape != (d, d) or d != 1 << j or j < 1:
        raise DimensionMismatchError(f"matrix of shape {m.shape} is no "
                                     "2^j x 2^j qubit operator")
    if not 1 <= first <= n - j + 1:
        raise DimensionMismatchError(
            f"qubits {first}..{first + j - 1} out of range 1..{n}")
    lead, rest = 1 << (first - 1), 1 << (n - first - j + 1)
    span, chunk = d * rest, max(d, min(BLOCK_AMPS, v.size >> 2))
    step = min(lead, max(1, chunk // span))
    if span <= _ROWS and span * span <= max(d * d, v.size >> 2):
        mt = np.zeros((d, rest, d, rest), dtype=np.complex128)
        for r in range(rest):       # (m x I_rest)^T
            mt[:, r, :, r] = m.T
        mt, rows = mt.reshape(span, span), v.reshape(lead, span)
        buf = np.empty((step, span), dtype=np.complex128)
        for lo in range(0, lead, step):
            np.matmul(rows[lo:lo + step], mt, out=buf)
            rows[lo:lo + step] = buf
        return
    t = v.reshape(lead, d, rest)
    width = min(rest, chunk // d)
    buf = np.empty((step, d, width), dtype=np.complex128)
    for lo in range(0, lead, step):
        for ro in range(0, rest, width):
            part = t[lo:lo + step, :, ro:ro + width]
            np.matmul(m, part, out=buf)
            part[...] = buf


def apply_single_qubit(m2: np.ndarray, v: np.ndarray, pos: int) -> np.ndarray:
    """Apply a 2x2 matrix to qubit `pos` (1-based) of a state (`num_qubits`)."""
    m2 = _as_complex(m2, "a matrix")
    if m2.shape != (2, 2):
        raise DimensionMismatchError(f"matrix of shape {m2.shape} is no "
                                     "single-qubit operator")
    num_qubits(v)
    out = np.array(v, dtype=np.complex128)
    apply_in_place(m2, out, pos)
    return out


def _each_block(count: int, body: Callable[[Iterable[int]], None],
                threads: int) -> None:
    """body(parts) over the indices 0..count-1 of independent blocks of work.

    With one thread, body gets them all in order.  Otherwise the calling
    thread and threads - 1 others each run body on a share of the blocks,
    taken one at a time from a shared counter, and all are joined before
    this returns; the first exception raised in any of them is raised here.
    Callers choose threads from `_CORES` and their block count.
    """
    if threads <= 1:
        body(range(count))
        return
    counter, lock, errors = iter(range(count)), threading.Lock(), []

    def parts():
        while not errors:
            with lock:
                part = next(counter, None)
            if part is None:
                return
            yield part

    def work() -> None:
        try:
            body(parts())
        except BaseException as exc:    # re-raised in the calling thread
            errors.append(exc)

    started = []
    try:
        for _ in range(min(threads, count) - 1):
            worker = threading.Thread(target=work)
            worker.start()
            started.append(worker)
        work()
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def max_abs(m: np.ndarray):
    """Max-norm residual helper: largest entry magnitude.

    A stack of matrices (..., rows, cols) gives an array of one per matrix.
    """
    if m.ndim > 2:
        return np.abs(m).max(axis=(-2, -1), initial=0.0)
    return float(np.max(np.abs(m))) if m.size else 0.0


def _column_phase_match(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff u = c*v entrywise for some unit scalar c (zero pairs pass)."""
    ov = np.vdot(v, u)
    if abs(ov) < 1e-300:
        return max_abs(u) <= tol and max_abs(v) <= tol
    c = ov / abs(ov)
    return max_abs(u - c * v) <= tol


def phase_equivalent(u, v, mode: str = "global", tol: float = 1e-10) -> bool:
    """Phase-insensitive comparison of matrices or state vectors.

    global mode: vectors pass iff |<u|v>| = ||u|| ||v|| within tol;
    matrices pass iff u = c*v entrywise for a single unit scalar c.
    columnwise mode: each column of u must be a unit-scalar multiple of the
    matching column of v.
    """
    u = _as_complex(u, "a matrix or state")
    v = _as_complex(v, "a matrix or state")
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    if mode == "global":
        if u.ndim == 1:
            return abs(abs(np.vdot(u, v)) - norm(u) * norm(v)) <= tol
        return _column_phase_match(u.ravel(), v.ravel(), tol)
    if mode == "columnwise":
        if u.ndim != 2:
            raise DimensionMismatchError("columnwise mode needs matrices")
        return all(
            _column_phase_match(u[:, j], v[:, j], tol) for j in range(u.shape[1])
        )
    raise DomainError(f"unknown mode {mode!r}; use global or columnwise")


# --- JSON interchange ------------------------------------------------------

def _pairs_from_json(pairs) -> np.ndarray:
    """Complex vector from [[re, im], ...]; DomainError for anything else.

    The dtype is checked before converting, since a float conversion would
    accept "1"; integers beyond 64 bits decode to an object array and are
    refused with it.
    """
    try:
        a = np.array(pairs)
    except ValueError:      # ragged nesting
        a = None
    if a is None or a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "biuf":
        raise DomainError("expected [re, im] pairs of numbers "
                          "(integers within 64 bits)")
    return np.ascontiguousarray(a, np.float64).view(np.complex128).reshape(-1)


#: Amplitudes formatted per write, so only one chunk's text is held.
_CHUNK_PAIRS = 1 << 16
#: Stands in for the amplitude list while json.dumps lays out the rest.
_AMPLITUDES = "\0amplitudes\0"


def _pair_texts(pairs: np.ndarray, sep: str) -> list[str]:
    """The JSON text of each [re, im] row of pairs: float.__repr__ of both
    parts joined by sep, or one of four shared texts when both are zero."""
    # the zero pairs' texts, by their sign bits 2 * signbit(re) + signbit(im)
    zeros = np.array([re + sep + im for re in ("0.0", "-0.0")
                      for im in ("0.0", "-0.0")], dtype=object)
    texts = zeros[np.signbit(pairs) @ [2, 1]]
    nonzero = np.flatnonzero(pairs.any(axis=1))
    reprs = map(float.__repr__, pairs[nonzero].ravel().tolist())
    texts[nonzero] = list(map(sep.join, zip(reprs, reprs)))
    return texts.tolist()


def _write_chunks(fh, v: np.ndarray, render: Callable) -> None:
    """Write render(start, v[start:start + _CHUNK_PAIRS]) to fh for each
    chunk of v in turn: the one loop of the JSON and the text state writers."""
    for start in range(0, len(v), _CHUNK_PAIRS):
        fh.write(render(start, v[start:start + _CHUNK_PAIRS]))


def state_to_json(fh, v: np.ndarray, outer: Optional[dict] = None) -> None:
    """Write json.dumps(doc, indent=2) and a newline to the text file fh,
    byte for byte, where doc is the state {"n_qubits", "amplitudes"} or
    `outer` with the state under "state" (in that key's place if it has one).

    The amplitudes are streamed by `_write_chunks`, each float written by
    float.__repr__ as json's encoder does.
    """
    require_finite(v)       # json would write NaN, which no reader accepts
    doc = {"n_qubits": num_qubits(v), "amplitudes": _AMPLITUDES}
    if outer is not None:
        doc = {**outer, "state": doc}
    text = json.dumps(doc, indent=2) + "\n"
    head, _, tail = text.partition(json.dumps(_AMPLITUDES))
    # indent=2 line breaks of the amplitude list, its pairs and their parts
    end = "\n" + "  " * (1 if outer is None else 2)
    row, part = end + "  ", end + "    "
    sep, between = "," + part, row + "]," + row + "[" + part

    def pairs_text(start: int, z: np.ndarray) -> str:
        texts = _pair_texts(z.view(np.float64).reshape(-1, 2), sep)
        return (between if start else "") + between.join(texts)

    fh.write(head + "[" + row + "[" + part)
    _write_chunks(fh, np.ascontiguousarray(v, np.complex128), pairs_text)
    fh.write(row + "]" + end + "]" + tail)


def state_from_json(obj) -> np.ndarray:
    """Decode {"n_qubits": n, "amplitudes": [[re, im], ...]}, bare or held
    under "state" as the CLI's generate, apply and entropy write it: 2^n
    finite amplitudes, viewed as complex in the array the pairs decode to."""
    if isinstance(obj, dict) and "state" in obj:
        obj = obj["state"]
    if not isinstance(obj, dict) or not {"n_qubits", "amplitudes"} <= obj.keys():
        raise DomainError('a state needs the keys "n_qubits" and "amplitudes"')
    n = obj["n_qubits"]
    if isinstance(n, bool) or not (isinstance(n, int) or
                                   isinstance(n, float) and n.is_integer()):
        raise DomainError("a state needs an integer n_qubits")
    v = _pairs_from_json(obj["amplitudes"])
    require_finite(v)
    if num_qubits(v) != n:
        raise DimensionMismatchError(
            f"{v.size} amplitudes for an {n}-qubit state"
        )
    return v
