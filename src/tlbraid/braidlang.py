"""Tiny braid-word DSL: parse, render, and evaluate words in B_m.

Grammar: a word is one or more whitespace-separated factors, each
``b<INDEX>`` with an optional ``^<SIGNED_INT>`` exponent (default 1, zero
rejected).  Indices are 1-based generator numbers, below `declared_strands`
when given and checked against the representation where a word is used.
Words act on kets from the left in reading order: "b1 b2" |v> = (b1 b2) |v>.
A word has one product per family, its `fold` or the bell loop, which
`evaluate_on_state` runs on a state and `evaluate` on the identity.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .braidrep import BraidRepresentation, bell_matrix
from .errors import (BraidSyntaxError, DimensionMismatchError, DomainError,
                     as_int)
from .linalg import apply_in_place, dagger, kron_all, max_abs, num_qubits
from .states import apply_structured
from .tla import StructuredBraidOp

_FACTOR_RE = re.compile(r"b(\d+)(?:\^([+-]?\d+))?\Z")


@dataclass(frozen=True)
class BraidWord:
    factors: tuple[tuple[int, int], ...]   # (generator index, exponent)


def parse(text: str, declared_strands: Optional[int] = None) -> BraidWord:
    """Parse braid-word text; syntax errors carry the character position."""
    if not isinstance(text, str):
        raise DomainError(f"a braid word is text, got {type(text).__name__}")
    if declared_strands is not None and \
            as_int(declared_strands, "declared_strands") < 2:
        raise DomainError(f"need at least 2 strands, got {declared_strands}")
    factors = []
    matches = list(re.finditer(r"\S+", text))
    if not matches:
        raise BraidSyntaxError("empty braid word", 0)
    for tok in matches:
        m = _FACTOR_RE.match(tok.group())
        if m is None:
            raise BraidSyntaxError(
                f"bad factor {tok.group()!r}; expected bN or bN^E", tok.start()
            )
        try:
            index = int(m.group(1))
            exponent = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:      # beyond Python's int-from-text digit limit
            raise BraidSyntaxError("number with too many digits",
                                   tok.start()) from None
        if index < 1:
            raise BraidSyntaxError("generator index must be >= 1", tok.start())
        if exponent == 0:
            raise BraidSyntaxError("zero exponent not allowed", tok.start())
        if declared_strands is not None and index > declared_strands - 1:
            raise BraidSyntaxError(
                f"generator b{index} out of range for {declared_strands} strands "
                f"(has b1..b{declared_strands - 1})", tok.start()
            )
        factors.append((index, exponent))
    return BraidWord(tuple(factors))


def render(word: BraidWord) -> str:
    return " ".join(
        f"b{i}" if e == 1 else f"b{i}^{e}" for i, e in word.factors
    )


def _check_compat(word: BraidWord, rep: BraidRepresentation) -> None:
    if not word.factors:
        raise DomainError("empty braid word")
    for index, exponent in word.factors:
        if as_int(index, "a generator index") < 1:
            raise DomainError(f"generator index must be >= 1, got {index}")
        as_int(exponent, "an exponent")
    top = max(i for i, _ in word.factors)
    if top > rep.strands - 1:
        raise DomainError(
            f"word uses b{top} but the {rep.family} representation has "
            f"{rep.strands - 1} generators"
        )


def _too_long(word: BraidWord, verb: str, why) -> DomainError:
    return DomainError(f"braid word {render(word)!r:.80} is too long to "
                       f"{verb} within 1e-9 of unitarity: {why}")


def _bell_loop(word: BraidWord, out: np.ndarray) -> np.ndarray:
    """out <- (word) out, in place: R^(e mod 8) on qubits (i, i+1) of the
    flat state out, one factor at a time, the rightmost first."""
    r = bell_matrix()
    for index, exponent in reversed(word.factors):
        # R^8 = I, so R^e = R^(e mod 8) for every integer e, exactly
        apply_in_place(np.linalg.matrix_power(r, exponent % 8), out, index)
    return out


def evaluate(word: BraidWord, rep: BraidRepresentation) -> np.ndarray:
    """The word's dense matrix: `fold(word, rep).dense()` for a jones word,
    the bell loop on the identity for a bell word, taken as a flat state of
    2m qubits whose first m index the rows.  The dense cap applies before
    anything is allocated; as in `fold`, a product that deviates from
    unitarity by more than 1e-9 is refused with a DomainError."""
    _check_compat(word, rep)
    if rep.family == "jones":
        return fold(word, rep).dense()
    flat = kron_all(*[np.eye(2, dtype=np.complex128)] * rep.strands).reshape(-1)
    out = _bell_loop(word, flat).reshape(rep.dim, rep.dim)
    residual = max_abs(dagger(out) @ out - np.eye(rep.dim))
    if not residual <= 1e-9:
        raise _too_long(word, "evaluate", f"residual {residual:.3e}")
    return out


def fold(word: BraidWord, rep: BraidRepresentation) -> StructuredBraidOp:
    """A jones word as one slot-chain pair; each power b_i^e costs
    O(log |e|) 2x2 pair products.  Each squaring doubles the rounding
    drift, so a word whose pair deviates from unitarity by more than 1e-9,
    or whose powers overflow first, is refused with a DomainError."""
    _check_compat(word, rep)
    if rep.family != "jones":
        raise DomainError(f"only jones words fold into a pair, not {rep.family}")
    pairs = rep.pairs
    try:
        with np.errstate(over="raise", invalid="raise"):
            op = reduce(operator.matmul, (
                (pairs.generators if e > 0 else pairs.inverses)[i - 1] ** abs(e)
                for i, e in word.factors))
        op.require_unitary(1e-9)
    except (FloatingPointError, DomainError) as exc:
        raise _too_long(word, "fold", exc) from None
    return op


def evaluate_on_state(word: BraidWord, rep: BraidRepresentation,
                      v: np.ndarray) -> np.ndarray:
    """Apply the word to a state without forming its matrix.

    A jones word folds into one slot-chain pair (2x2 products, each power
    by binary powering) that acts in one pass over the amplitudes; a bell
    word runs the bell loop on a copy of v.
    """
    if rep.dim != 1 << num_qubits(v):
        raise DimensionMismatchError(
            f"representation dim {rep.dim} vs state length {v.size}"
        )
    if rep.family == "jones":
        return apply_structured(fold(word, rep), v)
    _check_compat(word, rep)
    return _bell_loop(word, np.array(v, dtype=np.complex128))
