"""Unitary braid-group representations and their defining-relation checks.

Two families, each held by its definition:

  * "jones": three-strand generators b_i = A h_i + A^{-1} I built from the
    Temperley-Lieb pair h_i = d E_i of `tla`, kept as the slot-chain pairs
    of `tla.jones_pairs`,
  * "bell": the m-strand tensor representation b_i = I x..x R x..x I with
    the 4x4 Bell matrix R in slots (i, i+1).

The 2^n x 2^n generator matrices are built, under the dense cap, only when
something reads them; jones powers are taken of the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, as_int
from .linalg import dagger, kron_all, max_abs, require_square
from .reports import RelationReport
from .tla import JonesPairs, RepShape, TLParams, jones_pairs

_BELL = (1.0 / np.sqrt(2.0)) * np.array(
    [[1, 0, 0, -1],
     [0, 1, -1, 0],
     [0, 1, 1, 0],
     [1, 0, 0, 1]], dtype=np.complex128)


def bell_matrix() -> np.ndarray:
    """The 4x4 unitary Yang-Baxter solution taking |ab> to Bell states."""
    return _BELL.copy()


@dataclass(frozen=True)
class BraidRepresentation:
    strands: int
    pairs: Optional[JonesPairs] = None      # jones only

    def __post_init__(self):
        m = as_int(self.strands, "a strand count")
        if m < 2 or self.pairs and m != 3:
            raise DomainError(f"a {self.family} representation needs "
                              f"{'3' if self.pairs else 'at least 2'} "
                              f"strands, got {self.strands}")
        if self.pairs:
            for b in self.pairs.generators + self.pairs.inverses:
                b.require_unitary()

    @property
    def family(self) -> str:
        """jones exactly when it holds the pairs, else bell."""
        return "jones" if self.pairs else "bell"

    @property
    def dim(self) -> int:
        """Length of the states it acts on."""
        return 1 << (self.pairs.generators[0].shape.n if self.pairs
                     else self.strands)

    @cached_property
    def generators(self) -> tuple[np.ndarray, ...]:
        """The dense generator matrices (dense cap applies)."""
        if self.pairs:
            return tuple(b.dense() for b in self.pairs.generators)
        eye = np.eye(2, dtype=np.complex128)
        m = self.strands
        return tuple(kron_all(*[eye] * (i - 1), _BELL, *[eye] * (m - i - 1))
                     for i in range(1, m))


def jones_representation(p: TLParams, shape: RepShape,
                         spec: tuple[np.ndarray, ...]) -> BraidRepresentation:
    """Three-strand representation b_i = A h_i + A^{-1} I, h_i = d E_i.

    The inverse is b_i^{-1} = A^{-1} h_i + A I; both are exact consequences
    of h_i^2 = d h_i.  Each is a pair of `jones_pairs`, checked unitary.
    """
    return BraidRepresentation(3, jones_pairs(shape, p, spec))


def bell_representation(m: int) -> BraidRepresentation:
    """m-strand tensor representation with the Bell matrix in slot (i, i+1)."""
    return BraidRepresentation(m)


def check_braid_relations(gens: Sequence[np.ndarray]):
    """(name, residual) pairs of the adjacent braid, far-commutation and
    unitarity relations: a float each for matrices, an array of one per
    stacked point for stacks (..., dim, dim) that broadcast together."""
    require_square(*gens)
    named = []
    for i in range(len(gens) - 1):
        bi, bj = gens[i], gens[i + 1]
        named.append((
            f"braid_b{i + 1}b{i + 2}b{i + 1}",
            max_abs(bi @ bj @ bi - bj @ bi @ bj),
        ))
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            named.append((
                f"commute_b{i + 1}b{j + 1}",
                max_abs(gens[i] @ gens[j] - gens[j] @ gens[i]),
            ))
    for i, g in enumerate(gens, start=1):
        named.append((
            f"unitary_b{i}",
            max_abs(dagger(g) @ g - np.eye(g.shape[-1])),
        ))
    return named


def check_yang_baxter(r: np.ndarray):
    """The (name, residual) pair of (R x I)(I x R)(R x I) =
    (I x R)(R x I)(I x R), in a list as the other relation checks give."""
    if r.shape != (4, 4):
        raise DimensionMismatchError(f"Yang-Baxter check needs a 4x4 matrix, got {r.shape}")
    eye = np.eye(2, dtype=np.complex128)
    ri = kron_all(r, eye)
    ir = kron_all(eye, r)
    return [("yang_baxter", max_abs(ri @ ir @ ri - ir @ ri @ ir))]


def _root_of_unity_order(A: complex) -> Optional[int]:
    """The least m <= 1024 with |A^m - 1| <= 1e-9, or None."""
    z = 1.0 + 0.0j
    for m in range(1, 1025):
        z *= A
        if abs(z - 1.0) <= 1e-9:
            return m
    return None


def generator_power_identity(rep: BraidRepresentation,
                             tol: float = 1e-10) -> RelationReport:
    """Non-faithfulness power identities.

    jones family: with m the least order with A^m = 1, checks
    b_i^m = ((-1)^m - 1)/d * h_i + I, plus b_i^m = I for even m
    (b_i^{2m} = I for odd m), of pair powers and h_i = d E_i; no checks, as
    its note says, where A is no root of unity within the bounded search.
    bell family: R^8 = I, b_i^8 = I.
    """
    if rep.family == "bell":
        named = [("R8_eq_I", max_abs(np.linalg.matrix_power(_BELL, 8) - np.eye(4)))]
        eye = np.eye(rep.dim)
        for i, g in enumerate(rep.generators, start=1):
            named.append((f"b{i}^8_eq_I", max_abs(np.linalg.matrix_power(g, 8) - eye)))
        return RelationReport.from_residuals(named, tol)

    pairs = rep.pairs
    p = pairs.generators[0].params
    m = _root_of_unity_order(p.A)
    if m is None:
        return RelationReport(
            checks=(), tol=tol,
            note="A is not a root of unity within order 1024; "
                 "power identity not applicable",
        )
    eye = np.eye(rep.dim)
    coeff = ((-1) ** m - 1) / p.d
    named = [(f"A_root_order_{m}", abs(p.A ** m - 1.0))]
    for i, (b, E) in enumerate(zip(pairs.generators, pairs.projectors), 1):
        gm = (b ** m).dense()
        named.append((f"b{i}^{m}_eq_closed_form",
                      max_abs(gm - (coeff * p.d * E.dense() + eye))))
        if m % 2 == 0:
            named.append((f"b{i}^{m}_eq_I", max_abs(gm - eye)))
        else:
            named.append((f"b{i}^{2 * m}_eq_I",
                          max_abs((b ** (2 * m)).dense() - eye)))
    return RelationReport.from_residuals(
        named, tol, note=f"least m with A^m=1: {m}"
    )
