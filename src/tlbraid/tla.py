"""Temperley-Lieb parameter bundle and the 2^n x 2^n projector realization.

The construction places three 2x2 blocks (e1, e2, e3) at tensor slot k out
of n and dresses the e3 term with Hermitian involutions s_j on the other
slots; the resulting pair (E1, E2) generates a matrix realization of the
three-strand Temperley-Lieb algebra with loop weight d = -2 cos(2 theta).
Every operator of that algebra, and of the braid group it represents, is
one `StructuredBraidOp`: a diagonal block at slot k plus an antidiagonal
block dressed with the involution chain, unitary because every s_j is a
Hermitian involution: `involution_spec` checks every chain where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import gates
from .errors import DimensionMismatchError, DomainError, as_int
from .linalg import dagger, kron_all, max_abs, require_square

_INVOLUTION_TOL = 1e-14


@dataclass(frozen=True)
class TLParams:
    """Scalar parameters: A = e^{i theta}, d = -2 cos(2 theta), a, b.

    a = +-1/|d| and b = +-sqrt(1 - 1/d^2) (`tl_params` picks the signs), so
    a^2 + b^2 = 1 and a^2 = 1/d^2; hermiticity of the h_i needs d^2 >= 1.
    """

    theta: float
    phi: float
    A: complex
    d: float
    a: float
    b: float


def tl_params(theta: float, phi: float = 0.0,
              a_sign: int = 1, b_sign: int = 1) -> TLParams:
    """Build TLParams, rejecting theta outside the hermiticity domain.

    Admissible theta satisfy d^2 = 4 cos^2(2 theta) >= 1, i.e.
    |theta mod pi| <= pi/6 (d <= -1) or |theta mod pi - pi/2| <= pi/6
    (d >= +1).
    """
    a_sign, b_sign = as_int(a_sign, "a_sign"), as_int(b_sign, "b_sign")
    if a_sign not in (1, -1) or b_sign not in (1, -1):
        raise DomainError("a_sign and b_sign must be +1 or -1")
    try:
        theta, phi = float(theta), float(phi)
        # 2 theta must not overflow either: cos(inf) is nan and passes d^2 >= 1
        finite = np.isfinite(2.0 * theta) and np.isfinite(phi)
    except (OverflowError, TypeError, ValueError):     # no float, or too big
        finite = False
    if not finite:
        raise DomainError("theta and phi must be finite reals with |theta| "
                          f"< 8.9e307, got {theta!r:.40} and {phi!r:.40}")
    d = -2.0 * np.cos(2.0 * theta)
    if d * d < 1.0 - 1e-12:
        raise DomainError(
            f"theta={theta:.6g} gives d={d:.6g} with d^2 < 1; admissible "
            "ranges are |theta mod pi| <= pi/6 or |theta mod pi - pi/2| <= pi/6"
        )
    # snap the boundary: at |d| = 1 rounding noise in d would otherwise
    # inflate b = sqrt(1 - 1/d^2) from 0 to ~1e-8, and a = 1/|d| must stay
    # 1 there so that a^2 + b^2 = 1 keeps E2 a projector
    b_sq = 1.0 - 1.0 / (d * d)
    a, b = ((a_sign / abs(d), b_sign * np.sqrt(b_sq)) if b_sq > 1e-14
            else (float(a_sign), 0.0))
    return TLParams(theta=theta, phi=phi, A=np.exp(1j * theta), d=d, a=a, b=b)


@dataclass(frozen=True)
class RepShape:
    """Tensor placement: n qubits with the distinguished slot k (1-based)."""

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "n"))
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.n < 1:
            raise DomainError(f"need n >= 1, got n={self.n}")
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


def require_instance(value, kind):
    """value, or DomainError unless it is a `kind` (a RepShape or TLParams
    reaching an operator)."""
    if not isinstance(value, kind):
        raise DomainError(f"need a {kind.__name__}, got {value!r:.40}")
    return value


#: Involution names resolved through the gate table in `gates`.
_INVOLUTION_NAMES = frozenset(("i", "x", "y", "z", "h",
                               "sigma1", "sigma2", "sigma3"))


def involution_matrix(spec) -> np.ndarray:
    """Resolve an involution: a name among I, X, Y, Z, H, a 2x2 matrix or
    an (m, 2, 2) stack of them, standing for m dressings at once.

    Matrices and stack members must be Hermitian and square to the identity
    within 1e-14 (NaN fails both).
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name not in _INVOLUTION_NAMES:
            raise DomainError(
                f"unknown involution name {spec!r}; use I, X, Y, Z, H "
                "or a 2x2 matrix"
            )
        return gates.gate(name)
    try:
        m = np.array(spec, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # ragged, or no numbers
        raise DomainError(f"involution {spec!r:.80} is no name or 2x2 matrix"
                          ) from None
    if m.shape[-2:] != (2, 2) or m.ndim > 3:
        raise DimensionMismatchError(
            f"involution must be 2x2 or an (m, 2, 2) stack, got {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # Inf, NaN fail <=
        if not np.all(max_abs(m - dagger(m)) <= _INVOLUTION_TOL):
            raise DomainError("involution must be Hermitian")
        if not np.all(max_abs(m @ m - np.eye(2)) <= _INVOLUTION_TOL):
            raise DomainError("involution must square to the identity")
    return m


class InvolutionSpec(tuple):
    """A chain each entry of which `involution_matrix` has checked.  The
    type is kept only for that invariant: operators take it as is, so a
    chain is checked once, not per operator or per (phi, theta)."""

    def __new__(cls, specs):
        try:
            entries = iter(specs)
        except TypeError:
            raise DomainError("an involution chain must be a collection, "
                              f"got {specs!r:.80}") from None
        return super().__new__(cls, map(involution_matrix, entries))


def involution_spec(specs) -> InvolutionSpec:
    """The n-1 involutions on slots j != k, in ascending j order: names,
    2x2 matrices or (m, 2, 2) stacks, each checked by `involution_matrix`,
    the one check of every chain (an InvolutionSpec is returned as is)."""
    return specs if isinstance(specs, InvolutionSpec) else InvolutionSpec(specs)


def default_involution_spec(shape: RepShape) -> InvolutionSpec:
    """Conjugating-subclass dressing: identity below slot k, sigma_1 above.

    This is the choice that makes B(n,k) superimpose a basis state on its
    bit-flipped partner, e.g. GHZ states for k=1.
    """
    names = ["i"] * (shape.k - 1) + ["x"] * (shape.n - shape.k)
    return involution_spec(names)


def local_blocks(p: TLParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 blocks e1 = diag(1,0), e2 = diag(a^2,b^2), e3 = phase flip."""
    e1 = np.diag([1.0, 0.0]).astype(np.complex128)
    e2 = np.diag([p.a**2, p.b**2]).astype(np.complex128)
    e3 = np.array([[0.0, np.exp(-1j * p.phi)],
                   [np.exp(1j * p.phi), 0.0]])
    return e1, e2, e3


@dataclass(frozen=True)
class StructuredBraidOp:
    """A Jones operator in slot-chain form, the pair (P, Q) standing for

        I x..x I x P x I x..x I  +  s_1 x..x s_{k-1} x Q x s_{k+1} x..x s_n

    with P diagonal and Q antidiagonal 2x2 blocks at slot k.  Every s_j is
    a Hermitian involution (`involution_spec`), so the chain squares to the
    identity and the form is closed under products and adjoints:
    (P1, Q1)(P2, Q2) = (P1 P2 + Q1 Q2, P1 Q2 + Q1 P2), (P, Q)^+ = (P^+, Q^+).
    """

    shape: RepShape
    params: TLParams
    spec: InvolutionSpec        # s_j, j != k, checked by `involution_spec`
    diag_block: np.ndarray      # P, 2x2 diagonal
    offdiag_block: np.ndarray   # Q, 2x2 antidiagonal

    def __post_init__(self):
        object.__setattr__(self, "spec", involution_spec(self.spec))
        if len(self.spec) != self.shape.n - 1:
            raise DimensionMismatchError(
                f"need {self.shape.n - 1} involutions for n={self.shape.n}, "
                f"got {len(self.spec)}")
        p, q = self.diag_block, self.offdiag_block
        if p[0, 1] or p[1, 0] or q[0, 0] or q[1, 1]:
            raise DomainError("slot block P must be diagonal and Q antidiagonal")

    def __matmul__(self, other: "StructuredBraidOp") -> "StructuredBraidOp":
        if self.shape != other.shape or not all(
                map(np.array_equal, self.spec, other.spec)):
            raise DimensionMismatchError(
                "operators on different slots or involution chains")
        p1, q1 = self.diag_block, self.offdiag_block
        p2, q2 = other.diag_block, other.offdiag_block
        return replace(self, diag_block=p1 @ p2 + q1 @ q2,
                       offdiag_block=p1 @ q2 + q1 @ p2)

    def __pow__(self, exponent: int) -> "StructuredBraidOp":
        """Positive power by binary powering: O(log exponent) products."""
        if as_int(exponent, "an exponent") < 1:
            raise DomainError(f"need a positive exponent, got {exponent}")
        out, base = None, self
        while True:
            if exponent & 1:
                out = base if out is None else out @ base
            exponent >>= 1
            if not exponent:
                return out
            base = base @ base

    def dagger(self) -> "StructuredBraidOp":
        return replace(self, diag_block=dagger(self.diag_block),
                       offdiag_block=dagger(self.offdiag_block))

    def require_unitary(self, tol: float = 1e-14) -> None:
        """Raise DomainError unless P^+P + Q^+Q = I and P^+Q + Q^+P = 0
        within tol, the unitarity of the operator the pair stands for."""
        p, q = self.diag_block, self.offdiag_block
        residual = max(max_abs(dagger(p) @ p + dagger(q) @ q - np.eye(2)),
                       max_abs(dagger(p) @ q + dagger(q) @ p))
        if not residual <= tol:
            raise DomainError(
                f"slot-chain pair deviates from unitarity by {residual:.3e}")

    @property
    def chain(self) -> tuple[np.ndarray, ...]:
        """The n slot factors s_1..s_{k-1}, Q, s_{k+1}..s_n in slot order:
        the arrays the operator holds, not copies."""
        k = self.shape.k
        return (*self.spec[:k - 1], self.offdiag_block, *self.spec[k - 1:])

    def dense(self) -> np.ndarray:
        """Materialize the 2^n x 2^n matrix, a stack of m of them when the
        involution slots are (m, 2, 2) stacks (`kron_all`'s cap applies)."""
        n, k = self.shape.n, self.shape.k
        ones = [np.ones(2)]
        diagonal = kron_all(*ones * (k - 1), np.diagonal(self.diag_block),
                            *ones * (n - k)).ravel()
        if not self.offdiag_block.any():
            return np.diag(diagonal)
        out = kron_all(*self.chain)
        # the chain term is zero on the diagonal, since Q is
        out.reshape(out.shape[:-2] + (-1,))[..., ::(1 << n) + 1] += diagonal
        return out


class JonesPairs(NamedTuple):
    projectors: tuple[StructuredBraidOp, StructuredBraidOp]   # E1, E2
    generators: tuple[StructuredBraidOp, StructuredBraidOp]   # b1, b2
    inverses: tuple[StructuredBraidOp, StructuredBraidOp]     # b1^-1, b2^-1


def jones_pairs(shape: RepShape, p: TLParams, spec) -> JonesPairs:
    """E_i, b_i = A d E_i + A^-1 I and b_i^-1 = A^-1 d E_i + A I as pairs.

    E1 = (e1, 0) and E2 = (e2, ab e3) with the blocks of `local_blocks`.
    spec goes through `involution_spec` once for all six operators.
    """
    require_instance(shape, RepShape)
    require_instance(p, TLParams)
    spec = involution_spec(spec)
    e1, e2, e3 = local_blocks(p)
    eye = np.eye(2, dtype=np.complex128)
    projectors = (
        StructuredBraidOp(shape, p, spec, e1, np.zeros((2, 2), np.complex128)),
        StructuredBraidOp(shape, p, spec, e2, p.a * p.b * e3),
    )

    def affine(E, scale, shift):
        """scale * d E + shift * I"""
        return replace(E, diag_block=scale * p.d * E.diag_block + shift * eye,
                       offdiag_block=scale * p.d * E.offdiag_block)

    return JonesPairs(
        projectors=projectors,
        generators=tuple(affine(E, p.A, 1 / p.A) for E in projectors),
        inverses=tuple(affine(E, 1 / p.A, p.A) for E in projectors),
    )


def tl_projectors(shape: RepShape, p: TLParams, spec
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian projector pair (E1, E2) on n qubits.

    E1 places e1 at slot k between identities; E2 adds the ab-weighted
    involution-dressed e3 term.  h_i = d*E_i generate the Temperley-Lieb
    relations checked by `check_tl_relations`.
    """
    E1, E2 = jones_pairs(shape, p, spec).projectors
    return E1.dense(), E2.dense()


def check_tl_relations(E1: np.ndarray, E2: np.ndarray, p: TLParams):
    """(name, residual) pairs of the projector and Temperley-Lieb relations.

    Covers E_i^2 = E_i, E1 E2 E1 = a^2 E1, E2 E1 E2 = a^2 E2, and for
    h_i = d E_i: h_i^2 = d h_i, h1 h2 h1 = h1, h2 h1 h2 = h2, plus
    hermiticity of both h_i: a float each for two matrices, an array of one
    per stacked point for stacks (..., dim, dim) that broadcast together.
    """
    require_square(E1, E2)
    a2 = p.a * p.a
    d = p.d
    h1, h2 = d * E1, d * E2
    return [
        ("E1_idempotent", max_abs(E1 @ E1 - E1)),
        ("E2_idempotent", max_abs(E2 @ E2 - E2)),
        ("E1E2E1_eq_a2E1", max_abs(E1 @ E2 @ E1 - a2 * E1)),
        ("E2E1E2_eq_a2E2", max_abs(E2 @ E1 @ E2 - a2 * E2)),
        ("h1_sq_eq_dh1", max_abs(h1 @ h1 - d * h1)),
        ("h2_sq_eq_dh2", max_abs(h2 @ h2 - d * h2)),
        ("h1h2h1_eq_h1", max_abs(h1 @ h2 @ h1 - h1)),
        ("h2h1h2_eq_h2", max_abs(h2 @ h1 @ h2 - h2)),
        ("h1_hermitian", max_abs(h1 - dagger(h1))),
        ("h2_hermitian", max_abs(h2 - dagger(h2))),
    ]
