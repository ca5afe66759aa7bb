"""Grid verification suites over theta, phi, placement, and involutions.

The standard grid is the one the package is validated against:
theta in {pi/8, -pi/8, pi/6, pi+pi/8, pi-pi/8}, phi in {0, pi/3},
n in 1..5 with every slot k and every per-slot involution assignment drawn
from {I, X, Y, Z, H}.  Suites fold per-point residuals into one aggregated
RelationReport (max residual per relation, worst point recorded).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .braidrep import (bell_matrix, bell_representation, check_yang_baxter,
                       generator_power_identity, jones_representation)
from .gates import verify_cnot_decomposition, verify_psi_ghz_relation
from .errors import DomainError
from .linalg import DENSE_CAP_QUBITS, dagger, kron_all, max_abs
from .reports import RelationReport, ReportAccumulator
from .tla import (RepShape, TLParams, check_tl_relations,
                  default_involution_spec, involution_matrix, tl_params)

GRID_THETAS: tuple[float, ...] = (
    np.pi / 8, -np.pi / 8, np.pi / 6, np.pi + np.pi / 8, np.pi - np.pi / 8,
)
GRID_PHIS: tuple[float, ...] = (0.0, np.pi / 3)
GRID_INVOLUTIONS: tuple[str, ...] = ("i", "x", "y", "z", "h")
GRID_NS: tuple[int, ...] = (1, 2, 3, 4, 5)


def iter_grid(thetas: Optional[Sequence[float]] = None,
              phis: Optional[Sequence[float]] = None,
              ns: Optional[Sequence[int]] = None,
              ks: Optional[Sequence[int]] = None,
              involutions: Optional[Sequence[str]] = None,
              ) -> Iterator[tuple[TLParams, RepShape, tuple[str, ...],
                                  np.ndarray, np.ndarray]]:
    """Yield (params, shape, involution names, E1, E2) over the product grid.

    The theta-independent kron work (E1 and the involution-dressed e3
    chain) is hoisted out of the theta loop; the tests check every point
    against `tl_projectors`.  Qubit counts outside 1..12 are refused before
    anything is built.
    """
    thetas = GRID_THETAS if thetas is None else tuple(thetas)
    phis = GRID_PHIS if phis is None else tuple(phis)
    ns = GRID_NS if ns is None else tuple(ns)
    if not all(1 <= n <= DENSE_CAP_QUBITS for n in ns):
        raise DomainError(
            f"grid qubit counts must lie in 1..{DENSE_CAP_QUBITS}, got {ns}")
    involutions = GRID_INVOLUTIONS if involutions is None else tuple(involutions)
    inv_table = {name: involution_matrix(name) for name in involutions}
    params_cache = {
        (theta, phi): tl_params(theta, phi)
        for theta in thetas for phi in phis
    }
    for n in ns:
        dim = 1 << n
        k_range = range(1, n + 1) if ks is None else [k for k in ks if k <= n]
        for k in k_range:
            shape = RepShape(n=n, k=k)
            kth_bit = (np.arange(dim) >> (n - k)) & 1
            E1 = np.diag((1 - kth_bit).astype(np.complex128))
            for names in itertools.product(involutions, repeat=n - 1):
                slots = [inv_table[nm] for nm in names]
                left, right = slots[:k - 1], slots[k - 1:]
                for phi in phis:
                    e3 = np.array([[0.0, np.exp(-1j * phi)],
                                   [np.exp(1j * phi), 0.0]])
                    chain = kron_all(*left, e3, *right)
                    for theta in thetas:
                        p = params_cache[(theta, phi)]
                        diag2 = np.where(kth_bit, p.b ** 2, p.a ** 2)
                        E2 = np.diag(diag2.astype(np.complex128)) \
                            + (p.a * p.b) * chain
                        yield p, shape, names, E1, E2


def _grid_report(acc: ReportAccumulator) -> RelationReport:
    if not acc.points:
        raise DomainError("the grid selection is empty")
    return acc.report(note=f"{acc.points} grid points")


def _point_label(theta, phi, shape, names) -> str:
    s = ",".join(names) if names else "-"
    return f"theta={theta:.6g} phi={phi:.6g} n={shape.n} k={shape.k} s={s}"


def run_tla_suite(tol: float = 1e-10, **grid_kwargs) -> RelationReport:
    """Temperley-Lieb relations (projector and h-form) across the grid."""
    acc = ReportAccumulator(tol)
    for p, shape, names, E1, E2 in iter_grid(**grid_kwargs):
        point = _point_label(p.theta, p.phi, shape, names)
        for check in check_tl_relations(E1, E2, p, tol).checks:
            acc.add(check.name, check.residual, point)
        acc.add_point()
    return _grid_report(acc)


def run_braid_suite(tol: float = 1e-10, **grid_kwargs) -> RelationReport:
    """Braid relation, unitarity, and inverse checks across the grid."""
    acc = ReportAccumulator(tol)
    for p, shape, names, E1, E2 in iter_grid(**grid_kwargs):
        point = _point_label(p.theta, p.phi, shape, names)
        eye = np.eye(E1.shape[0], dtype=np.complex128)
        A = p.A
        h1, h2 = p.d * E1, p.d * E2
        b1, b2 = A * h1 + eye / A, A * h2 + eye / A
        acc.add("braid_b1b2b1", max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2), point)
        acc.add("unitary_b1", max_abs(dagger(b1) @ b1 - eye), point)
        acc.add("unitary_b2", max_abs(dagger(b2) @ b2 - eye), point)
        acc.add("inverse_b1", max_abs(b1 @ (h1 / A + A * eye) - eye), point)
        acc.add("inverse_b2", max_abs(b2 @ (h2 / A + A * eye) - eye), point)
        acc.add_point()
    return _grid_report(acc)


def run_ybe_suite(tol: float = 1e-14) -> RelationReport:
    """Yang-Baxter equation and unitarity for the Bell matrix."""
    r = bell_matrix()
    checks = list(check_yang_baxter(r, tol).checks)
    unitary = max_abs(dagger(r) @ r - np.eye(4))
    report = RelationReport.from_residuals([("bell_matrix_unitary", unitary)], tol)
    return RelationReport(checks=tuple(checks) + report.checks, tol=tol)


def run_powers_suite(theta: float = np.pi / 8, phi: float = 0.0,
                     tol: float = 1e-10) -> RelationReport:
    """Non-faithfulness power identities for both families."""
    p = tl_params(theta, phi)
    shape = RepShape(n=2, k=1)
    jones = jones_representation(p, shape, default_involution_spec(shape))
    jrep = generator_power_identity(jones, tol)
    brep = generator_power_identity(bell_representation(3), tol)
    return RelationReport(
        checks=jrep.checks + brep.checks, tol=tol,
        applicable=jrep.applicable, note=jrep.note,
    )


def run_cnot_suite(theta: float = np.pi / 8,
                   tol: Optional[float] = None) -> RelationReport:
    """Gate-level identities: CNOT decomposition and psi = H^3 |GHZ3>,
    both at tol when given, else at 1e-12 and 1e-13."""
    dec_tol, psi_tol = (1e-12, 1e-13) if tol is None else (tol, tol)
    dec = verify_cnot_decomposition(tl_params(theta), tol=dec_tol)
    psi = verify_psi_ghz_relation(tol=psi_tol)
    return RelationReport(checks=dec.checks + psi.checks, tol=dec_tol,
                          note=f"psi-ghz relation checked at {psi_tol:g}")


SUITES = ("tla", "braid", "ybe", "powers", "cnot")


def run_suite(name: str, tol: Optional[float] = None,
              **grid_kwargs) -> dict[str, RelationReport]:
    """Run one named suite (or "all"); returns {suite_name: report}."""
    names: Iterable[str] = SUITES if name == "all" else (name,)
    out = {}
    default = 1e-10 if tol is None else tol
    for suite in names:
        if suite == "tla":
            out[suite] = run_tla_suite(tol=default, **grid_kwargs)
        elif suite == "braid":
            out[suite] = run_braid_suite(tol=default, **grid_kwargs)
        elif suite == "ybe":
            out[suite] = run_ybe_suite(tol=1e-14 if tol is None else tol)
        elif suite == "powers":
            thetas = grid_kwargs.get("thetas") or (np.pi / 8,)
            phis = grid_kwargs.get("phis") or (0.0,)
            out[suite] = run_powers_suite(theta=thetas[0], phi=phis[0],
                                          tol=default)
        elif suite == "cnot":
            thetas = grid_kwargs.get("thetas") or (np.pi / 8,)
            out[suite] = run_cnot_suite(theta=thetas[0], tol=tol)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITES)} or all")
    return out
