"""Grid verification suites over theta, phi, placement, and involutions.

The standard grid is the one the package is validated against:
theta in {pi/8, -pi/8, pi/6, pi+pi/8, pi-pi/8}, phi in {0, pi/3},
n in 1..5 with every slot k and every per-slot involution assignment drawn
from {I, X, Y, Z, H}.  The suites check the library's own operators:
`iter_grid` yields the `jones_pairs` of all assignments of one
(n, k, phi, theta), in chunks of at most GRID_CHUNK_BYTES of matrices,
with the involution slots as stacks; `.dense()` makes each pair an
(m, dim, dim) stack (one matrix where no involution enters: E1, b1, n = 1),
and each relation is one broadcast matmul and one `max_abs`, an array or a
float standing for every point.  Suites fold them into one RelationReport:
the max per relation, at its first point in n -> k -> names -> phi -> theta
order.  A grid with more matrix work (points x dim^3) than the standard
grid is refused before anything is built.

The grid suites check their slices on the usable cores: the calling thread
and up to GRID_THREADS - 1 others take slices from a shared counter (see
`linalg._each_block`), at most one thread per 8 slices, so `--n 1` keeps one
thread.  Capping the threads, not the cores, bounds the memory: each
thread holds one slice's stacks and their products at a time, and the
report is the same, bit for bit, on any number of threads.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .braidrep import (bell_matrix, bell_representation, check_braid_relations,
                       check_yang_baxter, generator_power_identity,
                       jones_representation)
from .errors import DomainError
from .gates import ALPHA, BETA, CNOT, DELTA, GAMMA, HADAMARD
from .linalg import DENSE_CAP_QUBITS, dagger, kron_all, max_abs
from .reports import RelationReport, ReportAccumulator
from .states import structured_braid_op
from .tla import (JonesPairs, RepShape, check_tl_relations,
                  default_involution_spec, involution_spec, jones_pairs,
                  tl_params)

GRID_THETAS: tuple[float, ...] = (
    np.pi / 8, -np.pi / 8, np.pi / 6, np.pi + np.pi / 8, np.pi - np.pi / 8,
)
GRID_PHIS: tuple[float, ...] = (0.0, np.pi / 3)
GRID_INVOLUTIONS: tuple[str, ...] = ("i", "x", "y", "z", "h")
GRID_NS: tuple[int, ...] = (1, 2, 3, 4, 5)
#: Most bytes in one stack of grid matrices: the 625 at n = 5 come in
#: chunks of 32, an n <= 4 slice in one.
GRID_CHUNK_BYTES = 1 << 19
#: Most threads a grid suite checks its slices on, whatever the core count
GRID_THREADS = 8


def _slots(n: int, ks: Optional[Sequence[int]]) -> Sequence[int]:
    return range(1, n + 1) if ks is None else [k for k in ks if k <= n]


def _grid_work(thetas, phis, ns, ks, involutions) -> int:
    """Matrix work of a grid: the sum over its points of dim^3 = 8^n."""
    return len(thetas) * len(phis) * sum(
        len(_slots(n, ks)) * len(involutions) ** (n - 1) * 8 ** n for n in ns)


#: The matrix work of the standard grid, the most `iter_grid` takes on.
GRID_WORK_LIMIT = _grid_work(GRID_THETAS, GRID_PHIS, GRID_NS, None,
                             GRID_INVOLUTIONS)


class GridSlice(NamedTuple):
    """Points of one (n, k, phi, theta) slice, stacked over involutions."""

    names: Sequence[tuple[str, ...]]    # involution names of each point
    positions: range                    # each point's place in grid order
    pairs: JonesPairs                   # involution slots as (m, 2, 2) stacks


def _values(given, default):
    """The range of a grid key: default if None, else (value,) or a tuple."""
    return default if given is None else tuple(given) \
        if isinstance(given, (list, tuple, range)) else (given,)


def iter_grid(theta=None, phi=None, n=None, k=None, s=None,
              ) -> Iterator[GridSlice]:
    """Yield the product grid as stacked GridSlices.

    theta, phi, n, k and s (involution names), as in a run config, each
    restrict the standard grid to one value or a sequence of values.  Each
    slice holds the `jones_pairs` of a chunk of involution assignments at
    one (n, k, phi, theta): its spec holds stacks (m, 2, 2), so `.dense()`
    of a pair is a stack of m matrices.  A chunk's chain is checked once,
    for every slot k.  Qubit counts outside 1..12 and grids whose matrix
    work exceeds GRID_WORK_LIMIT are refused before anything is built.
    """
    thetas, phis = _values(theta, GRID_THETAS), _values(phi, GRID_PHIS)
    ns, ks = _values(n, GRID_NS), _values(k, None)
    involutions = _values(s, GRID_INVOLUTIONS)
    if not all(1 <= n <= DENSE_CAP_QUBITS for n in ns):
        raise DomainError(
            f"grid qubit counts must lie in 1..{DENSE_CAP_QUBITS}, got {ns}")
    work = _grid_work(thetas, phis, ns, ks, involutions)
    if work > GRID_WORK_LIMIT:
        raise DomainError(
            f"the grid needs {work:.3g} of matrix work (points x dim^3), "
            f"more than the standard grid's {GRID_WORK_LIMIT:.3g}; narrow it "
            "with --k, --s, --theta or --phi")
    inv_stack = np.array(involution_spec(involutions)).reshape(-1, 2, 2)
    params = [[tl_params(theta, phi) for theta in thetas] for phi in phis]
    per_name = len(phis) * len(thetas)
    first = 0   # grid position of the current n's first point
    for n in ns:
        chunk = max(1, GRID_CHUNK_BYTES // (16 * 4 ** n))
        shapes = [RepShape(n=n, k=k) for k in _slots(n, ks)]
        per_shape = len(involutions) ** (n - 1) * per_name
        assignments = itertools.product(range(len(involutions)), repeat=n - 1)
        c0 = 0      # index of the chunk's first involution assignment
        while block := list(itertools.islice(assignments, chunk)):
            names = [tuple(involutions[i] for i in row) for row in block]
            # checked once for all the chunk's (k, phi, theta)
            spec = involution_spec(inv_stack[list(column)]
                                   for column in zip(*block))
            for i_k, shape in enumerate(shapes):
                for i_phi, by_theta in enumerate(params):
                    for i_theta, p in enumerate(by_theta):
                        at = first + i_k * per_shape + i_theta + \
                            (c0 * len(phis) + i_phi) * len(thetas)
                        yield GridSlice(
                            names,
                            range(at, at + len(block) * per_name, per_name),
                            jones_pairs(shape, p, spec))
            c0 += len(block)
        first += len(shapes) * per_shape


def _fold(acc: ReportAccumulator, grid: GridSlice, named) -> None:
    """Fold one slice's (name, residuals) pairs into the accumulator."""
    op = grid.pairs.projectors[0]
    p, shape, names = op.params, op.shape, grid.names

    def label(i: int) -> str:
        s = ",".join(names[i]) if names[i] else "-"
        return (f"theta={p.theta:.6g} phi={p.phi:.6g} n={shape.n} "
                f"k={shape.k} s={s}")

    for name, residuals in named:
        acc.add(name, residuals, label, grid.positions)
    acc.add_point(len(names))


def _spread(tol: float, keys: dict, check) -> RelationReport:
    """Fold check(slice), the (name, residuals) pairs of one slice, over
    every slice of the grid the `iter_grid` keys select.

    The slices are checked on up to GRID_THREADS of the usable cores, at
    most one thread per 8 slices, and folded under a lock; the fold ignores
    order, so the report does not depend on the number of threads.  A
    thread holds one slice's matrices at a time: stacks of at most
    GRID_CHUNK_BYTES (or of one matrix, where that is larger) and their
    products, under 6 such stacks in all.  So the in-flight matrices of all
    threads stay under GRID_THREADS x 6 stacks, 24 MiB for n <= 7, on any
    core count.  The slices themselves, built first, hold only 2x2 blocks
    (about 4 KiB each, 5 MiB for the standard grid).
    """
    slices = list(iter_grid(**keys))
    acc, lock = ReportAccumulator(tol), threading.Lock()

    def body(parts) -> None:
        for i in parts:
            named = check(slices[i])
            with lock:
                _fold(acc, slices[i], named)

    threads = min(linalg._CORES, len(slices) // 8, GRID_THREADS)
    linalg._each_block(len(slices), body, threads)
    if not acc.points:
        raise DomainError("the grid selection is empty")
    return acc.report(note=f"{acc.points} grid points")


def _tl_residuals(grid: GridSlice):
    E1, E2 = (op.dense() for op in grid.pairs.projectors)
    return check_tl_relations(E1, E2, grid.pairs.projectors[0].params)


def _braid_residuals(grid: GridSlice):
    gens = [b.dense() for b in grid.pairs.generators]
    invs = [b.dense() for b in grid.pairs.inverses]
    eye = np.eye(gens[0].shape[-1])
    return check_braid_relations(gens) + [
        (f"inverse_b{i}", max_abs(b @ b_inv - eye))
        for i, (b, b_inv) in enumerate(zip(gens, invs), start=1)
    ]


def run_tla_suite(tol: float, **keys) -> RelationReport:
    """Temperley-Lieb relations (projector and h-form) across the grid,
    restricted by the `iter_grid` keys given."""
    return _spread(tol, keys, _tl_residuals)


def run_braid_suite(tol: float, **keys) -> RelationReport:
    """Braid relation, unitarity, and inverse checks across the grid,
    restricted by the `iter_grid` keys given."""
    return _spread(tol, keys, _braid_residuals)


def run_ybe_suite(tol: float) -> RelationReport:
    """Yang-Baxter equation and unitarity for the Bell matrix."""
    r = bell_matrix()
    return RelationReport.from_residuals(check_yang_baxter(r) + [
        ("bell_matrix_unitary", max_abs(dagger(r) @ r - np.eye(4)))], tol)


def run_powers_suite(tol: float, theta: float = np.pi / 8,
                     phi: float = 0.0) -> RelationReport:
    """Non-faithfulness power identities for both families.  Where A is no
    root of unity the Jones identity is skipped, and the note says so."""
    shape = RepShape(n=2, k=1)
    jrep = generator_power_identity(jones_representation(
        tl_params(theta, phi), shape, default_involution_spec(shape)), tol)
    brep = generator_power_identity(bell_representation(3), tol)
    note = jrep.note if jrep.checks else \
        f"Jones power identity skipped: {jrep.note}"
    return RelationReport(jrep.checks + brep.checks, tol, note=note)


def verify_cnot_decomposition(tol: float) -> RelationReport:
    """Residual of CNOT - (alpha x beta) B(2,1) (gamma x delta), with no
    phase freedom.  It is exact at theta = pi/8, the default of
    `structured_braid_op`: the local unitaries are specific to that B(2,1).
    """
    b21 = structured_braid_op(RepShape(n=2, k=1)).dense()
    assembled = kron_all(ALPHA, BETA) @ b21 @ kron_all(GAMMA, DELTA)
    return RelationReport.from_residuals(
        [("cnot_decomposition", max_abs(assembled - CNOT))], tol)


def verify_psi_ghz_relation(tol: float) -> RelationReport:
    """Residual of b1 b2 |000> (Bell representation) minus (HxHxH)|GHZ3>."""
    b1, b2 = bell_representation(3).generators
    psi = b1 @ b2[:, 0]                 # b2 |000> is b2's first column
    ghz3 = np.zeros(8, dtype=np.complex128)
    ghz3[[0, 7]] = 1.0 / np.sqrt(2.0)
    target = kron_all(HADAMARD, HADAMARD, HADAMARD) @ ghz3
    return RelationReport.from_residuals(
        [("psi_equals_hadamards_on_ghz", max_abs(psi - target))], tol)


def run_cnot_suite(tol: float) -> RelationReport:
    """Gate-level identities: the CNOT decomposition, checked at theta =
    pi/8 where it is exact, and psi = H^3 |GHZ3>."""
    return RelationReport(checks=verify_cnot_decomposition(tol).checks
                          + verify_psi_ghz_relation(tol).checks, tol=tol)


class Suite(NamedTuple):
    """A verify suite: the run-config keys it reads and its default tol.
    Suite NAME runs `run_NAME_suite`, looked up by name at each run, so a
    wrapper bound to that name (a tracer's) sees the call."""

    reads: set[str]
    tol: float


_GRID = {"theta", "phi", "n", "k", "s", "tol"}
#: The verify suites, in the order `run_suite("all")` runs them.
SUITES = {
    "tla": Suite(_GRID, 1e-10),
    "braid": Suite(_GRID, 1e-10),
    "ybe": Suite({"tol"}, 1e-14),
    "powers": Suite({"theta", "phi", "tol"}, 1e-10),
    "cnot": Suite({"tol"}, 1e-13),
}


def run_suite(name: str, **config) -> dict[str, RelationReport]:
    """Run one named suite, or "all" of SUITES; returns {suite name: report}.

    config holds run-config values by key, None where not set; each suite
    is given the ones it reads, and its default tol when tol is not set.
    """
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from "
                          f"{', '.join(SUITES)} or all")
    out = {}
    for suite, (reads, tol) in SUITES.items():
        if name in (suite, "all"):
            args = {"tol": tol} | {key: config[key] for key in reads
                                   if config.get(key) is not None}
            out[suite] = globals()[f"run_{suite}_suite"](**args)
    return out
