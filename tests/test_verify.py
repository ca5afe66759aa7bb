import itertools
import json
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tlbraid import (RelationCheck, RelationReport, RepShape,
                     check_tl_relations, dagger, jones_representation,
                     max_abs, tl_params, tl_projectors)
from tlbraid import DomainError, linalg, tla, verify
from tlbraid.reports import ReportAccumulator
from tlbraid.tla import involution_spec
from tlbraid.verify import (GRID_CHUNK_BYTES, GRID_INVOLUTIONS, GRID_PHIS,
                            GRID_THETAS, GRID_THREADS,
                            iter_grid, run_braid_suite, run_cnot_suite,
                            run_powers_suite, run_suite, run_tla_suite,
                            run_ybe_suite)


def test_grid_point_count():
    # sum over n of k * 5^(n-1) placements, times 10 (theta, phi) pairs; the
    # stacks' positions number every point once, in grid order
    shapes = sum(n * 5 ** (n - 1) for n in range(1, 6))
    positions = []
    for grid in iter_grid():
        assert len(grid.names) == len(grid.positions)
        for slot in grid.pairs.projectors[1].spec:
            assert slot.shape == (len(grid.names), 2, 2)
        positions.extend(grid.positions)
    assert sorted(positions) == list(
        range(shapes * len(GRID_THETAS) * len(GRID_PHIS)))


def test_grid_restriction():
    grids = list(iter_grid(theta=np.pi / 8, phi=0.0, n=3, k=2, s=["x"]))
    assert len(grids) == 1
    names, positions, pairs = grids[0]
    E1, E2 = pairs.projectors
    assert (E2.params.theta, E2.params.phi) == (np.pi / 8, 0.0)
    assert E2.shape == RepShape(3, 2) and list(names) == [("x", "x")]
    assert positions == range(1)
    assert E1.dense().shape == (8, 8) and E2.dense().shape == (1, 8, 8)


def test_tla_suite_small_grid_matches_direct_checks():
    report = run_tla_suite(1e-10, n=(1, 2), s=("x", "h"))
    assert report.passed
    # aggregated max must dominate any directly computed point
    p = tl_params(np.pi / 8, 0.0)
    E1, E2 = tl_projectors(RepShape(2, 1), p, involution_spec(["h"]))
    for name, residual in check_tl_relations(E1, E2, p):
        agg = next(c for c in report.checks if c.name == name)
        assert agg.residual >= residual - 1e-18
        # (n=1: 1 combo) + (n=2: 2 slots x 2 involutions), x 10 theta-phi pairs
        assert agg.instances == (1 + 2 * 2) * 10


def test_braid_suite_matches_representation_build():
    report = run_braid_suite(1e-10, n=2, s=("y",))
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"braid_b1b2b1", "unitary_b1", "unitary_b2",
                     "inverse_b1", "inverse_b2"}
    # that the suite's generators are jones_representation's, point by
    # point, is test_hoisted_assembly_matches_tl_projectors


def test_ybe_suite():
    report = run_ybe_suite(1e-14)
    assert report.passed
    assert {c.name for c in report.checks} == {"yang_baxter",
                                               "bell_matrix_unitary"}


def test_powers_suite_reports_order():
    report = run_powers_suite(1e-10)
    assert report.passed and "16" in report.note


def test_cnot_suite():
    report = run_cnot_suite(1e-13)
    assert report.passed


def test_cnot_suite_checks_at_its_tol():
    report = run_cnot_suite(tol=1e-20)
    assert not report.passed and report.tol == 1e-20


def test_run_suite_dispatch():
    out = run_suite("ybe")
    assert set(out) == {"ybe"}
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_run_suite_follows_the_table():
    # "all" runs the table in order, each suite at its default tol and
    # given only the keys it reads: ybe and cnot ignore the grid keys
    out = run_suite("all", theta=np.pi / 6, n=1, s=["x"], a_sign=-1,
                    format="json")
    assert list(out) == list(verify.SUITES)
    for name, report in out.items():
        assert report.tol == verify.SUITES[name].tol
    assert out["cnot"].tol == 1e-13 and not out["cnot"].note
    assert out["tla"].note == "2 grid points"     # one theta, two phis


def test_failure_aggregation_records_worst_point():
    # an inadmissible tolerance forces failures with located worst points
    report = run_tla_suite(tol=1e-20, n=1)
    assert not report.passed
    worst = report.failures()[0]
    assert "theta=" in worst.worst_at


def test_each_chunk_chain_is_checked_once(monkeypatch):
    # n = 3 over {x, h}: the two names, then one chunk of 4 assignments
    # whose two stacked slots its 3 x 10 (k, phi, theta) slices share
    checked = []
    check = tla.involution_matrix
    monkeypatch.setattr(tla, "involution_matrix",
                        lambda s: checked.append(np.shape(s)) or check(s))
    grids = list(iter_grid(n=3, s=["x", "h"]))
    assert len(grids) == 30 and checked == [()] * 2 + [(4, 2, 2)] * 2
    spec = grids[0].pairs.projectors[0].spec
    assert all(op.spec is spec for grid in grids
               for ops in grid.pairs for op in ops)


def test_hoisted_assembly_matches_tl_projectors():
    # every point of the n <= 4 grid: the stacked pairs' matrices are the
    # library's per-point operators exactly
    points = 0
    for grid in iter_grid(n=(1, 2, 3, 4)):
        E2 = grid.pairs.projectors[1]
        m, dim = len(grid.names), 1 << E2.shape.n
        stacks = {kind: [np.broadcast_to(op.dense(), (m, dim, dim))
                         for op in getattr(grid.pairs, kind)]
                  for kind in ("projectors", "generators", "inverses")}
        for i, names in enumerate(grid.names):
            spec = involution_spec(names)
            rep = jones_representation(E2.params, E2.shape, spec)
            refs = {"projectors": tl_projectors(E2.shape, E2.params, spec),
                    "generators": rep.generators,
                    "inverses": [b.dense() for b in rep.pairs.inverses]}
            for kind, ref in refs.items():
                for stack, ref_m in zip(stacks[kind], ref, strict=True):
                    assert max_abs(stack[i] - ref_m) == 0.0
            points += 1
    assert points == sum(n * 5 ** (n - 1) for n in range(1, 5)) * 10


def _reference_suites(ns, tol):
    """The per-point sweep the stacked suites replace: one point at a time
    in n -> k -> names -> phi -> theta order, built by `tl_projectors` and
    `jones_representation`, a strictly larger residual taking the worst
    point."""
    worst = {"tla": {}, "braid": {}}
    counts = {"tla": {}, "braid": {}}
    points = 0
    for n in ns:
        eye = np.eye(1 << n, dtype=np.complex128)
        for k in range(1, n + 1):
            shape = RepShape(n, k)
            for names in itertools.product(GRID_INVOLUTIONS, repeat=n - 1):
                spec = involution_spec(names)
                for phi in GRID_PHIS:
                    for theta in GRID_THETAS:
                        p = tl_params(theta, phi)
                        E1, E2 = tl_projectors(shape, p, spec)
                        rep = jones_representation(p, shape, spec)
                        b1, b2 = rep.generators
                        i1, i2 = (b.dense() for b in rep.pairs.inverses)
                        residuals = {
                            "tla": check_tl_relations(E1, E2, p),
                            "braid": [
                                ("braid_b1b2b1",
                                 max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2)),
                                ("unitary_b1", max_abs(dagger(b1) @ b1 - eye)),
                                ("unitary_b2", max_abs(dagger(b2) @ b2 - eye)),
                                ("inverse_b1", max_abs(b1 @ i1 - eye)),
                                ("inverse_b2", max_abs(b2 @ i2 - eye)),
                            ],
                        }
                        where = (f"theta={theta:.6g} phi={phi:.6g} n={n} "
                                 f"k={k} s={','.join(names) or '-'}")
                        for suite, named in residuals.items():
                            for name, r in named:
                                counts[suite][name] = \
                                    counts[suite].get(name, 0) + 1
                                if name not in worst[suite] or \
                                        r > worst[suite][name][0]:
                                    worst[suite][name] = (r, where)
                        points += 1
    return {
        suite: RelationReport(
            checks=tuple(
                RelationCheck(name, r, r <= tol, instances=counts[suite][name],
                              worst_at=where)
                for name, (r, where) in sorted(worst[suite].items())),
            tol=tol, note=f"{points} grid points")
        for suite in worst
    }


@pytest.mark.parametrize("chunk_bytes", [None, 2048])
@pytest.mark.parametrize("tol", [1e-10, 1e-20])
def test_stacked_suites_match_the_per_point_sweep(monkeypatch, tol,
                                                  chunk_bytes):
    # 2048 bytes cuts the n = 3 slices into 1-matrix chunks, so ties are
    # broken across chunks too
    if chunk_bytes is not None:
        monkeypatch.setattr(verify, "GRID_CHUNK_BYTES", chunk_bytes)
    ns = (1, 2, 3)
    ref = _reference_suites(ns, tol)
    stacked = {"tla": run_tla_suite(tol=tol, n=ns),
               "braid": run_braid_suite(tol=tol, n=ns)}
    for suite in ref:
        assert stacked[suite].to_json() == ref[suite].to_json()
    if tol == 1e-20:
        # every nonzero relation fails at its argmax point
        braid = {c.name: c for c in stacked["braid"].checks}["braid_b1b2b1"]
        assert not braid.passed and braid.residual > 0.0
        assert braid.worst_at == {
            c.name: c for c in ref["braid"].checks}["braid_b1b2b1"].worst_at


def test_accumulator_ties_go_to_the_earliest_position():
    acc = ReportAccumulator(tol=1.0)
    labelled = []

    def label(tag):
        return lambda i: labelled.append(f"{tag}{i}") or f"{tag}{i}"

    acc.add("r", np.array([0.5, 2.0, 2.0]), label("a"), range(10, 13))
    acc.add("r", np.array([2.0, 1.0]), label("b"), range(3, 5))
    acc.add("r", 2.0, label("c"), range(20, 22))
    acc.add_point(7)
    check, = acc.report().checks
    assert (check.residual, check.worst_at, check.instances) == (2.0, "b0", 7)
    assert labelled == ["a1", "b0"]


def test_zero_residual_relation_keeps_the_first_grid_point():
    report = run_tla_suite(1e-10, n=(2, 3))
    check = {c.name: c for c in report.checks}["E1_idempotent"]
    assert check.residual == 0.0
    assert check.worst_at == "theta=0.392699 phi=0 n=2 k=1 s=i"


def test_run_suite_keeps_a_zero_tol():
    for name, report in run_suite("all", tol=0.0, n=1).items():
        assert report.tol == 0.0


def test_powers_suite_checks_at_its_tol():
    assert not run_powers_suite(tol=1e-20).passed


def test_a_nan_in_any_chunk_fails_the_report_whatever_the_order():
    chunks = [(np.array([1e-16, 2e-16]), range(0, 2)),
              (np.array([np.nan, 0.0]), range(2, 4)),
              (np.array([3e-16, np.nan]), range(4, 6)),
              (1e-15, range(6, 8))]
    reports = set()
    for order in itertools.permutations(chunks):
        acc = ReportAccumulator(tol=1e-10)
        for residuals, positions in order:
            acc.add("r", residuals, lambda i, p=positions: f"at {p[i]}",
                    positions)
        acc.add_point(8)
        report = acc.report()
        assert not report.passed
        reports.add(json.dumps(report.to_json()))
    # NaN outranks every number, and the earliest NaN is the worst point
    assert len(reports) == 1
    check, = json.loads(reports.pop(), parse_constant=float)["relations"]
    assert np.isnan(check["max_residual"]) and check["worst_at"] == "at 2"


class TestSpreadSuites:
    """The grid suites check their slices on up to GRID_THREADS threads, at
    most one per 8 slices; the core count is patched here, so that the
    spread runs on any machine."""

    @staticmethod
    def started_threads(monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        return started

    @pytest.mark.parametrize("keys", [{"n": 4}, {"n": 5, "k": 3, "phi": 0.0}],
                             ids=["n4", "n5_slice"])
    def test_reports_do_not_depend_on_the_cores(self, keys):
        # more threads than cores, switching often: a fold lost or taken
        # twice shows in the instance counts and the worst points
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cores in (1, 3, 64):
                with mock.patch.object(linalg, "_CORES", cores):
                    outs.append(json.dumps({
                        name: report.to_json()
                        for name, report in run_suite("all", **keys).items()}))
        finally:
            sys.setswitchinterval(interval)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("cores, keys, threads", [
        (3, {"n": 4}, 3),           # 40 slices a suite: one core each
        (64, {"n": 4}, 5),          # one thread per 8 slices
        (64, {"n": 5, "k": 3, "phi": 0.0}, GRID_THREADS),   # 100 slices
    ])
    def test_threads_are_started_and_joined(self, monkeypatch, cores, keys,
                                            threads):
        started = self.started_threads(monkeypatch)
        before = threading.active_count()
        with mock.patch.object(linalg, "_CORES", cores):
            run_tla_suite(1e-10, **keys)
        assert len(started) == threads - 1
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores, keys", [(1, {"n": 4}),
                                             (64, {"n": 1}),
                                             (64, {"n": 3, "phi": 0.0})],
                             ids=["one_core", "10_slices", "15_slices"])
    def test_one_thread_otherwise(self, cores, keys):
        with mock.patch.object(linalg, "_CORES", cores), \
                mock.patch.object(threading, "Thread",
                                  side_effect=AssertionError("a thread")):
            run_suite("all", **keys)

    def test_threads_follow_the_usable_cores(self, monkeypatch):
        # the real core count, read at import: no thread under `taskset -c 0`
        started = self.started_threads(monkeypatch)
        run_braid_suite(1e-10, n=4)
        assert len(started) == min(linalg._CORES, 5, GRID_THREADS) - 1

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        raised = threading.Event()
        check = verify._tl_residuals

        def failing(grid):
            if threading.current_thread() is threading.main_thread():
                raised.wait(10.0)   # leave the slices to the worker
                return check(grid)
            raised.set()
            raise DomainError("raised in a worker")

        monkeypatch.setattr(verify, "_tl_residuals", failing)
        before = threading.active_count()
        with mock.patch.object(linalg, "_CORES", 2), \
                pytest.raises(DomainError, match="raised in a worker"):
            run_tla_suite(1e-10, n=4)
        assert raised.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize("suite", [run_tla_suite, run_braid_suite],
                             ids=["tla", "braid"])
    def test_peak_memory_is_bounded_on_any_core_count(self, suite):
        # the bound of `verify._spread`: under 6 stacks of GRID_CHUNK_BYTES
        # a thread, and at most GRID_THREADS threads (one per core would be
        # 25 threads for these 200 slices)
        with mock.patch.object(linalg, "_CORES", 64):
            tracemalloc.start()
            try:
                suite(1e-10, n=5, k=3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= GRID_THREADS * 6 * GRID_CHUNK_BYTES
