import numpy as np
import pytest

from tlbraid import (RepShape, check_tl_relations, jones_representation,
                     max_abs, tl_params, tl_projectors)
from tlbraid.tla import involution_spec
from tlbraid.verify import (GRID_PHIS, GRID_THETAS, iter_grid,
                            run_braid_suite, run_cnot_suite, run_powers_suite,
                            run_suite, run_tla_suite, run_ybe_suite)


def test_grid_point_count():
    # sum over n of k * 5^(n-1) placements, times 10 (theta, phi) pairs
    pts = list(iter_grid())
    shapes = sum(n * 5 ** (n - 1) for n in range(1, 6))
    assert len(pts) == shapes * len(GRID_THETAS) * len(GRID_PHIS)


def test_grid_restriction():
    pts = list(iter_grid(thetas=(np.pi / 8,), phis=(0.0,), ns=(3,), ks=(2,),
                         involutions=("x",)))
    assert len(pts) == 1
    p, shape, names, E1, E2 = pts[0]
    assert (p.theta, p.phi) == (np.pi / 8, 0.0)
    assert shape == RepShape(3, 2) and names == ("x", "x")
    assert E1.shape == E2.shape == (8, 8)


def test_tla_suite_small_grid_matches_direct_checks():
    report = run_tla_suite(ns=(1, 2), involutions=("x", "h"))
    assert report.passed
    # aggregated max must dominate any directly computed point
    p = tl_params(np.pi / 8, 0.0)
    E1, E2 = tl_projectors(RepShape(2, 1), p, involution_spec(["h"]))
    direct = check_tl_relations(E1, E2, p, 1e-10)
    for check in direct.checks:
        agg = next(c for c in report.checks if c.name == check.name)
        assert agg.residual >= check.residual - 1e-18
        # (n=1: 1 combo) + (n=2: 2 slots x 2 involutions), x 10 theta-phi pairs
        assert agg.instances == (1 + 2 * 2) * 10


def test_braid_suite_matches_representation_build():
    report = run_braid_suite(ns=(2,), involutions=("y",))
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"braid_b1b2b1", "unitary_b1", "unitary_b2",
                     "inverse_b1", "inverse_b2"}
    # the inline generator assembly agrees with jones_representation
    p = tl_params(np.pi / 8)
    shape = RepShape(2, 2)
    rep = jones_representation(p, shape, involution_spec(["y"]))
    E1, E2 = tl_projectors(shape, p, involution_spec(["y"]))
    eye = np.eye(4, dtype=complex)
    assert max_abs(p.A * (p.d * E1) + eye / p.A - rep.generators[0]) == 0.0


def test_ybe_suite():
    report = run_ybe_suite()
    assert report.passed
    assert {c.name for c in report.checks} == {"yang_baxter",
                                               "bell_matrix_unitary"}


def test_powers_suite_reports_order():
    report = run_powers_suite()
    assert report.passed and "16" in report.note


def test_cnot_suite():
    report = run_cnot_suite()
    assert report.passed


def test_cnot_suite_checks_at_its_tol():
    report = run_cnot_suite(tol=1e-20)
    assert not report.passed and report.tol == 1e-20


def test_run_suite_dispatch():
    out = run_suite("ybe")
    assert set(out) == {"ybe"}
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_failure_aggregation_records_worst_point():
    # an inadmissible tolerance forces failures with located worst points
    report = run_tla_suite(tol=1e-20, ns=(1,))
    assert not report.passed
    worst = report.failures()[0]
    assert "theta=" in worst.worst_at


def test_hoisted_assembly_matches_tl_projectors():
    # every point of the n <= 4 grid: E1 exactly, E2 to rounding
    points = 0
    for p, shape, names, E1, E2 in iter_grid(ns=(1, 2, 3, 4)):
        ref1, ref2 = tl_projectors(shape, p, involution_spec(names))
        assert max_abs(E1 - ref1) == 0.0
        assert max_abs(E2 - ref2) < 1e-15
        points += 1
    assert points == sum(n * 5 ** (n - 1) for n in range(1, 5)) * 10


def test_run_suite_keeps_a_zero_tol():
    for name, report in run_suite("all", tol=0.0, ns=(1,)).items():
        assert report.tol == 0.0


def test_powers_suite_checks_at_its_tol():
    assert not run_powers_suite(tol=1e-20).passed
