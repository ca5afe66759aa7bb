"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances are pinned here and nowhere weakened.
"""

import time

import numpy as np
import pytest

from tlbraid import (RelationReport, RepShape, apply_structured, basis_state,
                     bell_representation, check_yang_baxter, bell_matrix,
                     entanglement_report, generator_power_identity, ghz_state,
                     jones_representation, kron_all, max_abs, measure_qubit,
                     phase_equivalent, structured_braid_op, tl_params,
                     verify_cnot_decomposition)
from tlbraid.gates import HADAMARD
from tlbraid.states import cluster_like_state
from tlbraid.tla import default_involution_spec, involution_spec
from tlbraid.verify import (GRID_INVOLUTIONS, GRID_PHIS, GRID_THETAS,
                            run_braid_suite, run_tla_suite)

S2 = 1.0 / np.sqrt(2.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_tla_grid_residuals_and_runtime():
    t0 = time.time()
    rep = run_tla_suite(tol=1e-10)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 30.0
    report(1, ok,
           f"TLA relations over {rep.note}: max residual "
           f"{rep.max_residual:.2e} (tol 1e-10), {elapsed:.1f}s (< 30s)")


def test_criterion_02_braid_relations_and_unitarity():
    rep = run_braid_suite(tol=1e-10)
    report(2, rep.passed,
           f"braid relation + unitarity over {rep.note}: max residual "
           f"{rep.max_residual:.2e} (tol 1e-10)")


def test_criterion_03_yang_baxter():
    rep = RelationReport.from_residuals(check_yang_baxter(bell_matrix()),
                                        1e-14)
    report(3, rep.passed,
           f"Bell matrix Yang-Baxter residual {rep.max_residual:.2e} "
           "(tol 1e-14)")


def test_criterion_04_b21_matrix_and_phase_equivalence():
    op = structured_braid_op(RepShape(2, 1))
    b21 = op.dense()
    displayed = -S2 * np.array([
        [1, 0, 0, -1j],
        [0, 1, -1j, 0],
        [0, 1, 1j, 0],
        [1, 0, 0, 1j],
    ])
    entry_residual = max_abs(b21 - displayed)
    col_equiv = phase_equivalent(b21, bell_matrix(), "columnwise", 1e-13)
    ok = entry_residual <= 1e-13 and col_equiv
    report(4, ok,
           f"B(2,1) entrywise residual {entry_residual:.2e} (tol 1e-13); "
           f"columnwise phase-equivalent to R: {col_equiv}")


def test_criterion_05_cnot_decomposition():
    rep = verify_cnot_decomposition(tol=1e-13)
    report(5, rep.passed,
           f"CNOT = (a x b) B(2,1) (g x d) residual "
           f"{rep.max_residual:.2e} (tol 1e-13, no phase freedom)")


def test_criterion_06_state_actions_and_structured_inverse():
    op = structured_braid_op(RepShape(2, 1))
    out00 = apply_structured(op, basis_state("00"))
    out10 = apply_structured(op, basis_state("10"))
    r00 = max_abs(out00 - np.array([-S2, 0, 0, -S2]))
    r10 = max_abs(out10 - np.array([0, 1j * S2, -1j * S2, 0]))
    ok = r00 <= 1e-13 and r10 <= 1e-13

    ghz_state(2, use_inverse=True)
    timings = []
    for n in range(2, 21):
        t0 = time.time()
        v = ghz_state(n, use_inverse=True)
        timings.append(time.time() - t0)
        target = np.zeros(1 << n, dtype=complex)
        target[0], target[-1] = S2, 1j * S2
        # textbook form holds up to the computed global phase (-1)
        if not phase_equivalent(v, target, "global", 1e-12):
            ok = False
        if timings[-1] >= 1.0:
            ok = False
    report(6, ok,
           f"B(2,1)|00>, B(2,1)|10> residuals {r00:.2e}, {r10:.2e} "
           f"(tol 1e-13); inverse GHZ n=2..20 structured, worst time "
           f"{max(timings) * 1e3:.1f} ms (< 1s each)")


def test_criterion_07_cluster_state_fidelity():
    v = cluster_like_state(4, 3)
    target = np.zeros(16, dtype=complex)
    target[0b0000] = target[0b0011] = target[0b1100] = 0.5
    target[0b1111] = -0.5
    fidelity = abs(np.vdot(target, v))
    ok = fidelity >= 1.0 - 1e-10
    report(7, ok,
           f"B(4,3)B^-1(4,1)|0000> fidelity {fidelity:.15f} vs the "
           "four-term cluster form (>= 1 - 1e-10)")


def test_criterion_08_structured_vs_dense_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    points = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            theta = GRID_THETAS[(n + k) % len(GRID_THETAS)]
            phi = GRID_PHIS[(n + k) % len(GRID_PHIS)]
            names = [GRID_INVOLUTIONS[i] for i in
                     rng.integers(0, len(GRID_INVOLUTIONS), size=n - 1)]
            p = tl_params(theta, phi)
            shape = RepShape(n, k)
            spec = involution_spec(names)
            dense = jones_representation(p, shape, spec)
            b1b2 = dense.generators[0] @ dense.generators[1]
            op = structured_braid_op(shape, p, spec)
            for _ in range(100):
                v = rng.standard_normal(1 << n) \
                    + 1j * rng.standard_normal(1 << n)
                v /= np.linalg.norm(v)
                worst = max(worst, max_abs(apply_structured(op, v) - b1b2 @ v))
                worst = max(worst, max_abs(
                    apply_structured(op, v, inverse=True) - b1b2.conj().T @ v))
            points += 1
    ok = worst <= 1e-11
    report(8, ok,
           f"structured vs dense b1b2 on {points} (n,k) points x 100 seeded "
           f"states (n <= 8): worst residual {worst:.2e} (tol 1e-11)")


def test_criterion_09_non_faithfulness_powers():
    shape = RepShape(2, 1)
    p = tl_params(np.pi / 8)
    jones = jones_representation(p, shape, default_involution_spec(shape))
    jrep = generator_power_identity(jones)
    b16 = max(c.residual for c in jrep.checks if c.name.endswith("_eq_I"))
    r8 = max_abs(np.linalg.matrix_power(bell_matrix(), 8) - np.eye(4))
    ok = jrep.passed and "16" in jrep.note and b16 <= 1e-10 and r8 <= 1e-10
    report(9, ok,
           f"b_i^16 = I residual {b16:.2e}, R^8 = I residual {r8:.2e} "
           "(tol 1e-10)")


def test_criterion_10_entanglement_contrast():
    ghz3 = ghz_state(3)
    ok = True
    for outcome in (0, 1):
        _, post = measure_qubit(ghz3, 1, outcome)
        for cut in ([1], [2]):
            if entanglement_report(post, cut).entropy_bits > 1e-9:
                ok = False
    ghz_entropy_note = "GHZ3 post-measurement entropy <= 1e-9 on all cuts"

    rep = bell_representation(3)
    psi = rep.generators[0] @ rep.generators[1] @ basis_state("000")
    _, post = measure_qubit(psi, 1, 0)
    psi_entropy = entanglement_report(post, [1]).entropy_bits
    if abs(psi_entropy - 1.0) > 1e-9:
        ok = False

    ghz_plain = np.zeros(8, dtype=complex)
    ghz_plain[0] = ghz_plain[7] = S2
    lu_residual = max_abs(psi - kron_all(*[HADAMARD] * 3) @ ghz_plain)
    if lu_residual > 1e-13:
        ok = False
    report(10, ok,
           f"{ghz_entropy_note}; psi post-measurement entropy "
           f"{psi_entropy:.12f} bits (1 +- 1e-9); psi = H^3|GHZ> residual "
           f"{lu_residual:.2e} (tol 1e-13)")


def test_criterion_11_normalization_identities():
    worst = 0.0
    for theta in GRID_THETAS:
        p = tl_params(theta)
        n1 = abs((p.d * p.a ** 2) ** 2 + abs(p.d * p.a * p.b) ** 2 - 1.0)
        n2 = abs(abs(p.d * p.b ** 2 + p.A ** -2) ** 2
                 + abs(p.A ** 4 * p.d * p.a * p.b) ** 2 - 1.0)
        worst = max(worst, n1, n2)
    ok = worst <= 1e-14
    report(11, ok,
           f"amplitude normalization identities across the theta grid: "
           f"worst deviation {worst:.2e} (tol 1e-14)")
