import tracemalloc

import numpy as np
import pytest

from tlbraid import (CapacityError, DimensionMismatchError, DomainError,
                     RepShape, bell_matrix, bell_representation,
                     check_braid_relations, check_yang_baxter,
                     dagger, generator_power_identity,
                     jones_representation, max_abs, tl_params)
from tlbraid.braidrep import BraidRepresentation
from tlbraid.reports import RelationReport
from tlbraid.gates import CNOT, PAULI_X
from tlbraid.tla import default_involution_spec, involution_spec


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def jones_rep(theta=np.pi / 8, phi=0.0, n=2, k=1, names=None):
    p = tl_params(theta, phi)
    shape = RepShape(n, k)
    spec = (default_involution_spec(shape) if names is None
            else involution_spec(names))
    return jones_representation(p, shape, spec), p


class TestJones:
    def test_2x2_generators_satisfy_braid_relation(self):
        rep, _ = jones_rep(n=1, k=1, names=[])
        b1, b2 = rep.generators
        for b in (b1, b2):
            assert max_abs(dagger(b) @ b - np.eye(2)) <= 1e-12
        assert max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2) < 1e-14

    def test_inverse_identity_from_tla(self):
        # (A h + 1/A)(h/A + A) = I follows from h^2 = d h
        rep, _ = jones_rep(n=3, k=2, names=["z", "x"])
        for g, gi in zip(rep.generators, rep.pairs.inverses):
            assert max_abs(g @ gi.dense() - np.eye(rep.dim)) < 1e-14

    def test_8x8_braid_relation(self):
        rep, _ = jones_rep(n=3, k=1, names=["x", "x"])
        assert rep.dim == 8
        b1, b2 = rep.generators
        assert max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2) < 1e-12
        report = RelationReport.from_residuals(
            check_braid_relations(rep.generators), 1e-12)
        assert report.passed

    def test_strand_count_is_three(self):
        rep, _ = jones_rep()
        assert rep.strands == 3
        assert len(rep.generators) == 2

    @pytest.mark.parametrize("theta", [np.pi / 8, -np.pi / 8, np.pi / 6,
                                       np.pi + np.pi / 8])
    @pytest.mark.parametrize("names", [("i",), ("h",), ("y",)])
    def test_unit_determinant(self, theta, names):
        rep, _ = jones_rep(theta=theta, n=2, k=1, names=names)
        for g in rep.generators:
            assert abs(abs(np.linalg.det(g)) - 1.0) < 1e-10


class TestBell:
    def test_m2_single_generator_is_r(self):
        rep = bell_representation(2)
        assert len(rep.generators) == 1
        assert np.array_equal(rep.generators[0], bell_matrix())

    def test_m3_braid_relation(self):
        rep = bell_representation(3)
        b1, b2 = rep.generators
        assert max_abs(b1 @ b2 @ b1 - b2 @ b1 @ b2) < 1e-14

    def test_m4_far_commutation_exact(self):
        rep = bell_representation(4)
        b1, b3 = rep.generators[0], rep.generators[2]
        assert max_abs(b1 @ b3 - b3 @ b1) == 0.0

    def test_m5_all_relations(self):
        report = RelationReport.from_residuals(
            check_braid_relations(bell_representation(5).generators), 1e-13)
        assert report.passed

    def test_capacity(self):
        with pytest.raises(CapacityError):
            bell_representation(13).generators
        with pytest.raises(DomainError):
            bell_representation(1)


class TestDefinitionOnly:
    def test_build_at_20_qubits_holds_no_matrix(self):
        shape = RepShape(20, 7)
        spec = default_involution_spec(shape)
        p = tl_params(np.pi / 8)
        tracemalloc.start()
        try:
            reps = (jones_representation(p, shape, spec),
                    bell_representation(20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert [r.dim for r in reps] == [1 << 20] * 2
        for rep in reps:
            with pytest.raises(CapacityError):
                rep.generators

    def test_matrices_built_once_on_request(self):
        rep, _ = jones_rep(n=3, k=2)
        assert "generators" not in vars(rep)
        assert rep.generators is rep.generators


class TestBraidRelationCounterexample:
    def test_sigma1_and_phase_diag_fail(self):
        # sigma1 and diag(1, i) are unitary but do not braid
        d = np.diag([1.0, 1j]).astype(complex)
        report = RelationReport.from_residuals(
            check_braid_relations((PAULI_X, d)), 1e-10)
        assert not report.passed
        braid = [c for c in report.checks if c.name == "braid_b1b2b1"]
        assert braid and abs(braid[0].residual - 1.0) < 1e-12


def yang_baxter_report(r, tol):
    return RelationReport.from_residuals(check_yang_baxter(r), tol)


class TestYangBaxter:
    def test_bell_matrix_passes(self):
        report = yang_baxter_report(bell_matrix(), 1e-14)
        assert report.passed
        assert report.max_residual <= 1e-14

    def test_cnot_fails(self):
        # frozen fixture: CNOT violates the algebraic Yang-Baxter equation
        report = yang_baxter_report(CNOT, 1e-10)
        assert not report.passed
        assert abs(report.max_residual - 1.0) < 1e-12

    def test_scalar_diagonal_passes_generic_diagonal_fails(self, rng):
        # commuting slotwise is not enough: the two YBE sides weight the
        # factors 2-1 vs 1-2, so only scalar diagonals pass
        report = yang_baxter_report(np.exp(0.9j) * np.eye(4), 1e-13)
        assert report.passed
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        report = yang_baxter_report(np.diag(phases), 1e-10)
        assert not report.passed

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            check_yang_baxter(np.eye(2))


class TestPowerIdentities:
    def test_theta_pi_8_order_16(self):
        rep, _ = jones_rep()
        report = generator_power_identity(rep)
        assert "least m with A^m=1: 16" in report.note
        names = {c.name for c in report.checks}
        assert "b1^16_eq_I" in names and "b2^16_eq_I" in names
        assert report.passed and report.max_residual <= 1e-10

    def test_theta_pi_6_order_12(self):
        rep, _ = jones_rep(theta=np.pi / 6)
        report = generator_power_identity(rep)
        assert "least m with A^m=1: 12" in report.note
        assert report.passed

    def test_bell_r8(self):
        report = generator_power_identity(bell_representation(3))
        assert report.passed
        r8 = [c for c in report.checks if c.name == "R8_eq_I"]
        assert r8 and r8[0].residual <= 1e-13

    def test_non_root_of_unity_not_applicable(self):
        rep, _ = jones_rep(theta=0.1)
        report = generator_power_identity(rep)
        assert report.checks == ()
        assert report.passed  # vacuous
        assert "not applicable" in report.note


class TestRepresentationValidation:
    def test_rejects_non_unitary_pair(self):
        # the projector pairs E_i are not unitary generators
        pairs = jones_rep()[0].pairs
        with pytest.raises(DomainError, match="unitarity"):
            BraidRepresentation(3, pairs._replace(
                generators=pairs.projectors))

    @pytest.mark.parametrize("family, strands, with_pairs", [
        ("jones", 4, True)])
    def test_rejects_mismatched_definition(self, family, strands, with_pairs):
        pairs = jones_rep()[0].pairs if with_pairs else None
        with pytest.raises(DomainError, match=f"a {family} representation"):
            BraidRepresentation(strands, pairs)

    @pytest.mark.parametrize("theta,phi,names", [
        (np.pi / 8, 0.0, ("x", "x", "x")),
        (-np.pi / 8, np.pi / 3, ("h", "i", "z")),
        (np.pi - np.pi / 8, np.pi / 3, ("y", "h", "x")),
    ])
    def test_generators_unitary_across_sample(self, theta, phi, names):
        rep, _ = jones_rep(theta=theta, phi=phi, n=4, k=2, names=names)
        for g in rep.generators:
            assert max_abs(dagger(g) @ g - np.eye(16)) <= 1e-12
