from dataclasses import replace

import numpy as np
import pytest

from tlbraid import (CapacityError, DimensionMismatchError, DomainError,
                     RepShape, check_tl_relations, gate,
                     jones_pairs, kron_all, local_blocks, max_abs,
                     structured_braid_op, tl_params, tl_projectors)
from tlbraid.gates import HADAMARD, IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z
from tlbraid.reports import RelationReport
from tlbraid.tla import (default_involution_spec, involution_matrix,
                         involution_spec)


def tl_report(E1, E2, p, tol):
    return RelationReport.from_residuals(check_tl_relations(E1, E2, p), tol)


def mat2_mul(a, b):
    """Explicit 2x2 product oracle."""
    return np.array([
        [a[0, 0] * b[0, 0] + a[0, 1] * b[1, 0],
         a[0, 0] * b[0, 1] + a[0, 1] * b[1, 1]],
        [a[1, 0] * b[0, 0] + a[1, 1] * b[1, 0],
         a[1, 0] * b[0, 1] + a[1, 1] * b[1, 1]],
    ])


class TestParams:
    def test_pi_8(self):
        p = tl_params(np.pi / 8)
        assert abs(p.d + np.sqrt(2)) < 1e-15
        assert abs(p.a - 1 / np.sqrt(2)) < 1e-15
        assert abs(p.b - 1 / np.sqrt(2)) < 1e-15

    def test_pi_6_boundary(self):
        p = tl_params(np.pi / 6)
        assert abs(p.d + 1.0) < 1e-15
        assert abs(p.a ** 2 - 1.0) < 1e-14
        assert p.b == 0.0

    @pytest.mark.parametrize("eps", [-9e-15, 1e-13, 9e-13])
    def test_generators_unitary_at_the_edge(self, eps):
        # tl_params admits d^2 down to 1 - 1e-12; a = 1/|d| > 1 there made
        # the generator pairs non-unitary by about eps
        p = tl_params(np.arccos(np.sqrt(1 - eps) / 2) / 2, 0.3)
        assert p.b == 0.0 and p.a == 1.0
        shape = RepShape(3, 2)
        spec = default_involution_spec(shape)
        for b in jones_pairs(shape, p, spec).generators:
            b.require_unitary()
        structured_braid_op(shape, p, spec)

    def test_pi_4_domain_error(self):
        with pytest.raises(DomainError, match="admissible"):
            tl_params(np.pi / 4)

    def test_pi_2_is_admissible(self):
        # d = +2 satisfies d^2 >= 1 even though the commonly quoted window
        # only lists the neighborhoods of 0 and pi
        p = tl_params(np.pi / 2)
        assert abs(p.d - 2.0) < 1e-15
        E1, E2 = tl_projectors(RepShape(2, 1), p, involution_spec(["x"]))
        assert tl_report(E1, E2, p, 1e-12).passed

    @pytest.mark.parametrize("theta", [np.pi / 8, -np.pi / 8, np.pi / 6,
                                       np.pi + np.pi / 8, np.pi - np.pi / 8])
    @pytest.mark.parametrize("a_sign,b_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_derived_invariants(self, theta, a_sign, b_sign):
        p = tl_params(theta, 0.3, a_sign, b_sign)
        assert abs(p.a ** 2 - p.d ** -2) < 1e-14
        assert abs(p.b ** 2 - (1 - p.d ** -2)) < 1e-14
        assert abs(p.a ** 2 + p.b ** 2 - 1.0) < 1e-14
        assert abs(p.d + p.A ** 2 + p.A ** -2) < 1e-14

    def test_sign_validation(self):
        with pytest.raises(DomainError):
            tl_params(np.pi / 8, a_sign=0)


class TestLocalBlocks:
    def test_phi_zero_gives_sigma1(self):
        e1, e2, e3 = local_blocks(tl_params(np.pi / 8, phi=0.0))
        assert np.array_equal(e3, PAULI_X)
        assert np.array_equal(e1, np.diag([1, 0]).astype(complex))
        assert max_abs(e2 - np.diag([0.5, 0.5])) < 1e-15

    def test_phi_half_pi_gives_sigma2(self):
        _, _, e3 = local_blocks(tl_params(np.pi / 8, phi=np.pi / 2))
        assert max_abs(e3 - PAULI_Y) < 1e-15

    def test_e1e2e1_against_2x2_oracle(self):
        p = tl_params(np.pi / 8, phi=0.4)
        e1, e2, _ = local_blocks(p)
        lhs = mat2_mul(mat2_mul(e1, e2), e1)
        assert max_abs(lhs - p.a ** 2 * e1) < 1e-15


class TestInvolutions:
    @pytest.mark.parametrize("name,mat", [
        ("i", IDENTITY_2), ("x", PAULI_X), ("y", PAULI_Y),
        ("z", PAULI_Z), ("h", HADAMARD), ("sigma1", PAULI_X),
    ])
    def test_named(self, name, mat):
        assert np.array_equal(involution_matrix(name), mat)

    def test_custom_valid(self):
        m = (PAULI_X + PAULI_Z) / np.sqrt(2)
        out = involution_matrix(m)
        assert np.array_equal(out, m)

    def test_custom_not_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            involution_matrix(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_custom_not_involution(self):
        with pytest.raises(DomainError, match="square"):
            involution_matrix(np.diag([1.0, 0.5]).astype(complex))

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown involution"):
            involution_matrix("q")

    def test_default_spec(self):
        spec = default_involution_spec(RepShape(4, 2))
        assert len(spec) == 3
        assert np.array_equal(spec[0], IDENTITY_2)
        assert np.array_equal(spec[1], PAULI_X)
        assert np.array_equal(spec[2], PAULI_X)


class TestProjectors:
    def test_n1_reduces_to_2x2_pair(self):
        p = tl_params(np.pi / 8, phi=0.7)
        E1, E2 = tl_projectors(RepShape(1, 1), p, involution_spec([]))
        e1, e2, e3 = local_blocks(p)
        assert np.array_equal(E1, e1)
        assert max_abs(E2 - (e2 + p.a * p.b * e3)) < 1e-15
        # explicit Hermitian form with off-diagonal e^{+-i phi} ab
        expected = np.array([
            [p.a ** 2, np.exp(-1j * p.phi) * p.a * p.b],
            [np.exp(1j * p.phi) * p.a * p.b, p.b ** 2],
        ])
        assert max_abs(E2 - expected) < 1e-15

    def test_n2_k1_assembly_against_tensor_oracle(self):
        p = tl_params(np.pi / 8)
        E1, E2 = tl_projectors(RepShape(2, 1), p, involution_spec(["x"]))
        _, _, e3 = local_blocks(p)
        # index-loop tensor oracle for e2 x I + ab * e3 x sigma1
        expected = np.zeros((4, 4), dtype=complex)
        e2 = np.diag([0.5, 0.5])
        for i1 in range(2):
            for j1 in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        expected[2 * i1 + i2, 2 * j1 + j2] = (
                            e2[i1, j1] * (i2 == j2)
                            + 0.5 * e3[i1, j1] * PAULI_X[i2, j2]
                        )
        assert max_abs(E2 - expected) < 1e-15
        assert max_abs(E2 - (np.diag([0.5] * 4) + 0.5 * np.kron(e3, PAULI_X))) < 1e-15
        assert np.array_equal(E1, np.diag([1, 1, 0, 0]).astype(complex))

    def test_identity_involutions_factorize(self):
        p = tl_params(np.pi / 8, phi=0.2)
        shape = RepShape(3, 2)
        E1, E2 = tl_projectors(shape, p, involution_spec(["i", "i"]))
        e1, e2, e3 = local_blocks(p)
        local = e2 + p.a * p.b * e3
        eye = np.eye(2, dtype=complex)
        assert max_abs(E2 - kron_all(eye, local, eye)) < 1e-15

    def test_projector_traces(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                p = tl_params(np.pi / 8, phi=0.5)
                spec = default_involution_spec(RepShape(n, k))
                E1, E2 = tl_projectors(RepShape(n, k), p, spec)
                assert abs(np.trace(E1).real - 2 ** (n - 1)) < 1e-12
                assert abs(np.trace(E2) - 2 ** (n - 1)) < 1e-10

    def test_hermitian_projectors(self):
        p = tl_params(-np.pi / 8, phi=np.pi / 3)
        shape = RepShape(4, 2)
        E1, E2 = tl_projectors(shape, p, involution_spec(["h", "y", "z"]))
        for E in (E1, E2):
            assert max_abs(E - E.conj().T) <= 1e-12
            assert max_abs(E @ E - E) < 1e-12

    def test_capacity(self):
        p = tl_params(np.pi / 8)
        shape = RepShape(13, 1)
        with pytest.raises(CapacityError):
            tl_projectors(shape, p, default_involution_spec(shape))

    def test_slot_count_mismatch(self):
        p = tl_params(np.pi / 8)
        with pytest.raises(DimensionMismatchError):
            tl_projectors(RepShape(3, 1), p, involution_spec(["x"]))

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            RepShape(0, 1)
        with pytest.raises(DomainError):
            RepShape(3, 4)


class TestRelations:
    def test_eq9_pair_passes(self):
        p = tl_params(np.pi / 8, phi=0.0)
        E1, E2 = tl_projectors(RepShape(1, 1), p, involution_spec([]))
        report = tl_report(E1, E2, p, 1e-14)
        assert report.passed
        assert report.max_residual <= 1e-14

    def test_identity_pair_fails(self):
        p = tl_params(np.pi / 8)
        eye = np.eye(2, dtype=complex)
        report = tl_report(eye, eye, p, 1e-10)
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "E1E2E1_eq_a2E1" in failed

    def test_dimension_mismatch(self):
        p = tl_params(np.pi / 8)
        with pytest.raises(DimensionMismatchError):
            check_tl_relations(np.eye(2), np.eye(4), p)

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 6, np.pi - np.pi / 8])
    @pytest.mark.parametrize("phi", [0.0, np.pi / 3])
    @pytest.mark.parametrize("names", [("x", "x"), ("h", "z"), ("y", "i")])
    def test_relations_hold_on_sample_grid(self, theta, phi, names):
        p = tl_params(theta, phi)
        for k in (1, 2, 3):
            E1, E2 = tl_projectors(RepShape(3, k), p, involution_spec(names))
            report = tl_report(E1, E2, p, 1e-10)
            assert report.passed, report.to_json()

    def test_report_json_shape(self):
        p = tl_params(np.pi / 8)
        E1, E2 = tl_projectors(RepShape(1, 1), p, involution_spec([]))
        obj = tl_report(E1, E2, p, 1e-10).to_json()
        assert set(obj) >= {"relations", "pass", "tol"}
        assert all(set(r) >= {"relation_name", "max_residual", "pass"}
                   for r in obj["relations"])


class TestSlotChainPairs:
    """The (P, Q) pair algebra against the dense matrices it stands for."""

    def pairs(self, names=("h", "y", "x"), k=2, theta=-np.pi / 8, phi=0.7):
        shape = RepShape(len(names) + 1, k)
        return jones_pairs(shape, tl_params(theta, phi), involution_spec(names))

    def test_products_match_dense(self):
        pairs = self.pairs()
        ops = pairs.projectors + pairs.generators + pairs.inverses
        for x in ops:
            for y in ops:
                assert max_abs((x @ y).dense() - x.dense() @ y.dense()) < 1e-15

    def test_dagger_matches_dense(self):
        for op in self.pairs().generators:
            assert max_abs(op.dagger().dense() - op.dense().conj().T) == 0.0

    def test_inverses_are_inverse_and_adjoint(self):
        pairs = self.pairs()
        eye = np.eye(16)
        for b, binv in zip(pairs.generators, pairs.inverses):
            assert max_abs((b @ binv).dense() - eye) < 1e-15
            assert max_abs(binv.dense() - b.dagger().dense()) < 1e-15

    @pytest.mark.parametrize("exponent", [1, 2, 3, 7, 16, 1000])
    def test_power_matches_matrix_power(self, exponent):
        b2 = self.pairs().generators[1]
        dense = np.linalg.matrix_power(b2.dense(), exponent)
        assert max_abs((b2 ** exponent).dense() - dense) < 1e-12

    def test_power_needs_positive_exponent(self):
        with pytest.raises(DomainError):
            self.pairs().generators[0] ** 0

    def test_products_keep_the_grading(self):
        b1, b2 = self.pairs().generators
        op = (b1 @ b2.dagger()) ** 5
        assert op.diag_block[0, 1] == 0 and op.diag_block[1, 0] == 0
        assert op.offdiag_block[0, 0] == 0 and op.offdiag_block[1, 1] == 0

    def test_off_grade_block_refused(self):
        E1, E2 = self.pairs().projectors
        with pytest.raises(DomainError, match="antidiagonal"):
            replace(E2, offdiag_block=E2.diag_block)

    def test_different_chains_do_not_multiply(self):
        b1 = self.pairs().generators[0]
        other = self.pairs(names=("h", "y", "z")).generators[0]
        with pytest.raises(DimensionMismatchError):
            b1 @ other
        with pytest.raises(DimensionMismatchError):
            b1 @ self.pairs(k=3).generators[0]

    def test_spec_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            jones_pairs(RepShape(3, 1), tl_params(np.pi / 8),
                        involution_spec(["x"]))

    def test_projectors_are_the_dense_pairs(self):
        shape = RepShape(4, 2)
        p, spec = tl_params(np.pi / 6, 1.1), involution_spec(("h", "y", "x"))
        E1, E2 = tl_projectors(shape, p, spec)
        P1, P2 = jones_pairs(shape, p, spec).projectors
        assert np.array_equal(E1, P1.dense()) and np.array_equal(E2, P2.dense())


class TestNamedInvolutions:
    @pytest.mark.parametrize("name", ["I", "x", "Y", "z", "H", "sigma1",
                                      "sigma2", "Sigma3"])
    def test_names_resolve_through_gates(self, name):
        assert np.array_equal(involution_matrix(name), gate(name))

    @pytest.mark.parametrize("name", ["cnot", "alpha", "delta"])
    def test_other_gates_are_not_involution_names(self, name):
        with pytest.raises(DomainError, match="unknown involution"):
            involution_matrix(name)
