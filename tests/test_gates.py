import numpy as np
import pytest

from tlbraid import (UnknownGateError, dagger, gate, kron_all, max_abs,
                     verify_cnot_decomposition, verify_psi_ghz_relation)
from tlbraid.gates import (ALPHA, BETA, CNOT, DELTA, GAMMA, HADAMARD, PAULI_X,
                           PAULI_Y, PAULI_Z)
from tlbraid.states import basis_state

S2 = 1.0 / np.sqrt(2.0)


class TestConstants:
    def test_hadamard(self):
        assert max_abs(gate("H") - S2 * np.array([[1, 1], [1, -1]])) < 1e-15

    def test_delta(self):
        assert np.array_equal(gate("delta"), np.diag([1, -1]))

    def test_cnot_control_is_qubit_one(self):
        assert np.array_equal(gate("CNOT") @ basis_state("10"), basis_state("11"))
        assert np.array_equal(gate("CNOT") @ basis_state("01"), basis_state("01"))

    @pytest.mark.parametrize("m", [HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, CNOT])
    def test_involutions(self, m):
        assert max_abs(m @ m - np.eye(m.shape[0])) < 1e-14

    @pytest.mark.parametrize("name", ["H", "x", "Y", "z", "CNOT", "alpha",
                                      "beta", "gamma", "delta", "sigma2"])
    def test_all_unitary(self, name):
        m = gate(name)
        assert max_abs(dagger(m) @ m - np.eye(len(m))) <= 1e-14

    def test_sigma_aliases(self):
        assert np.array_equal(gate("sigma1"), gate("X"))
        assert np.array_equal(gate("sigma3"), gate("Z"))

    def test_unknown_name(self):
        with pytest.raises(UnknownGateError, match="known:"):
            gate("toffoli")

    def test_gate_returns_copy(self):
        m = gate("H")
        m[0, 0] = 99
        assert gate("H")[0, 0] != 99


class TestCnotDecomposition:
    def test_passes_at_rounding_level(self):
        report = verify_cnot_decomposition(1e-12)
        assert report.passed
        assert report.max_residual <= 1e-13

    def test_broken_locals_fail(self):
        from tlbraid import RepShape, jones_representation, tl_params
        from tlbraid.tla import default_involution_spec
        shape = RepShape(2, 1)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        b21 = rep.generators[0] @ rep.generators[1]
        # alpha replaced by I: decomposition broken
        assembled = (kron_all(np.eye(2, dtype=complex), BETA) @ b21
                     @ kron_all(GAMMA, DELTA))
        assert max_abs(assembled - CNOT) > 0.1

    def test_decomposition_action_on_10(self):
        from tlbraid import RepShape, jones_representation, tl_params
        from tlbraid.tla import default_involution_spec
        shape = RepShape(2, 1)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        b21 = rep.generators[0] @ rep.generators[1]
        assembled = kron_all(ALPHA, BETA) @ b21 @ kron_all(GAMMA, DELTA)
        assert max_abs(assembled @ basis_state("10") - basis_state("11")) < 1e-13


class TestPsiGhzRelation:
    def test_passes(self):
        report = verify_psi_ghz_relation(1e-13)
        assert report.passed
        assert report.max_residual <= 1e-13

    def test_psi_amplitudes(self):
        from tlbraid import bell_representation
        rep = bell_representation(3)
        psi = rep.generators[0] @ rep.generators[1] @ basis_state("000")
        expected = np.zeros(8, dtype=complex)
        for idx in (0b000, 0b011, 0b101, 0b110):
            expected[idx] = 0.5
        assert max_abs(psi - expected) < 1e-14

    def test_tampered_target_fails(self):
        from tlbraid import bell_representation
        rep = bell_representation(3)
        psi = rep.generators[0] @ rep.generators[1] @ basis_state("000")
        wrong = kron_all(HADAMARD, HADAMARD, HADAMARD) @ basis_state("000")
        assert max_abs(psi - wrong) > 0.1
