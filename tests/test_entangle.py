import json
import tracemalloc

import numpy as np
import pytest

from tlbraid import entangle
from tlbraid import (DimensionMismatchError, DomainError, basis_state,
                     bell_representation, entanglement_report, ghz_state,
                     kron_all, lu_equivalent, max_abs, measure_qubit,
                     partial_trace, reduced_density, schmidt_rank, vn_entropy)
from tlbraid.gates import CNOT, HADAMARD, IDENTITY_2
from tlbraid.states import (apply_to_basis, cluster_like_state, index_to_bits,
                            structured_braid_op)
from tlbraid.tla import RepShape, involution_spec

from conftest import random_state, random_unitary

S2 = 1.0 / np.sqrt(2.0)


def density_matrix(v):
    """|v><v|."""
    return np.outer(v, v.conj())


def bell_state():
    return np.array([S2, 0, 0, S2], dtype=complex)


def psi_state():
    """b1 b2 |000> in the Bell representation: equal weights on even parity."""
    rep = bell_representation(3)
    return rep.generators[0] @ rep.generators[1] @ basis_state("000")


def ghz3():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = S2
    return v


def partial_trace_oracle(rho, keep, n):
    """Independent index-summation partial trace (1-based keep labels)."""
    keep = sorted(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]
    dk = 1 << len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits, traced_bits):
        bits = [0] * n
        for q, b in zip(keep, keep_bits):
            bits[q - 1] = b
        for q, b in zip(traced, traced_bits):
            bits[q - 1] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for i in range(dk):
        for j in range(dk):
            ib = index_to_bits(i, len(keep))
            jb = index_to_bits(j, len(keep))
            for t in range(1 << len(traced)):
                tb = index_to_bits(t, len(traced)) if traced else ()
                out[i, j] += rho[full_index(ib, tb), full_index(jb, tb)]
    return out


class TestPartialTrace:
    def test_product_state(self):
        rho = density_matrix(basis_state("01"))
        red = partial_trace(rho, [1])
        assert max_abs(red - np.diag([1, 0])) < 1e-14

    def test_bell_state_maximally_mixed(self):
        rho = density_matrix(bell_state())
        red = partial_trace(rho, [1])
        assert max_abs(red - np.eye(2) / 2) < 1e-14

    def test_ghz3_keep_23_against_oracle(self):
        rho = density_matrix(ghz3())
        red = partial_trace(rho, [2, 3])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert max_abs(red - expected) < 1e-14
        assert max_abs(red - partial_trace_oracle(rho, [2, 3], 3)) < 1e-14

    def test_random_states_against_oracle(self, rng):
        for keep in ([1], [3], [1, 3], [2, 4], [1, 2, 3]):
            v = random_state(rng, 4)
            rho = density_matrix(v)
            got = partial_trace(rho, keep)
            assert max_abs(got - partial_trace_oracle(rho, keep, 4)) < 1e-13
            assert abs(np.trace(got).real - 1.0) < 1e-12

    def test_reduced_density_matches_partial_trace(self, rng):
        v = random_state(rng, 4)
        for keep in ([2], [1, 4], [2, 3, 4]):
            assert max_abs(reduced_density(v, keep)
                           - partial_trace(density_matrix(v), keep)) < 1e-13

    def test_invalid_subsets(self):
        rho = density_matrix(bell_state())
        with pytest.raises(DomainError):
            partial_trace(rho, [])
        with pytest.raises(DomainError):
            partial_trace(rho, [3])
        with pytest.raises(DomainError):
            partial_trace(rho, [1, 2])  # not proper

    def test_reductions_are_valid_density_matrices(self, rng):
        # Hermitian within 1e-12, unit trace, eigenvalues >= -1e-10
        for _ in range(3):
            v = random_state(rng, 4)
            for keep in ([1], [2, 3], [1, 2, 4]):
                red = reduced_density(v, keep)
                assert max_abs(red - red.conj().T) < 1e-12
                assert abs(np.trace(red).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(red).min() >= -1e-10


class TestEntropy:
    def test_pure_state_zero(self):
        assert vn_entropy(density_matrix(basis_state("0"))) < 1e-12

    def test_maximally_mixed_one_bit(self):
        assert abs(vn_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_psi_one_qubit_reduction_is_one_bit(self):
        red = reduced_density(psi_state(), [1])
        assert abs(vn_entropy(red) - 1.0) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError, match="Hermitian"):
            vn_entropy(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_lu_invariance(self, rng):
        v = random_state(rng, 3)
        locals_ = [random_unitary(rng, 2) for _ in range(3)]
        w = kron_all(*locals_) @ v
        for cut in ([1], [2, 3], [1, 3]):
            assert abs(vn_entropy(reduced_density(v, cut))
                       - vn_entropy(reduced_density(w, cut))) < 1e-10

    def test_complementary_cuts_agree(self, rng):
        v = random_state(rng, 4)
        for cut in ([1], [1, 2], [2, 4]):
            comp = [q for q in range(1, 5) if q not in cut]
            assert abs(vn_entropy(reduced_density(v, cut))
                       - vn_entropy(reduced_density(v, comp))) < 1e-10


class TestMeasurement:
    def test_ghz3_collapses_to_product(self):
        prob, post = measure_qubit(ghz3(), 1, 0)
        assert abs(prob - 0.5) < 1e-12
        assert max_abs(post - basis_state("00")) < 1e-12
        report = entanglement_report(post, [1])
        assert report.is_product and report.entropy_bits < 1e-9

    def test_psi_stays_maximally_entangled(self):
        prob, post = measure_qubit(psi_state(), 1, 0)
        assert abs(prob - 0.5) < 1e-12
        expected = np.array([S2, 0, 0, S2], dtype=complex)
        assert max_abs(post - expected) < 1e-12
        assert abs(vn_entropy(reduced_density(post, [1])) - 1.0) < 1e-9

    def test_cluster_retains_entanglement_after_loss(self):
        v = cluster_like_state(4, 3)
        for qubit in (1, 2, 3, 4):
            _, post = measure_qubit(v, qubit, 0)
            entropies = [
                entanglement_report(post, [q]).entropy_bits
                for q in range(1, 4)
            ]
            assert max(entropies) > 1e-6, f"qubit {qubit}: {entropies}"

    def test_probabilities_sum_to_one(self, rng):
        v = random_state(rng, 3)
        for qubit in (1, 2, 3):
            p0, _ = measure_qubit(v, qubit, 0)
            p1, _ = measure_qubit(v, qubit, 1)
            assert abs(p0 + p1 - 1.0) < 1e-12

    def test_zero_probability_outcome(self):
        with pytest.raises(DomainError, match="probability"):
            measure_qubit(basis_state("00"), 1, 1)

    def test_single_qubit_measurement(self):
        # measuring the only qubit would leave a 0-qubit "state"
        with pytest.raises(DomainError, match="only qubit"):
            measure_qubit(np.array([S2, S2], dtype=complex), 1, 1)


class TestSchmidtRank:
    def svd_rank_oracle(self, v, subset, n, tol=1e-9):
        rest = [q for q in range(1, n + 1) if q not in subset]
        axes = [q - 1 for q in sorted(subset)] + [q - 1 for q in rest]
        m = v.reshape([2] * n).transpose(axes).reshape(1 << len(subset), -1)
        return int(np.count_nonzero(np.linalg.svd(m, compute_uv=False) > tol))

    def test_product_state(self):
        assert schmidt_rank(basis_state("0101"), [1, 2]) == 1

    def test_bell_state(self):
        assert schmidt_rank(bell_state(), [1]) == 2

    def test_ghz_rank_two_any_n(self):
        for n in (2, 3, 4, 6):
            v = ghz_state(n)
            assert schmidt_rank(v, [1]) == 2
            assert self.svd_rank_oracle(v, [1], n) == 2

    def test_matches_svd_oracle_random(self, rng):
        for _ in range(5):
            v = random_state(rng, 4)
            for subset in ([1], [2, 3], [1, 4]):
                assert schmidt_rank(v, subset) == \
                    self.svd_rank_oracle(v, subset, 4)

    def test_report_takes_one_decomposition(self, rng, monkeypatch):
        v = random_state(rng, 5)
        expected = vn_entropy(reduced_density(v, [2, 4]))

        def refuse(*args, **kwargs):
            raise AssertionError("entanglement_report builds a Gram matrix")

        monkeypatch.setattr(entangle, "reduced_density", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        report = entanglement_report(v, [2, 4])
        assert abs(report.entropy_bits - expected) < 1e-12
        assert report.schmidt_rank == 4

    def test_rank_one_iff_zero_entropy(self, rng):
        states = [random_state(rng, 3) for _ in range(3)]
        states += [basis_state("010"), ghz3(), psi_state()]
        for v in states:
            for cut in ([1], [2], [1, 3]):
                report = entanglement_report(v, cut)
                assert (report.schmidt_rank == 1) == (report.entropy_bits <= 1e-9)
                assert report.is_product == (report.schmidt_rank == 1)


def full_matrix_report(v, keep, tol=1e-9):
    """Schmidt rank and entropy in bits from QR then SVD of the whole cut
    matrix, zero rows and columns included."""
    n = (len(v) - 1).bit_length()
    rest = [q for q in range(1, n + 1) if q not in keep]
    axes = [q - 1 for q in keep] + [q - 1 for q in rest]
    m = v.reshape([2] * n).transpose(axes).reshape(1 << len(keep), -1)
    if m.shape[0] < m.shape[1]:
        m = np.linalg.qr(m.T, mode="r")
    s = np.linalg.svd(m, compute_uv=False)
    lam = s * s
    lam = lam[lam > 1e-12] / lam[lam > 1e-12].sum()
    return int(np.count_nonzero(s > tol)), float(-np.sum(lam * np.log2(lam)))


class TestSupportCut:
    """Cuts of a state with zero amplitudes are taken on its support."""

    @staticmethod
    def on_support(rng, n, support):
        v = np.zeros(1 << n, dtype=complex)
        v[support] = rng.standard_normal(len(support)) \
            + 1j * rng.standard_normal(len(support))
        return v / np.linalg.norm(v)

    def check(self, v, keep):
        keep = sorted(keep)
        rank, entropy = full_matrix_report(v, keep)
        report = entanglement_report(v, keep)
        assert report.schmidt_rank == rank == schmidt_rank(v, keep)
        assert report.is_product == (rank == 1)
        assert abs(report.entropy_bits - entropy) <= 1e-14
        assert entanglement_report(v, keep, support=np.flatnonzero(v)) == report

    def test_random_supports(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 8))
            size = int(rng.integers(1, 1 << n))
            v = self.on_support(rng, n, rng.choice(1 << n, size, replace=False))
            keep = rng.choice(np.arange(1, n + 1), int(rng.integers(1, n)),
                              replace=False)
            self.check(v, keep)

    def test_support_on_one_row_or_column(self, rng):
        # qubits 2 and 5 fixed to 1, 0: one row of the {2, 5} cut, one
        # column of the {1, 3, 4} cut
        support = [i for i in range(32) if (i >> 3) & 1 and not i & 1]
        v = self.on_support(rng, 5, support)
        self.check(v, [2, 5])
        self.check(v, [1, 3, 4])
        assert entanglement_report(v, [2, 5]).schmidt_rank == 1

    def test_product_cut(self, rng):
        a = self.on_support(rng, 2, [1, 2])
        b = self.on_support(rng, 3, [0, 5, 6])
        v = np.kron(a, b)
        self.check(v, [1, 2])
        report = entanglement_report(v, [1, 2])
        assert report.is_product and report.entropy_bits == 0.0
        self.check(v, [2, 4])

    def test_packed_keys_match_the_multi_index(self, rng):
        n = 9
        index = rng.integers(0, 1 << n, size=200)
        for _ in range(20):
            qubits = sorted(rng.choice(np.arange(1, n + 1),
                                       int(rng.integers(1, n + 1)), replace=False))
            bits = np.unravel_index(index, (2,) * n)
            want = np.ravel_multi_index([bits[q - 1] for q in qubits],
                                        (2,) * len(qubits))
            assert np.array_equal(entangle._packed_bits(index, n, qubits), want)

    @pytest.mark.parametrize("cut", [[1], [9], [18], [2, 3, 11]])
    def test_half_dense_cut_peak_memory(self, cut):
        # every slot H at k = 8: 2^17 + 1 of the 2^18 amplitudes are nonzero
        n = 18
        op = structured_braid_op(RepShape(n, 8),
                                 spec=involution_spec(["h"] * (n - 1)))
        v = apply_to_basis(op, [0] * n)
        assert np.count_nonzero(v) == (1 << 17) + 1
        tracemalloc.start()
        try:
            report = entanglement_report(v, cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * v.nbytes
        assert report.schmidt_rank == full_matrix_report(v, cut)[0]

    def test_ghz_cuts_take_no_qr(self, monkeypatch):
        v = ghz_state(12)

        def refuse(*args, **kwargs):
            raise AssertionError("a QR of the 2^12-amplitude cut matrix")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        for cut in ([1], [12], [3, 7], range(1, 7)):
            report = entanglement_report(v, cut)
            assert report.schmidt_rank == 2
            assert abs(report.entropy_bits - 1.0) <= 1e-14


class TestLUEquivalence:
    def test_psi_vs_ghz_with_hadamards(self):
        assert lu_equivalent(psi_state(), ghz3(), [HADAMARD] * 3)

    def test_identity_locals(self, rng):
        v = random_state(rng, 2)
        assert lu_equivalent(v, v, [IDENTITY_2, IDENTITY_2])

    def test_bell_vs_product_false(self, rng):
        prod = basis_state("00")
        for _ in range(5):
            locals_ = [random_unitary(rng, 2) for _ in range(2)]
            assert not lu_equivalent(bell_state(), prod, locals_)
        assert not lu_equivalent(bell_state(), prod, [HADAMARD, IDENTITY_2])

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            lu_equivalent(bell_state(), ghz3(), [IDENTITY_2] * 2)
        with pytest.raises(DimensionMismatchError):
            lu_equivalent(bell_state(), bell_state(), [IDENTITY_2])

    def test_entangling_local_refused(self):
        # CNOT (H x I) maps |00> to the Bell state, but it is no local unitary
        entangler = CNOT @ kron_all(HADAMARD, IDENTITY_2)
        with pytest.raises(DimensionMismatchError):
            lu_equivalent(bell_state(), basis_state("00"), [entangler, IDENTITY_2])
        with pytest.raises(DimensionMismatchError):
            lu_equivalent(bell_state(), basis_state("00"), [IDENTITY_2, entangler])


class TestNormalization:
    def test_unnormalized_state_refused(self):
        # |00> + |11> without the 1/sqrt2 once read as 0 bits at rank 2
        v = np.array([1, 0, 0, 1], dtype=complex)
        with pytest.raises(DomainError, match="norm"):
            entanglement_report(v, [1])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_state_refused(self, zero):
        v = np.full(8, complex(zero, zero))
        for cut in ([1], [2, 3]):
            with pytest.raises(DomainError, match="norm"):
                entanglement_report(v, cut)

    def test_cli_refuses_unnormalized_file(self, tmp_path, capsys):
        from tlbraid.cli import main
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes":
                                    [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        assert main(["entropy", "--state", f"@{path}"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


class TestReportJson:
    def test_shape(self):
        obj = entanglement_report(ghz3(), [2, 3]).to_json()
        assert set(obj) == {"bipartition", "entropy_bits", "schmidt_rank",
                            "is_product"}
        assert obj["bipartition"] == [2, 3]
        assert obj["schmidt_rank"] == 2
        assert not obj["is_product"]
