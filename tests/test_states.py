import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (CapacityError, DimensionMismatchError, DomainError,
                     RepShape, apply_structured, basis_state, bits_to_index,
                     cluster_family, cluster_like_state, ghz_state,
                     index_to_bits, jones_representation, max_abs, norm,
                     parse_bits, phase_equivalent, structured_braid_op,
                     tl_params)
from tlbraid import _kernels, linalg, states
from tlbraid.tla import default_involution_spec, involution_spec, jones_pairs

from conftest import random_state

S2 = 1.0 / np.sqrt(2.0)
#: An involution that mixes basis states other than H: 0.6 X + 0.8 Z
TILTED = np.array([[0.8, 0.6], [0.6, -0.8]], dtype=complex)


def dense_b1b2(theta, phi, n, k, names=None):
    """Dense oracle: the product of the Jones generators."""
    p = tl_params(theta, phi)
    shape = RepShape(n, k)
    spec = (default_involution_spec(shape) if names is None
            else involution_spec(names))
    rep = jones_representation(p, shape, spec)
    return rep.generators[0] @ rep.generators[1]


class TestBits:
    def test_basis_state_00(self):
        assert np.array_equal(basis_state("00"), [1, 0, 0, 0])

    def test_basis_state_10_msb_first(self):
        assert np.array_equal(basis_state("10"), [0, 0, 1, 0])

    def test_basis_state_111(self):
        assert bits_to_index("111") == 7
        assert basis_state("111")[7] == 1.0

    def test_index_roundtrip(self):
        for n in (1, 3, 5):
            for idx in range(1 << n):
                assert bits_to_index(index_to_bits(idx, n)) == idx

    def test_bad_bits(self):
        with pytest.raises(DomainError):
            parse_bits("0120")
        with pytest.raises(DomainError):
            parse_bits("")


class TestStructuredBlocks:
    def test_pi_8_matrix_elements(self):
        op = structured_braid_op(RepShape(3, 1))
        d = op.diag_block
        f = op.offdiag_block
        assert abs(d[0, 0] - (-S2)) < 1e-15          # d a^2
        assert abs(d[1, 1] - (-1j * S2)) < 1e-15     # d b^2 + A^-2
        assert abs(f[1, 0] - (-S2)) < 1e-15          # e^{i phi} d a b
        assert abs(f[0, 1] - (1j * S2)) < 1e-15      # -e^{-i phi} A^4 d a b

    def test_normalization_invariants_across_theta_grid(self):
        for theta in (np.pi / 8, -np.pi / 8, np.pi / 6,
                      np.pi + np.pi / 8, np.pi - np.pi / 8):
            op = structured_braid_op(RepShape(2, 1), params=tl_params(theta))
            d0, d1 = op.diag_block[0, 0], op.diag_block[1, 1]
            f10, f01 = op.offdiag_block[1, 0], op.offdiag_block[0, 1]
            assert abs(abs(d0) ** 2 + abs(f10) ** 2 - 1.0) <= 1e-14
            assert abs(abs(d1) ** 2 + abs(f01) ** 2 - 1.0) <= 1e-14

    def test_b11_full_matrix(self):
        op = structured_braid_op(RepShape(1, 1))
        expected = -S2 * np.array([[1, -1j], [1, 1j]])
        assert max_abs(op.dense() - expected) < 1e-14

    def test_b21_matches_displayed_matrix(self):
        op = structured_braid_op(RepShape(2, 1))
        expected = -S2 * np.array([
            [1, 0, 0, -1j],
            [0, 1, -1j, 0],
            [0, 1, 1j, 0],
            [1, 0, 0, 1j],
        ])
        assert max_abs(op.dense() - expected) < 1e-13

    def test_dense_cross_validation_catches_tampering(self):
        # at n <= 8 the constructor compares against the Jones product
        op = structured_braid_op(RepShape(2, 1))
        assert max_abs(op.dense() - dense_b1b2(np.pi / 8, 0.0, 2, 1)) < 1e-14

    def test_capacity(self):
        with pytest.raises(CapacityError):
            structured_braid_op(RepShape(27, 1))


class TestApplyStructured:
    def test_b21_on_00(self):
        op = structured_braid_op(RepShape(2, 1))
        out = apply_structured(op, basis_state("00"))
        expected = np.array([-S2, 0, 0, -S2], dtype=complex)
        assert max_abs(out - expected) < 1e-13

    def test_b21_on_10(self):
        op = structured_braid_op(RepShape(2, 1))
        out = apply_structured(op, basis_state("10"))
        expected = np.array([0, 1j * S2, -1j * S2, 0], dtype=complex)
        assert max_abs(out - expected) < 1e-13

    def test_identity_involutions_give_product_state(self):
        from tlbraid import schmidt_rank
        shape = RepShape(4, 2)
        op = structured_braid_op(shape, spec=involution_spec(["i"] * 3))
        out = apply_structured(op, basis_state("0110"))
        for q in range(1, 4):
            assert schmidt_rank(out, range(1, q + 1)) == 1

    def test_basis_input_two_term_structure(self, rng):
        # Every basis state maps to its own index plus the s-dressed
        # conjugate partner with the predicted coefficients
        op = structured_braid_op(RepShape(4, 2))
        p = op.params
        for _ in range(10):
            bits = tuple(rng.integers(0, 2, size=4))
            out = apply_structured(op, basis_state(bits))
            nz = np.flatnonzero(np.abs(out) > 1e-14)
            assert len(nz) == 2
            partner = list(bits)
            partner[1] = 1 - partner[1]       # k = 2 flips
            partner[2] = 1 - partner[2]       # sigma1 dressing above k
            partner[3] = 1 - partner[3]
            assert set(nz) == {bits_to_index(bits), bits_to_index(partner)}
            same = out[bits_to_index(bits)]
            other = out[bits_to_index(partner)]
            if bits[1] == 0:
                assert abs(same - p.d * p.a ** 2) < 1e-14
                assert abs(other - p.d * p.a * p.b) < 1e-14
            else:
                assert abs(same - (p.d * p.b ** 2 + p.A ** -2)) < 1e-14
                assert abs(other - (-p.A ** 4 * p.d * p.a * p.b)) < 1e-14

    def test_single_term_when_ab_zero(self):
        # theta = pi/6 gives b = 0: the conjugate branch vanishes
        op = structured_braid_op(RepShape(3, 1), params=tl_params(np.pi / 6))
        out = apply_structured(op, basis_state("010"))
        nz = np.flatnonzero(np.abs(out) > 1e-14)
        assert len(nz) == 1 and nz[0] == bits_to_index("010")

    @pytest.mark.parametrize("names", [
        ("i", "x", "y"), ("z", "z", "x"), ("h", "x", "h"), ("y", "h", "i"),
        ("x", "x", "x"), ("h", "h", "h"),
    ])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_oracle_equivalence_random_states(self, rng, names, k):
        theta, phi = -np.pi / 8, np.pi / 3
        dense = dense_b1b2(theta, phi, 4, k, names)
        shape = RepShape(4, k)
        op = structured_braid_op(shape, params=tl_params(theta, phi),
                                 spec=involution_spec(names))
        for _ in range(10):
            v = random_state(rng, 4)
            assert max_abs(apply_structured(op, v) - dense @ v) < 1e-12
            assert max_abs(apply_structured(op, v, inverse=True)
                           - dense.conj().T @ v) < 1e-12

    def test_custom_involutions_match_dense(self, rng):
        # antidiagonal with a nontrivial phase (monomial path) and a tilted
        # Pauli axis (sweep path)
        chi = 0.9
        antidiag = np.array([[0, np.exp(-1j * chi)],
                             [np.exp(1j * chi), 0]])
        tilted = (np.array([[0, 1], [1, 0]]) * 0.6
                  + np.array([[1, 0], [0, -1]]) * 0.8).astype(complex)
        p = tl_params(np.pi / 8, 0.2)
        shape = RepShape(3, 2)
        spec = involution_spec([antidiag, tilted])
        rep = jones_representation(p, shape, spec)
        dense = rep.generators[0] @ rep.generators[1]
        op = structured_braid_op(shape, p, spec)
        for _ in range(5):
            v = random_state(rng, 3)
            assert max_abs(apply_structured(op, v) - dense @ v) < 1e-12

    def test_inverse_composes_to_identity(self, rng):
        op = structured_braid_op(RepShape(5, 3),
                                 spec=involution_spec(["z", "h", "x", "y"]))
        v = random_state(rng, 5)
        w = apply_structured(op, v)
        back = apply_structured(op, w, inverse=True)
        assert max_abs(back - v) < 1e-12

    def test_norm_preserved(self, rng):
        for names in (["x"] * 4, ["h", "i", "x", "z"]):
            op = structured_braid_op(RepShape(5, 2),
                                     spec=involution_spec(names))
            v = random_state(rng, 5)
            assert abs(norm(apply_structured(op, v)) - 1.0) < 1e-12

    def test_does_not_mutate_input(self, rng):
        op = structured_braid_op(RepShape(3, 1))
        v = random_state(rng, 3)
        v0 = v.copy()
        apply_structured(op, v)
        apply_structured(op, v, inverse=True)
        assert np.array_equal(v, v0)

    def test_dimension_mismatch(self):
        op = structured_braid_op(RepShape(3, 1))
        with pytest.raises(DimensionMismatchError):
            apply_structured(op, basis_state("00"))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_real_and_integer_states(self, dtype):
        op = structured_braid_op(RepShape(3, 1))
        out = apply_structured(op, np.eye(8, dtype=dtype)[0])
        assert out.dtype == np.complex128
        assert np.array_equal(out, apply_structured(op, basis_state("000")))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("names", ["ixyzixyzi", "hxyzixyzh"],
                             ids=["monomial", "mixing"])
    def test_real_and_integer_states_match_their_complex_cast(
            self, rng, dtype, names):
        # bit for bit: the pass reads a real or integer amplitude as the
        # complex128 number it casts to
        op = structured_braid_op(RepShape(10, 4), params=tl_params(0.3, 1.1),
                                 spec=involution_spec(names))
        v = (rng.standard_normal(1 << 10) * 7).astype(dtype)
        for inverse in (False, True):
            out = apply_structured(op, v, inverse=inverse)
            assert out.dtype == np.complex128
            assert np.array_equal(out, apply_structured(
                op, v.astype(np.complex128), inverse=inverse))

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(data=st.data())
    def test_matches_the_dense_operator(self, data):
        # dressings of every kind, all-mixing ones included; the drawn block
        # size moves the boundary that runs of mixing slots cross
        n = data.draw(st.integers(2, 8), label="n")
        k = data.draw(st.integers(1, n), label="k")
        pool = (["h", TILTED] if data.draw(st.booleans(), label="all mixing")
                else ["i", "x", "y", "z", "h", TILTED])
        names = data.draw(st.lists(st.sampled_from(pool), min_size=n - 1,
                                   max_size=n - 1), label="names")
        block = data.draw(st.integers(0, n), label="block qubits")
        theta = data.draw(st.floats(-0.5, 0.5), label="theta") + \
            data.draw(st.sampled_from([0.0, np.pi / 2]), label="branch")
        phi = data.draw(st.floats(0, 6), label="phi")
        (e1, e2), (b1, b2), _ = jones_pairs(
            RepShape(n, k), tl_params(theta, phi), involution_spec(names))
        # b1 and E1 hold Q = 0 at slot k
        op = {"b1 b2": b1 @ b2, "b1": b1, "E1": e1, "E2": e2}[data.draw(
            st.sampled_from(["b1 b2", "b1", "E1", "E2"]), label="operator")]
        v = random_state(np.random.default_rng(n * 10 + k), n)
        dense = op.dense()
        with mock.patch.object(linalg, "BLOCK_AMPS", 1 << block):
            forward = apply_structured(op, v)
            inverse = apply_structured(op, v, inverse=True)
        assert max_abs(forward - dense @ v) <= 1e-12
        assert max_abs(inverse - dense.conj().T @ v) <= 1e-12

    @pytest.mark.parametrize("n", [12, 13, 14])
    @pytest.mark.parametrize("names", ["h", "hx"], ids=["all_h", "h_x"])
    def test_inverse_round_trip_with_mixing_runs(self, rng, n, names):
        spec = involution_spec((names * n)[:n - 1])
        for k in (1, n // 2, n):
            op = structured_braid_op(RepShape(n, k),
                                     params=tl_params(0.3, 1.1), spec=spec)
            v = random_state(rng, n)
            back = apply_structured(op, apply_structured(op, v), inverse=True)
            assert max_abs(back - v) <= 1e-12


class TestKernel:
    def test_phase_vector_is_kron_of_pairs(self):
        # one (bit=0, bit=1) row per qubit; their Kronecker product is the
        # coefficient an index picks up
        pairs = [(1.0, -1.0), (2.0, 3.0j), (0.5, 1.0)]
        table = _kernels.phase_vector(pairs)
        assert table.shape == (3, 2) and table.dtype == np.complex128
        expected = np.kron(np.kron([1, -1], [2, 3j]), [0.5, 1.0])
        assert np.array_equal(_kernels._kron_rows(table), expected)

    @pytest.mark.parametrize("names", [("i", "x", "y", "z") * 5,
                                       ("h", "x", "i", "h") * 5])
    def test_peak_memory_near_twice_the_state(self, rng, names):
        n = 18
        op = structured_braid_op(RepShape(n, 9), params=tl_params(0.3, 1.1),
                                 spec=involution_spec(names[:n - 1]))
        v = random_state(rng, n)
        tracemalloc.start()
        try:
            apply_structured(op, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * v.nbytes


class TestSpreadPass:
    """Dressings with no mixing slot run the block loop on up to
    `linalg._CORES` threads, at most one per 8 blocks; the core count is
    patched here, so that the spread runs on any machine."""

    N = 22  # 2^22 amplitudes: blocks on the low 16 axes, 64 blocks

    @pytest.fixture(scope="class")
    def big_state(self):
        return random_state(np.random.default_rng(22), self.N)

    def op(self, k: int, dressing: str = "monomial"):
        names = list(("ixyz" * self.N)[:self.N - 1])
        if dressing == "outer_h":
            names[0] = "h"      # axis 0, a top axis
        elif dressing == "inner_h":
            names[-1] = "h"     # axis 21, a block axis
        return structured_braid_op(RepShape(self.N, k),
                                   params=tl_params(0.3, 1.1),
                                   spec=involution_spec(names))

    @pytest.mark.parametrize("dressing", ["monomial", "outer_h", "inner_h"])
    @pytest.mark.parametrize("k", [3, 15], ids=["k_top", "k_block"])
    def test_spread_equals_one_thread(self, big_state, dressing, k):
        op = self.op(k, dressing)
        for inverse in (False, True):
            with mock.patch.object(linalg, "_CORES", 1):
                one = apply_structured(op, big_state, inverse=inverse)
            with mock.patch.object(linalg, "_CORES", 3):
                spread = apply_structured(op, big_state, inverse=inverse)
            assert np.array_equal(spread, one)

    @pytest.mark.parametrize("cores", [3, 64, None],
                             ids=["three", "many", "usable"])
    def test_threads_are_started_and_joined(self, big_state, cores):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        before = threading.active_count()
        with mock.patch.object(linalg, "_CORES", cores or linalg._CORES), \
                mock.patch.object(threading, "Thread", Counted):
            apply_structured(self.op(15), big_state)
            # one thread per core, and at most one per 8 of the 64 blocks,
            # the calling thread among them
            assert len(started) == min(linalg._CORES, 8) - 1
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == before

    def test_cores_are_the_usable_cores(self):
        # read at import, so a process started under `taskset -c 0` has 1
        if hasattr(os, "sched_getaffinity"):
            assert linalg._CORES == len(os.sched_getaffinity(0))
        assert linalg._CORES >= 1

    @pytest.mark.parametrize("case", ["one_core", "few_blocks", "inner_h",
                                      "outer_h"])
    def test_one_thread_otherwise(self, big_state, case):
        cores = 1 if case == "one_core" else 64
        # 2^19 amplitudes: 8 blocks
        v = big_state[:1 << 19] if case == "few_blocks" else big_state
        n = v.size.bit_length() - 1
        names = list(("ixyz" * n)[:n - 1])
        if case == "inner_h":
            names[-1] = "h"
        elif case == "outer_h":
            names[0] = "h"
        op = structured_braid_op(RepShape(n, 3), spec=involution_spec(names))
        with mock.patch.object(linalg, "_CORES", cores), \
                mock.patch.object(threading, "Thread",
                                  side_effect=AssertionError("a thread")):
            apply_structured(op, v)

    def test_a_worker_exception_reaches_the_caller(self):
        done = []

        def body(parts):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("raised in a worker")
            done.extend(parts)

        before = threading.active_count()
        with pytest.raises(ValueError, match="raised in a worker"):
            linalg._each_block(64, body, 3)
        assert threading.active_count() == before
        assert len(done) == len(set(done)) <= 64

    def test_every_block_is_taken_once(self):
        # more threads than cores, switching often: a block lost or taken
        # twice from the shared counter shows in the sorted list
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            linalg._each_block(5000, taken.extend, 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(5000))

    @pytest.mark.parametrize("dressing, cores, bound",
                             [("monomial", 3, 1.1), ("monomial", 64, 1.2),
                              ("outer_h", 64, 1.1)])
    def test_peak_memory_is_the_result(self, big_state, dressing, cores,
                                       bound):
        # one result array, plus a 1 MiB block temporary per thread: 3, or
        # 8 for the 64 blocks however many cores there are (1.16x here;
        # one thread per core would make it 2x)
        with mock.patch.object(linalg, "_CORES", cores):
            tracemalloc.start()
            try:
                apply_structured(self.op(15, dressing), big_state)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= bound * big_state.nbytes


class TestTermMap:
    """Basis inputs go through `_product_terms`: a diagonal term and a chain
    term per product term, whatever the dressing, expanded by `_expand`."""

    @staticmethod
    def op(n, k, names, theta=0.3, phi=1.1):
        return structured_braid_op(RepShape(n, k), params=tl_params(theta, phi),
                                   spec=involution_spec(names) if n > 1 else ())

    @staticmethod
    def dressings(rng, n):
        uniform = [[c] * (n - 1) for c in "ixyzh"]
        mixed = [list(rng.choice(list("ixyzh"), size=n - 1)) for _ in range(3)]
        return uniform + mixed

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_every_dressing_matches_the_pass(self, rng, n):
        for k in sorted({1, (n + 1) // 2, n}):
            for names in self.dressings(rng, n):
                op = self.op(n, k, names)
                for idx in {0, (1 << n) - 1, int(rng.integers(0, 1 << n))}:
                    bits = index_to_bits(idx, n)
                    for inverse in (False, True):
                        want = apply_structured(op, basis_state(bits), inverse)
                        got = states.apply_to_basis(op, bits, inverse)
                        assert max_abs(got - want) <= 1e-15, (k, names, idx)

    def test_r_terms_give_2r_terms(self, rng):
        op = self.op(6, 2, ["h", "x", "h", "y", "h"])
        coeffs = rng.standard_normal((4, 3)) + 0j
        local = rng.standard_normal((4, 3, 6, 2)) + 0j
        out_coeffs, out_local = states._product_terms(op, coeffs, local)
        assert out_coeffs.shape == (4, 6) and out_local.shape == (4, 6, 6, 2)
        # the diagonal terms, then the chain terms, with their coefficients
        assert np.array_equal(out_coeffs, np.concatenate([coeffs, coeffs], -1))
        assert np.array_equal(np.delete(out_local[:, :3], 1, axis=2),
                              np.delete(local, 1, axis=2))
        # a basis state gives two terms, however many slots mix
        terms = states._product_terms(op, *states._basis_terms([1, 0, 1, 1, 0, 1]))
        assert terms[0].shape == (2,) and terms[1].shape == (2, 6, 2)

    @pytest.mark.parametrize("names", [["x", "y", "z", "i", "x"],
                                       ["h", "x", "h", "z", "y"],
                                       *([c] * 5 for c in "ixyzh")])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_repeated_input_indices(self, rng, names, inverse):
        n = 6
        op = self.op(n, 3, names, theta=-0.2, phi=2.0)
        rows = rng.standard_normal((4, n, 2)) + 1j * rng.standard_normal((4, n, 2))
        rows[1, 2, 1] = rows[2, :, 0] = 0    # some qubits fix their bit
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        local = rows[[0, 1, 0, 2, 3, 1, 0]]
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        coeffs /= np.linalg.norm(coeffs)
        v = states._expand(coeffs, local)
        want = sum(c * linalg.kron_all(*loc).ravel()
                   for c, loc in zip(coeffs, local))
        assert max_abs(v - want) <= 1e-15
        got = states._expand(*states._product_terms(op, coeffs, local, inverse))
        assert max_abs(got - apply_structured(op, v, inverse)) <= 1e-14

    @pytest.mark.parametrize("theta", [np.pi / 8, 0.3, -0.45, np.pi + 0.2])
    @pytest.mark.parametrize("n", [1, 2, 7, 17])
    def test_ghz_is_the_pass_bit_for_bit(self, n, theta):
        op = structured_braid_op(RepShape(n, 1), params=tl_params(theta))
        for inverse in (False, True):
            want = apply_structured(op, basis_state([0] * n), inverse)
            got = ghz_state(n, params=tl_params(theta), use_inverse=inverse)
            assert np.array_equal(got.view(np.float64) != 0,
                                  want.view(np.float64) != 0)
            nonzero = got != 0
            assert np.array_equal(got[nonzero].view(np.uint64),
                                  want[nonzero].view(np.uint64))

    def test_generators_run_no_pass(self):
        with mock.patch.object(_kernels, "gather_pass",
                               side_effect=AssertionError("a 2^n pass")) as fake:
            ghz_state(6)
            ghz_state(6, use_inverse=True)
            cluster_like_state(6, 4)
            cluster_family(4, 3)
            states.apply_to_basis(self.op(5, 2, ["h"] * 4), "01101", True)
        assert fake.call_count == 0

    @pytest.mark.parametrize("make", [lambda: ghz_state(20),
                                      lambda: cluster_like_state(20, 11)],
                             ids=["ghz", "cluster"])
    def test_peak_memory_is_the_state(self, make):
        make()
        tracemalloc.start()
        try:
            v = make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * v.nbytes

    def test_half_dense_peak_is_under_twice_the_state(self):
        # all-H: the chain term spans 17 qubits, a block of half the state
        op = self.op(18, 8, ["h"] * 17)
        states.apply_to_basis(op, [0] * 18)
        tracemalloc.start()
        try:
            v = states.apply_to_basis(op, [0] * 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * v.nbytes

    def test_bits_must_fit_the_operator(self):
        with pytest.raises(DimensionMismatchError):
            states.apply_to_basis(self.op(3, 2, ["x", "x"]), "0101")


class TestGhz:
    def test_forward_n2_bell(self):
        v = ghz_state(2)
        expected = np.array([-S2, 0, 0, -S2], dtype=complex)
        assert max_abs(v - expected) < 1e-13

    def test_forward_n3_amplitudes(self):
        v = ghz_state(3)
        assert abs(v[0] - (-S2)) < 1e-13
        assert abs(v[7] - (-S2)) < 1e-13
        assert max_abs(np.delete(v, [0, 7])) == 0.0

    def test_inverse_n5(self):
        v = ghz_state(5, use_inverse=True)
        target = np.zeros(32, dtype=complex)
        target[0], target[31] = S2, 1j * S2
        # computed state carries a global -1 relative to the textbook form
        assert phase_equivalent(v, target, "global", 1e-13)
        assert max_abs(v + target) < 1e-13

    def test_forward_n1_hadamard_column(self):
        v = ghz_state(1)
        assert max_abs(v - np.array([-S2, -S2])) < 1e-13


class TestCluster:
    def test_n4_k3_matches_four_term_form(self):
        v = cluster_like_state(4, 3)
        target = np.zeros(16, dtype=complex)
        target[0b0000] = target[0b0011] = target[0b1100] = 0.5
        target[0b1111] = -0.5
        assert phase_equivalent(v, target, "global", 1e-12)
        # dense-oracle verdict: the computed state is exactly the displayed
        # one (no extra phase)
        assert max_abs(v - target) < 1e-13

    def test_n2_k2_entangled(self):
        from tlbraid import entanglement_report
        v = cluster_like_state(2, 2)
        report = entanglement_report(v, [1])
        assert not report.is_product
        assert report.entropy_bits > 0.1

    def test_k1_identity_action(self):
        v = cluster_like_state(3, 1)
        assert max_abs(v - basis_state("000")) < 1e-13

    def test_family_orthonormal_n2(self):
        family = cluster_family(2, 2)
        assert len(family) == 4
        gram = np.array([[np.vdot(u, w) for w in family] for u in family])
        assert max_abs(gram - np.eye(4)) < 1e-12

    def test_family_gram_n4_k3(self):
        family = cluster_family(4, 3)
        gram = np.array([[np.vdot(u, w) for w in family] for u in family])
        assert max_abs(gram - np.eye(16)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_family_rows_are_the_two_operators_on_each_basis_state(self, k):
        op1 = structured_braid_op(RepShape(5, 1))
        opk = structured_braid_op(RepShape(5, k))
        for s, row in enumerate(cluster_family(5, k)):
            v = basis_state(index_to_bits(s, 5))
            want = apply_structured(opk, apply_structured(op1, v, inverse=True))
            assert max_abs(row - want) <= 1e-15, s

    def test_family_capacity(self):
        with pytest.raises(CapacityError):
            cluster_family(13, 2)
