import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (CapacityError, DimensionMismatchError, DomainError,
                     apply_single_qubit, dagger, kron_all, max_abs, norm,
                     phase_equivalent, state_from_json, state_to_json)
from tlbraid import linalg
from tlbraid.braidrep import bell_matrix
from tlbraid.gates import HADAMARD, PAULI_X

from conftest import (EDGE_FLOATS, random_state, random_unitary,
                      signed_zero_state)

I2 = np.eye(2, dtype=complex)


def kron_oracle(a, b):
    """Index-loop Kronecker product, independent of np.kron."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for ia in range(ra):
        for ja in range(ca):
            for ib in range(rb):
                for jb in range(cb):
                    out[ia * rb + ib, ja * cb + jb] = a[ia, ja] * b[ib, jb]
    return out


def test_kron_identity():
    assert np.array_equal(kron_all(I2, I2), np.eye(4))


def test_kron_double_bitflip():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    out = kron_all(PAULI_X, PAULI_X) @ v
    assert np.array_equal(out, [0, 0, 0, 1])


def test_kron_projector_slot_against_index_oracle():
    e1 = np.diag([1.0, 0.0]).astype(complex)
    got = kron_all(e1, I2)
    assert np.array_equal(got, np.diag([1, 1, 0, 0]).astype(complex))
    assert np.array_equal(got, kron_oracle(e1, I2))


def test_kron_matches_oracle_random(rng):
    # vectorized complex multiply may use FMA; agreement is to the ulp,
    # not bit-exact
    for _ in range(5):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert max_abs(kron_all(a, b) - kron_oracle(a, b)) < 1e-14


def test_kron_associative_exact_on_exact_entries(rng):
    # entries whose products are exact in binary floating point
    pool = np.array([0, 1, -1, 0.5, -0.5, 1j, -1j, 2], dtype=complex)
    mats = [pool[rng.integers(0, len(pool), size=(2, 2))] for _ in range(3)]
    a, b, c = mats
    assert np.array_equal(kron_all(kron_all(a, b), c),
                          kron_all(a, kron_all(b, c)))


def test_kron_bilinear(rng):
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    assert max_abs(kron_all(kron_all(a, b), c)
                   - kron_all(a, kron_all(b, c))) < 1e-14
    assert max_abs(kron_all(a + b, c)
                   - (kron_all(a, c) + kron_all(b, c))) < 1e-14
    assert max_abs(kron_all(2.5 * a, c) - 2.5 * kron_all(a, c)) < 1e-14


def test_kron_capacity_cap():
    big = np.eye(1 << 7)
    with pytest.raises(CapacityError):
        kron_all(kron_all(big, big), np.eye(4))


def test_stacked_kron_all_matches_per_entry_kron_all(rng):
    # (m, r, c) stacks, a shared (1, r, c) entry and a plain matrix
    m = 5
    factors = [rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2)),
               rng.standard_normal((1, 3, 2)),
               rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)),
               rng.standard_normal((m, 2, 3))]
    stacked = kron_all(*factors)
    assert stacked.shape == (m, 24, 12)
    for i in range(m):
        entry = kron_all(*(f[min(i, len(f) - 1)] if f.ndim == 3 else f
                           for f in factors))
        assert np.array_equal(stacked[i], entry)
    with pytest.raises(DimensionMismatchError):
        kron_all(factors[0], np.ones((3, 2, 2)))


def test_oversized_kron_stack_is_refused_before_allocating():
    # 2^10 matrices of 2^12 x 2^12 entries: 256 GiB if built; the factors
    # are broadcast views of one 2x2
    slots = [np.broadcast_to(I2, (1 << 10, 2, 2))] * 12
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            kron_all(*slots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # two 2^12 x 2^12 matrices hold more entries than one capped matrix
    with pytest.raises(CapacityError):
        kron_all(np.ones((2, 1, 1)), np.broadcast_to(1.0, (1 << 12, 1 << 12)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_apply_in_place_matches_the_dense_kron(data):
    # every slab layout: block sizes from one amplitude up, qubit runs of
    # 1-3 anywhere, so both the (m x I) rows and the wide slabs are taken
    n = data.draw(st.integers(1, 8), label="n")
    j = data.draw(st.integers(1, min(3, n)), label="j")
    first = data.draw(st.integers(1, n - j + 1), label="first")
    block = data.draw(st.integers(0, n), label="block qubits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m, v = random_unitary(rng, 1 << j), random_state(rng, n)
    dense = kron_all(np.eye(1 << (first - 1)), m, np.eye(1 << (n - first - j + 1)))
    out = v.copy()
    with mock.patch.object(linalg, "BLOCK_AMPS", 1 << block):
        linalg.apply_in_place(m, out, first)
    assert max_abs(out - dense @ v) <= 1e-12


@pytest.mark.parametrize("m, v, first, error", [
    (HADAMARD, np.ones(8), 1, DomainError),
    (HADAMARD, np.ones(16, dtype=complex)[::2], 1, DomainError),
    (np.eye(3), np.ones(8, dtype=complex), 1, DimensionMismatchError),
    (np.eye(4), np.ones(8, dtype=complex), 3, DimensionMismatchError),
    (HADAMARD, np.ones(8, dtype=complex), 0, DimensionMismatchError),
], ids=["real_state", "strided_view", "3x3_matrix", "past_the_last_qubit",
        "qubit_0"])
def test_apply_in_place_refuses_what_it_cannot_change(m, v, first, error):
    with pytest.raises(error):
        linalg.apply_in_place(m, v, first)


@pytest.mark.parametrize("m", [np.eye(4), np.eye(3), np.eye(1), np.ones(2)],
                         ids=["4x4", "3x3", "1x1", "vector"])
def test_apply_single_qubit_refuses_a_matrix_that_is_not_2x2(m):
    # a 4x4 must not act on two qubits: callers pass single-qubit locals
    with pytest.raises(DimensionMismatchError):
        apply_single_qubit(m, np.ones(8, dtype=complex) / 8 ** 0.5, 1)


def test_bell_matrix_inverse_is_adjoint():
    r = bell_matrix()
    assert max_abs(r @ dagger(r) - np.eye(4)) < 1e-15


def test_jones_generator_unitary_at_pi_8():
    from tlbraid import RepShape, jones_representation, tl_params
    from tlbraid.tla import involution_spec
    rep = jones_representation(tl_params(np.pi / 8), RepShape(1, 1),
                               involution_spec([]))
    for b in rep.generators:
        assert max_abs(dagger(b) @ b - np.eye(2)) <= 1e-12


def test_unitary_preserves_norm(rng):
    u = random_unitary(rng, 8)
    assert max_abs(dagger(u) @ u - np.eye(8)) <= 1e-12
    for _ in range(5):
        v = random_state(rng, 3)
        assert abs(norm(u @ v) - norm(v)) < 1e-12


def test_phase_equivalent_negation(rng):
    v = random_state(rng, 2)
    assert phase_equivalent(-v, v, mode="global", tol=1e-12)
    m = random_unitary(rng, 4)
    assert phase_equivalent(-m, m, mode="global", tol=1e-12)


def test_phase_equivalent_reflexive_symmetric(rng):
    for dim_qubits in (1, 2):
        v = random_state(rng, dim_qubits)
        w = np.exp(0.7j) * v
        assert phase_equivalent(v, v, "global", 1e-12)
        assert phase_equivalent(v, w, "global", 1e-12)
        assert phase_equivalent(w, v, "global", 1e-12)


def test_global_implies_columnwise(rng):
    m = random_unitary(rng, 4)
    w = np.exp(1.1j) * m
    assert phase_equivalent(w, m, "global", 1e-12)
    assert phase_equivalent(w, m, "columnwise", 1e-12)


def test_phase_equivalent_b21_vs_bell_columnwise():
    # column phases are (-1, -1, -i, -i)
    from tlbraid import RepShape, jones_representation, tl_params
    from tlbraid.tla import default_involution_spec
    shape = RepShape(2, 1)
    rep = jones_representation(tl_params(np.pi / 8), shape,
                               default_involution_spec(shape))
    b21 = rep.generators[0] @ rep.generators[1]
    r = bell_matrix()
    assert phase_equivalent(b21, r, "columnwise", 1e-13)
    assert not phase_equivalent(b21, r, "global", 1e-10)
    phases = [-1, -1, -1j, -1j]
    assert max_abs(b21 - r * np.array(phases)) < 1e-13


def test_phase_equivalent_b11_vs_hadamard():
    from tlbraid import RepShape, jones_representation, tl_params
    from tlbraid.tla import involution_spec
    rep = jones_representation(tl_params(np.pi / 8), RepShape(1, 1),
                               involution_spec([]))
    b11 = rep.generators[0] @ rep.generators[1]
    assert phase_equivalent(b11, HADAMARD, "columnwise", 1e-13)
    assert not phase_equivalent(b11, HADAMARD, "global", 1e-10)


def test_phase_equivalent_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        phase_equivalent(np.eye(2), np.eye(4))


def test_constructors_reject_nonfinite():
    with pytest.raises(DomainError):
        state_from_json({"n_qubits": 1, "amplitudes": [[np.inf, 0], [0, 0]]})
    with pytest.raises(DimensionMismatchError):     # not a power of two
        state_from_json({"n_qubits": 1, "amplitudes": [[1, 0]] * 3})


@pytest.mark.parametrize("outer", [None, {"kind": "k"}],
                         ids=["bare", "under_state"])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_state_to_json_roundtrip(tmp_path, monkeypatch, rng, chunk, outer):
    # bit-identical float64 views: -0.0 and subnormals must survive
    monkeypatch.setattr(linalg, "_CHUNK_PAIRS", chunk)
    states = [np.array(EDGE_FLOATS).view(np.complex128), random_state(rng, 5),
              *(signed_zero_state(rng, n) for n in (3, 6))]
    for v in states:
        path = tmp_path / "v.json"
        with open(path, "w") as fh:
            state_to_json(fh, v, outer)
        with open(path) as fh:
            obj = json.load(fh)
        assert ("state" in obj) == (outer is not None)
        back = state_from_json(obj)
        assert back.view(np.uint64).tobytes() == v.view(np.uint64).tobytes()


def test_state_json_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        state_from_json({"n_qubits": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
