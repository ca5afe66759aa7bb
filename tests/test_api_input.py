"""Bad input to the public API ends in a typed TLBraidError.

NaN fails every tolerance check (each is written `not x <= tol`), values
that are no numbers are refused where they enter, integer arguments are
read through operator.index (so 1.5, 2.0 and "1" are refused rather than
truncated or converted), and a state holding NaN or Inf is refused by its
cut reports and by measure_qubit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (BraidWord, DimensionMismatchError, DomainError, RepShape,
                     TLBraidError, UnknownGateError, apply_single_qubit,
                     apply_structured, basis_state, bell_representation,
                     check_braid_relations, entanglement_report,
                     evaluate_on_state, gate, ghz_state, index_to_bits,
                     involution_matrix, involution_spec, jones_pairs,
                     jones_representation, lu_equivalent, measure_qubit, parse,
                     parse_bits, partial_trace, phase_equivalent,
                     reduced_density, schmidt_rank, structured_braid_op,
                     tl_params, tl_projectors, verify, vn_entropy)
from tlbraid.linalg import apply_in_place
from tlbraid.states import (apply_to_basis, bits_to_index, cluster_family,
                            cluster_like_state)

NAN = math.nan
NAN_INVOLUTION = [[NAN, 0], [0, 1]]
NAN_STATE = np.array([NAN, 0, 0, 1], dtype=complex)
PRODUCT_STATE = basis_state("00")
GHZ3 = ghz_state(3)
GHZ3_RHO = np.outer(GHZ3, GHZ3.conj())
B21 = structured_braid_op(RepShape(2, 1))
#: A state given as a list rather than an array
LIST_STATE = [1, 0, 0, 0]
#: Arrays of no qubit state: no amplitude, and a 0-d array
EMPTY_STATE = np.zeros(0, dtype=complex)
SCALAR_STATE = np.array(1 + 0j)


def nan_spec():
    return (involution_matrix(NAN_INVOLUTION),)


P8 = tl_params(math.pi / 8)
I2 = np.eye(2)
#: Arrays that are no Hermitian involutions: 2I squares to 4I, the next is
#: no Hermitian matrix but squares to I, the last is nilpotent (integers)
NON_INVOLUTIONS = {"double": 2 * I2, "skew": np.array([[0, 2], [0.5, 0]]),
                   "nilpotent": np.array([[0, 1], [0, 0]])}
#: A chain with a (2, 2, 2) stack, standing for two operators: no state
#: takes it, though `dense()` does
STACKED_SPEC = involution_spec([np.stack([gate("x")] * 2), gate("x")])
STACKED_E2 = jones_pairs(RepShape(3, 1), tl_params(0.3), STACKED_SPEC
                         ).projectors[1]
#: Everything that takes an involution chain, with a chain for RepShape(3, 1)
CHAIN_TAKERS = {
    "jones_pairs": lambda spec: jones_pairs(RepShape(3, 1), P8, spec),
    "structured_braid_op":
        lambda spec: structured_braid_op(RepShape(3, 1), spec=spec),
    "jones_representation":
        lambda spec: jones_representation(P8, RepShape(3, 1), spec),
    "tl_projectors": lambda spec: tl_projectors(RepShape(3, 1), P8, spec),
}


def _chain_probes():
    """Each chain taker on each non-involution as the first slot's array."""
    return [(lambda f=f, m=m: f((m, I2)), f"{name}_{bad}_array")
            for name, f in CHAIN_TAKERS.items()
            for bad, m in NON_INVOLUTIONS.items()]


@pytest.mark.parametrize("probe", [
    lambda: involution_matrix(NAN_INVOLUTION),
    lambda: involution_matrix([[1, 0], [0]]),
    lambda: involution_matrix([[1, 0], [0, 10 ** 400]]),
    lambda: evaluate_on_state(parse("b1", 3), jones_representation(
        tl_params(math.pi / 8), RepShape(2, 1), nan_spec()), basis_state("00")),
    lambda: structured_braid_op(RepShape(2, 1), spec=nan_spec()),
    lambda: tl_params("abc"),
    lambda: tl_params(None),
    lambda: tl_params(0.1, 1j),
    lambda: RepShape(1.5, 1),
    lambda: RepShape(2, "1"),
    lambda: ghz_state(2.0),
    lambda: entanglement_report(NAN_STATE, [1]),
    lambda: schmidt_rank(NAN_STATE, [1]),
    lambda: schmidt_rank(np.array([math.inf, 0, 0, 1], dtype=complex), [1]),
    lambda: schmidt_rank(np.full(8, NAN, dtype=complex), [1, 2]),
    lambda: vn_entropy(np.full((2, 2), NAN)),
    lambda: entanglement_report(GHZ3, [1.5]),
    lambda: entanglement_report(GHZ3, ["1"]),
    lambda: entanglement_report(GHZ3, [NAN]),
    lambda: schmidt_rank(GHZ3, [2.9]),
    lambda: reduced_density(GHZ3, [1.7]),
    lambda: partial_trace(GHZ3_RHO, [1.2]),
    lambda: measure_qubit(GHZ3, 1.5, 0),
    lambda: measure_qubit(GHZ3, 1, 0.0),
    lambda: apply_single_qubit(gate("h"), GHZ3, 1.5),
    lambda: bell_representation(2.5),
    lambda: bell_representation(3.0),
    lambda: parse("b1", declared_strands=2.5),
    lambda: tl_params(0.1, 0.0, np.array([1, -1])),
    lambda: tl_params(0.1, 0.0, 1, np.array([1])),
    lambda: structured_braid_op(RepShape(2, 1)) ** 2.5,
    lambda: parse_bits([0.5, 1]),
    lambda: index_to_bits(1.5, 2),
    lambda: evaluate_on_state(BraidWord(((1.5, 1),)), bell_representation(3),
                              basis_state("000")),
    lambda: evaluate_on_state(BraidWord(((1, 0.5),)), bell_representation(3),
                              basis_state("000")),
    lambda: entanglement_report(GHZ3, 1),
    lambda: lu_equivalent(GHZ3, GHZ3, 3),
    lambda: phase_equivalent(GHZ3, GHZ3, mode="x"),
    lambda: verify.run_suite("x"),
    (UnknownGateError, lambda: gate(3)),
    (DimensionMismatchError,
     lambda: check_braid_relations([np.eye(2), np.eye(4)])),
    lambda: jones_pairs(RepShape(3, 1), tl_params(math.pi / 8), ("X", "Q")),
    lambda: jones_representation(tl_params(math.pi / 8), RepShape(3, 1),
                                 ("X", "Q")),
    lambda: apply_structured(B21, LIST_STATE),
    lambda: apply_structured(B21, np.array(list("abcd"))),
    lambda: entanglement_report(LIST_STATE, [1]),
    lambda: reduced_density(LIST_STATE, [1]),
    lambda: measure_qubit(LIST_STATE, 1, 0),
    lambda: partial_trace([[1, 0], [0, 0]], [1]),
    lambda: vn_entropy([[1, 0], [0, 0]]),
    lambda: evaluate_on_state(parse("b1"), bell_representation(2), LIST_STATE),
    (DimensionMismatchError, lambda: entanglement_report(EMPTY_STATE, [1])),
    (DimensionMismatchError, lambda: entanglement_report(SCALAR_STATE, [1])),
    (DimensionMismatchError, lambda: measure_qubit(EMPTY_STATE, 1, 0)),
    (DimensionMismatchError, lambda: measure_qubit(SCALAR_STATE, 1, 0)),
    (DimensionMismatchError, lambda: schmidt_rank(EMPTY_STATE, [1])),
    (DimensionMismatchError, lambda: schmidt_rank(SCALAR_STATE, [1])),
    (DimensionMismatchError, lambda: reduced_density(EMPTY_STATE, [1])),
    (DimensionMismatchError, lambda: reduced_density(SCALAR_STATE, [1])),
    (DimensionMismatchError,
     lambda: lu_equivalent(EMPTY_STATE, EMPTY_STATE, [gate("h")])),
    (DimensionMismatchError,
     lambda: lu_equivalent(SCALAR_STATE, SCALAR_STATE, [gate("h")])),
    (DimensionMismatchError, lambda: apply_single_qubit(gate("h"), EMPTY_STATE, 1)),
    lambda: apply_single_qubit(gate("h"), 3, 1),
    (DimensionMismatchError, lambda: vn_entropy(np.ones(4))),
    (DimensionMismatchError, lambda: vn_entropy(np.ones((2, 4)))),
    (DimensionMismatchError, lambda: vn_entropy(np.array(1.0))),
    (DimensionMismatchError, lambda: vn_entropy(np.ones((2, 2, 2)))),
    (DimensionMismatchError, lambda: partial_trace(np.array(1.0), [1])),
    (DimensionMismatchError, lambda: partial_trace(np.zeros((0, 0)), [1])),
    lambda: phase_equivalent(None, None),
    lambda: phase_equivalent("ab", "ab"),
    lambda: phase_equivalent([1, "a"], [1, 0]),
    lambda: apply_single_qubit([["a", 0], [0, 1]], basis_state("00"), 1),
    lambda: apply_single_qubit([[None, 0], [0, 1]], basis_state("00"), 1),
    lambda: apply_single_qubit(gate("h"), "ab", 1),
    lambda: apply_in_place(None, basis_state("00"), 1),
    lambda: apply_in_place([[0, 1], [1, "x"]], basis_state("00"), 1),
    lambda: lu_equivalent(GHZ3, GHZ3, ["h", "h", "h"]),
    *(probe for probe, _ in _chain_probes()),
    lambda: jones_pairs(RepShape(3, 1), P8, (np.stack([I2, 2 * I2]), I2)),
    (DimensionMismatchError,
     lambda: jones_pairs(RepShape(3, 1), P8, (np.eye(3), I2))),
    (DimensionMismatchError,
     lambda: jones_pairs(RepShape(3, 1), P8, (np.ones((1, 1, 2, 2)), I2))),
    lambda: jones_pairs(RepShape(3, 1), P8, None),
    lambda: vn_entropy(np.zeros((2, 2))),
    lambda: vn_entropy(-np.eye(2)),
    lambda: vn_entropy(5 * np.eye(2)),
    lambda: apply_single_qubit(gate("x"), [1, 0], 1),
    lambda: entanglement_report(GHZ3, [1], support=np.array([0, 99])),
    lambda: entanglement_report(GHZ3, [1], support="abc"),
    lambda: entanglement_report(GHZ3, [1], support=np.array([0.0, 7.0])),
    lambda: measure_qubit(NAN_STATE, 1, 0),
    lambda: measure_qubit(np.array([math.inf, 0, 0, 1], dtype=complex), 1, 0),
    lambda: cluster_family(-1, 2),
    lambda: cluster_family(2.5, 2),
    lambda: cluster_like_state("3", 2),
    lambda: parse_bits(3),
    lambda: basis_state(None),
    lambda: bits_to_index(5),
    lambda: parse(None),
    lambda: parse(3),
    lambda: index_to_bits(8, 3),
    lambda: index_to_bits(-1, 3),
    lambda: index_to_bits(1, -2),
    lambda: ghz_state(3, params=3),
    lambda: cluster_like_state(3, 2, params="p"),
    lambda: structured_braid_op((3, 1)),
    lambda: jones_representation(None, RepShape(3, 1), ("x", "x")),
    *(lambda f=f, tol=tol: f(PRODUCT_STATE, [1], tol=tol)
      for f in (entanglement_report, schmidt_rank) for tol in (NAN, -1.0, "a")),
    lambda: structured_braid_op(RepShape(3, 1), spec=STACKED_SPEC),
    lambda: evaluate_on_state(parse("b1 b2"), jones_representation(
        tl_params(0.3), RepShape(3, 1), STACKED_SPEC), basis_state("000")),
    lambda: apply_structured(STACKED_E2, basis_state("000")),
    lambda: apply_to_basis(STACKED_E2, "000"),
], ids=["involution_nan", "involution_ragged", "involution_int_overflow",
        "evaluate_on_state_nan_spec", "structured_braid_op_nan_spec",
        "tl_params_text", "tl_params_none", "tl_params_complex_phi",
        "repshape_float", "repshape_text", "ghz_float_n",
        "entanglement_report_nan", "schmidt_rank_nan", "schmidt_rank_inf",
        "schmidt_rank_nan_dense", "vn_entropy_nan",
        "entanglement_report_float_label", "entanglement_report_text_label",
        "entanglement_report_nan_label", "schmidt_rank_float_label",
        "reduced_density_float_label", "partial_trace_float_label",
        "measure_qubit_float_qubit", "measure_qubit_float_outcome",
        "apply_single_qubit_float_pos", "bell_representation_half_strands",
        "bell_representation_float_strands", "parse_float_strands",
        "tl_params_array_sign", "tl_params_one_entry_array_sign",
        "structured_op_float_power", "parse_bits_float_bit",
        "index_to_bits_float_index", "braid_word_float_index",
        "braid_word_float_exponent", "entanglement_report_int_subset",
        "lu_equivalent_int_locals", "phase_equivalent_unknown_mode",
        "run_suite_unknown_suite", "gate_int_name",
        "check_braid_relations_mixed_sizes", "jones_pairs_unknown_name",
        "jones_representation_unknown_name", "apply_structured_list_state",
        "apply_structured_text_state", "entanglement_report_list_state",
        "reduced_density_list_state", "measure_qubit_list_state",
        "partial_trace_list_matrix", "vn_entropy_list_matrix",
        "evaluate_on_state_list_state",
        "entanglement_report_empty_state", "entanglement_report_0d_state",
        "measure_qubit_empty_state", "measure_qubit_0d_state",
        "schmidt_rank_empty_state", "schmidt_rank_0d_state",
        "reduced_density_empty_state", "reduced_density_0d_state",
        "lu_equivalent_empty_state", "lu_equivalent_0d_state",
        "apply_single_qubit_empty_state", "apply_single_qubit_int_state",
        "vn_entropy_vector", "vn_entropy_non_square", "vn_entropy_0d",
        "vn_entropy_stack", "partial_trace_0d", "partial_trace_empty",
        "phase_equivalent_none", "phase_equivalent_text",
        "phase_equivalent_text_entry", "apply_single_qubit_text_matrix",
        "apply_single_qubit_none_entry", "apply_single_qubit_text_state",
        "apply_in_place_none_matrix", "apply_in_place_text_entry",
        "lu_equivalent_text_locals",
        *(probe_id for _, probe_id in _chain_probes()),
        "jones_pairs_stack_with_a_non_involution", "jones_pairs_3x3_array",
        "jones_pairs_4d_array", "jones_pairs_no_chain",
        "vn_entropy_zero_trace", "vn_entropy_negative",
        "vn_entropy_trace_10", "apply_single_qubit_list_state",
        "entanglement_report_support_out_of_range",
        "entanglement_report_text_support",
        "entanglement_report_float_support",
        "measure_qubit_nan_state", "measure_qubit_inf_state",
        "cluster_family_negative_n", "cluster_family_float_n",
        "cluster_like_state_text_n", "parse_bits_int", "basis_state_none",
        "bits_to_index_int", "parse_none", "parse_int",
        "index_to_bits_index_past_2_to_the_n", "index_to_bits_negative_index",
        "index_to_bits_negative_n", "ghz_int_params",
        "cluster_like_state_text_params", "structured_braid_op_tuple_shape",
        "jones_representation_none_params",
        *(f"{name}_{tol}_tol" for name in ("entanglement_report", "schmidt_rank")
          for tol in ("nan", "negative", "text")),
        "structured_braid_op_stacked_chain", "evaluate_on_state_stacked_chain",
        "apply_structured_stacked_chain", "apply_to_basis_stacked_chain"])
def test_bad_input_is_a_domain_error(probe):
    """Each probe raises DomainError, or the error paired with it."""
    error, probe = probe if isinstance(probe, tuple) else (DomainError, probe)
    with pytest.raises(error):
        probe()


def test_integer_sizes_are_stored_as_ints():
    # True passes operator.index as 1, and is kept as the int it reads as
    assert type(RepShape(True, True).n) is int
    assert np.array_equal(ghz_state(True), ghz_state(1))


@pytest.mark.parametrize("names", [("x", "y"), ("H", " z")])
def test_jones_pairs_resolve_involution_names(names):
    # a name in a spec stands for its involution, as in `involution_spec`
    shape, p = RepShape(3, 2), tl_params(0.3, 1.1)
    by_name = structured_braid_op(shape, p, names)
    by_matrix = structured_braid_op(shape, p, involution_spec(names))
    assert np.array_equal(by_name.dense(), by_matrix.dense())
    for g, h in zip(jones_representation(p, shape, names).generators,
                    jones_representation(p, shape,
                                         involution_spec(names)).generators):
        assert np.array_equal(g, h)


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.complex_numbers() | st.text(max_size=6)
    | st.sampled_from(["x", " H", "sigma2", "q", "nan", "1e400", "pi"]),
    lambda kids: st.lists(kids, max_size=3),
    max_leaves=8)
_ENTRIES = st.sampled_from([0, 1, -1, 1j, -1j, 0.5 ** 0.5, NAN]) \
    | st.floats() | st.complex_numbers()
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=2, max_size=2),
                     min_size=2, max_size=2)
_CALLS = (st.tuples(st.just(tl_params), st.lists(_VALUES, min_size=1,
                                                 max_size=4))
          | st.tuples(st.just(RepShape), st.lists(_VALUES, min_size=2,
                                                  max_size=2))
          | st.tuples(st.just(involution_matrix),
                      st.lists(_VALUES | _MATRICES, min_size=1, max_size=1)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(call=_CALLS)
def test_fuzz_constructors_raise_only_typed_errors(call):
    fn, args = call
    try:
        fn(*args)
    except TLBraidError:
        pass


def _is_involution(m) -> bool:
    try:
        involution_matrix(m)
        return True
    except TLBraidError:
        return False


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(entry=_MATRICES.map(np.array)
       | st.lists(_MATRICES, min_size=2, max_size=2).map(np.array))
def test_jones_pairs_take_an_array_only_if_each_member_is_an_involution(entry):
    # a 2x2 array or a 2-member stack is checked as its members are
    valid = all(map(_is_involution, entry.reshape(-1, 2, 2)))
    _returns_or_refuses(
        lambda: jones_pairs(RepShape(3, 2), P8, (entry, "x")), valid)


def test_a_stack_gives_the_dense_operators_of_its_members():
    shape, p = RepShape(3, 2), tl_params(0.3, 1.1)
    first = np.array([gate(name) for name in ("h", "y", "z", "i")])
    second = first[::-1].copy()
    stacked = jones_pairs(shape, p, (first, second))
    for i in range(len(first)):
        single = jones_pairs(shape, p, (first[i], second[i]))
        for ops, ops_i in zip(stacked, single):
            for op, op_i in zip(ops, ops_i):
                # E1 and b1 hold no chain term: one matrix for every member
                dense = np.broadcast_to(op.dense(), (len(first), 8, 8))
                assert np.array_equal(dense[i], op_i.dense())


def test_a_checked_chain_is_taken_as_is():
    spec = involution_spec(["h", np.array([[0, 1], [1, 0]])])
    assert involution_spec(spec) is spec
    pairs = jones_pairs(RepShape(3, 2), P8, spec)
    assert all(op.spec is spec for ops in pairs for op in ops)


_LABELS = (st.integers(-1, 4) | st.integers() | st.booleans()
           | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.sampled_from([1.0, 2.0, 1.5, NAN, math.inf, "1", "2", None,
                              1j, np.float64(2.0), np.array([1]), [1]])
           | st.floats() | st.text(max_size=2))


def _is_int_in(x, lo: int, hi: int) -> bool:
    """x is an integer (an int, bool or numpy integer) in lo..hi."""
    return isinstance(x, (int, np.integer)) and lo <= x <= hi


def _returns_or_refuses(call, valid: bool) -> None:
    if valid:
        call()
    else:
        with pytest.raises(TLBraidError):
            call()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(labels=st.lists(_LABELS, min_size=0, max_size=4))
def test_cut_functions_take_only_integer_labels_in_range(labels):
    # a cut keeps a non-empty proper subset of the 3 qubits
    valid = all(_is_int_in(q, 1, 3) for q in labels) and \
        0 < len(set(labels)) < 3
    for call in (lambda: entanglement_report(GHZ3, labels),
                 lambda: schmidt_rank(GHZ3, labels),
                 lambda: reduced_density(GHZ3, labels),
                 lambda: partial_trace(GHZ3_RHO, labels)):
        _returns_or_refuses(call, valid)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(qubit=_LABELS, outcome=_LABELS)
def test_measure_qubit_takes_only_integer_labels_in_range(qubit, outcome):
    # each outcome on each qubit of GHZ3 has probability 1/2
    valid = _is_int_in(qubit, 1, 3) and _is_int_in(outcome, 0, 1)
    _returns_or_refuses(lambda: measure_qubit(GHZ3, qubit, outcome), valid)
