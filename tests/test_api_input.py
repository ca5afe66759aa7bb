"""Bad input to the public API ends in a typed TLBraidError.

NaN fails every tolerance check (each is written `not x <= tol`), values
that are no numbers are refused where they enter, and a state holding NaN
or Inf is refused by its cut reports.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (DomainError, RepShape, TLBraidError, basis_state,
                     density_matrix, entanglement_report, evaluate_on_state,
                     ghz_state, involution_matrix, jones_representation,
                     parse, schmidt_rank, structured_braid_op, tl_params,
                     vn_entropy)

NAN = math.nan
NAN_INVOLUTION = [[NAN, 0], [0, 1]]
NAN_STATE = np.array([NAN, 0, 0, 1], dtype=complex)


def nan_spec():
    return (involution_matrix(NAN_INVOLUTION),)


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
    lambda: density_matrix(np.array([NAN, 1], dtype=complex)),
    lambda: vn_entropy(np.full((2, 2), NAN)),
], ids=["involution_nan", "involution_ragged", "involution_int_overflow",
        "evaluate_on_state_nan_spec", "structured_braid_op_nan_spec",
        "tl_params_text", "tl_params_none", "tl_params_complex_phi",
        "repshape_float", "repshape_text", "ghz_float_n",
        "entanglement_report_nan", "schmidt_rank_nan", "schmidt_rank_inf",
        "schmidt_rank_nan_dense", "density_matrix_nan", "vn_entropy_nan"])
def test_bad_input_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


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
