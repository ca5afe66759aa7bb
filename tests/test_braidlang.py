import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (BraidSyntaxError, CapacityError, DimensionMismatchError,
                     DomainError, RepShape, bell_representation, dagger,
                     evaluate, evaluate_on_state, jones_representation,
                     max_abs, parse, render, tl_params)
from tlbraid.braidlang import BraidWord, fold
from tlbraid.states import basis_state
from tlbraid.tla import (StructuredBraidOp, default_involution_spec,
                         involution_spec)

from conftest import random_state

JONES_WORDS = ["b1 b2", "b2^-1 b1^-1", "b1^1000001", "b1 b2^-1 b1^3",
               "b2^3 b1^-2 b2 b1^5 b2^-1"]
#: (n, k, involution names); None is the default I-below / X-above dressing
DRESSINGS = [
    (5, 1, None),
    (1, 1, ()),
    (3, 2, ("h", "y")),
    (4, 4, ("y", "h", "x")),
    (6, 3, ("x", "h", "y", "z", "i")),
    (7, 4, ("h", "i", "y", "x", "h", "z")),
]


def dense_word(word, rep):
    """The oracle: the product of the dense generators' powers, the adjoint
    for a negative exponent, left to right."""
    out = np.eye(rep.dim, dtype=np.complex128)
    for index, exponent in word.factors:
        g = rep.generators[index - 1]
        out = out @ np.linalg.matrix_power(g if exponent > 0 else dagger(g),
                                           abs(exponent))
    return out


class TestParse:
    def test_simple_word(self):
        word = parse("b1 b2", declared_strands=3)
        assert word.factors == ((1, 1), (2, 1))

    def test_exponents(self):
        word = parse("b1 b2^-1 b1^3")
        assert word.factors == ((1, 1), (2, -1), (1, 3))

    def test_index_out_of_range(self):
        with pytest.raises(BraidSyntaxError, match="b3 out of range"):
            parse("b3", declared_strands=3)

    def test_zero_exponent(self):
        with pytest.raises(BraidSyntaxError, match="zero exponent"):
            parse("b1^0")

    def test_empty_word(self):
        with pytest.raises(BraidSyntaxError, match="empty"):
            parse("   ")

    def test_garbage_token_position(self):
        with pytest.raises(BraidSyntaxError) as err:
            parse("b1 c2")
        assert err.value.position == 3

    def test_bad_index(self):
        with pytest.raises(BraidSyntaxError):
            parse("b0")

    def test_render(self):
        assert render(parse("b1 b2^-1 b3^2")) == "b1 b2^-1 b3^2"

    def test_exponent_beyond_the_int_digit_limit(self):
        with pytest.raises(BraidSyntaxError, match="too many digits") as err:
            parse("b1 b2^1" + "0" * 5000)
        assert err.value.position == 3


word_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6),
              st.integers(min_value=-9, max_value=9).filter(lambda e: e != 0)),
    min_size=1, max_size=8,
)


@given(word_strategy)
@settings(max_examples=60, deadline=None)
def test_render_parse_roundtrip(factors):
    word = BraidWord(tuple(factors))
    assert parse(render(word)) == word


class TestEvaluate:
    def test_bell_word_gives_psi(self):
        rep = bell_representation(3)
        m = evaluate(parse("b1 b2", declared_strands=3), rep)
        psi = m @ basis_state("000")
        expected = np.zeros(8, dtype=complex)
        for idx in (0b000, 0b011, 0b101, 0b110):
            expected[idx] = 0.5
        assert max_abs(psi - expected) < 1e-14

    def test_word_times_inverse_is_identity(self):
        rep = bell_representation(3)
        m = evaluate(parse("b1 b1^-1", declared_strands=3), rep)
        assert max_abs(m - np.eye(8)) < 1e-14

    def test_b1_to_16_is_identity_jones(self):
        shape = RepShape(2, 1)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        m = evaluate(parse("b1^16", declared_strands=3), rep)
        assert max_abs(m - np.eye(4)) < 1e-10

    def test_concatenation_is_product(self, rng):
        rep = bell_representation(4)
        w1, w2 = parse("b1 b3^2"), parse("b2^-1 b1")
        combined = parse("b1 b3^2 b2^-1 b1")
        assert max_abs(evaluate(combined, rep)
                       - evaluate(w1, rep) @ evaluate(w2, rep)) < 1e-13

    def test_inverse_word_is_adjoint(self):
        rep = bell_representation(3)
        m = evaluate(parse("b1 b2^3"), rep)
        minv = evaluate(parse("b2^-3 b1^-1"), rep)
        assert max_abs(minv - m.conj().T) < 1e-12

    def test_far_commutation_exact(self):
        rep = bell_representation(4)
        m13 = evaluate(parse("b1 b3"), rep)
        m31 = evaluate(parse("b3 b1"), rep)
        assert max_abs(m13 - m31) == 0.0

    def test_incompatible_word(self):
        rep = bell_representation(3)
        with pytest.raises(DomainError, match="b3"):
            evaluate(parse("b3"), rep)

    def test_bell_matrix_beyond_the_dense_cap(self):
        with pytest.raises(CapacityError):
            evaluate(parse("b1"), bell_representation(40))

    @pytest.mark.parametrize("word", [BraidWord(()), parse("b40")],
                             ids=["empty", "b40"])
    def test_bell_word_checked_before_the_identity(self, word):
        # a DomainError, not the CapacityError of building the identity
        with pytest.raises(DomainError):
            evaluate(word, bell_representation(40))

    @pytest.mark.parametrize("exponent", [2 ** 60 + 1, -(2 ** 60 + 1)],
                             ids=["2^60+1", "-2^60-1"])
    def test_huge_bell_exponent_is_taken_mod_8(self, exponent):
        rep = bell_representation(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = evaluate(parse(f"b1^{exponent}"), rep)
        small = parse("b1" if exponent > 0 else "b1^-1")
        assert max_abs(m - evaluate(small, rep)) < 1e-15

    @pytest.mark.parametrize("text", ["b1^1152921504606846977", "b1^16777216",
                                      "b1^-1" + "0" * 400],
                             ids=["2^60+1", "2^24", "-10^400"])
    def test_huge_jones_exponent_is_refused(self, text):
        shape = RepShape(2, 1)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow warning either
            with pytest.raises(DomainError, match="unitarity") as err:
                evaluate(parse(text), rep)
        assert text[:40] in str(err.value)


class TestEvaluateOnState:
    @pytest.mark.parametrize("word", JONES_WORDS)
    @pytest.mark.parametrize("n, k, names", DRESSINGS)
    def test_structured_fast_path_matches_dense(self, rng, word, n, k, names):
        shape = RepShape(n, k)
        spec = (default_involution_spec(shape) if names is None
                else involution_spec(names))
        # the default dressing stays at the paper's point theta = pi/8
        theta, phi = ((np.pi / 8, 0.0) if names is None
                      else (np.pi + np.pi / 8, np.pi / 3))
        rep = jones_representation(tl_params(theta, phi), shape, spec)
        v = random_state(rng, n)
        w = parse(word, declared_strands=3)
        op = fold(w, rep)
        p, q = op.diag_block, op.offdiag_block
        assert p[0, 1] == 0 and p[1, 0] == 0
        assert q[0, 0] == 0 and q[1, 1] == 0
        dense = dense_word(w, rep) @ v
        assert max_abs(evaluate(w, rep) @ v - dense) < 1e-11
        assert max_abs(evaluate_on_state(w, rep, v) - dense) < 1e-11

    def test_structured_inverse_path(self, rng):
        shape = RepShape(4, 2)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        v = random_state(rng, 4)
        word = parse("b2^-1 b1^-1", declared_strands=3)
        fast = evaluate_on_state(word, rep, v)
        dense = evaluate(word, rep) @ v
        assert max_abs(fast - dense) < 1e-11

    def test_ghz_via_word(self):
        shape = RepShape(3, 1)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        out = evaluate_on_state(parse("b1 b2", declared_strands=3), rep,
                                basis_state("000"))
        s2 = 1 / np.sqrt(2)
        assert abs(out[0] + s2) < 1e-13 and abs(out[7] + s2) < 1e-13
        assert max_abs(np.delete(out, [0, 7])) < 1e-14

    def test_single_generator_preserves_norm(self, rng):
        rep = bell_representation(3)
        v = random_state(rng, 3)
        out = evaluate_on_state(parse("b1", declared_strands=3), rep, v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_braid_relation_on_states(self, rng):
        shape = RepShape(3, 2)
        rep = jones_representation(tl_params(-np.pi / 8, np.pi / 3), shape,
                                   default_involution_spec(shape))
        for _ in range(5):
            v = random_state(rng, 3)
            lhs = evaluate_on_state(parse("b1 b2 b1", 3), rep, v)
            rhs = evaluate_on_state(parse("b2 b1 b2", 3), rep, v)
            assert max_abs(lhs - rhs) < 1e-11

    def test_dimension_mismatch(self):
        rep = bell_representation(3)
        with pytest.raises(DimensionMismatchError):
            evaluate_on_state(parse("b1"), rep, basis_state("00"))

    @pytest.mark.parametrize("m", range(2, 8))
    def test_bell_words_match_dense(self, rng, m):
        rep = bell_representation(m)
        top = m - 1
        for text in ("b1", f"b{top}^-1", f"b1 b{top}^3 b1^-2",
                     f"b{top} b1^5 b{(m + 1) // 2}^-7 b1"):
            word = parse(text, declared_strands=m)
            v = random_state(rng, m)
            dense = dense_word(word, rep)
            assert max_abs(evaluate(word, rep) - dense) < 1e-12
            assert max_abs(evaluate_on_state(word, rep, v) - dense @ v) < 1e-12

    def test_incompatible_word_on_state(self):
        rep = bell_representation(3)
        with pytest.raises(DomainError, match="b3"):
            evaluate_on_state(parse("b3"), rep, basis_state("000"))

    def test_bell_word_does_not_fold(self):
        with pytest.raises(DomainError, match="jones"):
            fold(parse("b1"), bell_representation(3))

    @pytest.mark.parametrize("exponent", [2 ** 60 + 1, -(2 ** 60 + 1),
                                          10 ** 400, -(10 ** 400) - 3],
                             ids=["2^60+1", "-2^60-1", "10^400", "-10^400-3"])
    def test_huge_bell_exponent_is_taken_mod_8(self, rng, exponent):
        rep = bell_representation(3)
        v = random_state(rng, 3)
        out = evaluate_on_state(parse(f"b2^{exponent}"), rep, v)
        assert np.array_equal(out, v if exponent % 8 == 0 else
                              evaluate_on_state(parse(f"b2^{exponent % 8}"),
                                                rep, v))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    @pytest.mark.parametrize("text", ["b1^16777216", "b2^-1152921504606846977",
                                      "b1 b2^" + "1" + "0" * 400],
                             ids=["2^24", "-2^60-1", "10^400"])
    def test_huge_jones_exponent_is_refused(self, text):
        shape = RepShape(3, 2)
        rep = jones_representation(tl_params(np.pi / 8), shape,
                                   default_involution_spec(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow warning either
            with pytest.raises(DomainError, match="unitarity") as err:
                evaluate_on_state(parse(text), rep, basis_state("000"))
        assert text[:40] in str(err.value)

    @pytest.mark.parametrize("family", ["jones", "bell"])
    def test_builds_no_dense_generator(self, rng, monkeypatch, family):
        def refuse(*args):
            raise AssertionError("dense generator built")
        monkeypatch.setattr(StructuredBraidOp, "dense", refuse)
        monkeypatch.setattr("tlbraid.braidrep.kron_all", refuse)
        n = 6
        if family == "jones":
            shape = RepShape(n, 2)
            rep = jones_representation(tl_params(np.pi / 8), shape,
                                       default_involution_spec(shape))
            word = parse("b1 b2^-1 b1^3", declared_strands=3)
        else:
            rep = bell_representation(n)
            word = parse("b1 b5^-1 b3^2", declared_strands=n)
        evaluate_on_state(word, rep, random_state(rng, n))
        assert "generators" not in vars(rep)

    @pytest.mark.parametrize("family, names", [
        ("jones", "xhyizxh"), ("bell", None), ("jones", "hhhhhhh")],
        ids=["jones", "bell", "jones_all_h"])
    def test_peak_memory_is_state_sized(self, rng, family, names):
        n = 8
        if family == "jones":
            shape = RepShape(n, 4)
            rep = jones_representation(tl_params(np.pi / 8), shape,
                                       involution_spec(names))
            word = parse("b1 b2^-1 b1^3 b2^5", declared_strands=3)
        else:
            rep = bell_representation(n)
            word = parse("b1 b7^-1 b4^3 b2^5", declared_strands=n)
        v = random_state(rng, n)
        evaluate_on_state(word, rep, v)      # first-call caches
        tracemalloc.start()
        try:
            evaluate_on_state(word, rep, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * v.nbytes
