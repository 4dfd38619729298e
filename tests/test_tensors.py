import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcag import ShapeError, l2_norm, matmul, mean_over_tokens, rowwise_l2, softmax_rows
from oracles import naive_matmul


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 5))
        assert np.array_equal(matmul(np.eye(3), a), a)

    def test_hand_product_matches_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[2.0, 1.0], [4.0, 3.0]])
        assert np.array_equal(matmul(a, b), expected)
        assert np.array_equal(naive_matmul(a, b), expected)

    def test_zeros_annihilate(self, rng):
        out = matmul(np.zeros((2, 3)), rng.standard_normal((3, 4)))
        assert out.shape == (2, 4)
        assert np.all(out == 0.0)

    def test_random_agrees_with_triple_loop(self, rng):
        a = rng.standard_normal((7, 9))
        b = rng.standard_normal((9, 4))
        assert np.allclose(matmul(a, b), naive_matmul(a, b), rtol=1e-13, atol=1e-13)

    def test_shape_mismatch_names_both_shapes(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 2))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(a, b)

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ShapeError):
            matmul(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            matmul(bad, np.eye(2))

    def test_associativity_within_1e9(self, rng):
        a, b, c = (rng.standard_normal((16, 16)) for _ in range(3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left - right)) <= 1e-9 * scale

    def test_repeated_calls_are_bit_identical(self, rng):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestSoftmaxRows:
    def test_equal_logits_give_uniform(self):
        out = softmax_rows(np.array([[3.7, 3.7, 3.7]]))
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    def test_closed_form_0_ln2(self):
        out = softmax_rows(np.array([[0.0, math.log(2.0)]]))
        assert np.allclose(out, [[1 / 3, 2 / 3]], rtol=1e-14, atol=0)

    def test_rows_sum_to_one(self, rng):
        out = softmax_rows(rng.standard_normal((40, 23)) * 10.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_shift_invariance_exact_on_dyadic_logits(self, rng):
        x = rng.integers(-64, 64, size=(8, 9)).astype(np.float64) / 16.0
        shifted = x + 0.5  # exact in float64
        assert np.array_equal(softmax_rows(x), softmax_rows(shifted))

    @given(
        x=arrays(np.float64, (4, 6), elements=st.floats(-50, 50)),
        c=st.floats(-30, 30),
    )
    def test_shift_invariance_within_1e12(self, x, c):
        assert np.max(np.abs(softmax_rows(x + c) - softmax_rows(x))) <= 1e-12

    def test_matches_plain_formula_bitwise_through_underflow(self, rng):
        # shifted logits below the exp underflow point must still give exact zeros,
        # and the rest the same bits as the unshortened max-subtract/exp/normalise
        x = rng.standard_normal((6, 40))
        x[:, ::3] -= 745.0
        x[:, 1::5] -= 746.5
        x[:, 2::7] *= 1e4
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        assert np.array_equal(softmax_rows(x), e / e.sum(axis=1, keepdims=True))

    def test_non_negative(self, rng):
        assert np.all(softmax_rows(rng.standard_normal((5, 5))) >= 0.0)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_rows(np.zeros((3, 0)))
        with pytest.raises(ValueError, match="empty"):
            softmax_rows(np.zeros((0, 3)))


class TestMeanOverTokens:
    def test_single_token_is_returned(self, rng):
        x = rng.standard_normal((1, 6))
        out = mean_over_tokens(x)
        assert out.shape == (1, 6)
        assert np.array_equal(out, x)

    def test_hand_case(self):
        out = mean_over_tokens(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(out, np.array([[0.5, 0.5]]))

    def test_linearity(self, rng):
        x = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 5))
        combined = mean_over_tokens(2.5 * x + 0.75 * y)
        separate = 2.5 * mean_over_tokens(x) + 0.75 * mean_over_tokens(y)
        assert np.max(np.abs(combined - separate)) <= 1e-12

    def test_shift_by_constant_vector(self, rng):
        x = rng.standard_normal((9, 4))
        c = rng.standard_normal(4)
        assert np.max(np.abs(mean_over_tokens(x + c) - (mean_over_tokens(x) + c))) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            mean_over_tokens(np.zeros((0, 4)))


class TestNorms:
    def test_zeros(self):
        assert l2_norm(np.zeros((3, 3))) == 0.0

    def test_pythagorean(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_rowwise(self):
        out = rowwise_l2(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert out.shape == (2, 1)
        assert np.array_equal(out, np.array([[5.0], [0.0]]))

    def test_rowwise_requires_matrix(self):
        with pytest.raises(ShapeError):
            rowwise_l2(np.zeros(4))
