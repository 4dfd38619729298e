import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dcag
from dcag import (BiasDelta, ShapeError, contour_text, decompose, matmul, ratios_csv, rescale,
                  softmax_rows, sweep_csv)
from dcag.cli import _fmt, _write_artifacts
from dcag.harness import _METRICS
from dcag.tensors import _SOFTMAX_BLOCK_BYTES, _softmax_rows
from conftest import bits
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

    def test_row_blocks_match_one_shot_formula_bitwise(self, rng):
        # the kernel runs its passes over row blocks; with a ragged last block,
        # at least three blocks, and rows where all but one entry underflows,
        # every bit must equal the unblocked max-subtract/exp/normalise
        n = 1000
        block_rows = _SOFTMAX_BLOCK_BYTES // (n * 8)
        m = 2 * (7 * block_rows // 4)  # about 3.5 blocks, and even
        assert m % block_rows and m // block_rows >= 3 and m % 2 == 0
        x = rng.standard_normal((m, n))
        x[::4] *= 1e4  # nearly every shifted entry of these rows is below -746
        x[1::4, ::3] -= 745.0
        x[2::4, 1::5] -= 746.5
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=1, keepdims=True)
        assert np.mean(expected[::4] == 0.0) > 0.99
        assert np.array_equal(softmax_rows(x), expected)
        # the (H, S, S) form the batched attention reference uses
        stacked = x.reshape(2, m // 2, n).copy()
        assert np.array_equal(_softmax_rows(stacked), expected.reshape(2, m // 2, n))

    @staticmethod
    def plain(x):
        """The unshortened max-subtract/exp/normalise formula."""
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def test_all_live_block_matches_plain_formula_bitwise(self, rng):
        # no shifted entry below -746: the kernel's unmasked exp and divide
        x = rng.standard_normal((50, 300)) * 20.0
        assert (x - x.max(axis=1, keepdims=True)).min() >= -746.0
        out = softmax_rows(x)
        assert np.array_equal(out, self.plain(x))
        assert not np.signbit(out).any()

    def test_blocks_of_live_and_dead_rows_match_plain_formula_bitwise(self, rng):
        # blocks with no dead entry take the unmasked branch, blocks holding a
        # mostly-dead row the masked one, and blocks of one-hot rows (every row
        # sum exactly 1) skip the divide; the bits must not depend on which
        n = 1000
        block_rows = _SOFTMAX_BLOCK_BYTES // (n * 8)
        x = rng.standard_normal((5 * block_rows + 7, n))
        x[block_rows + 3] *= 1e4  # block 1: one mostly-dead row among live rows
        x[block_rows + 4] = -1000.0  # and one one-hot row
        x[block_rows + 4, 17] = 0.0
        x[2 * block_rows:3 * block_rows] = -1000.0  # block 2: one-hot rows only
        x[2 * block_rows:3 * block_rows, 5] = 0.0
        x[4 * block_rows::5] *= 1e4  # block 4 and the ragged block 5: many
        expected = self.plain(x)
        assert np.mean(expected[block_rows + 3] == 0.0) > 0.99
        assert np.all(expected[2 * block_rows:3 * block_rows].sum(axis=1) == 1.0)
        out = softmax_rows(x)
        assert np.array_equal(out, expected)
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("dead", [False, True])
    def test_subnormal_band_matches_plain_formula_bitwise(self, rng, dead):
        # shifted logits in [-745.1, -708.4] give subnormal weights; with and
        # without dead entries in the block (the masked and unmasked branches)
        x = rng.uniform(-745.1, -708.4, size=(40, 64))
        x[:, 0] = 0.0  # the row max, so the shifted logits are x itself
        if dead:
            x[::3, 1::4] = -800.0
        expected = self.plain(x)
        assert np.any((expected > 0.0) & (expected < np.finfo(np.float64).tiny))
        out = softmax_rows(x)
        assert np.array_equal(out, expected)
        assert not np.signbit(out).any()

    def test_non_negative(self, rng):
        assert np.all(softmax_rows(rng.standard_normal((5, 5))) >= 0.0)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax_rows(np.zeros((3, 0)))
        with pytest.raises(ValueError, match="empty"):
            softmax_rows(np.zeros((0, 3)))


# Every public array argument goes through tensors.as_real: (argument name, call on x).
OK = np.ones((4, 4))
ARRAY_ENTRY_POINTS = {
    "StreamBatch": ("txt", lambda x: dcag.StreamBatch(txt=x, img=OK)),
    "ToyStack": ("embeddings", lambda x: dcag.ToyStack(layers=(), embeddings=x)),
    "softmax_rows": ("logits", softmax_rows),
    "matmul": ("left operand", lambda x: matmul(x, OK)),
    "rope": ("rope input", lambda x: dcag.rope(x, np.arange(4))),
    "rope positions": ("positions", lambda x: dcag.rope(np.ones((4, 1, 2)), x)),
    "decompose": ("block", decompose),
    "ratio": ("block", dcag.ratio),
    "pearson": ("first profile", lambda x: dcag.pearson(x, OK)),
    "mse": ("first image", lambda x: dcag.mse(x, OK)),
    "render_tokens": ("image block", lambda x: dcag.render_tokens(x, 0.0, 1.0)),
    "heatmap_pgm": ("ratios", dcag.heatmap_pgm),
    "marching_squares": ("surface",
                         lambda x: dcag.marching_squares(np.arange(4), np.arange(4), x, 0.5)),
    "rescale": ("bias",
                lambda x: rescale(BiasDelta(x, np.ones((2, 1, 2)), np.zeros((2, 1, 2))), 1.1)),
}
NOT_REAL = {"dict": {"a": 1.0}, "complex": np.ones((4, 4), dtype=complex), "string": "1.0",
            "None": None, "huge int": 10 ** 400}


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_non_real_array_argument_is_a_one_line_value_error(entry, bad):
    # numpy raised TypeError for a dict, dropped a complex array's imaginary part with
    # a ComplexWarning, and parsed the string; warnings are errors here
    name, call = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as exc:
        call(NOT_REAL[bad])
    message = str(exc.value)
    assert message.startswith(f"{name} must hold real numbers") and "\n" not in message


# A wrong rank or disagreeing shapes at each public boundary: (call, error, its one line).
ONE_LINE_ERRORS = {
    "StreamBatch rank": (lambda: dcag.StreamBatch(txt=np.ones(4), img=OK), ShapeError,
                         "streams must be 2D token blocks, got txt (4,), img (4, 4)"),
    "LayerWeights heads": (lambda: dcag.LayerWeights(np.ones((4, 12)), np.ones((4, 12)), heads=0),
                           ValueError, "heads must be positive, got 0"),
    "JointQKV rank": (lambda: dcag.JointQKV(q=OK, k=OK, v=OK, img_range=(1, 4)), ShapeError,
                      "q/k/v must be (S, H, d_h), got (4, 4)"),
    "JointQKV shapes": (lambda: dcag.JointQKV(q=np.ones((4, 1, 2)), k=np.ones((4, 1, 2)),
                                              v=np.ones((3, 1, 2)), img_range=(1, 4)),
                        ShapeError, "q, k, v shapes disagree: (4, 1, 2), (4, 1, 2), (3, 1, 2)"),
    "rope rank": (lambda: dcag.rope(OK, np.arange(4)), ShapeError,
                  "rope expects an (S, H, d_h) block, got shape (4, 4)"),
    "decompose rank": (lambda: decompose(OK), ShapeError,
                       "decompose expects an (S_i, H, d_h) block, got shape (4, 4)"),
    "token_grid rank": (lambda: dcag.token_grid(np.ones(4)), ShapeError,
                        "token_grid expects an (S_i, D) block, got shape (4,)"),
    "mse rank": (lambda: dcag.mse(np.ones(4), np.ones(4)), ShapeError,
                 "images must be 2D, got shapes (4,) and (4,)"),
    "ratios_csv shapes": (lambda: ratios_csv(np.ones((2, 3)), np.ones((3, 2))), ShapeError,
                          "profiles disagree in shape: (2, 3) vs (3, 2)"),
    "heatmap_pgm empty": (lambda: dcag.heatmap_pgm(np.zeros((0, 3))), ValueError,
                          "cannot render an empty profile"),
    "softmax_rows rank": (lambda: softmax_rows(np.ones(4)), ShapeError,
                          "softmax_rows expects a matrix, got shape (4,)"),
}


@pytest.mark.parametrize("case", ONE_LINE_ERRORS)
def test_bad_shape_is_its_one_line_error(case):
    call, error, message = ONE_LINE_ERRORS[case]
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


# Public array functions on their first argument, which each gets in the layouts below;
# the other arguments are fixed. as_tensor's C order is what makes the bits independent of
# the layout: reductions and einsum sum in memory order.
_LAYOUT_RNG = np.random.default_rng(5)
_IMAGE, _TOKENS = _LAYOUT_RNG.random((2, 12, 13)), _LAYOUT_RNG.standard_normal((16, 40))
_BLOCK, _RATIOS = _LAYOUT_RNG.standard_normal((40, 3, 8)), _LAYOUT_RNG.random((2, 5, 4))
_LOGITS, _SURFACE = _LAYOUT_RNG.standard_normal((7, 9)) * 30.0, _LAYOUT_RNG.random((6, 5))
LAYOUT_CASES = {
    "mse": (_IMAGE[0], lambda x: dcag.mse(x, _IMAGE[1])),
    "psnr": (_IMAGE[0], lambda x: dcag.psnr(x, _IMAGE[1])),
    "ssim": (_IMAGE[0], lambda x: dcag.ssim(x, _IMAGE[1])),
    "token_grid": (_TOKENS, dcag.token_grid),
    "render_tokens": (_TOKENS, lambda x: dcag.render_tokens(x, -1.0, 1.0)),
    "pearson": (_RATIOS[0], lambda x: dcag.pearson(x, _RATIOS[1])),
    "decompose": (_BLOCK, lambda x: dataclasses.astuple(decompose(x))),
    "rope": (_BLOCK, lambda x: dcag.rope(x, np.arange(40))),
    "softmax_rows": (_LOGITS, softmax_rows),
    "matmul": (_LOGITS, lambda x: matmul(x, _LOGITS.T)),
    "ratio": (_BLOCK, dcag.ratio),
    "ratios_csv": (_RATIOS[0], lambda x: ratios_csv(x, _RATIOS[1])),
    "heatmap_pgm": (_RATIOS[0], dcag.heatmap_pgm),
    "marching_squares": (_SURFACE, lambda x: dcag.marching_squares(np.arange(6), np.arange(5),
                                                                   x, 0.5)),
}


def _every_step_2(x):
    """x's values in a view that takes every other element along each axis."""
    spread = np.zeros(tuple(2 * n for n in x.shape))
    spread[(slice(None, None, 2),) * x.ndim] = x
    return spread[(slice(None, None, 2),) * x.ndim]


LAYOUTS = {"Fortran": np.asfortranarray, "reversed strides": lambda x: np.flip(np.flip(x).copy()),
           "step 2": _every_step_2}


def _result_bits(result):
    """A result with every float as its 64-bit pattern, so -0.0 and +0.0 differ."""
    if isinstance(result, (list, tuple)):
        return [_result_bits(item) for item in result]
    if isinstance(result, str):
        return result
    return np.shape(result), bits(result).tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("entry", LAYOUT_CASES)
def test_bits_do_not_depend_on_the_argument_layout(entry, layout):
    x, call = LAYOUT_CASES[entry]
    laid_out = LAYOUTS[layout](x)
    assert np.array_equal(laid_out, x) and not laid_out.flags.c_contiguous
    assert _result_bits(call(laid_out)) == _result_bits(call(np.ascontiguousarray(x)))


class TestRescaleFields:
    def test_list_fields_are_coerced_to_the_same_bits(self, rng):
        bd = decompose(rng.standard_normal((5, 2, 4)))
        as_lists = BiasDelta(bd.bias.tolist(), bd.delta.tolist(), bd.delta_residual.tolist())
        assert np.array_equal(rescale(as_lists, 1.1), rescale(bd, 1.1))

    @pytest.mark.parametrize("field, shape", [("bias", (5, 2, 4)), ("bias", (1, 2, 3)),
                                              ("delta_residual", (4, 2, 4))])
    def test_disagreeing_shapes_are_a_shape_error(self, rng, field, shape):
        bd = decompose(rng.standard_normal((5, 2, 4)))
        bad = dataclasses.replace(bd, **{field: np.zeros(shape)})
        with pytest.raises(ShapeError, match="not one decomposition's shapes"):
            rescale(bad, 1.1)


# Where %.17g switches to the exponent form (below 1e-4, from 1e17), negative zero,
# the smallest subnormal, the largest float and an integer-valued float. No pinned
# digest reaches the exponent form, so each writer is held to it here.
FORMAT_BOUNDARY = np.array([-0.0, 1e-5, 9.9999999999999995e-05, 1e-4, 1e16,
                            9.999999999999999e16, 1e17, 5e-324, 1.7976931348623157e308, 1234.0])


def _expected_line(*values):
    return ",".join("%.17g" % value for value in values)


def test_every_writer_prints_each_number_as_17_significant_digits(tmp_path):
    values = FORMAT_BOUNDARY
    n = values.size
    i, j = np.indices((n, n))
    columns = {"mse": values[i], "psnr": values[j], "ssim": values[(i + j) % n]}
    surfaces = {name: columns[name] for name in _METRICS}
    assert sweep_csv(values, values, surfaces).splitlines()[1:] == [
        _expected_line(values[a], values[b], *(columns[name][a, b] for name in _METRICS))
        for a in range(n) for b in range(n)]

    k, v = values.reshape(2, 5), values[::-1].reshape(2, 5)
    assert ratios_csv(k, v).splitlines()[1:] == [
        f"{layer},{step}," + _expected_line(k[layer, step], v[layer, step])
        for layer in range(2) for step in range(5)]

    polylines = [list(zip(values[:5], values[::-1][:5])), list(zip(values[5:], values[::-1][5:]))]
    assert contour_text(polylines) == "\n".join(
        "".join(_expected_line(x, y) + "\n" for x, y in line) for line in polylines)

    arrays = {"wide.csv": values.reshape(2, 5), "tall.csv": values.reshape(5, 2)}
    _write_artifacts(tmp_path, arrays)
    for name, array in arrays.items():
        assert (tmp_path / name).read_text() == "".join(
            _expected_line(*row) + "\n" for row in array)
    assert [_fmt(value) for value in values] == ["%.17g" % value for value in values]
