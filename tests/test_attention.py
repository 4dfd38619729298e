import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dcag import (
    JointQKV,
    LayerWeights,
    ShapeError,
    StreamBatch,
    attention_weights,
    joint_attention,
    project_qkv,
    rope,
)
from dcag.attention import DEFAULT_ROPE_BASE, _project, _rope_table
from conftest import bits, child_env
from oracles import naive_attention, naive_rope


def make_weights(rng, dim, heads):
    mats = rng.standard_normal((6, dim, dim)) / np.sqrt(dim)
    return LayerWeights(*mats, heads=heads)


def make_qkv(rng, s_t, s_i, heads, dh):
    s = s_t + s_i
    return JointQKV(
        q=rng.standard_normal((s, heads, dh)),
        k=rng.standard_normal((s, heads, dh)),
        v=rng.standard_normal((s, heads, dh)),
        img_range=(s_t, s),
    )


class TestTypes:
    def test_stream_batch_requires_matching_dims(self, rng):
        with pytest.raises(ShapeError, match="hidden dimension"):
            StreamBatch(txt=rng.standard_normal((2, 8)), img=rng.standard_normal((3, 4)))

    def test_stream_batch_requires_tokens(self, rng):
        with pytest.raises(ShapeError, match="at least one token"):
            StreamBatch(txt=np.zeros((0, 4)), img=rng.standard_normal((3, 4)))

    def test_arrays_are_frozen(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((2, 4)), img=rng.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            batch.txt[0, 0] = 1.0

    def test_freezing_copies_the_input(self, rng):
        source = rng.standard_normal((2, 4))
        StreamBatch(txt=source, img=rng.standard_normal((3, 4)))
        source[0, 0] = 123.0  # caller's array must stay writable

    def test_layer_weights_store_each_stream_once(self, rng):
        # the six matrices are read-only views of the fused [Wq|Wk|Wv] arrays
        # projection reads, and a frozen instance keeps the two from diverging
        mats = rng.standard_normal((6, 4, 4))
        w = LayerWeights(*mats, heads=2)
        for i, name in enumerate(("txt_wq", "txt_wk", "txt_wv", "img_wq", "img_wk", "img_wv")):
            field = getattr(w, name)
            assert np.array_equal(field, mats[i]) and not field.flags.writeable
            assert np.shares_memory(field, w.txt_wqkv if i < 3 else w.img_wqkv)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, mats[i] + 1.0)
        assert np.array_equal(w.img_wqkv, np.concatenate(mats[3:], axis=1))

    def test_layer_weights_head_divisibility(self, rng):
        mats = rng.standard_normal((6, 6, 6))
        with pytest.raises(ShapeError, match="divisible"):
            LayerWeights(*mats, heads=4)

    def test_layer_weights_odd_head_dimension(self, rng):
        mats = rng.standard_normal((6, 12, 12))
        with pytest.raises(ShapeError, match="head dimension 3"):
            LayerWeights(*mats, heads=4)

    def test_joint_qkv_range_must_close_the_sequence(self, rng):
        with pytest.raises(ShapeError, match="image range"):
            JointQKV(
                q=rng.standard_normal((5, 2, 4)),
                k=rng.standard_normal((5, 2, 4)),
                v=rng.standard_normal((5, 2, 4)),
                img_range=(2, 4),
            )

    def test_joint_qkv_allows_image_only(self, rng):
        qkv = make_qkv(rng, 0, 4, 2, 4)
        assert qkv.img_range == (0, 4)

    def test_joint_qkv_range_must_be_integers(self, rng):
        # int() would store (2.7, 5) as (2, 5)
        blocks = {name: rng.standard_normal((5, 2, 4)) for name in ("q", "k", "v")}
        with pytest.raises(ValueError, match="^img_range bound must be an integer, got 2.7$"):
            JointQKV(**blocks, img_range=(2.7, 5))
        qkv = JointQKV(**blocks, img_range=(np.int64(2), np.int32(5)))
        assert qkv.img_range == (2, 5) and all(type(i) is int for i in qkv.img_range)

    def test_layer_weights_heads_must_be_an_integer(self, rng):
        # heads=2.0 used to pass here and fail later inside run_stack with a TypeError
        mats = rng.standard_normal((6, 8, 8))
        with pytest.raises(ValueError, match="^heads must be an integer, got 2.0$"):
            LayerWeights(*mats, heads=2.0)
        w = LayerWeights(*mats, heads=np.int64(2))
        assert w.heads == 2 and type(w.heads) is int and w.head_dim == 4


class TestRope:
    def test_position_zero_is_untouched(self, rng):
        x = rng.standard_normal((3, 2, 8))
        out = rope(x, [0, 0, 0])
        assert np.array_equal(out, x)

    def test_preserves_per_pair_norms(self, rng):
        x = rng.standard_normal((6, 3, 10))
        out = rope(x, [0, 1, 7, 100, 3, 12])
        pairs_in = x.reshape(6, 3, 5, 2)
        pairs_out = out.reshape(6, 3, 5, 2)
        norms_in = np.sqrt((pairs_in ** 2).sum(axis=-1))
        norms_out = np.sqrt((pairs_out ** 2).sum(axis=-1))
        assert np.max(np.abs(norms_in - norms_out)) <= 1e-12

    def test_unit_angle_for_first_pair(self):
        # theta_0 = base**0 = 1, so position 1 rotates pair 0 by one radian
        x = np.array([[[2.0, 0.5]]])
        out = rope(x, [1])
        c, s = np.cos(1.0), np.sin(1.0)
        expected = np.array([[[2.0 * c - 0.5 * s, 2.0 * s + 0.5 * c]]])
        assert np.allclose(out, expected, rtol=1e-15, atol=0)

    def test_odd_head_dim_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            rope(rng.standard_normal((2, 1, 3)), [0, 1])

    def test_position_count_must_match(self, rng):
        with pytest.raises(ShapeError, match="position"):
            rope(rng.standard_normal((2, 1, 4)), [0, 1, 2])


def per_head_rope(x, positions):
    """RoPE per head: (S, 1, d_h/2) tables broadcast over the heads of an (S, H, d_h) block."""
    dh = x.shape[2]
    theta = DEFAULT_ROPE_BASE ** (-2.0 * np.arange(dh // 2, dtype=np.float64) / dh)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * theta[None, :]
    cos, sin = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
    out = np.array(x)
    even, odd = out[:, :, 0::2], out[:, :, 1::2]
    even[...], odd[...] = even * cos - odd * sin, even * sin + odd * cos
    return out


HEAD_SHAPES = [(1, 64), (4, 16), (32, 2), (3, 6)]


@pytest.mark.parametrize("heads, dh", HEAD_SHAPES)
def test_whole_row_rope_matches_per_head_formula_bitwise(rng, heads, dh):
    # the tables tile the per-head angles over heads, so each element takes the
    # same two products and one sum as in the per-head formula
    x = rng.standard_normal((41, heads, dh)) * 10.0 ** rng.integers(-3, 4, (41, heads, dh))
    positions = rng.permutation(1000)[:41]
    out = rope(x, positions)
    assert np.array_equal(bits(out), bits(per_head_rope(x, positions)))
    assert np.max(np.abs(out - naive_rope(x, positions))) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("heads, dh", HEAD_SHAPES)
def test_projection_matches_per_head_formula_bitwise(rng, heads, dh):
    s_t, s_i, d = 5, 37, heads * dh
    w = make_weights(rng, d, heads)
    txt, img = rng.standard_normal((s_t, d)), rng.standard_normal((s_i, d))
    positions = np.arange(s_t + s_i, dtype=np.float64)
    out = np.empty((s_t + s_i, 3 * d))
    q, k, v = _project(txt, img, w.txt_wqkv, w.img_wqkv, heads,
                       *_rope_table(positions, dh, heads), out)
    raw = np.empty_like(out)
    np.matmul(txt, w.txt_wqkv, out=raw[:s_t])
    np.matmul(img, w.img_wqkv, out=raw[s_t:])
    rq, rk, rv = raw.reshape(s_t + s_i, 3, heads, dh).transpose(1, 0, 2, 3)
    assert np.array_equal(bits(q), bits(per_head_rope(rq, positions)))
    assert np.array_equal(bits(k), bits(per_head_rope(rk, positions)))
    assert np.array_equal(bits(v), bits(rv))
    assert all(np.shares_memory(x, out) for x in (q, k, v))


class TestProjectQKV:
    def test_shapes_and_range(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((4, 32)), img=rng.standard_normal((16, 32)))
        qkv = project_qkv(batch, make_weights(rng, 32, 4))
        assert qkv.q.shape == (20, 4, 8)
        assert qkv.k.shape == (20, 4, 8)
        assert qkv.v.shape == (20, 4, 8)
        assert qkv.img_range == (4, 20)

    def test_zero_input_gives_zero_qkv(self, rng):
        batch = StreamBatch(txt=np.zeros((3, 16)), img=np.zeros((5, 16)))
        qkv = project_qkv(batch, make_weights(rng, 16, 2))
        assert np.all(qkv.q == 0.0) and np.all(qkv.k == 0.0) and np.all(qkv.v == 0.0)

    def test_first_text_token_is_unrotated(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((3, 16)), img=rng.standard_normal((2, 16)))
        w = make_weights(rng, 16, 2)
        qkv = project_qkv(batch, w)
        raw_q = (batch.txt @ w.txt_wq).reshape(3, 2, 8)
        assert np.array_equal(qkv.q[0], raw_q[0])
        assert not np.array_equal(qkv.q[1], raw_q[1])

    def test_v_receives_no_rope(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((3, 16)), img=rng.standard_normal((2, 16)))
        w = make_weights(rng, 16, 2)
        qkv = project_qkv(batch, w)
        expected_v = np.concatenate(
            [(batch.txt @ w.txt_wv).reshape(3, 2, 8), (batch.img @ w.img_wv).reshape(2, 2, 8)]
        )
        assert np.array_equal(qkv.v, expected_v)

    def test_dim_mismatch(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((3, 8)), img=rng.standard_normal((2, 8)))
        with pytest.raises(ShapeError, match="hidden dimension"):
            project_qkv(batch, make_weights(rng, 16, 2))


class TestJointAttention:
    def test_two_token_weights_are_row_stochastic(self, rng):
        qkv = make_qkv(rng, 1, 1, 1, 4)
        out, weights = joint_attention(qkv), attention_weights(qkv)
        assert weights.shape == (1, 2, 2)
        assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12
        assert np.all(weights >= 0.0)
        # each output row is a convex combination of the two V rows
        merged = out.reshape(2, 1, 4)
        for i in range(2):
            expected = weights[0, i, 0] * qkv.v[0, 0] + weights[0, i, 1] * qkv.v[1, 0]
            assert np.allclose(merged[i, 0], expected, rtol=0, atol=1e-15)

    def test_constant_values_pass_through(self, rng):
        s_t, s_i, h, dh = 3, 5, 2, 4
        qkv = JointQKV(
            q=rng.standard_normal((8, h, dh)),
            k=rng.standard_normal((8, h, dh)),
            v=np.ones((8, h, dh)),
            img_range=(s_t, 8),
        )
        out = joint_attention(qkv)
        assert out.shape == (8, h * dh)
        assert np.allclose(out, 1.0, rtol=0, atol=1e-12)

    def test_matches_naive_loop_oracle(self, rng):
        for s_t, s_i, h, dh in ((2, 6, 1, 8), (8, 24, 4, 16), (16, 48, 4, 16)):
            qkv = make_qkv(rng, s_t, s_i, h, dh)
            out, weights = joint_attention(qkv), attention_weights(qkv)
            ref_merged, ref_weights = naive_attention(qkv.q, qkv.k, qkv.v)
            assert np.max(np.abs(out - ref_merged)) <= 1e-10
            assert np.max(np.abs(weights - ref_weights)) <= 1e-10

    def test_weight_rows_sum_to_one(self, rng):
        qkv = make_qkv(rng, 5, 11, 3, 6)
        weights = attention_weights(qkv)
        assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12

    def test_output_in_convex_hull_of_values(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        out = joint_attention(qkv)
        merged = out.reshape(16, 2, 8)
        lo = qkv.v.min(axis=0)
        hi = qkv.v.max(axis=0)
        assert np.all(merged >= lo - 1e-12)
        assert np.all(merged <= hi + 1e-12)

    def test_image_only_weights_supported(self, rng):
        qkv = make_qkv(rng, 0, 6, 2, 4)
        weights = attention_weights(qkv)
        assert weights.shape == (2, 6, 6)
        assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12

    def test_image_only_output_covers_every_token(self, rng):
        # JointQKV accepts img_range (0, S), so joint_attention returns all S rows
        qkv = make_qkv(rng, 0, 6, 2, 4)
        out = joint_attention(qkv)
        assert out.shape == (6, 8)
        ref_merged, _ = naive_attention(qkv.q, qkv.k, qkv.v)
        assert np.max(np.abs(out - ref_merged)) <= 1e-10

    def test_output_is_read_only(self, rng):
        out = joint_attention(make_qkv(rng, 2, 6, 2, 4))
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1.0

    def test_overflowing_logits_are_rejected(self, rng):
        # q·k overflows to inf, so a row's max subtraction gives NaN weights;
        # attention_weights checks its (H, S) row sums, not an (H, S, S) mask
        qkv = make_qkv(rng, 2, 6, 2, 4)
        huge = JointQKV(q=qkv.q * 1e200, k=qkv.k * 1e200, v=qkv.v, img_range=qkv.img_range)
        for attend in (attention_weights, joint_attention):
            with pytest.raises(ValueError, match="non-finite"):
                attend(huge)


# Runs in a fresh interpreter so OPENBLAS_NUM_THREADS takes effect. q, k, v
# are strided (S, H, d_h) views into one (S, 3D) block, as in run_stack. Groups
# of G heads, including a ragged last group (G = 3), must give the bits of one
# batched (H, S, S) formula; with G = H the buffer is the (H, S, S) weights.
PER_HEAD_VS_BATCHED = """
import hashlib
import numpy as np
from dcag.attention import _attend
from dcag.tensors import _softmax_rows

rng = np.random.default_rng(11)
for s in (152, 408, 579, 1032):
    for h in (4, 16):
        block = rng.standard_normal((s, 3 * 64))
        q, k, v = block.reshape(s, 3, h, -1).transpose(1, 0, 2, 3)
        scale = 1.0 / np.sqrt(q.shape[2])
        qh, kt, vh = q.transpose(1, 0, 2), k.transpose(1, 2, 0), v.transpose(1, 0, 2)
        batched = np.matmul(qh, kt)
        batched *= scale
        expected = (_softmax_rows(batched) @ vh).transpose(1, 0, 2)
        expected_weights = hashlib.sha256(batched).hexdigest()
        del batched  # keep one (H, S, S) tensor alive at a time
        for g in (1, 2, 3, h):
            weights = np.empty((g, s, s))
            out = _attend(q, k, v, weights, np.empty(q.shape))
            assert np.array_equal(out, expected), (s, h, g)
            if g == h:
                assert hashlib.sha256(weights).hexdigest() == expected_weights, (s, h)
            del weights
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_per_head_kernel_equals_batched_matmul_bitwise(threads):
    result = subprocess.run([sys.executable, "-c", PER_HEAD_VS_BATCHED],
                            env=child_env(OPENBLAS_NUM_THREADS=threads),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
