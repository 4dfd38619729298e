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
from conftest import child_env
from oracles import naive_attention


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
        merged = np.concatenate([out.txt, out.img]).reshape(2, 1, 4)
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
        assert np.allclose(out.txt, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(out.img, 1.0, rtol=0, atol=1e-12)

    def test_matches_naive_loop_oracle(self, rng):
        for s_t, s_i, h, dh in ((2, 6, 1, 8), (8, 24, 4, 16), (16, 48, 4, 16)):
            qkv = make_qkv(rng, s_t, s_i, h, dh)
            out, weights = joint_attention(qkv), attention_weights(qkv)
            merged = np.concatenate([out.txt, out.img])
            ref_merged, ref_weights = naive_attention(qkv.q, qkv.k, qkv.v)
            assert np.max(np.abs(merged - ref_merged)) <= 1e-10
            assert np.max(np.abs(weights - ref_weights)) <= 1e-10

    def test_weight_rows_sum_to_one(self, rng):
        qkv = make_qkv(rng, 5, 11, 3, 6)
        weights = attention_weights(qkv)
        assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12

    def test_output_in_convex_hull_of_values(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        out = joint_attention(qkv)
        merged = np.concatenate([out.txt, out.img]).reshape(16, 2, 8)
        lo = qkv.v.min(axis=0)
        hi = qkv.v.max(axis=0)
        assert np.all(merged >= lo - 1e-12)
        assert np.all(merged <= hi + 1e-12)

    def test_image_only_weights_supported(self, rng):
        qkv = make_qkv(rng, 0, 6, 2, 4)
        weights = attention_weights(qkv)
        assert weights.shape == (2, 6, 6)
        assert np.max(np.abs(weights.sum(axis=2) - 1.0)) <= 1e-12


# Runs in a fresh interpreter so OPENBLAS_NUM_THREADS takes effect. q, k, v
# are strided (S, H, d_h) views into one (S, 3D) block, as in run_stack.
PER_HEAD_VS_BATCHED = """
import hashlib
import numpy as np
from dcag.attention import _attend
from dcag.tensors import _softmax_rows

rng = np.random.default_rng(11)
for s in (408, 579, 1032):
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
        weights = np.empty((h, s, s))
        out = _attend(q, k, v, weights, np.empty(q.shape))
        assert np.array_equal(out, expected), (s, h, "(H, S, S) slices")
        assert hashlib.sha256(weights).hexdigest() == expected_weights, (s, h)
        del weights
        out = _attend(q, k, v, (np.empty((s, s)),) * h, np.empty(q.shape))
        assert np.array_equal(out, expected), (s, h, "one (S, S) buffer")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_per_head_kernel_equals_batched_matmul_bitwise(threads):
    result = subprocess.run([sys.executable, "-c", PER_HEAD_VS_BATCHED],
                            env=child_env(OPENBLAS_NUM_THREADS=threads),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
