import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dcag import (
    GuidanceConfig,
    JointQKV,
    LayerWeights,
    ShapeError,
    StreamBatch,
    ToyStack,
    apply_dcag,
    attention_weights,
    guided_attention,
    joint_attention,
    project_qkv,
    rope,
    run_stack,
    seeded_batch,
)
from dcag import attention
from dcag.attention import (DEFAULT_ROPE_BASE, _BAND_BYTES, _attend, _band_shape, _bands, _project,
                            _rope_table)
from dcag.tensors import _softmax_rows, check_finite
from conftest import bits, child_env
from oracles import naive_attention, naive_rope


def make_weights(rng, dim, heads):
    wqkv = rng.standard_normal((2, dim, 3 * dim)) / np.sqrt(dim)
    return LayerWeights(*wqkv, heads=heads)


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

    def test_fields_cannot_be_reassigned(self, rng):
        # reassignment would bypass __post_init__'s checks and copy
        batch = StreamBatch(txt=rng.standard_normal((2, 4)), img=rng.standard_normal((3, 4)))
        qkv = make_qkv(rng, 2, 3, 2, 2)
        guided = apply_dcag(qkv, GuidanceConfig(delta_k=1.5, delta_v=0.5))  # built by _adopt
        for value, name in ((batch, "txt"), (batch, "img"), (qkv, "q"), (qkv, "img_range"),
                            (guided, "k"), (guided, "v"), (guided, "img_range")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, np.zeros((3, 5)))
        assert batch.img.shape == (3, 4) and guided.img_range == (2, 5)

    def test_freezing_copies_the_input(self, rng):
        source = rng.standard_normal((2, 4))
        StreamBatch(txt=source, img=rng.standard_normal((3, 4)))
        source[0, 0] = 123.0  # caller's array must stay writable

    def test_layer_weights_store_each_stream_once(self, rng):
        # each stream's [Wq|Wk|Wv] is one read-only private (D, 3D) copy, the
        # array projection reads, in a frozen instance; no other field holds weights
        wqkv = rng.standard_normal((2, 4, 12))
        w = LayerWeights(*wqkv, heads=2)
        assert [f.name for f in dataclasses.fields(w)] == ["txt_wqkv", "img_wqkv", "heads"]
        for name, source in zip(("txt_wqkv", "img_wqkv"), wqkv):
            field = getattr(w, name)
            assert np.array_equal(bits(field), bits(source)) and not field.flags.writeable
            assert field.flags.c_contiguous and not np.shares_memory(field, wqkv)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, source + 1.0)
        wqkv[:] = 0.0  # the caller's array stays writable and its edits stay out
        assert not np.array_equal(w.txt_wqkv, wqkv[0])

    @pytest.mark.parametrize("txt_shape, img_shape, message", [
        ((4, 12), (4, 8), r"img_wqkv must be \(4, 12\), got \(4, 8\)"),
        ((4, 4), (4, 4), r"txt_wqkv must be \(4, 12\), got \(4, 4\)"),
        ((4, 12), (8, 24), r"img_wqkv must be \(4, 12\), got \(8, 24\)"),
        ((), (2, 6), r"txt_wqkv must be a \(D, 3D\) matrix, got a scalar"),
    ])
    def test_layer_weights_fused_shapes(self, rng, txt_shape, img_shape, message):
        with pytest.raises(ShapeError, match=message):
            LayerWeights(rng.standard_normal(txt_shape), rng.standard_normal(img_shape), heads=2)

    def test_layer_weights_head_divisibility(self, rng):
        wqkv = rng.standard_normal((2, 6, 18))
        with pytest.raises(ShapeError, match="divisible"):
            LayerWeights(*wqkv, heads=4)

    def test_layer_weights_odd_head_dimension(self, rng):
        wqkv = rng.standard_normal((2, 12, 36))
        with pytest.raises(ShapeError, match="head dimension 3"):
            LayerWeights(*wqkv, heads=4)

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
        wqkv = rng.standard_normal((2, 8, 24))
        with pytest.raises(ValueError, match="^heads must be an integer, got 2.0$"):
            LayerWeights(*wqkv, heads=2.0)
        w = LayerWeights(*wqkv, heads=np.int64(2))
        assert w.heads == 2 and type(w.heads) is int


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
        raw_q = (batch.txt @ w.txt_wqkv[:, :16]).reshape(3, 2, 8)
        assert np.array_equal(qkv.q[0], raw_q[0])
        assert not np.array_equal(qkv.q[1], raw_q[1])

    def test_v_receives_no_rope(self, rng):
        batch = StreamBatch(txt=rng.standard_normal((3, 16)), img=rng.standard_normal((2, 16)))
        w = make_weights(rng, 16, 2)
        qkv = project_qkv(batch, w)
        expected_v = np.concatenate(
            [(batch.txt @ w.txt_wqkv[:, 32:]).reshape(3, 2, 8), (batch.img @ w.img_wqkv[:, 32:]).reshape(2, 2, 8)]
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
        # q·k overflows to inf: both passes refuse the logits by their min and max
        # before the softmax
        qkv = make_qkv(rng, 2, 6, 2, 4)
        huge = JointQKV(q=qkv.q * 1e200, k=qkv.k * 1e200, v=qkv.v, img_range=qkv.img_range)
        for attend in (attention_weights, joint_attention):
            with pytest.raises(ValueError, match="non-finite"):
                attend(huge)


def test_every_pass_refuses_overflowing_guided_logits():
    # at 8 + 64 tokens and delta_k = 1.1e307 the guided K is finite, but some guided
    # logits reach -inf; no pass may turn them into zero weights and a finite output
    stack = ToyStack.seeded(42, layers=1, steps=1, dim=64, heads=4)
    batch = seeded_batch(42, txt_tokens=8, img_tokens=64, dim=64)
    cfg = GuidanceConfig(delta_k=1.1e307)
    guided = apply_dcag(project_qkv(batch, stack.layers[0]), cfg)
    for attend in (lambda: joint_attention(guided), lambda: attention_weights(guided),
                   lambda: guided_attention(batch, stack.layers[0], cfg),
                   lambda: run_stack(stack, batch, cfg)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^attention logits contains non-finite values$"):
                attend()


@pytest.mark.parametrize("dense", [False, True])
def test_checked_finite_logits_keep_the_batched_bits(monkeypatch, rng, dense):
    # d_h·max|q|·max|k| is past 1e300 (q near 1e160, k near 1e145), so every band's
    # logits are checked, yet they are finite: one-hot rows, or, where the huge
    # coordinates of q and k never meet, dense ones. Both passes keep the bits of the
    # batched formula. With q scaled by 1e-200 the bound is far below 1e300: nothing is checked.
    s, h, dh = 40, 2, 8
    q, k, v = rng.standard_normal((3, s, h, dh))
    q[:, :, 0] *= 1e160
    k[:, :, 1 if dense else 0] *= 1e145
    if dense:
        q[:, :, 1] = k[:, :, 0] = 0.0
    checked = []

    def check(arr, name):
        checked.append(name)
        return check_finite(arr, name)

    monkeypatch.setattr(attention, "check_finite", check)
    for scale in (1.0, 1e-200):
        qkv = JointQKV(q=q * scale, k=k, v=v, img_range=(8, s))
        batched = np.matmul(qkv.q.transpose(1, 0, 2), qkv.k.transpose(1, 2, 0))
        batched *= 1.0 / np.sqrt(dh)
        weights = _softmax_rows(batched)
        expected = (weights @ v.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(s, h * dh)
        checked.clear()
        assert np.array_equal(bits(joint_attention(qkv)), bits(expected))
        assert np.array_equal(bits(attention_weights(qkv)), bits(weights))
        assert checked.count("attention logits") == (2 * h if scale == 1.0 else 0)
        if scale == 1.0:
            assert dense == (weights.max(axis=2).min() < 1.0)


# Runs in a fresh interpreter so OPENBLAS_NUM_THREADS takes effect. q, k, v
# are strided (S, H, d_h) views into one (S, 3D) block, as in run_stack. One
# head at a time in _attend's bands must give the bits of one batched
# (H, S, S) formula, and attention_weights the bits of its (H, S, S) weights:
# in one band up to S = 724, the largest one (S, S) of 4 MiB, and in three bands
# at S = 1,032 and 16 heads. From 725 tokens up _band_shape gives (R, S)
# query-row bands: they must give the unbanded formula's bits at S = 1,032 (8
# and 3 bands) and 2,056 (16 bands), where OpenBLAS rounds a band as it rounds
# the full product, and at S = 725, where it does not, agree with it to rtol
# 1e-12 (atol 1e-12 of its largest entry) and with themselves bit for bit.
PER_HEAD_VS_BATCHED = """
import hashlib
import numpy as np
from dcag.attention import JointQKV, _attend, _band_shape, attention_weights
from dcag.tensors import _softmax_rows

rng = np.random.default_rng(11)
for s, h in ((152, 4), (152, 8), (152, 16), (724, 4), (1032, 16)):
    block = rng.standard_normal((s, 3 * 64))
    q, k, v = block.reshape(s, 3, h, -1).transpose(1, 0, 2, 3)
    scale = 1.0 / np.sqrt(q.shape[2])
    qh, kt, vh = q.transpose(1, 0, 2), k.transpose(1, 2, 0), v.transpose(1, 0, 2)
    batched = np.matmul(qh, kt)
    batched *= scale
    expected = (_softmax_rows(batched) @ vh).transpose(1, 0, 2)
    expected_weights = hashlib.sha256(batched).hexdigest()
    del batched  # keep one (H, S, S) tensor alive at a time
    out = _attend(q, k, v, np.empty(q.shape))
    assert np.array_equal(out, expected), (s, h)
    weights = attention_weights(JointQKV(q=q, k=k, v=v, img_range=(0, s)))
    assert hashlib.sha256(weights).hexdigest() == expected_weights, (s, h)
    del weights
for s, h in ((725, 4), (725, 16), (1032, 4), (1032, 16), (2056, 4)):
    block = rng.standard_normal((s, 3 * 64))
    q, k, v = block.reshape(s, 3, h, -1).transpose(1, 0, 2, 3)
    unbanded = np.empty(q.shape)
    for i in range(h):  # one (S, S) at a time: (4, 2056, 2056) would be 135 MB
        w = q[:, i] @ k[:, i].T
        w *= 1.0 / np.sqrt(q.shape[2])
        unbanded[:, i] = _softmax_rows(w) @ v[:, i]
    assert _band_shape(s, 64 // h)[0] < s, (s, h, _band_shape(s, 64 // h))
    banded = _attend(q, k, v, np.empty(q.shape))
    if s == 725:
        # entries near 0 cancel, so their relative error is not bounded: atol at the scale
        np.testing.assert_allclose(banded, unbanded, rtol=1e-12,
                                   atol=1e-12 * np.abs(unbanded).max())
        assert np.array_equal(banded, _attend(q, k, v, np.empty(q.shape)))
    else:
        assert np.array_equal(banded, unbanded), (s, h)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_per_head_kernel_equals_batched_matmul_bitwise(threads):
    result = subprocess.run([sys.executable, "-c", PER_HEAD_VS_BATCHED],
                            env=child_env(OPENBLAS_NUM_THREADS=threads),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_band_shape_is_one_square_or_near_equal_bands(monkeypatch, rng):
    # R = S exactly when one (S, S) fits in 4 MiB (S <= 724). Above that R is never
    # more than the fewest near-equal bands of at most 4 MiB give (one row if a row is
    # larger), and exactly that for d_h <= 4; the smallest band's weighted sum keeps
    # more than 10^6 multiply-adds, past which OpenBLAS rounds a band as the whole
    # product, wherever those 4 MiB bands' did, and no band is cut below 128 rows
    for s in (1, 152, 257, 724, 725, 1032, 2056, 4104, 100_003):
        count = -(-s // max(1, _BAND_BYTES // (s * 8)))
        rows, smallest = -(-s // count), s // count
        for d_h in (2, 4, 8, 16, 32, 64):
            r, n = _band_shape(s, d_h)
            assert n == s and (r == s) == (s * s * 8 <= _BAND_BYTES)
            assert r <= rows and (r == rows or d_h > 4), (s, d_h)
            sizes = [hi - lo for lo, hi in _bands(s, d_h)]
            assert min(sizes) >= min(smallest, 128), (s, d_h)
            if smallest * s * d_h > 10**6:
                assert min(sizes) * s * d_h > 10**6, (s, d_h)
    assert _band_shape(1032, 16) == (129, 1032) and _band_shape(2056, 16) == (129, 2056)
    # above 4,096 tokens a 4 MiB band has under 128 rows, so the 4 MiB rule's rows stay
    assert _band_shape(4104, 16) == (125, 4104) and _band_shape(600_000, 16) == (1, 600_000)
    # the bands _attend runs differ by at most one row, the largest _band_shape's R
    seen = []

    def record(w):
        seen.append(w.shape)
        return _softmax_rows(w)

    monkeypatch.setattr(attention, "_softmax_rows", record)
    for s, h, d_h in ((725, 1, 2), (1032, 2, 2), (1032, 2, 16), (2056, 1, 16), (4104, 1, 16)):
        seen.clear()
        r = _band_shape(s, d_h)[0]
        q, k, v = rng.standard_normal((3, s, h, d_h))
        _attend(q, k, v, np.empty(q.shape))
        sizes = [rows for rows, _ in seen]
        assert len(seen) == h * -(-s // r)
        assert sum(sizes) == h * s and max(sizes) == r
        assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("img_tokens", [717, 1091])
def test_attention_weights_are_the_weights_behind_the_output(monkeypatch, img_tokens):
    # at 8 + 717 and 8 + 1,091 tokens the query rows run in bands that OpenBLAS
    # rounds unlike the whole head: attend's attention.csv must hold the weights
    # each band summed, bit for bit, and each band's weights times V its output rows
    stack = ToyStack.seeded(42, layers=1, steps=1, dim=64, heads=4)
    batch = seeded_batch(42, txt_tokens=8, img_tokens=img_tokens, dim=64)
    guided = apply_dcag(project_qkv(batch, stack.layers[0]), GuidanceConfig())
    s, h, dh = guided.q.shape
    bands = []

    def record(w):
        bands.append(_softmax_rows(w).copy())
        return w

    monkeypatch.setattr(attention, "_softmax_rows", record)
    out = joint_attention(guided).reshape(s, h, dh)
    monkeypatch.undo()
    weights = attention_weights(guided)
    head = lo = 0
    for w in bands:  # each head's bands in order, query rows lo:hi
        hi = lo + w.shape[0]
        assert np.array_equal(bits(w), bits(weights[head, lo:hi])), (head, lo)
        assert np.array_equal(bits(w @ guided.v[:, head]), bits(out[lo:hi, head])), (head, lo)
        head, lo = (head + 1, 0) if hi == s else (head, hi)
    assert head == h and len(bands) > h
