import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcag import (
    ConfigError,
    GuidanceConfig,
    JointQKV,
    LayerWeights,
    StreamBatch,
    ToyStack,
    apply_dcag,
    attention_weights,
    decompose,
    guided_attention,
    joint_attention,
    load_config,
    parse_config,
    project_qkv,
    rescale,
    rope,
    run_stack,
    seeded_batch,
)
from dcag.guidance import _decompose, _guide, _rescale
from conftest import bits
from oracles import closed_form_attention, key_only_forward, naive_attention


def make_batch(rng, s_t=4, s_i=12, dim=16):
    return StreamBatch(txt=rng.standard_normal((s_t, dim)), img=rng.standard_normal((s_i, dim)))


def make_weights(rng, dim=16, heads=2):
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


class TestDecompose:
    def test_identical_tokens_have_zero_delta(self):
        token = np.array([[1.5, -2.0, 0.25]]).reshape(1, 1, 3)
        block = np.repeat(token, 4, axis=0)
        bd = decompose(block)
        assert np.array_equal(bd.bias[0], token[0])
        assert np.all(bd.delta == 0.0)

    def test_two_token_hand_case(self):
        block = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        bd = decompose(block)
        assert np.array_equal(bd.bias, np.array([[[0.5, 0.5]]]))
        assert np.array_equal(bd.delta, np.array([[[0.5, -0.5]], [[-0.5, 0.5]]]))

    def test_reconstruct_is_bitwise(self, rng):
        block = rng.standard_normal((32, 4, 8))
        assert np.array_equal(decompose(block).reconstruct(), block)

    def test_per_head_delta_mean_is_zero(self, rng):
        bd = decompose(rng.standard_normal((64, 4, 16)))
        assert np.max(np.abs(bd.delta.mean(axis=0))) <= 1e-12

    @given(
        block=arrays(
            np.float64,
            (16, 2, 4),
            elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        )
    )
    def test_reconstruction_exact_for_arbitrary_blocks(self, block):
        bd = decompose(block)
        assert np.array_equal(bd.reconstruct(), block)
        assert np.array_equal(rescale(bd, 1.0), block)

    def test_single_token_decomposes_to_itself(self, rng):
        block = rng.standard_normal((1, 2, 4))
        bd = decompose(block)
        assert np.array_equal(bd.bias, block)
        assert np.all(bd.delta == 0.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty token range"):
            decompose(np.zeros((0, 2, 4)))


class TestRescale:
    def test_identity_scales_reconstruct_bitwise(self, rng):
        block = rng.standard_normal((24, 2, 8))
        assert np.array_equal(rescale(decompose(block), 1.0), block)

    def test_zero_delta_scale_collapses_to_bias(self, rng):
        bd = decompose(rng.standard_normal((10, 2, 4)))
        out = rescale(bd, 0.0)
        assert np.array_equal(out, np.broadcast_to(bd.bias, out.shape))

    def test_hand_case_delta_two(self):
        block = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        out = rescale(decompose(block), 2.0)
        assert np.array_equal(out, np.array([[[1.5, -0.5]], [[-0.5, 1.5]]]))

    @pytest.mark.parametrize("scale, expected", [
        (0.0, [[[0.5, 0.5]], [[0.5, 0.5]]]),
        (1.0, [[[1.0, 0.0]], [[0.0, 1.0]]]),
    ], ids=["zero", "one"])
    def test_hand_case_delta_zero_and_one(self, scale, expected):
        # the block of test_hand_case_delta_two: bias (0.5, 0.5), deltas +-(0.5, -0.5)
        out = rescale(decompose(np.array([[[1.0, 0.0]], [[0.0, 1.0]]])), scale)
        assert np.array_equal(bits(out), bits(np.array(expected)))

    def test_rejects_bad_scales(self, rng):
        bd = decompose(rng.standard_normal((4, 1, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            rescale(bd, -0.5)
        with pytest.raises(ValueError, match="finite"):
            rescale(bd, np.inf)

    def test_identity_turns_negative_zero_positive(self):
        # the bias of [-0.0, 0.0] is +0.0, and +0.0 + -0.0 is +0.0
        block = np.array([[[-0.0, 1.0]], [[0.0, -1.0]]])
        for out in (rescale(decompose(block), 1.0), decompose(block).reconstruct()):
            assert np.array_equal(out, block)
            assert list(np.signbit(out).ravel()) == [False, False, False, True]

    def test_overflowing_deviations_raise(self):
        # finite tokens whose first deviation from the mean, 1.7e308 + 5.7e307, overflows
        block = np.array([[[1.7e308]], [[-1.7e308]], [[-1.7e308]]])
        with pytest.raises(ValueError, match="delta contains non-finite values"):
            rescale(decompose(block), 1.0)

    def test_leaves_its_decomposition_untouched(self, rng):
        # the kernel spends the delta and residual it is given; rescale gives it copies
        bd = decompose(rng.standard_normal((12, 2, 4)) * 10.0 ** rng.integers(-4, 5, (12, 2, 4)))
        fields = [bits(x).copy() for x in (bd.bias, bd.delta, bd.delta_residual)]
        first = rescale(bd, 1.3)
        for x, before in zip((bd.bias, bd.delta, bd.delta_residual), fields):
            assert np.array_equal(bits(x), before)
        assert np.array_equal(bits(rescale(bd, 1.3)), bits(first))


class TestGuidanceConfig:
    def test_identity_classmethod(self):
        cfg = GuidanceConfig.identity()
        assert (cfg.delta_k, cfg.delta_v) == (1.0, 1.0)

    def test_defaults_are_recommended_point(self):
        assert dataclasses.astuple(GuidanceConfig()) == (1.10, 1.15)

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigError, match="non-negative"):
            GuidanceConfig(delta_k=-1.0)

    @pytest.mark.parametrize("value", ["1.5", True, np.bool_(False), np.array([1.2]),
                                       np.array(1.2), None, [1.2], 1 + 0j, np.complex128(1),
                                       pytest.param(2 ** 1100, id="2**1100"),
                                       pytest.param(10 ** 400, id="10**400")])
    def test_scales_must_be_real_numbers(self, rng, value):
        # float() used to turn '1.5' into 1.5 and True into 1.0, and to raise a
        # TypeError on None or a complex; math.isfinite raised an OverflowError on
        # an int beyond float range; every one is the one-line error instead
        message = f"must be finite and non-negative, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match="^delta_k " + message):
            GuidanceConfig(delta_k=value)
        with pytest.raises(ConfigError, match="^delta_v " + message):
            GuidanceConfig(delta_v=value)
        with pytest.raises(ValueError, match="^delta_scale " + message):
            rescale(decompose(rng.standard_normal((4, 1, 2))), value)

    def test_scales_accept_python_and_numpy_reals(self):
        for value in (2, 1.5, np.int64(2), np.float32(1.5), np.float64(0.0)):
            cfg = GuidanceConfig(delta_k=value, delta_v=value)
            assert cfg.delta_k == float(value) and type(cfg.delta_k) is float
            assert type(cfg.delta_v) is float

    def test_roundtrip_through_text(self):
        text = "delta_k = 1.3\ndelta_v = 0.90000000000000002\n"
        assert parse_config(text) == GuidanceConfig(delta_k=1.3, delta_v=0.9)

    def test_parse_defaults_and_comments(self):
        text = "# comment only\ndelta_k = 1.2\n\ndelta_v = 0.5 # trailing\n"
        cfg = parse_config(text)
        assert cfg.delta_k == 1.2
        assert cfg.delta_v == 0.5
        assert parse_config("delta_k = 1.2\n").delta_v == 1.15

    def test_parse_errors(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'token_range'"):
            parse_config("token_range = 4:16\n")  # the guided rows come from the batch
        # the bias is never rescaled, and every layer is guided
        for key in ("lambda_k", "lambda_v", "guided_layers"):
            with pytest.raises(ConfigError, match=f"^line 2: unknown key '{key}'$"):
                parse_config(f"delta_k = 1.1\n{key} = 1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("delta_k = 1\ndelta_k = 2\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("delta_k 1.1\n")
        with pytest.raises(ConfigError, match="delta_k must be a number"):
            parse_config("delta_k = abc\n")
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config("delta_v = -1\n")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "guidance.cfg"
        path.write_text("delta_k = 1.1000000000000001\ndelta_v = 1.1499999999999999\n")
        assert load_config(path) == GuidanceConfig()

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(missing)


class TestApplyDcag:
    def test_identity_config_is_bitwise_noop(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        out = apply_dcag(qkv, GuidanceConfig.identity())
        assert np.array_equal(out.q, qkv.q)
        assert np.array_equal(out.k, qkv.k)
        assert np.array_equal(out.v, qkv.v)

    def test_key_only_leaves_v_bitwise(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        cfg = GuidanceConfig(delta_k=1.1, delta_v=1.0)
        out = apply_dcag(qkv, cfg)
        assert np.array_equal(out.v, qkv.v)
        assert not np.array_equal(out.k, qkv.k)

    def test_text_rows_and_q_pass_through(self, rng):
        qkv = make_qkv(rng, 5, 9, 2, 8)
        cfg = GuidanceConfig(delta_k=1.3, delta_v=1.4)
        out = apply_dcag(qkv, cfg)
        i_s = qkv.img_range[0]
        assert np.array_equal(out.q, qkv.q)
        assert np.array_equal(out.k[:i_s], qkv.k[:i_s])
        assert np.array_equal(out.v[:i_s], qkv.v[:i_s])

    @pytest.mark.parametrize("s_t", [1, 8])
    def test_one_config_guides_the_image_rows_of_any_batch(self, s_t):
        # the config names no token range: each batch's text count places its image rows
        cfg = GuidanceConfig(delta_k=1.1, delta_v=1.15)
        stack = ToyStack.seeded(7, layers=1, steps=1, dim=16, heads=2)
        batch = seeded_batch(7, txt_tokens=s_t, img_tokens=9, dim=16)
        seen = []
        run_stack(stack, batch, cfg, tap=lambda layer, step, *qkv: seen.extend(
            [[x.copy() for x in qkv], qkv]))
        # the one cell's views show its guided K and V once the run is over
        (q, k, v), (_, k_run, v_run) = seen
        out = apply_dcag(JointQKV(q=q, k=k, v=v, img_range=(s_t, s_t + 9)), cfg)
        for before, after in ((k, out.k), (v, out.v), (k, k_run), (v, v_run)):
            assert np.array_equal(bits(after[:s_t]), bits(before[:s_t]))
            assert np.all(np.any(after[s_t:] != before[s_t:], axis=(1, 2)))
        assert np.array_equal(bits(k_run), bits(out.k))
        assert np.array_equal(bits(v_run), bits(out.v))

    def test_two_token_closed_form(self, rng):
        # delta_k = 1 keeps the weights of the unmodified K; the output is
        # then sum_j alpha_j * (bias + 2 * delta_j) over the image tokens.
        qkv = make_qkv(rng, 1, 2, 1, 4)
        cfg = GuidanceConfig(delta_k=1.0, delta_v=2.0)
        result = joint_attention(apply_dcag(qkv, cfg))
        alpha = attention_weights(qkv)[0]  # unmodified K, (3, 3)
        v_img = qkv.v[1:, 0]
        bias = v_img.mean(axis=0)
        v_hat = np.vstack([qkv.v[0, 0], bias + 2.0 * (v_img[0] - bias), bias + 2.0 * (v_img[1] - bias)])
        expected = alpha @ v_hat
        assert np.max(np.abs(result - expected)) <= 1e-12

    def test_copies_only_k_and_v(self):
        # q passes through shared; k and v are copied once, then frozen in place
        w = ToyStack.seeded(42, layers=1, steps=1, dim=64, heads=4).layers[0]
        qkv = project_qkv(seeded_batch(42, txt_tokens=8, img_tokens=576, dim=64), w)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = apply_dcag(qkv, GuidanceConfig.identity())
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # two (S, D) blocks, one (S, D) isfinite mask and 16 KiB of slack; the
        # guidance kernels' own temporaries do not run at identity scales
        s, d = 8 + 576, 64
        assert peak < 2 * s * d * 8 + s * d + 16 * 1024
        assert out.q is qkv.q
        assert not out.k.flags.writeable and not out.v.flags.writeable
        assert not np.shares_memory(out.k, qkv.k) and not np.shares_memory(out.v, qkv.v)


class TestGuideKernel:
    # both channels skipped, K only guided, V only guided, both guided
    CONFIGS = [(1.0, 1.0), (1.3, 1.0), (1.0, 1.3), (1.1, 1.2)]

    @pytest.mark.parametrize("dk, dv", CONFIGS)
    def test_identity_channel_keeps_its_bytes(self, rng, dk, dv):
        # including a -0.0, which a compensated rescale at delta = 1 turns into +0.0
        k, v = rng.standard_normal((2, 20, 2, 8))
        k[6, 0, 0] = v[6, 0, 0] = -0.0
        k0, v0 = k.copy(), v.copy()
        _guide(k, v, 4, GuidanceConfig(dk, dv))
        assert (k.tobytes() == k0.tobytes()) == (dk == 1.0)
        assert (v.tobytes() == v0.tobytes()) == (dv == 1.0)

    @pytest.mark.parametrize("dk, dv", CONFIGS)
    def test_matches_unskipped_rescale_bitwise(self, rng, dk, dv):
        k, v = rng.standard_normal((2, 20, 2, 8)) * 10.0 ** rng.integers(-4, 5, (2, 20, 2, 8))
        expected_k, expected_v = k.copy(), v.copy()
        expected_k[4:] = _rescale(*_decompose(k[4:]), dk)
        expected_v[4:] = _rescale(*_decompose(v[4:]), dv)
        _guide(k, v, 4, GuidanceConfig(dk, dv))
        assert np.array_equal(bits(k), bits(expected_k))
        assert np.array_equal(bits(v), bits(expected_v))

    @pytest.mark.parametrize("dk, dv", CONFIGS)
    def test_guided_channel_peaks_at_four_blocks(self, rng, dk, dv):
        # _rescale writes into the rows it decomposed: a guided channel holds its delta
        # and residual, then the compensation's two (S_i, H, d_h) temporaries. A channel
        # at scale 1 allocates nothing.
        s_t, s_i, heads, dh = 8, 576, 4, 16
        k, v = rng.standard_normal((2, s_t + s_i, heads, dh))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _guide(k, v, s_t, GuidanceConfig(dk, dv))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        block = s_i * heads * dh * 8
        assert peak <= (1024 if (dk, dv) == (1.0, 1.0) else 4.25 * block)


class TestGuidedAttention:
    def test_identity_equals_unguided_bitwise(self, rng):
        batch = make_batch(rng)
        w = make_weights(rng)
        plain = joint_attention(project_qkv(batch, w))
        guided = guided_attention(batch, w, GuidanceConfig.identity())
        assert np.array_equal(plain, guided)

    def test_value_channel_leaves_weights_bitwise(self, rng):
        batch = make_batch(rng)
        w = make_weights(rng)
        qkv = project_qkv(batch, w)
        base_weights = attention_weights(
            apply_dcag(qkv, GuidanceConfig(delta_k=1.0, delta_v=1.0)))
        for dv in (0.5, 1.3, 2.0, 3.0):
            weights = attention_weights(
                apply_dcag(qkv, GuidanceConfig(delta_k=1.0, delta_v=dv)))
            assert np.array_equal(weights, base_weights)

    def test_key_channel_leaves_v_bitwise(self, rng):
        qkv = project_qkv(make_batch(rng), make_weights(rng))
        outs = [
            apply_dcag(qkv, GuidanceConfig(delta_k=dk, delta_v=1.3)).v
            for dk in (0.7, 1.0, 1.1, 1.9)
        ]
        for v in outs[1:]:
            assert np.array_equal(v, outs[0])

    def test_key_only_matches_independent_reimplementation(self, rng):
        batch = make_batch(rng, s_t=3, s_i=10, dim=16)
        w = make_weights(rng, dim=16, heads=2)
        for dk in (1.05, 1.10, 1.20):
            mine = guided_attention(batch, w, GuidanceConfig(delta_k=dk, delta_v=1.0))
            ref = np.concatenate(key_only_forward(batch, w, dk))
            assert np.max(np.abs(mine - ref)) <= 1e-12


class TestAnalyticalInvariants:
    def test_logit_differences_scale_by_delta_k(self, rng):
        qkv = make_qkv(rng, 6, 18, 2, 8)
        i_s, i_e = qkv.img_range
        delta_k = 1.4
        guided = apply_dcag(qkv, GuidanceConfig(delta_k=delta_k, delta_v=1.0))
        scale = 1.0 / np.sqrt(qkv.q.shape[2])
        pre = (qkv.q.transpose(1, 0, 2) @ qkv.k.transpose(1, 2, 0)) * scale
        post = (guided.q.transpose(1, 0, 2) @ guided.k.transpose(1, 2, 0)) * scale
        pre_diff = pre[:, :, i_s:i_e, None] - pre[:, :, None, i_s:i_e]
        post_diff = post[:, :, i_s:i_e, None] - post[:, :, None, i_s:i_e]
        target = delta_k * pre_diff
        assert np.max(np.abs(post_diff - target)) <= 1e-10 * max(1.0, float(np.max(np.abs(target))))

    def test_output_affine_in_delta_v(self, rng):
        batch = make_batch(rng, s_t=4, s_i=16, dim=16)
        w = make_weights(rng, dim=16, heads=2)

        def out(dv):
            return guided_attention(batch, w, GuidanceConfig(delta_k=1.0, delta_v=dv))

        o0, o1 = out(0.0), out(1.0)
        step = o1 - o0
        scale = max(1.0, float(np.max(np.abs(o1))))
        for dv in (0.5, 1.5, 2.0, 3.0):
            assert np.max(np.abs(out(dv) - (o0 + dv * step))) <= 1e-10 * scale
        # equal spacing: o(2) - o(1) == o(1) - o(0)
        assert np.max(np.abs((out(2.0) - o1) - step)) <= 1e-10 * scale


class TestClosedFormOracle:
    """guided_attention against the paper's two laws, written the slow way in oracles.py."""

    GRID = (0.0, 1.0, 1.1, 2.5, 1e3)
    # relative; the worst point of GRID reads 1.8e-13, at (0, 1e3): equal image logits
    # give equal weights, under which the 1e3-scaled V deviations cancel
    TOLERANCE = 1e-10

    def test_guided_attention_matches_over_a_grid(self, rng):
        batch = make_batch(rng, s_t=3, s_i=10, dim=16)
        w = make_weights(rng, dim=16, heads=2)
        qkv = project_qkv(batch, w)
        for dk in self.GRID:
            for dv in self.GRID:
                ref, _ = closed_form_attention(qkv.q, qkv.k, qkv.v, qkv.img_range[0], dk, dv)
                mine = guided_attention(batch, w, GuidanceConfig(delta_k=dk, delta_v=dv))
                scale = max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(mine - ref)) <= self.TOLERANCE * scale

    def test_a_scale_of_one_adds_exactly_zero(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        q, k, v, i_s = qkv.q, qkv.k, qkv.v, qkv.img_range[0]
        plain_merged, plain_weights = naive_attention(q, k, v)
        for dv in self.GRID:  # the K term is zero at delta_k = 1
            _, weights = closed_form_attention(q, k, v, i_s, 1.0, dv)
            assert np.array_equal(weights, plain_weights)
        assert np.array_equal(closed_form_attention(q, k, v, i_s, 1.0, 1.0)[0], plain_merged)
        for dk in self.GRID:  # the V term is zero at delta_v = 1: out is W'V, in the same order
            merged, weights = closed_form_attention(q, k, v, i_s, dk, 1.0)
            for head in range(2):
                for i in range(q.shape[0]):
                    acc = np.zeros(8)
                    for j in range(q.shape[0]):
                        acc += weights[head, i, j] * v[j, head]
                    assert np.array_equal(merged[i, head * 8:(head + 1) * 8], acc)

    def test_a_guide_before_rope_fails_it(self, rng):
        batch = make_batch(rng, s_t=3, s_i=10, dim=16)
        w = make_weights(rng, dim=16, heads=2)
        qkv = project_qkv(batch, w)
        i_s, s = qkv.img_range
        positions = np.arange(s)
        proj = np.concatenate([batch.txt @ w.txt_wqkv, batch.img @ w.img_wqkv]).reshape(s, 3, 2, 8)
        k = proj[:, 1].copy()
        k[i_s:] = rescale(decompose(k[i_s:]), 1.5)  # the mean of unrotated keys
        early = JointQKV(q=rope(proj[:, 0], positions), k=rope(k, positions), v=proj[:, 2],
                         img_range=(i_s, s))
        ref, _ = closed_form_attention(qkv.q, qkv.k, qkv.v, i_s, 1.5, 1.0)
        scale = max(1.0, np.max(np.abs(ref)))
        on_time = joint_attention(apply_dcag(qkv, GuidanceConfig(delta_k=1.5, delta_v=1.0)))
        assert np.max(np.abs(on_time - ref)) <= self.TOLERANCE * scale
        assert np.max(np.abs(joint_attention(early) - ref)) > 1e-3 * scale  # reads 0.12
