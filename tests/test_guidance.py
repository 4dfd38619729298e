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
    apply_dcag,
    attention_weights,
    decompose,
    guided_attention,
    joint_attention,
    load_config,
    parse_config,
    project_qkv,
    rescale,
)
from oracles import key_only_forward


def make_batch(rng, s_t=4, s_i=12, dim=16):
    return StreamBatch(txt=rng.standard_normal((s_t, dim)), img=rng.standard_normal((s_i, dim)))


def make_weights(rng, dim=16, heads=2):
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
        assert np.array_equal(rescale(bd, 1.0, 1.0), block)

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
        assert np.array_equal(rescale(decompose(block), 1.0, 1.0), block)

    def test_zero_delta_scale_collapses_to_bias(self, rng):
        bd = decompose(rng.standard_normal((10, 2, 4)))
        out = rescale(bd, 1.0, 0.0)
        assert np.array_equal(out, np.broadcast_to(bd.bias, out.shape))

    def test_hand_case_delta_two(self):
        block = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        out = rescale(decompose(block), 1.0, 2.0)
        assert np.array_equal(out, np.array([[[1.5, -0.5]], [[-0.5, 1.5]]]))

    def test_rejects_bad_scales(self, rng):
        bd = decompose(rng.standard_normal((4, 1, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            rescale(bd, -0.5, 1.0)
        with pytest.raises(ValueError, match="finite"):
            rescale(bd, 1.0, np.inf)


class TestGuidanceConfig:
    def test_identity_classmethod(self):
        cfg = GuidanceConfig.identity((4, 20))
        assert (cfg.delta_k, cfg.delta_v, cfg.lambda_k, cfg.lambda_v) == (1.0, 1.0, 1.0, 1.0)

    def test_defaults_are_recommended_point(self):
        cfg = GuidanceConfig(token_range=(4, 20))
        assert cfg.delta_k == 1.10
        assert cfg.delta_v == 1.15
        assert cfg.lambda_k == cfg.lambda_v == 1.0

    def test_bad_token_range(self):
        with pytest.raises(ConfigError, match="token_range"):
            GuidanceConfig(token_range=(5, 5))

    def test_rejects_negative_scale(self):
        with pytest.raises(ConfigError, match="non-negative"):
            GuidanceConfig(token_range=(0, 4), delta_k=-1.0)

    def test_applies_to(self):
        assert GuidanceConfig(token_range=(0, 4)).applies_to(17)
        gated = GuidanceConfig(token_range=(0, 4), guided_layers=(0, 2))
        assert gated.applies_to(2)
        assert not gated.applies_to(1)

    def test_roundtrip_through_text(self):
        text = ("delta_k = 1.3\ndelta_v = 0.90000000000000002\nlambda_k = 1\n"
                "lambda_v = 1.05\ntoken_range = 8:72\nguided_layers = 3,1\n")
        assert parse_config(text) == GuidanceConfig(
            token_range=(8, 72), delta_k=1.3, delta_v=0.9,
            lambda_k=1.0, lambda_v=1.05, guided_layers=(3, 1))

    def test_parse_defaults_and_comments(self):
        text = "# comment only\ndelta_k = 1.2\n\ntoken_range = 0:6 # trailing\n"
        cfg = parse_config(text)
        assert cfg.delta_k == 1.2
        assert cfg.delta_v == 1.15
        assert cfg.token_range == (0, 6)
        assert cfg.guided_layers == frozenset()

    def test_parse_uses_default_token_range(self):
        cfg = parse_config("delta_k = 1.0\n", default_token_range=(2, 10))
        assert cfg.token_range == (2, 10)

    def test_parse_errors(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n", default_token_range=(0, 4))
        with pytest.raises(ConfigError, match="token_range"):
            parse_config("token_range = nonsense\n")
        with pytest.raises(ConfigError, match="missing token_range"):
            parse_config("delta_k = 1.1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("delta_k = 1\ndelta_k = 2\n", default_token_range=(0, 4))
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("delta_k 1.1\n", default_token_range=(0, 4))
        with pytest.raises(ConfigError, match="guided_layers must be 'all'"):
            parse_config("guided_layers = 1,x\n", default_token_range=(0, 4))
        with pytest.raises(ConfigError, match="delta_k must be a number"):
            parse_config("delta_k = abc\n", default_token_range=(0, 4))
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config("guided_layers = -1\n", default_token_range=(0, 4))

    @pytest.mark.parametrize("value", ["all", ""])
    def test_parse_all_layers(self, value):
        cfg = parse_config(f"guided_layers = {value}\n", default_token_range=(0, 4))
        assert cfg.guided_layers == frozenset()

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "guidance.cfg"
        path.write_text("delta_k = 1.1000000000000001\ndelta_v = 1.1499999999999999\n"
                        "token_range = 4:16\nguided_layers = 0\n")
        assert load_config(path) == GuidanceConfig(token_range=(4, 16), guided_layers=(0,))

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(missing)


class TestApplyDcag:
    def test_identity_config_is_bitwise_noop(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        out = apply_dcag(qkv, GuidanceConfig.identity(qkv.img_range))
        assert np.array_equal(out.q, qkv.q)
        assert np.array_equal(out.k, qkv.k)
        assert np.array_equal(out.v, qkv.v)

    def test_key_only_leaves_v_bitwise(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        cfg = GuidanceConfig(qkv.img_range, delta_k=1.1, delta_v=1.0)
        out = apply_dcag(qkv, cfg)
        assert np.array_equal(out.v, qkv.v)
        assert not np.array_equal(out.k, qkv.k)

    def test_text_rows_and_q_pass_through(self, rng):
        qkv = make_qkv(rng, 5, 9, 2, 8)
        cfg = GuidanceConfig(qkv.img_range, delta_k=1.3, delta_v=1.4)
        out = apply_dcag(qkv, cfg)
        i_s = qkv.img_range[0]
        assert np.array_equal(out.q, qkv.q)
        assert np.array_equal(out.k[:i_s], qkv.k[:i_s])
        assert np.array_equal(out.v[:i_s], qkv.v[:i_s])

    def test_range_mismatch_is_config_error(self, rng):
        qkv = make_qkv(rng, 4, 12, 2, 8)
        with pytest.raises(ConfigError, match="token_range"):
            apply_dcag(qkv, GuidanceConfig(token_range=(3, 16)))

    def test_two_token_closed_form(self, rng):
        # delta_k = 1 keeps the weights of the unmodified K; the output is
        # then sum_j alpha_j * (bias + 2 * delta_j) over the image tokens.
        qkv = make_qkv(rng, 1, 2, 1, 4)
        cfg = GuidanceConfig(qkv.img_range, delta_k=1.0, delta_v=2.0)
        result = joint_attention(apply_dcag(qkv, cfg))
        alpha = attention_weights(qkv)[0]  # unmodified K, (3, 3)
        v_img = qkv.v[1:, 0]
        bias = v_img.mean(axis=0)
        v_hat = np.vstack([qkv.v[0, 0], bias + 2.0 * (v_img[0] - bias), bias + 2.0 * (v_img[1] - bias)])
        expected = alpha @ v_hat
        merged = np.concatenate([result.txt, result.img])
        assert np.max(np.abs(merged - expected)) <= 1e-12


class TestGuidedAttention:
    def test_identity_equals_unguided_bitwise(self, rng):
        batch = make_batch(rng)
        w = make_weights(rng)
        plain = guided_attention(batch, w, None)
        guided = guided_attention(batch, w, GuidanceConfig.identity((4, 16)))
        assert np.array_equal(plain.txt, guided.txt)
        assert np.array_equal(plain.img, guided.img)

    def test_value_channel_leaves_weights_bitwise(self, rng):
        batch = make_batch(rng)
        w = make_weights(rng)
        qkv = project_qkv(batch, w)
        base_weights = attention_weights(
            apply_dcag(qkv, GuidanceConfig((4, 16), delta_k=1.0, delta_v=1.0)))
        for dv in (0.5, 1.3, 2.0, 3.0):
            weights = attention_weights(
                apply_dcag(qkv, GuidanceConfig((4, 16), delta_k=1.0, delta_v=dv)))
            assert np.array_equal(weights, base_weights)

    def test_key_channel_leaves_v_bitwise(self, rng):
        qkv = project_qkv(make_batch(rng), make_weights(rng))
        outs = [
            apply_dcag(qkv, GuidanceConfig((4, 16), delta_k=dk, delta_v=1.3)).v
            for dk in (0.7, 1.0, 1.1, 1.9)
        ]
        for v in outs[1:]:
            assert np.array_equal(v, outs[0])

    def test_key_only_matches_independent_reimplementation(self, rng):
        batch = make_batch(rng, s_t=3, s_i=10, dim=16)
        w = make_weights(rng, dim=16, heads=2)
        for dk in (1.05, 1.10, 1.20):
            mine = guided_attention(batch, w, GuidanceConfig((3, 13), delta_k=dk, delta_v=1.0))
            ref_txt, ref_img = key_only_forward(batch, w, dk)
            assert np.max(np.abs(mine.txt - ref_txt)) <= 1e-12
            assert np.max(np.abs(mine.img - ref_img)) <= 1e-12


class TestAnalyticalInvariants:
    def test_logit_differences_scale_by_delta_k(self, rng):
        qkv = make_qkv(rng, 6, 18, 2, 8)
        i_s, i_e = qkv.img_range
        delta_k = 1.4
        guided = apply_dcag(qkv, GuidanceConfig(qkv.img_range, delta_k=delta_k, delta_v=1.0))
        scale = 1.0 / np.sqrt(qkv.q.shape[2])
        pre = (qkv.q.transpose(1, 0, 2) @ qkv.k.transpose(1, 2, 0)) * scale
        post = (guided.q.transpose(1, 0, 2) @ guided.k.transpose(1, 2, 0)) * scale
        pre_diff = pre[:, :, i_s:i_e, None] - pre[:, :, None, i_s:i_e]
        post_diff = post[:, :, i_s:i_e, None] - post[:, :, None, i_s:i_e]
        target = delta_k * pre_diff
        assert np.max(np.abs(post_diff - target)) <= 1e-10 * max(1.0, float(np.max(np.abs(target))))

    def test_lambda_k_cancels_in_image_only_attention(self, rng):
        # with no text tokens the bias shift is uniform per query, so the
        # softmax removes it; in joint attention this does not hold
        qkv = make_qkv(rng, 0, 10, 2, 8)
        base = attention_weights(apply_dcag(qkv, GuidanceConfig((0, 10), delta_k=1.0, delta_v=1.0)))
        for lam in (0.5, 2.0, 5.0):
            cfg = GuidanceConfig((0, 10), delta_k=1.0, delta_v=1.0, lambda_k=lam)
            weights = attention_weights(apply_dcag(qkv, cfg))
            assert np.max(np.abs(weights - base)) <= 1e-12

    def test_output_affine_in_delta_v(self, rng):
        batch = make_batch(rng, s_t=4, s_i=16, dim=16)
        w = make_weights(rng, dim=16, heads=2)

        def out(dv):
            result = guided_attention(batch, w, GuidanceConfig((4, 20), delta_k=1.0, delta_v=dv))
            return np.concatenate([result.txt, result.img])

        o0, o1 = out(0.0), out(1.0)
        step = o1 - o0
        scale = max(1.0, float(np.max(np.abs(o1))))
        for dv in (0.5, 1.5, 2.0, 3.0):
            assert np.max(np.abs(out(dv) - (o0 + dv * step))) <= 1e-10 * scale
        # equal spacing: o(2) - o(1) == o(1) - o(0)
        assert np.max(np.abs((out(2.0) - o1) - step)) <= 1e-10 * scale
