import dataclasses
import tracemalloc

import numpy as np
import pytest

from dcag import (
    DegenerateInputError,
    GuidanceConfig,
    JointQKV,
    PSNR_CAP_DB,
    ShapeError,
    StreamBatch,
    ToyStack,
    apply_dcag,
    decompose,
    guided_attention,
    joint_attention,
    project_qkv,
    render_tokens,
    rescale,
    run_stack,
    seeded_batch,
    sweep,
    sweep_csv,
    token_grid,
)
import dcag.harness
from dcag.attention import _group_buffer
from dcag.metrics import mse, psnr, ssim
from dcag.tensors import _SOFTMAX_BLOCK_BYTES
from conftest import bits

DIM = 16
HEADS = 2
TXT = 4
IMG = 121  # 11x11 rendering, the smallest ssim can accept


@pytest.fixture(scope="module")
def stack():
    return ToyStack.seeded(9, layers=2, steps=2, dim=DIM, heads=HEADS)


@pytest.fixture(scope="module")
def batch():
    return seeded_batch(9, txt_tokens=TXT, img_tokens=IMG, dim=DIM)


class TestToyStack:
    def test_equal_parameters_build_bitwise_equal_stacks(self):
        a = ToyStack.seeded(7, layers=3, steps=2, dim=8, heads=2)
        b = ToyStack.seeded(7, layers=3, steps=2, dim=8, heads=2)
        for wa, wb in zip(a.layers, b.layers):
            assert np.array_equal(wa.txt_wq, wb.txt_wq)
            assert np.array_equal(wa.img_wv, wb.img_wv)
        assert np.array_equal(a.step_embedding(1), b.step_embedding(1))

    def test_embeddings_are_the_step_draws_read_only(self):
        stack = ToyStack.seeded(7, layers=1, steps=4, dim=8, heads=2)
        assert stack.embeddings.shape == (4, 8)
        for t in range(4):
            assert np.array_equal(bits(stack.embeddings[t]), bits(stack.step_embedding(t)))
        with pytest.raises(ValueError):
            stack.embeddings[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.seed = 8  # the embeddings could not follow it

    def test_layers_get_distinct_weights(self):
        stack = ToyStack.seeded(7, layers=2, steps=1, dim=8, heads=2)
        assert not np.array_equal(stack.layers[0].txt_wq, stack.layers[1].txt_wq)

    def test_weight_scale(self):
        stack = ToyStack.seeded(7, layers=1, steps=1, dim=64, heads=4)
        assert stack.layers[0].txt_wq.std() == pytest.approx(1.0 / 8.0, rel=0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ToyStack.seeded(-1, layers=1, steps=1, dim=8, heads=2)

    @pytest.mark.parametrize("layers", [0, 1])
    def test_zero_dim_rejected(self, layers):
        with pytest.raises(ValueError, match="dim must be positive"):
            ToyStack.seeded(42, layers=layers, steps=1, dim=0, heads=1)

    @pytest.mark.parametrize("layers", [0, 1])
    def test_zero_heads_rejected(self, layers):
        with pytest.raises(ValueError, match="heads must be positive"):
            ToyStack.seeded(42, layers=layers, steps=1, dim=8, heads=0)

    def test_negative_layer_count_rejected(self):
        with pytest.raises(ValueError, match="layer count must be non-negative"):
            ToyStack.seeded(42, layers=-1, steps=1, dim=8, heads=2)

    def test_constructor_validates_dims_and_steps(self):
        layer = ToyStack.seeded(42, layers=1, steps=1, dim=8, heads=2).layers[0]
        with pytest.raises(ValueError, match="dim must be positive"):
            ToyStack(layers=(), seed=1, dim=0, step_count=1)
        with pytest.raises(ValueError, match="step_count must be positive"):
            ToyStack(layers=(), seed=1, dim=8, step_count=0)
        with pytest.raises(ShapeError, match="layer 0 has dim 8"):
            ToyStack(layers=(layer,), seed=1, dim=16, step_count=1)


class TestRunStack:
    def test_identity_config_equals_no_guidance_bitwise(self, stack, batch):
        unguided = run_stack(stack, batch, None)
        identity = run_stack(stack, batch, GuidanceConfig.identity())
        assert np.array_equal(unguided, identity)

    def test_fixed_seed_runs_are_bitwise_identical(self, stack, batch):
        cfg = GuidanceConfig(delta_k=1.1, delta_v=1.15)
        assert np.array_equal(run_stack(stack, batch, cfg), run_stack(stack, batch, cfg))

    def test_empty_stack_accumulates_step_embeddings(self, batch):
        stack = ToyStack(layers=(), seed=9, dim=DIM, step_count=3)
        out = run_stack(stack, batch, None)
        expected = np.array(batch.img)
        for t in range(3):
            expected = expected + stack.step_embedding(t)
        assert np.array_equal(out, expected)

    def test_layer_gating_via_guided_layers(self, stack, batch):
        everywhere = GuidanceConfig(delta_k=1.2, delta_v=1.0)
        nowhere = GuidanceConfig(delta_k=1.2, delta_v=1.0, guided_layers=(99,))
        gated = GuidanceConfig(delta_k=1.2, delta_v=1.0, guided_layers=(0,))
        out_all = run_stack(stack, batch, everywhere)
        out_none = run_stack(stack, batch, nowhere)
        out_gated = run_stack(stack, batch, gated)
        assert np.array_equal(out_none, run_stack(stack, batch, None))
        assert not np.array_equal(out_all, out_none)
        assert not np.array_equal(out_gated, out_all)
        assert not np.array_equal(out_gated, out_none)

    def test_tap_sees_pre_guidance_blocks(self, stack, batch):
        cfg = GuidanceConfig(delta_k=2.0, delta_v=2.0)
        seen = []
        guided_seen = []

        def tap(layer, step, q, k, v):
            seen.append((step, layer))
            guided_seen.append(k[TXT:].copy())

        run_stack(stack, batch, cfg, tap=tap)
        assert seen[:3] == [(0, 0), (0, 1), (1, 0)]
        # first tap equals the projection of the raw input, untouched by guidance
        first = project_qkv(
            StreamBatch(txt=batch.txt, img=batch.img + stack.step_embedding(0)),
            stack.layers[0],
        )
        assert np.array_equal(guided_seen[0], first.k[TXT:TXT + IMG])

    def test_tap_views_are_read_only(self, stack, batch):
        # the tap reads the projection buffer the loop guides in place, not a copy
        cfg = GuidanceConfig(delta_k=2.0, delta_v=2.0)
        shapes = []

        def tap(layer, step, q, k, v):
            for block in (q, k, v):
                assert not block.flags.writeable
                assert not block.flags.owndata
                shapes.append(block.shape)
                with pytest.raises(ValueError, match="read-only"):
                    block[TXT, 0, 0] = 0.0

        out = run_stack(stack, batch, cfg, tap=tap)
        assert shapes == [(TXT + IMG, HEADS, DIM // HEADS)] * (3 * 2 * 2)
        assert np.array_equal(out, run_stack(stack, batch, cfg))

    def test_every_tap_matches_public_stage_composition(self, stack, batch):
        # the stack loop must hand each tap exactly what project_qkv returns
        # for the running state, and must guide and attend like the public stages
        cfg = GuidanceConfig(delta_k=1.3, delta_v=0.7, guided_layers=(1,))
        seen = []
        out = run_stack(stack, batch, cfg,
                        tap=lambda layer, step, *qkv: seen.append([x.copy() for x in qkv]))

        txt = np.array(batch.txt)
        img = np.array(batch.img)
        expected = []
        for t in range(stack.step_count):
            img = img + stack.step_embedding(t)
            for layer, weights in enumerate(stack.layers):
                qkv = project_qkv(StreamBatch(txt=txt, img=img), weights)
                expected.append(qkv)
                if cfg.applies_to(layer):
                    qkv = apply_dcag(qkv, cfg)
                step_out = joint_attention(qkv)
                txt = txt + step_out.txt
                img = img + step_out.img

        assert len(seen) == len(expected) == stack.step_count * len(stack.layers)
        for got, want in zip(seen, expected):
            assert want.img_range == (TXT, TXT + IMG)  # the image rows the tap is told of
            for block, name in zip(got, ("q", "k", "v")):
                assert block.shape == getattr(want, name).shape
                assert np.array_equal(block, getattr(want, name))
        assert np.array_equal(out, img)

    def test_dim_mismatch(self, stack):
        with pytest.raises(ShapeError, match="hidden dimension"):
            run_stack(stack, seeded_batch(1, txt_tokens=2, img_tokens=4, dim=8))


class TestRendering:
    def test_square_grid_and_range(self, rng):
        block = rng.standard_normal((121, 5))
        grid = token_grid(block)
        assert grid.shape == (11, 11)
        image = render_tokens(block, float(grid.min()), float(grid.max()))
        assert image.min() == 0.0 and image.max() == 1.0

    def test_clipping_against_foreign_range(self, rng):
        block = rng.standard_normal((9, 3)) * 10.0
        image = render_tokens(block, -0.5, 0.5)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_non_square_token_count_rejected(self, rng):
        with pytest.raises(ShapeError, match="perfect square"):
            token_grid(rng.standard_normal((12, 4)))

    def test_empty_range_rejected(self, rng):
        with pytest.raises(DegenerateInputError, match="empty"):
            render_tokens(rng.standard_normal((9, 3)), 1.0, 1.0)


class TestSweep:
    def test_grid_order_and_size(self, stack, batch):
        result = sweep(stack, batch, [1.0, 1.1, 1.2], [1.0, 1.05, 1.1])
        assert len(result.records) == 9
        assert [(r.delta_k, r.delta_v) for r in result.records[:4]] == [
            (1.0, 1.0), (1.0, 1.05), (1.0, 1.1), (1.1, 1.0),
        ]

    def test_identity_point_scores_perfectly(self, stack, batch):
        result = sweep(stack, batch, [1.0, 1.1], [1.0, 1.1])
        origin = result.records[0]
        assert origin.mse == 0.0
        assert origin.psnr == PSNR_CAP_DB
        assert origin.ssim == 1.0

    def test_key_only_column_matches_key_only_wiring_bitwise(self, stack, batch):
        # a separate stack loop that only ever touches K must reproduce the
        # delta_v = 1 column of the sweep exactly
        def key_only_output(delta_k):
            txt = np.array(batch.txt)
            img = np.array(batch.img)
            for t in range(stack.step_count):
                img = img + stack.step_embedding(t)
                for weights in stack.layers:
                    qkv = project_qkv(StreamBatch(txt=txt, img=img), weights)
                    i_s, i_e = qkv.img_range
                    k = np.array(qkv.k)
                    k[i_s:i_e] = rescale(decompose(k[i_s:i_e]), 1.0, delta_k)
                    out = joint_attention(JointQKV(q=qkv.q, k=k, v=qkv.v, img_range=qkv.img_range))
                    txt = txt + out.txt
                    img = img + out.img
            return img

        dks = [1.0, 1.1, 1.2]
        for dk in dks:
            cfg = GuidanceConfig(delta_k=dk, delta_v=1.0)
            assert np.array_equal(run_stack(stack, batch, cfg), key_only_output(dk))

    def test_csv_is_byte_stable(self, stack, batch):
        first = sweep_csv(sweep(stack, batch, [1.0, 1.1], [1.0, 1.1]))
        second = sweep_csv(sweep(stack, batch, [1.0, 1.1], [1.0, 1.1]))
        assert first.encode() == second.encode()
        lines = first.splitlines()
        assert lines[0] == "delta_k,delta_v,mse,psnr,ssim"
        assert len(lines) == 5

    def test_surface_shape(self, stack, batch):
        result = sweep(stack, batch, [1.0, 1.1, 1.2], [1.0, 1.05])
        assert result.surface("mse").shape == (3, 2)
        with pytest.raises(ValueError, match="unknown metric"):
            result.surface("sharpness")

    @pytest.mark.parametrize("dks, dvs", [
        ([1.0, 1.1, 1.2], [1.0, 1.05]),  # (1, 1) reuses the reference: 6 runs
        ([1.1, 1.2], [1.0, 1.05]),  # no (1, 1): the reference plus 4 runs
        ([1.0], [1.0]),
    ])
    def test_one_run_per_point_besides_the_reference(self, stack, batch, monkeypatch,
                                                     dks, dvs):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_stack(*args, **kwargs)

        monkeypatch.setattr(dcag.harness, "run_stack", counted)
        result = sweep(stack, batch, dks, dvs)
        monkeypatch.undo()
        points = len(dks) * len(dvs)
        assert len(calls) == (points if 1.0 in dks and 1.0 in dvs else points + 1)

        # the records of a loop that runs the stack once per point, bit for bit
        reference_block = run_stack(stack, batch, GuidanceConfig.identity())
        lo, hi = float(token_grid(reference_block).min()), float(token_grid(reference_block).max())
        reference = render_tokens(reference_block, lo, hi)
        expected = []
        for dk in dks:
            for dv in dvs:
                cfg = GuidanceConfig(delta_k=dk, delta_v=dv)
                image = render_tokens(run_stack(stack, batch, cfg), lo, hi)
                expected.append((dk, dv, mse(image, reference), psnr(image, reference),
                                 ssim(image, reference)))
        got = [(r.delta_k, r.delta_v, r.mse, r.psnr, r.ssim) for r in result.records]
        assert np.array_equal(bits(got), bits(expected))

    def test_empty_value_lists_rejected(self, stack, batch):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(stack, batch, [], [1.0])


def test_stack_attention_memory_is_one_square_buffer():
    # at 8 + 1,024 tokens a batched (H, S, S) logits tensor alone is 34 MB and
    # (S, S) is 8.5 MB, so heads run one at a time; at 8 + 144 two heads' (S, S)
    # fit in one softmax row block and share the buffer, which stays within it
    heads = 4
    for s_t, s_i in ((8, 1024), (8, 144)):
        stack = ToyStack.seeded(0, layers=1, steps=1, dim=64, heads=heads)
        batch = seeded_batch(0, txt_tokens=s_t, img_tokens=s_i, dim=64)
        qkv = project_qkv(batch, stack.layers[0])
        s = s_t + s_i
        cfg = GuidanceConfig()
        bound = max(s * s * 8, _SOFTMAX_BLOCK_BYTES)  # s * s * 8 at 1,032 tokens
        assert _group_buffer(s, heads).nbytes <= bound
        for attend in (lambda: run_stack(stack, batch), lambda: joint_attention(qkv),
                       lambda: guided_attention(batch, stack.layers[0], cfg)):
            tracemalloc.start()
            try:
                attend()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * bound
