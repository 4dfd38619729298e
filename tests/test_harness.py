import dataclasses
import tracemalloc

import numpy as np
import pytest

from dcag import (
    ConfigError,
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
from dcag.attention import _band_shape
from dcag.metrics import mse, psnr, ssim
from dcag.tensors import _SOFTMAX_BLOCK_BYTES
from conftest import bits
from oracles import closed_form_attention

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
            assert np.array_equal(bits(wa.txt_wqkv), bits(wb.txt_wqkv))
            assert np.array_equal(bits(wa.img_wqkv), bits(wb.img_wqkv))
        assert np.array_equal(bits(a.embeddings), bits(b.embeddings))

    def test_embeddings_are_the_step_draws_read_only(self):
        stack = ToyStack.seeded(7, layers=1, steps=4, dim=8, heads=2)
        assert stack.embeddings.shape == (4, 8)
        for t in range(4):  # step t draws from child seed (1, t) of the stack's seed
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, t)))
            assert np.array_equal(bits(stack.embeddings[t]), bits(rng.standard_normal(8)))
        with pytest.raises(ValueError):
            stack.embeddings[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.embeddings = np.zeros((4, 8))
        assert (stack.step_count, stack.dim) == (4, 8)
        assert [f.name for f in dataclasses.fields(stack)] == ["layers", "embeddings"]

    def test_embeddings_are_the_one_step_accessor(self):
        # a float step index is an error, not a truncated step
        stack = ToyStack.seeded(7, layers=1, steps=3, dim=8, heads=2)
        assert not hasattr(stack, "step_embedding")
        with pytest.raises(IndexError):
            stack.embeddings[1.9]

    def test_layers_get_distinct_weights(self):
        stack = ToyStack.seeded(7, layers=2, steps=1, dim=8, heads=2)
        assert not np.array_equal(stack.layers[0].txt_wqkv, stack.layers[1].txt_wqkv)

    def test_weight_scale(self):
        stack = ToyStack.seeded(7, layers=1, steps=1, dim=64, heads=4)
        assert stack.layers[0].txt_wqkv.std() == pytest.approx(1.0 / 8.0, rel=0.1)

    def test_layers_are_the_fused_weight_draws(self):
        # layer i draws [txt Wq, Wk, Wv, img Wq, Wk, Wv] as one (6, D, D) block from
        # child seed (0, i) of the stack's seed; each stream stores its three side by side
        stack = ToyStack.seeded(7, layers=2, steps=1, dim=8, heads=2)
        for i, w in enumerate(stack.layers):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0, i)))
            mats = (1.0 / np.sqrt(8)) * rng.standard_normal((6, 8, 8))
            assert np.array_equal(bits(w.txt_wqkv), bits(np.concatenate(mats[:3], axis=1)))
            assert np.array_equal(bits(w.img_wqkv), bits(np.concatenate(mats[3:], axis=1)))

    def test_build_peak_is_one_layer_draw_above_what_it_holds(self):
        # the (6, D, D) draw is dropped before LayerWeights copies its fused streams,
        # so building holds at most one layer's weights beyond the finished stack
        dim = 256
        ToyStack.seeded(42, layers=1, steps=1, dim=8, heads=4)  # one-time allocations
        tracemalloc.start()
        try:
            stack = ToyStack.seeded(42, layers=8, steps=6, dim=dim, heads=4)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= 8 * 6 * dim * dim * 8 and len(stack.layers) == 8
        assert peak <= held + 6 * dim * dim * 8 + 64 * 1024

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

    @pytest.mark.parametrize("layers", [0, 1])
    def test_zero_steps_rejected(self, layers):
        with pytest.raises(ValueError, match="steps must be positive"):
            ToyStack.seeded(42, layers=layers, steps=0, dim=8, heads=2)

    def test_negative_layer_count_rejected(self):
        with pytest.raises(ValueError, match="layer count must be non-negative"):
            ToyStack.seeded(42, layers=-1, steps=1, dim=8, heads=2)

    def test_constructor_validates_layers_against_each_other(self):
        # every layer has the embeddings' D and the first layer's head count
        layer = ToyStack.seeded(42, layers=1, steps=1, dim=8, heads=2).layers[0]
        wide = ToyStack.seeded(42, layers=1, steps=1, dim=16, heads=2).layers[0]
        four = ToyStack.seeded(42, layers=1, steps=1, dim=8, heads=4).layers[0]
        steps = np.zeros((2, 8))
        with pytest.raises(ShapeError, match="^layer 0 has dim 8 and 2 heads, stack expects dim 16"):
            ToyStack(layers=(layer,), embeddings=np.zeros((2, 16)))
        with pytest.raises(ShapeError, match="^layer 1 has dim 16 and 2 heads, stack expects dim 8"):
            ToyStack(layers=(layer, wide), embeddings=steps)
        with pytest.raises(ShapeError, match="^layer 2 has dim 8 and 4 heads, stack expects "
                                             "dim 8 and 2 heads$"):
            ToyStack(layers=[layer, layer, four], embeddings=steps)
        stack = ToyStack(layers=[four, four], embeddings=steps)
        assert stack.layers == (four, four) and (stack.dim, stack.step_count) == (8, 2)

    @pytest.mark.parametrize("embeddings, error", [
        (np.zeros(8), ShapeError), (np.zeros((1, 2, 8)), ShapeError), (np.zeros((0, 8)), ShapeError),
        (np.zeros((2, 0)), ShapeError), (np.array([[0.0, np.inf]]), ValueError),
        (np.array([[np.nan, 0.0]]), ValueError), (None, ValueError),
    ])
    def test_constructor_rejects_a_bad_embeddings_block(self, embeddings, error):
        with pytest.raises(error, match="embeddings"):
            ToyStack(layers=(), embeddings=embeddings)

    def test_embeddings_are_a_private_copy(self):
        source = np.ones((2, 8))
        stack = ToyStack(layers=(), embeddings=source)
        source[0, 0] = 5.0  # the caller's array stays writable and its edits stay out
        assert stack.embeddings[0, 0] == 1.0 and not stack.embeddings.flags.writeable

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.9), ("layers", 1.0), ("steps", 2.7), ("dim", 8.0), ("heads", 2.0), ("seed", "1"),
    ])
    def test_seeded_rejects_non_integer_arguments(self, name, value):
        # int() would truncate 1.9 to seed 1 and 2.7 to 2 steps; each fails at once instead
        kwargs = {**dict(seed=1, layers=1, steps=2, dim=8, heads=2), name: value}
        seed = kwargs.pop("seed")
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            ToyStack.seeded(seed, **kwargs)

    def test_numpy_integer_arguments_are_accepted(self):
        plain = ToyStack.seeded(1, layers=2, steps=3, dim=8, heads=2)
        numpy = ToyStack.seeded(np.int64(1), layers=np.int32(2), steps=np.uint8(3),
                                dim=np.int64(8), heads=np.int16(2))
        assert (numpy.step_count, numpy.dim) == (3, 8)
        assert type(numpy.step_count) is int and type(numpy.dim) is int
        assert all(type(w.heads) is int and w.heads == 2 for w in numpy.layers)
        assert np.array_equal(numpy.embeddings, plain.embeddings)
        assert all(np.array_equal(a.txt_wqkv, b.txt_wqkv) and np.array_equal(a.img_wqkv, b.img_wqkv)
                   for a, b in zip(numpy.layers, plain.layers))


class TestSeededBatch:
    @pytest.mark.parametrize("name, value", [
        ("seed", 1.9), ("txt_tokens", 2.0), ("img_tokens", 4.5), ("dim", 8.0),
    ])
    def test_rejects_non_integer_arguments(self, name, value):
        kwargs = {**dict(seed=1, txt_tokens=2, img_tokens=4, dim=8), name: value}
        seed = kwargs.pop("seed")
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            seeded_batch(seed, **kwargs)

    def test_numpy_integer_arguments_are_accepted(self):
        plain = seeded_batch(1, txt_tokens=2, img_tokens=4, dim=8)
        numpy = seeded_batch(np.int64(1), txt_tokens=np.int32(2), img_tokens=np.uint8(4),
                             dim=np.int16(8))
        assert np.array_equal(bits(numpy.txt), bits(plain.txt))
        assert np.array_equal(bits(numpy.img), bits(plain.img))


class TestRunStack:
    def test_identity_config_equals_no_guidance_bitwise(self, stack):
        # the identity config against the unguided public stages, layer by layer;
        # 4 + 1,024 tokens run in query-row bands
        for img_tokens in (64, 144, 1024):
            batch = seeded_batch(9, txt_tokens=TXT, img_tokens=img_tokens, dim=DIM)
            txt, img = np.array(batch.txt), np.array(batch.img)
            for embedding in stack.embeddings:
                img = img + embedding
                for weights in stack.layers:
                    out = joint_attention(project_qkv(StreamBatch(txt=txt, img=img), weights))
                    txt, img = txt + out[:TXT], img + out[TXT:]
            identity = run_stack(stack, batch, GuidanceConfig.identity())
            assert np.array_equal(bits(identity), bits(img))

    def test_fixed_seed_runs_are_bitwise_identical(self, stack, batch):
        cfg = GuidanceConfig(delta_k=1.1, delta_v=1.15)
        assert np.array_equal(run_stack(stack, batch, cfg), run_stack(stack, batch, cfg))

    def test_empty_stack_accumulates_step_embeddings(self, batch):
        stack = ToyStack(layers=(), embeddings=np.arange(3 * DIM).reshape(3, DIM) / 7.0)
        out = run_stack(stack, batch, GuidanceConfig.identity())
        expected = np.array(batch.img)
        for t in range(3):
            expected = expected + stack.embeddings[t]
        assert np.array_equal(out, expected)

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
            StreamBatch(txt=batch.txt, img=batch.img + stack.embeddings[0]),
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
        cfg = GuidanceConfig(delta_k=1.3, delta_v=0.7)
        seen = []
        out = run_stack(stack, batch, cfg,
                        tap=lambda layer, step, *qkv: seen.append([x.copy() for x in qkv]))

        txt = np.array(batch.txt)
        img = np.array(batch.img)
        expected = []
        for t in range(stack.step_count):
            img = img + stack.embeddings[t]
            for weights in stack.layers:
                qkv = project_qkv(StreamBatch(txt=txt, img=img), weights)
                expected.append(qkv)
                step_out = joint_attention(apply_dcag(qkv, cfg))
                txt, img = txt + step_out[:TXT], img + step_out[TXT:]

        assert len(seen) == len(expected) == stack.step_count * len(stack.layers)
        for got, want in zip(seen, expected):
            assert want.img_range == (TXT, TXT + IMG)  # the image rows the tap is told of
            for block, name in zip(got, ("q", "k", "v")):
                assert block.shape == getattr(want, name).shape
                assert np.array_equal(block, getattr(want, name))
        assert np.array_equal(out, img)

    def test_dim_mismatch(self, stack):
        with pytest.raises(ShapeError, match="hidden dimension"):
            run_stack(stack, seeded_batch(1, txt_tokens=2, img_tokens=4, dim=8),
                      GuidanceConfig.identity())


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
        dks, dvs = [1.0, 1.1, 1.2], [1.0, 1.05, 1.1]
        surfaces = sweep(stack, batch, dks, dvs)
        assert list(surfaces) == ["mse", "psnr", "ssim"]
        assert [surfaces[name].shape for name in ("mse", "psnr", "ssim")] == [(3, 3)] * 3
        assert all(surface.dtype == np.float64 for surface in surfaces.values())
        rows = [line.split(",")[:2] for line in sweep_csv(dks, dvs, surfaces).splitlines()[1:]]
        assert len(rows) == 9
        assert [(float(dk), float(dv)) for dk, dv in rows[:4]] == [
            (1.0, 1.0), (1.0, 1.05), (1.0, 1.1), (1.1, 1.0),
        ]

    def test_identity_point_scores_perfectly(self, stack, batch):
        surfaces = sweep(stack, batch, [1.0, 1.1], [1.0, 1.1])
        assert surfaces["mse"][0, 0] == 0.0
        assert surfaces["psnr"][0, 0] == PSNR_CAP_DB
        assert surfaces["ssim"][0, 0] == 1.0

    def test_key_only_column_matches_key_only_wiring_bitwise(self, stack, batch):
        # a separate stack loop that only ever touches K must reproduce the
        # delta_v = 1 column of the sweep exactly
        def key_only_output(delta_k):
            txt = np.array(batch.txt)
            img = np.array(batch.img)
            for t in range(stack.step_count):
                img = img + stack.embeddings[t]
                for weights in stack.layers:
                    qkv = project_qkv(StreamBatch(txt=txt, img=img), weights)
                    i_s, i_e = qkv.img_range
                    k = np.array(qkv.k)
                    k[i_s:i_e] = rescale(decompose(k[i_s:i_e]), delta_k)
                    out = joint_attention(JointQKV(q=qkv.q, k=k, v=qkv.v, img_range=qkv.img_range))
                    txt, img = txt + out[:i_s], img + out[i_s:]
            return img

        dks = [1.0, 1.1, 1.2]
        for dk in dks:
            cfg = GuidanceConfig(delta_k=dk, delta_v=1.0)
            assert np.array_equal(run_stack(stack, batch, cfg), key_only_output(dk))

    def test_csv_is_byte_stable(self, stack, batch):
        grid = [1.0, 1.1]
        surfaces = sweep(stack, batch, grid, grid)
        first = sweep_csv(grid, grid, surfaces)
        second = sweep_csv(grid, grid, sweep(stack, batch, grid, grid))
        assert first.encode() == second.encode()
        lines = first.splitlines()
        assert lines[0] == "delta_k,delta_v,mse,psnr,ssim"
        assert len(lines) == 5
        # the metric columns are the metric table's names in its order, and each
        # row carries every surface's value at its point, row-major
        assert lines[0].split(",") == ["delta_k", "delta_v", *dcag.harness._METRICS]
        for row, (i, j) in zip(lines[1:], [(0, 0), (0, 1), (1, 0), (1, 1)]):
            values = [float(x) for x in row.split(",")[2:]]
            assert values == [surfaces[name][i, j] for name in dcag.harness._METRICS]

    def test_surface_shape(self, stack, batch):
        surfaces = sweep(stack, batch, [1.0, 1.1, 1.2], [1.0, 1.05])
        assert {name: surface.shape for name, surface in surfaces.items()} == {
            name: (3, 2) for name in dcag.harness._METRICS}

    @pytest.mark.parametrize("name, surface, shape", [
        ("mse", np.zeros((2, 1)), r"\(2, 1\)"),  # zip would silently drop two points
        ("ssim", np.zeros(4), r"\(4,\)"),
        ("psnr", None, r"\(\)"),  # not an array
    ])
    def test_csv_rejects_a_surface_off_the_grid(self, name, surface, shape):
        grid = [1.0, 1.1]
        surfaces = {metric: np.zeros((2, 2)) for metric in dcag.harness._METRICS}
        assert len(sweep_csv(grid, grid, surfaces).splitlines()) == 5
        surfaces[name] = surface
        message = f"^{name} surface has shape {shape}, grid is \\(2, 2\\)$"
        with pytest.raises(ShapeError, match=message):
            sweep_csv(grid, grid, surfaces)
        del surfaces[name]
        with pytest.raises(ShapeError, match=f"^{name} surface has shape \\(\\)"):
            sweep_csv(grid, grid, surfaces)

    @pytest.mark.parametrize("img_tokens, message", [
        (120, "token count 120 is not a perfect square"),
        (64, "64 image tokens render 8 x 8 pixels; ssim needs at least 11 per side"),
    ])
    def test_unrenderable_batch_rejected_before_the_stack_runs(self, stack, monkeypatch,
                                                               img_tokens, message):
        batch = seeded_batch(3, txt_tokens=TXT, img_tokens=img_tokens, dim=DIM)
        monkeypatch.setattr(dcag.harness, "run_stack", lambda *a, **k: pytest.fail("stack ran"))
        with pytest.raises(ShapeError, match=f"^{message}$"):
            sweep(stack, batch, [1.0, 1.1], [1.0])

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
        surfaces = sweep(stack, batch, dks, dvs)
        monkeypatch.undo()
        points = len(dks) * len(dvs)
        assert len(calls) == (points if 1.0 in dks and 1.0 in dvs else points + 1)

        # the surfaces of a loop that runs the stack once per point, bit for bit
        reference_block = run_stack(stack, batch, GuidanceConfig.identity())
        lo, hi = float(token_grid(reference_block).min()), float(token_grid(reference_block).max())
        reference = render_tokens(reference_block, lo, hi)
        expected = {name: np.empty((len(dks), len(dvs))) for name in ("mse", "psnr", "ssim")}
        for i, dk in enumerate(dks):
            for j, dv in enumerate(dvs):
                cfg = GuidanceConfig(delta_k=dk, delta_v=dv)
                image = render_tokens(run_stack(stack, batch, cfg), lo, hi)
                for name, metric in (("mse", mse), ("psnr", psnr), ("ssim", ssim)):
                    expected[name][i, j] = metric(image, reference)
        assert list(surfaces) == list(expected)
        for name, surface in expected.items():
            assert np.array_equal(bits(surfaces[name]), bits(surface))

    @pytest.mark.parametrize("dks, dvs", [([1.0, 1.1, -0.1], [1.0]), ([1.0], [1.2, -0.1])])
    def test_negative_value_rejected_before_the_stack_runs(self, stack, batch, monkeypatch,
                                                           dks, dvs):
        calls = []
        monkeypatch.setattr(dcag.harness, "run_stack", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="must be finite and non-negative, got -0.1"):
            sweep(stack, batch, dks, dvs)
        assert calls == []

    def test_empty_value_lists_rejected(self, stack, batch):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(stack, batch, [], [1.0])


def test_stack_attention_memory_is_one_band():
    # at 8 + 1,024 tokens (S, S) is 8.5 MB, so heads run one at a time in three
    # 344-row bands of 2.8 MB, and a cell holds one band or guidance's four
    # (S_i, D) temporaries, never both, plus O(S·D) blocks: the state, the (S, 3D)
    # projection, the RoPE tables and RoPE's two temporaries, six (S, D) in all,
    # as attention writes over the projection's Q columns; the bound allows the
    # band and those six. At 8 + 144 one (S, S) fits, and the heads share it,
    # within twice one softmax row block.
    heads, dim = 4, 64
    for s_t, s_i, shape, bound in ((8, 1024, (344, 1032), (344 + 6 * dim) * 1032 * 8),
                                   (8, 144, (152, 152), 2 * _SOFTMAX_BLOCK_BYTES)):
        stack = ToyStack.seeded(0, layers=1, steps=1, dim=dim, heads=heads)
        batch = seeded_batch(0, txt_tokens=s_t, img_tokens=s_i, dim=dim)
        qkv = project_qkv(batch, stack.layers[0])
        assert _band_shape(s_t + s_i) == shape
        for attend in (lambda: run_stack(stack, batch, GuidanceConfig.identity()),
                       lambda: run_stack(stack, batch, GuidanceConfig()),
                       lambda: joint_attention(qkv),
                       lambda: guided_attention(batch, stack.layers[0], GuidanceConfig())):
            tracemalloc.start()
            try:
                attend()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


def closed_form_drift(monkeypatch, cfg):
    """Worst error of any run_stack cell's attention output against the paper's closed forms
    from that cell's pre-guidance q, k, v, relative to max(1, the output's largest entry).

    The real loop runs: its tap copies each cell's q, k, v, and a wrapper on its _attend
    reads the output. 8 layers x 3 steps at 8 + 16 tokens cover the unsaturated first
    step and the saturated ones after it, at a cost that keeps tier-1 fast."""
    stack = ToyStack.seeded(42, layers=8, steps=3, dim=64, heads=4)
    batch = seeded_batch(42, txt_tokens=8, img_tokens=16, dim=64)
    attend, cell, drift = dcag.harness._attend, [], []

    def checked(q, k, v, out):
        attend(q, k, v, out)
        expected = closed_form_attention(*cell, 8, cfg.delta_k, cfg.delta_v)[0]
        got = np.array(out).reshape(expected.shape)
        drift.append(np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(got))))
        return out

    def tap(layer, step, q, k, v):
        cell[:] = [np.array(x) for x in (q, k, v)]

    monkeypatch.setattr(dcag.harness, "_attend", checked)
    run_stack(stack, batch, cfg, tap=tap)
    assert len(drift) == 8 * 3
    return max(drift)


@pytest.mark.parametrize("dk_dv", [(1.1, 1.15), (1.5, 0.5), (1.0, 2.0), (2.0, 1.0)])
def test_every_stack_cell_obeys_the_closed_forms(monkeypatch, dk_dv):
    # the paper's K and V laws hold in every (layer, step) cell of the loop that
    # computes sweep and profile, to _check_closed_forms's tolerance
    assert closed_form_drift(monkeypatch, GuidanceConfig(*dk_dv)) <= 1e-10


def test_closed_form_drift_catches_guidance_of_the_text_rows(monkeypatch):
    # a guide that also rescales the text rows' K and V breaks both laws: drift 1.5
    guide = dcag.harness._guide
    monkeypatch.setattr(dcag.harness, "_guide", lambda k, v, i_s, cfg: guide(k, v, 0, cfg))
    assert closed_form_drift(monkeypatch, GuidanceConfig()) > 0.1
