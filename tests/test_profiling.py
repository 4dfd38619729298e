import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcag import (
    DegenerateInputError,
    LayerWeights,
    ShapeError,
    StreamBatch,
    ToyStack,
    heatmap_pgm,
    pearson,
    profile_stack,
    ratio,
    ratios_csv,
    run_stack,
    seeded_batch,
)


class TestRatio:
    def test_identical_tokens_give_zero(self):
        token = np.array([0.5, -1.0, 2.0, 0.25]).reshape(1, 2, 2)
        block = np.repeat(token, 5, axis=0)
        assert ratio(block) == 0.0

    def test_two_token_hand_case_is_exactly_one(self):
        block = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        assert ratio(block) == 1.0

    @given(c=st.floats(1e-3, 1e3).filter(lambda v: v != 0.0))
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        block = rng.standard_normal((12, 2, 4))
        assert abs(ratio(c * block) - ratio(block)) <= 1e-10 * ratio(block)

    def test_orthogonal_rotation_invariance(self, rng):
        block = rng.standard_normal((20, 3, 8))
        rotated = np.empty_like(block)
        for head in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            rotated[:, head, :] = block[:, head, :] @ q
        assert abs(ratio(rotated) - ratio(block)) <= 1e-10 * ratio(block)

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_matches_plain_formula_bitwise(self, rng, offset):
        # the reference is the plain mean/deviation formula; offset 1e8 over
        # unit noise makes block - bias cancel most of its significant bits
        for shape in ((1, 1, 2), (7, 3, 4), (64, 4, 16), (257, 2, 8)):
            block = offset + rng.standard_normal(shape)
            bias = block.mean(axis=0, keepdims=True)
            delta = block - bias
            flat = delta.reshape(shape[0], -1)
            flat_norms = np.sqrt(np.sum(flat * flat, axis=1, keepdims=True))
            assert ratio(block) == float(flat_norms.mean() / np.sqrt(np.sum(bias * bias)))

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_strided_view_matches_contiguous_copy(self, rng, offset):
        # profile_stack hands ratio the image rows of K and V as read-only
        # views into the (S, 3D) projection buffer
        for s_t, s_i, heads, dh in ((1, 1, 1, 2), (4, 10, 2, 8), (8, 257, 4, 16)):
            proj = offset + rng.standard_normal((s_t + s_i, 3 * heads * dh))
            q, k, v = proj.reshape(s_t + s_i, 3, heads, dh).transpose(1, 0, 2, 3)
            for block in (q[s_t:], k[s_t:], v[s_t:]):
                assert not block.flags.c_contiguous or s_i == 1
                block.flags.writeable = False
                assert ratio(block) == ratio(np.ascontiguousarray(block))

    def test_zero_bias_is_degenerate(self):
        block = np.array([[[1.0, 0.0]], [[-1.0, 0.0]]])
        with pytest.raises(DegenerateInputError, match="zero-norm bias"):
            ratio(block)

    def test_empty_and_misshaped_inputs(self):
        with pytest.raises(ValueError, match="empty token range"):
            ratio(np.zeros((0, 2, 4)))
        with pytest.raises(ShapeError):
            ratio(np.zeros((4, 4)))


class TestPearson:
    def test_self_correlation_is_one(self, rng):
        a = rng.standard_normal((6, 4))
        assert pearson(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_anti_correlation_is_minus_one(self, rng):
        a = rng.standard_normal((6, 4))
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-14)

    def test_symmetry_and_bound(self, rng):
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((5, 7))
        assert pearson(a, b) == pearson(b, a)
        assert abs(pearson(a, b)) <= 1.0 + 1e-12

    def test_constant_input_is_degenerate(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(DegenerateInputError, match="zero-variance"):
            pearson(a, np.full((3, 3), 2.5))


class TestProfileStack:
    def test_shape_contract(self, rng):
        stack = ToyStack.seeded(3, layers=4, steps=3, dim=16, heads=2)
        batch = seeded_batch(3, txt_tokens=4, img_tokens=9, dim=16)
        pk, pv = profile_stack(stack, batch)
        assert pk.shape == (4, 3)
        assert pv.shape == (4, 3)

    def test_single_image_token_gives_zero_ratios(self):
        # with one image token the deltas vanish identically
        eye = np.eye(8)
        layer = LayerWeights(eye, eye, eye, eye, eye, eye, heads=2)
        stack = ToyStack(layers=(layer,), seed=0, dim=8, step_count=1)
        batch = StreamBatch(txt=np.ones((2, 8)), img=np.full((1, 8), 3.0))
        pk, pv = profile_stack(stack, batch)
        assert np.array_equal(pk, np.zeros((1, 1)))
        assert np.array_equal(pv, np.zeros((1, 1)))

    def test_all_ratios_strictly_positive(self, rng):
        stack = ToyStack.seeded(42, layers=4, steps=3, dim=16, heads=2)
        batch = seeded_batch(42, txt_tokens=4, img_tokens=16, dim=16)
        pk, pv = profile_stack(stack, batch)
        assert np.all(pk > 0.0)
        assert np.all(pv > 0.0)

    def test_matches_from_scratch_recomputation(self):
        stack = ToyStack.seeded(11, layers=3, steps=2, dim=16, heads=2)
        batch = seeded_batch(11, txt_tokens=4, img_tokens=10, dim=16)
        pk, pv = profile_stack(stack, batch)

        expected_k = np.zeros((3, 2))
        expected_v = np.zeros((3, 2))

        def recompute(layer, step, q, k, v):
            s_t = batch.txt.shape[0]
            for target, block in ((expected_k, k[s_t:]), (expected_v, v[s_t:])):
                mean = block.mean(axis=0, keepdims=True)
                deltas = block - mean
                per_token = np.linalg.norm(deltas.reshape(deltas.shape[0], -1), axis=1)
                target[layer, step] = per_token.mean() / np.linalg.norm(mean)

        run_stack(stack, batch, None, tap=recompute)
        assert np.max(np.abs(pk - expected_k)) <= 1e-12
        assert np.max(np.abs(pv - expected_v)) <= 1e-12


def profile_peak(layers: int) -> int:
    """tracemalloc peak of profile_stack at 8 + 1,024 tokens, dim 64, 4 heads, 1 step."""
    stack = ToyStack.seeded(0, layers=layers, steps=1, dim=64, heads=4)
    batch = seeded_batch(0, txt_tokens=8, img_tokens=1024, dim=64)
    tracemalloc.start()
    try:
        profile_stack(stack, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_memory_is_one_square_buffer_at_any_depth():
    # one (S, S) weights buffer plus O(S·D) working memory, whatever the layer
    # count: no per-layer weight copies or RoPE tables, and a tap that copies nothing
    s, d = 8 + 1024, 64
    deep = profile_peak(8)
    assert deep < s * s * 8 + 8 * s * d * 8
    # the interpreter's own allocations move the peak by a few KiB from run to
    # run; one layer's (D, 3D) weights alone are 96 KiB, its RoPE table 129 KiB
    assert deep < profile_peak(1) + 16 * 1024


class TestArtifacts:
    def make_profiles(self):
        k = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        v = np.array([[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]])
        return k, v

    def test_csv_layout(self):
        k, v = self.make_profiles()
        lines = ratios_csv(k, v).splitlines()
        assert lines[0] == "layer,step,ratio_k,ratio_v"
        assert len(lines) == 1 + 6
        assert lines[1] == "0,0,1,0.5"
        assert lines[2] == "0,1,2,1.5"  # layer-major ordering
        assert lines[3] == "1,0,3,2.5"

    def test_csv_17_digit_roundtrip(self):
        value = 1.0 / 3.0
        k = np.array([[value]])
        v = np.array([[2.0 * value]])
        row = ratios_csv(k, v).splitlines()[1].split(",")
        assert float(row[2]) == value
        assert float(row[3]) == 2.0 * value

    def test_pgm_layout_and_scaling(self):
        k, _ = self.make_profiles()
        text = heatmap_pgm(k).splitlines()
        assert text[0] == "P2"
        assert text[1] == "3 2"  # layers wide, steps tall
        assert text[2] == "255"
        assert text[3].split() == ["0", "102", "204"]  # step 0 row over layers
        assert text[4].split() == ["51", "153", "255"]

    def test_constant_profile_renders_black(self):
        text = heatmap_pgm(np.full((2, 2), 3.0)).splitlines()
        assert text[3].split() == ["0", "0"]

    def test_ratio_profile_validation(self):
        # ratios_csv and heatmap_pgm share one check: a finite, non-negative 2-D map
        good, negative = np.ones((1, 1)), np.array([[-1.0]])
        with pytest.raises(ValueError, match="ratios_v must be non-negative"):
            ratios_csv(good, negative)
        with pytest.raises(ValueError, match="ratios must be non-negative"):
            heatmap_pgm(negative)
        with pytest.raises(ShapeError, match=r"ratios_k must be \(layers, steps\)"):
            ratios_csv(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="non-finite"):
            heatmap_pgm(np.array([[np.nan]]))
