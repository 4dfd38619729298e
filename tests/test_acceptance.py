"""Acceptance suite: one test per contract-level criterion.

Tolerances are pinned in the assertions; each criterion prints a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

import time

import numpy as np
import pytest

from dcag import (
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
    marching_squares,
    mse,
    profile_stack,
    project_qkv,
    psnr,
    ratio,
    ratios_csv,
    seeded_batch,
    ssim,
    sweep,
    sweep_csv,
)
from oracles import key_only_forward, naive_attention, naive_ssim

DEFAULT_DIM = 64
DEFAULT_HEADS = 4
DEFAULT_TXT = 8
DEFAULT_IMG = 64


def report(number: int, message: str) -> None:
    print(f"[C{number:02d}] PASS {message}")


def random_qkv(rng, s, h, dh, img_start):
    return JointQKV(
        q=rng.standard_normal((s, h, dh)),
        k=rng.standard_normal((s, h, dh)),
        v=rng.standard_normal((s, h, dh)),
        img_range=(img_start, s),
    )


def test_c01_identity_reduction():
    """Identity config reproduces the unguided forward bit for bit, 100 seeds."""
    start = time.perf_counter()
    for seed in range(100):
        stack = ToyStack.seeded(seed, layers=1, steps=1, dim=DEFAULT_DIM, heads=DEFAULT_HEADS)
        batch = seeded_batch(seed, txt_tokens=DEFAULT_TXT, img_tokens=DEFAULT_IMG, dim=DEFAULT_DIM)
        weights = stack.layers[0]
        plain = joint_attention(project_qkv(batch, weights))
        guided = guided_attention(batch, weights, GuidanceConfig.identity())
        assert np.array_equal(plain, guided)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"identity bitwise over 100 seeds in {elapsed:.2f}s")


def test_c02_key_only_reduction():
    """At delta_v = 1 the V tensor is bitwise unchanged and the output matches
    an independent Key-only implementation within 1e-12."""
    rng = np.random.default_rng(202)
    batch = StreamBatch(txt=rng.standard_normal((6, 32)), img=rng.standard_normal((24, 32)))
    weights = LayerWeights(*(rng.standard_normal((2, 32, 96)) / np.sqrt(32)), heads=4)
    for delta_k in (1.05, 1.10, 1.15, 1.20):
        cfg = GuidanceConfig(delta_k=delta_k, delta_v=1.0)
        qkv = project_qkv(batch, weights)
        guided_qkv = apply_dcag(qkv, cfg)
        assert np.array_equal(guided_qkv.v, qkv.v)
        mine = joint_attention(guided_qkv)
        ref = np.concatenate(key_only_forward(batch, weights, delta_k))
        assert np.max(np.abs(mine - ref)) <= 1e-12
    report(2, "V bitwise unchanged; independent Key-only agreement at 1e-12 "
              "for delta_k in {1.05, 1.10, 1.15, 1.20}")


def test_c03_logit_difference_scaling():
    """Post-guidance image logit differences equal delta_k times the
    pre-guidance differences within 1e-10, every query token and head."""
    rng = np.random.default_rng(303)
    cases = [(24, 1, 8), (36, 1, 16), (48, 4, 8), (64, 4, 16), (72, 4, 16)]
    for s, h, dh in cases:
        i_s = s // 3
        qkv = random_qkv(rng, s, h, dh, i_s)
        scale = 1.0 / np.sqrt(dh)
        pre = (qkv.q.transpose(1, 0, 2) @ qkv.k.transpose(1, 2, 0)) * scale
        pre_diff = pre[:, :, i_s:, None] - pre[:, :, None, i_s:]
        for delta_k in (1.05, 1.10, 1.7):
            cfg = GuidanceConfig(delta_k=delta_k, delta_v=1.0)
            guided = apply_dcag(qkv, cfg)
            post = (guided.q.transpose(1, 0, 2) @ guided.k.transpose(1, 2, 0)) * scale
            post_diff = post[:, :, i_s:, None] - post[:, :, None, i_s:]
            target = delta_k * pre_diff
            tolerance = 1e-10 * max(1.0, float(np.max(np.abs(target))))
            assert float(np.max(np.abs(post_diff - target))) <= tolerance
    report(3, "logit differences scale by delta_k within 1e-10 on 5 geometries x 3 scales")


def test_c04_value_affinity():
    """With delta_k = 1 the output is affine in delta_v within 1e-10 of the
    output scale, for delta_v in {0.5, 1.15, 2, 3} over 50 seeded instances."""
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        batch = StreamBatch(txt=rng.standard_normal((4, 16)), img=rng.standard_normal((12, 16)))
        weights = LayerWeights(*(rng.standard_normal((2, 16, 48)) / 4.0), heads=2)

        def out(dv):
            return guided_attention(batch, weights, GuidanceConfig(delta_k=1.0, delta_v=dv))

        o0, o1 = out(0.0), out(1.0)
        step = o1 - o0
        scale = max(1.0, float(np.max(np.abs(o1))))
        for dv in (0.5, 1.15, 2.0, 3.0):
            assert float(np.max(np.abs(out(dv) - (o0 + dv * step)))) <= 1e-10 * scale
    report(4, "o(delta_v) affine within 1e-10 of output scale over 50 instances")


def test_c05_orthogonality():
    """Attention weights are bitwise invariant under delta_v; the V tensor is
    bitwise invariant under delta_k."""
    rng = np.random.default_rng(505)
    batch = StreamBatch(txt=rng.standard_normal((6, 32)), img=rng.standard_normal((18, 32)))
    weights = LayerWeights(*(rng.standard_normal((2, 32, 96)) / np.sqrt(32)), heads=4)
    qkv = project_qkv(batch, weights)

    base_weights = attention_weights(
        apply_dcag(qkv, GuidanceConfig(delta_k=1.2, delta_v=1.0)))
    for dv in (0.5, 1.15, 2.0, 3.0):
        cfg = GuidanceConfig(delta_k=1.2, delta_v=dv)
        assert np.array_equal(attention_weights(apply_dcag(qkv, cfg)), base_weights)

    base_v = apply_dcag(qkv, GuidanceConfig(delta_k=1.0, delta_v=1.3)).v
    for dk in (0.5, 1.05, 1.2, 2.0):
        cfg = GuidanceConfig(delta_k=dk, delta_v=1.3)
        assert np.array_equal(apply_dcag(qkv, cfg).v, base_v)
    report(5, "weights bitwise stable under delta_v; V bitwise stable under delta_k")


def test_c06_decomposition_exactness():
    """reconstruct(decompose(x)) == x bitwise and per-head delta means stay
    below 1e-12, over 1000 random blocks."""
    rng = np.random.default_rng(606)
    shapes = [(4, 1, 8), (16, 2, 8), (64, 4, 16), (7, 3, 6), (128, 1, 4)]
    for index in range(1000):
        shape = shapes[index % len(shapes)]
        block = rng.standard_normal(shape) * rng.choice([0.1, 0.5, 1.0, 2.0])
        bd = decompose(block)
        assert np.array_equal(bd.reconstruct(), block)
        assert float(np.max(np.abs(bd.delta.mean(axis=0)))) <= 1e-12
    report(6, "bitwise reconstruction and zero-mean deltas over 1000 blocks")


def test_c07_attention_oracle_equivalence():
    """joint_attention matches the naive loop reference within 1e-10 on 50
    random instances up to S = 64, D = 64."""
    rng = np.random.default_rng(707)
    for _ in range(50):
        h, dh = rng.choice([(1, 8), (2, 16), (4, 16), (4, 8)])
        s = int(rng.integers(8, 65))
        i_s = int(rng.integers(1, s))
        qkv = random_qkv(rng, s, int(h), int(dh), i_s)
        out, weights = joint_attention(qkv), attention_weights(qkv)
        ref_merged, ref_weights = naive_attention(qkv.q, qkv.k, qkv.v)
        assert float(np.max(np.abs(out - ref_merged))) <= 1e-10
        assert float(np.max(np.abs(weights - ref_weights))) <= 1e-10
    report(7, "naive-loop agreement within 1e-10 over 50 instances (S <= 64, D <= 64)")


def test_c08_profiler_correctness():
    """Hand-computed two-token ratio is exactly 1; ratios are scale invariant;
    the (L=8, T=6, seed 42) profile CSV is byte-stable with 48 positive cells."""
    assert ratio(np.array([[[1.0, 0.0]], [[0.0, 1.0]]])) == 1.0

    rng = np.random.default_rng(808)
    block = rng.standard_normal((24, 4, 8))
    base = ratio(block)
    for c in (2.0, 0.5, 3.7e3, 1e-3):
        assert abs(ratio(c * block) - base) <= 1e-10 * base

    def build_csv():
        stack = ToyStack.seeded(42, layers=8, steps=6, dim=DEFAULT_DIM, heads=DEFAULT_HEADS)
        batch = seeded_batch(42, txt_tokens=DEFAULT_TXT, img_tokens=DEFAULT_IMG, dim=DEFAULT_DIM)
        profile_k, profile_v = profile_stack(stack, batch)
        return profile_k, profile_v, ratios_csv(profile_k, profile_v)

    profile_k, profile_v, csv_first = build_csv()
    _, _, csv_second = build_csv()
    assert csv_first.encode("utf-8") == csv_second.encode("utf-8")
    assert profile_k.shape == (8, 6)
    assert np.all(profile_k > 0.0)
    assert np.all(profile_v > 0.0)
    assert len(csv_first.splitlines()) == 1 + 48
    report(8, "two-token ratio exact, scale invariant at 1e-10, byte-stable 48-cell profile")


def test_c09_metric_contracts():
    """Identical images give (0, cap, 1); the a vs a+0.1 case lands on the
    closed forms at machine precision; ssim matches the direct reference."""
    rng = np.random.default_rng(909)
    image = rng.random((16, 16))
    assert mse(image, image) == 0.0
    assert psnr(image, image) == 100.0
    assert ssim(image, image) == 1.0

    base = rng.random((16, 16)) * 0.85
    shifted = base + 0.1
    assert mse(base, shifted) == pytest.approx(0.01, rel=1e-15, abs=0)
    assert psnr(base, shifted) == pytest.approx(20.0, rel=1e-15, abs=0)

    for _ in range(3):
        a, b = rng.random((14, 18)), rng.random((14, 18))
        assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-8)
    report(9, "metric contracts: exact self-fidelity, closed forms at 1e-15, ssim ref at 1e-8")


def test_c10_sweep_and_contour():
    """A 5x5 sweep scores exactly zero MSE at (1, 1), marching squares stays
    on the analytic line within 1e-9, and the CSV is byte-stable."""
    stack = ToyStack.seeded(42, layers=4, steps=3, dim=32, heads=4)
    batch = seeded_batch(42, txt_tokens=8, img_tokens=121, dim=32)
    dk_values = np.linspace(1.0, 1.2, 5)
    dv_values = np.linspace(1.0, 1.2, 5)

    surfaces = sweep(stack, batch, dk_values, dv_values)
    assert (dk_values[0], dv_values[0]) == (1.0, 1.0)
    assert list(surfaces) == ["mse", "psnr", "ssim"]
    for metric, exact in (("mse", 0.0), ("psnr", 100.0), ("ssim", 1.0)):
        assert surfaces[metric].shape == (5, 5)
        assert surfaces[metric][0, 0] == exact

    xs = ys = np.linspace(1.0, 2.0, 9)
    plane = xs[:, None] + ys[None, :]
    polylines = marching_squares(xs, ys, plane, 2.5)
    assert polylines
    for line in polylines:
        for x, y in line:
            assert abs((x + y) - 2.5) <= 1e-9

    repeat = sweep_csv(dk_values, dv_values, sweep(stack, batch, dk_values, dv_values))
    assert sweep_csv(dk_values, dv_values, surfaces).encode("utf-8") == repeat.encode("utf-8")
    report(10, "5x5 sweep exact at origin, contour on the line at 1e-9, byte-stable CSV")
