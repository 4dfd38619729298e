"""Seeded toy dual-stream stack and the (delta_k, delta_v) sweep harness.

The stack stands in for a full-scale dual-stream diffusion transformer at
desk scale: per step it injects a seeded embedding into the image tokens
and runs every attention layer with residual connections. Everything is a
pure function of the seed and the shape parameters, so sweeps and their CSV
artifacts are byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import (JointQKV, LayerWeights, StreamBatch, _attend, _project, _rope_table,
                        _stacked)
from .errors import DegenerateInputError, ShapeError
from .guidance import GuidanceConfig, _check_range, _guide
from .metrics import mse, psnr, ssim
from .tensors import as_tensor, check_finite

__all__ = [
    "ToyStack",
    "seeded_batch",
    "run_stack",
    "token_grid",
    "render_tokens",
    "SweepRecord",
    "SweepResult",
    "sweep",
    "sweep_csv",
]

# Disjoint child-seed streams so weights, step embeddings, and inputs never overlap.
_WEIGHTS_KEY = 0
_STEPS_KEY = 1
_INPUT_KEY = 2

_METRIC_NAMES = ("mse", "psnr", "ssim")


def _check_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass
class ToyStack:
    """A stack of attention layers plus a seeded per-step embedding stream.

    Fully determined by (seed, layer count, step count, shape parameters):
    two stacks built from equal parameters are bitwise identical, and so is
    everything computed from them.
    """

    layers: tuple[LayerWeights, ...]
    seed: int
    dim: int
    step_count: int

    def __post_init__(self):
        self.layers = tuple(self.layers)
        self.seed = _check_seed(self.seed)
        self.dim = int(self.dim)
        self.step_count = int(self.step_count)
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.step_count < 1:
            raise ValueError(f"step_count must be positive, got {self.step_count}")
        for i, w in enumerate(self.layers):
            if w.dim != self.dim:
                raise ShapeError(f"layer {i} has dim {w.dim}, stack expects {self.dim}")

    @classmethod
    def seeded(cls, seed: int, *, layers: int, steps: int, dim: int, heads: int) -> "ToyStack":
        """Gaussian weights with std 1/sqrt(dim), one child seed per layer index."""
        seed = _check_seed(seed)
        if layers < 0:
            raise ValueError(f"layer count must be non-negative, got {layers}")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if heads < 1:
            raise ValueError(f"heads must be positive, got {heads}")
        std = 1.0 / math.sqrt(dim)
        built = []
        for index in range(layers):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_WEIGHTS_KEY, index)))
            mats = std * rng.standard_normal((6, dim, dim))
            built.append(LayerWeights(
                txt_wq=mats[0], txt_wk=mats[1], txt_wv=mats[2],
                img_wq=mats[3], img_wk=mats[4], img_wv=mats[5],
                heads=heads,
            ))
        return cls(layers=tuple(built), seed=seed, dim=int(dim), step_count=int(steps))

    def step_embedding(self, step: int) -> np.ndarray:
        """Additive image-token embedding (D,) for one denoising step."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(_STEPS_KEY, int(step))))
        return rng.standard_normal(self.dim)


def seeded_batch(seed: int, *, txt_tokens: int, img_tokens: int, dim: int) -> StreamBatch:
    """Standard-normal StreamBatch drawn from the input stream of `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(_check_seed(seed), spawn_key=(_INPUT_KEY,)))
    return StreamBatch(
        txt=rng.standard_normal((txt_tokens, dim)),
        img=rng.standard_normal((img_tokens, dim)),
    )


@np.errstate(over="ignore", invalid="ignore")
def run_stack(stack: ToyStack, batch: StreamBatch, cfg: GuidanceConfig | None = None,
              *, tap=None) -> np.ndarray:
    """Iterate the denoising loop and return the final image block (S_i, D).

    Each of stack.step_count steps adds the step embedding to the image
    tokens, then runs every layer (guided where cfg applies) with residual
    connections. When given, tap(layer, step, qkv) observes each layer's
    JointQKV before guidance.
    Arguments are validated once on entry and the result once on return;
    in between, the attention and guidance kernels run on reused buffers,
    attention on one (S, S) weights buffer shared by every head.
    """
    if batch.dim != stack.dim:
        raise ShapeError(f"batch hidden dimension {batch.dim} does not match stack {stack.dim}")
    s_t = batch.txt.shape[0]
    s = s_t + batch.img.shape[0]
    if cfg is not None:
        _check_range(cfg, (s_t, s))
    positions = np.arange(s, dtype=np.float64)
    plan = [(w.heads, *_stacked(w), *_rope_table(positions, w.head_dim))
            for w in stack.layers]
    state = np.concatenate([batch.txt, batch.img])  # [txt; img], updated in place
    txt, img = state[:s_t], state[s_t:]
    proj = np.empty((s, 3 * stack.dim))
    attn = np.empty((s, stack.dim))
    weights = np.empty((s, s))  # every head of every layer reuses it
    for t in range(stack.step_count):
        img += stack.step_embedding(t)
        for layer, (h, w_txt, w_img, cos, sin) in enumerate(plan):
            q, k, v = _project(txt, img, w_txt, w_img, h, cos, sin, proj)
            if tap is not None:
                tap(layer, t, JointQKV(q=q, k=k, v=v, img_range=(s_t, s)))
            if cfg is not None and cfg.applies_to(layer):
                _guide(k, v, s_t, cfg)
            _attend(q, k, v, (weights,) * h, attn.reshape(s, h, -1))
            state += attn
    return check_finite(img, "stack output")


def token_grid(block) -> np.ndarray:
    """Channel-mean of an (S_i, D) block reshaped to a square pixel grid.

    S_i must be a perfect square; this is the fixed token-to-pixel
    rendering every fidelity measurement goes through.
    """
    block = as_tensor(block, "image block")
    if block.ndim != 2:
        raise ShapeError(f"token_grid expects an (S_i, D) block, got shape {block.shape}")
    count = block.shape[0]
    side = math.isqrt(count)
    if side * side != count:
        raise ShapeError(f"token count {count} is not a perfect square")
    return block.mean(axis=1).reshape(side, side)


def render_tokens(block, lo: float, hi: float) -> np.ndarray:
    """Render a token block to a [0, 1] image, normalizing by [lo, hi].

    The range normally comes from the sweep's reference output; values
    outside it are clipped.
    """
    if not hi > lo:
        raise DegenerateInputError(f"rendering range [{lo}, {hi}] is empty")
    grid = token_grid(block)
    return np.clip((grid - lo) / (hi - lo), 0.0, 1.0)


@dataclass(frozen=True)
class SweepRecord:
    delta_k: float
    delta_v: float
    mse: float
    psnr: float
    ssim: float


@dataclass
class SweepResult:
    """Fidelity metrics over the Cartesian (delta_k, delta_v) grid.

    records are row-major (delta_k outer, delta_v inner), each measured
    against the rendered identity-config output.
    """

    dk_values: tuple[float, ...]
    dv_values: tuple[float, ...]
    records: list[SweepRecord]

    def surface(self, metric: str) -> np.ndarray:
        """One metric as an (n_dk, n_dv) grid over the swept values."""
        if metric not in _METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}, expected one of {_METRIC_NAMES}")
        values = np.array([getattr(r, metric) for r in self.records], dtype=np.float64)
        return values.reshape(len(self.dk_values), len(self.dv_values))


def sweep(stack: ToyStack, batch: StreamBatch, dk_values, dv_values) -> SweepResult:
    """Run the stack at every (delta_k, delta_v) and score against (1, 1).

    The reference is the identity-config output; its rendering range
    normalizes every grid point's image, so the (1, 1) grid point compares
    the reference with itself and scores mse 0, psnr at cap, ssim 1.
    """
    dks = [float(v) for v in dk_values]
    dvs = [float(v) for v in dv_values]
    if not dks or not dvs:
        raise ValueError("sweep needs non-empty delta_k and delta_v value lists")
    token_range = (batch.txt.shape[0], batch.txt.shape[0] + batch.img.shape[0])

    reference_block = run_stack(stack, batch, GuidanceConfig.identity(token_range))
    grid = token_grid(reference_block)
    lo, hi = float(grid.min()), float(grid.max())
    if not hi > lo:
        raise DegenerateInputError("reference image has zero dynamic range")
    reference = render_tokens(reference_block, lo, hi)

    records = []
    for dk in dks:
        for dv in dvs:
            cfg = GuidanceConfig(token_range=token_range, delta_k=dk, delta_v=dv)
            image = render_tokens(run_stack(stack, batch, cfg), lo, hi)
            records.append(SweepRecord(
                delta_k=dk, delta_v=dv,
                mse=mse(image, reference),
                psnr=psnr(image, reference),
                ssim=ssim(image, reference),
            ))
    return SweepResult(dk_values=tuple(dks), dv_values=tuple(dvs), records=records)


def sweep_csv(result: SweepResult) -> str:
    """CSV rows delta_k,delta_v,mse,psnr,ssim at 17 significant digits."""
    lines = ["delta_k,delta_v,mse,psnr,ssim"]
    for r in result.records:
        lines.append(
            f"{r.delta_k:.17g},{r.delta_v:.17g},{r.mse:.17g},{r.psnr:.17g},{r.ssim:.17g}"
        )
    return "\n".join(lines) + "\n"
