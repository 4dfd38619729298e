"""Seeded toy dual-stream stack and the (delta_k, delta_v) sweep harness.

The stack stands in for a full-scale dual-stream diffusion transformer at
desk scale: per step it injects a seeded embedding into the image tokens
and runs every attention layer with residual connections. Everything is a
pure function of the seed and the shape parameters, so sweeps and their CSV
artifacts are byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import LayerWeights, StreamBatch, _attend, _group_buffer, _project, _rope_table
from .errors import DegenerateInputError, ShapeError
from .guidance import GuidanceConfig, _guide
from .metrics import mse, psnr, ssim
from .tensors import as_index, as_tensor, check_finite

__all__ = [
    "ToyStack",
    "seeded_batch",
    "run_stack",
    "token_grid",
    "render_tokens",
    "SweepResult",
    "sweep",
    "sweep_csv",
]

# Disjoint child-seed streams so weights, step embeddings, and inputs never overlap.
_WEIGHTS_KEY = 0
_STEPS_KEY = 1
_INPUT_KEY = 2

# Every fidelity metric a sweep scores, in sweep.csv's column order. Each entry
# looks its function up when called, so a wrapper installed on harness.mse (as
# perfbench/tracer.py installs) sees the sweep's calls.
_METRICS = {"mse": lambda a, b: mse(a, b), "psnr": lambda a, b: psnr(a, b),
            "ssim": lambda a, b: ssim(a, b)}


def _check_seed(seed) -> int:
    seed = as_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class ToyStack:
    """A stack of attention layers plus a seeded per-step embedding stream.

    Fully determined by (seed, layer count, step count, shape parameters):
    two stacks built from equal parameters are bitwise identical, and so is
    everything computed from them. The instance is frozen, and embeddings
    holds the additive image-token embedding of every denoising step, each
    drawn once from its own child seed, read-only, shaped (steps, D).
    """

    layers: tuple[LayerWeights, ...]
    seed: int
    dim: int
    step_count: int
    embeddings: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, value in (("layers", tuple(self.layers)), ("seed", _check_seed(self.seed)),
                            ("dim", as_index(self.dim, "dim")),
                            ("step_count", as_index(self.step_count, "step_count"))):
            object.__setattr__(self, name, value)
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.step_count < 1:
            raise ValueError(f"step_count must be positive, got {self.step_count}")
        for i, w in enumerate(self.layers):
            if w.dim != self.dim:
                raise ShapeError(f"layer {i} has dim {w.dim}, stack expects {self.dim}")
        embeddings = np.empty((self.step_count, self.dim))
        for t in range(self.step_count):
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(_STEPS_KEY, t)))
            embeddings[t] = rng.standard_normal(self.dim)
        embeddings.flags.writeable = False
        object.__setattr__(self, "embeddings", embeddings)

    @classmethod
    def seeded(cls, seed: int, *, layers: int, steps: int, dim: int, heads: int) -> "ToyStack":
        """Gaussian weights with std 1/sqrt(dim), one child seed per layer index."""
        seed = _check_seed(seed)
        layers, steps, dim, heads = (as_index(value, name) for name, value in (
            ("layers", layers), ("steps", steps), ("dim", dim), ("heads", heads)))
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
        return cls(layers=tuple(built), seed=seed, dim=dim, step_count=steps)


def seeded_batch(seed: int, *, txt_tokens: int, img_tokens: int, dim: int) -> StreamBatch:
    """Standard-normal StreamBatch drawn from the input stream of `seed`."""
    txt_tokens, img_tokens, dim = (as_index(value, name) for name, value in (
        ("txt_tokens", txt_tokens), ("img_tokens", img_tokens), ("dim", dim)))
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
    connections. When given, tap(layer, step, q, k, v) observes each layer's
    pre-guidance Q, K and V: read-only (S, H, d_h) views of the projection
    buffer, whose image rows start at batch.txt.shape[0]. The views change
    once the tap returns, so a tap copies what it keeps.
    Arguments are validated once on entry and the result once on return;
    in between, the attention and guidance kernels run on reused buffers,
    attention on one _group_buffer shared by every layer.
    """
    if batch.dim != stack.dim:
        raise ShapeError(f"batch hidden dimension {batch.dim} does not match stack {stack.dim}")
    s_t = batch.txt.shape[0]
    s = s_t + batch.img.shape[0]
    positions = np.arange(s, dtype=np.float64)
    tables = {h: _rope_table(positions, stack.dim // h, h) for h in {w.heads for w in stack.layers}}
    state = np.concatenate([batch.txt, batch.img])  # [txt; img], updated in place
    txt, img = state[:s_t], state[s_t:]
    proj = np.empty((s, 3 * stack.dim))
    seen = proj.view()  # what the tap reads
    seen.flags.writeable = False
    attn = np.empty((s, stack.dim))
    weights = _group_buffer(s, max((w.heads for w in stack.layers), default=1))
    for t, embedding in enumerate(stack.embeddings):
        img += embedding
        for layer, w in enumerate(stack.layers):
            h = w.heads
            q, k, v = _project(txt, img, w.txt_wqkv, w.img_wqkv, h, *tables[h], proj)
            if tap is not None:
                tap(layer, t, *seen.reshape(s, 3, h, -1).transpose(1, 0, 2, 3))
            if cfg is not None and cfg.applies_to(layer):
                _guide(k, v, s_t, cfg)
            _attend(q, k, v, weights, attn.reshape(s, h, -1))
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


@dataclass
class SweepResult:
    """Fidelity surfaces over the Cartesian (delta_k, delta_v) grid.

    surfaces maps each _METRICS name to an (n_dk, n_dv) array whose entry
    [i, j] scores (dk_values[i], dv_values[j]) against the rendered
    identity-config output.
    """

    dk_values: tuple[float, ...]
    dv_values: tuple[float, ...]
    surfaces: dict[str, np.ndarray]

    def surface(self, metric: str) -> np.ndarray:
        """One metric's (n_dk, n_dv) surface over the swept values."""
        if metric not in _METRICS:
            raise ValueError(f"unknown metric {metric!r}, expected one of {tuple(_METRICS)}")
        return self.surfaces[metric]


def sweep(stack: ToyStack, batch: StreamBatch, dk_values, dv_values) -> SweepResult:
    """Run the stack at every (delta_k, delta_v) and score against (1, 1).

    The reference is the identity-config output; its rendering range
    normalizes every grid point's image. A (1, 1) grid point reuses the
    rendered reference, the same bits a run would give, and scores mse 0,
    psnr at cap, ssim 1.
    """
    dks = [float(v) for v in dk_values]
    dvs = [float(v) for v in dv_values]
    if not dks or not dvs:
        raise ValueError("sweep needs non-empty delta_k and delta_v value lists")

    reference_block = run_stack(stack, batch, GuidanceConfig.identity())
    grid = token_grid(reference_block)
    lo, hi = float(grid.min()), float(grid.max())
    reference = render_tokens(reference_block, lo, hi)  # raises if hi == lo

    surfaces = {name: np.empty((len(dks), len(dvs))) for name in _METRICS}
    for i, dk in enumerate(dks):
        for j, dv in enumerate(dvs):
            if (dk, dv) == (1.0, 1.0):
                image = reference
            else:
                cfg = GuidanceConfig(delta_k=dk, delta_v=dv)
                image = render_tokens(run_stack(stack, batch, cfg), lo, hi)
            for name, metric in _METRICS.items():
                surfaces[name][i, j] = metric(image, reference)
    return SweepResult(dk_values=tuple(dks), dv_values=tuple(dvs), surfaces=surfaces)


def sweep_csv(result: SweepResult) -> str:
    """CSV rows delta_k,delta_v then each _METRICS surface's value, row-major, 17 digits."""
    points = [(dk, dv) for dk in result.dk_values for dv in result.dv_values]
    scores = zip(*(result.surface(name).ravel().tolist() for name in _METRICS))
    lines = [",".join(["delta_k", "delta_v", *_METRICS])]
    for point, values in zip(points, scores):
        lines.append(",".join(f"{value:.17g}" for value in (*point, *values)))
    return "\n".join(lines) + "\n"
