"""Seeded toy dual-stream stack and the (delta_k, delta_v) sweep harness.

The stack stands in for a full-scale dual-stream diffusion transformer at
desk scale: per step it injects a seeded embedding into the image tokens
and runs every attention layer with residual connections. Everything is a
pure function of the seed and the shape parameters, so sweeps and their CSV
artifacts are byte-stable across runs. A sweep returns plain arrays, one
surface per metric; its caller keeps the grid it passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import LayerWeights, StreamBatch, _attend, _frozen, _project, _rope_table
from .errors import DegenerateInputError, ShapeError
from .guidance import GuidanceConfig, _guide
from .metrics import SSIM_WINDOW, mse, psnr, ssim
from .tensors import _csv_lines, as_index, as_tensor, check_finite

__all__ = [
    "ToyStack",
    "StackHook",
    "seeded_batch",
    "run_stack",
    "token_grid",
    "render_tokens",
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
    """A frozen stack of attention layers plus a per-step embedding stream.

    Every layer has the stack's hidden dimension D and one shared head count;
    embeddings is a read-only private copy of each denoising step's additive
    image-token embedding, shaped (steps, D), the shape step_count and dim read.
    """

    layers: tuple[LayerWeights, ...]
    embeddings: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "embeddings", _frozen(self.embeddings, "embeddings"))
        if self.embeddings.ndim != 2 or 0 in self.embeddings.shape:
            raise ShapeError(f"embeddings must be a non-empty (steps, D) block, "
                             f"got shape {self.embeddings.shape}")
        for i, w in enumerate(self.layers):
            if (w.dim, w.heads) != (self.dim, self.layers[0].heads):
                raise ShapeError(f"layer {i} has dim {w.dim} and {w.heads} heads, stack expects "
                                 f"dim {self.dim} and {self.layers[0].heads} heads")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def step_count(self) -> int:
        return self.embeddings.shape[0]

    @classmethod
    def seeded(cls, seed: int, *, layers: int, steps: int, dim: int, heads: int) -> "ToyStack":
        """Layer i's (6, D, D) [txt Wq, Wk, Wv, img Wq, Wk, Wv] of std 1/sqrt(dim) is drawn from
        child seed (0, i) and step t's (D,) embedding from (1, t): equal arguments, equal bits."""
        seed = _check_seed(seed)
        layers, steps, dim, heads = (as_index(value, name) for name, value in (
            ("layers", layers), ("steps", steps), ("dim", dim), ("heads", heads)))
        if layers < 0:
            raise ValueError(f"layer count must be non-negative, got {layers}")
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if heads < 1:
            raise ValueError(f"heads must be positive, got {heads}")
        std = 1.0 / math.sqrt(dim)
        built = []
        for index in range(layers):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_WEIGHTS_KEY, index)))
            mats = std * rng.standard_normal((6, dim, dim))
            # each stream's [Wq|Wk|Wv]; the draw is dropped before LayerWeights copies them
            mats = mats.reshape(2, 3, dim, dim).transpose(0, 2, 1, 3).reshape(2, dim, 3 * dim)
            built.append(LayerWeights(*mats, heads=heads))
            del mats
        embeddings = np.empty((steps, dim))
        for t in range(steps):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STEPS_KEY, t)))
            embeddings[t] = rng.standard_normal(dim)
        return cls(layers=tuple(built), embeddings=embeddings)


def seeded_batch(seed: int, *, txt_tokens: int, img_tokens: int, dim: int) -> StreamBatch:
    """Standard-normal StreamBatch drawn from the input stream of `seed`."""
    txt_tokens, img_tokens, dim = (as_index(value, name) for name, value in (
        ("txt_tokens", txt_tokens), ("img_tokens", img_tokens), ("dim", dim)))
    rng = np.random.default_rng(np.random.SeedSequence(_check_seed(seed), spawn_key=(_INPUT_KEY,)))
    return StreamBatch(
        txt=rng.standard_normal((txt_tokens, dim)),
        img=rng.standard_normal((img_tokens, dim)),
    )


class StackHook:
    """Observes each (layer, step) cell of run_stack; a point does nothing unless overridden.

    Each point gets read-only views of the loop's buffers, rows in joint order
    (image rows from batch.txt.shape[0] on). They change once the point returns,
    so a hook copies what it keeps.
    """

    def projected(self, layer: int, step: int, q, k, v) -> None:
        """Pre-guidance Q, K and V, each (S, H, d_h)."""

    def guided(self, layer: int, step: int, k, v) -> None:
        """K and V after guidance, each (S, H, d_h)."""

    def attended(self, layer: int, step: int, out) -> None:
        """The (S, D) attention output, before the residual add."""


@np.errstate(over="ignore", invalid="ignore")
def run_stack(stack: ToyStack, batch: StreamBatch, cfg: GuidanceConfig, *,
              hook: StackHook = StackHook()) -> np.ndarray:
    """Iterate the denoising loop and return the final image block (S_i, D).

    Each of stack.step_count steps adds the step embedding to the image
    tokens, then runs every layer with residual connections, guiding K and V
    in place (GuidanceConfig.identity() guides, and allocates, nothing).
    hook's three points observe each cell (see StackHook).
    Arguments are validated once on entry and the result once on return;
    in between, the kernels reuse one projection buffer and attend into its Q columns.
    """
    if batch.dim != stack.dim:
        raise ShapeError(f"batch hidden dimension {batch.dim} does not match stack {stack.dim}")
    s_t = batch.txt.shape[0]
    s = s_t + batch.img.shape[0]
    heads = stack.layers[0].heads if stack.layers else 1
    cos, sin = _rope_table(np.arange(s, dtype=np.float64), stack.dim // heads, heads)
    state = np.concatenate([batch.txt, batch.img])  # [txt; img], updated in place
    txt, img = state[:s_t], state[s_t:]
    proj = np.empty((s, 3 * stack.dim))
    seen = proj.reshape(s, 3, heads, -1).transpose(1, 0, 2, 3)  # what the hook reads
    seen.flags.writeable = False
    out = seen[0].reshape(s, stack.dim)  # the Q columns _attend writes into
    for t, embedding in enumerate(stack.embeddings):
        img += embedding
        for layer, w in enumerate(stack.layers):
            q, k, v = _project(txt, img, w.txt_wqkv, w.img_wqkv, heads, cos, sin, proj)
            hook.projected(layer, t, *seen)
            _guide(k, v, s_t, cfg)
            hook.guided(layer, t, *seen[1:])
            _attend(q, k, v, q)  # each band's Q rows are dead once its logits exist
            hook.attended(layer, t, out)
            state += proj[:, :stack.dim]
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


def sweep(stack: ToyStack, batch: StreamBatch, dk_values, dv_values) -> dict[str, np.ndarray]:
    """One (n_dk, n_dv) surface per _METRICS name; [i, j] scores (dk_values[i], dv_values[j]).

    Each point is scored against the identity-config output, whose rendering
    range normalizes every point's image. Every point's config and the batch's
    rendering size are checked before the stack runs at all. A (1, 1) grid
    point reuses the rendered reference, the same bits a run would give, and
    scores mse 0, psnr at cap, ssim 1.
    """
    dks = [float(v) for v in dk_values]
    dvs = [float(v) for v in dv_values]
    if not dks or not dvs:
        raise ValueError("sweep needs non-empty delta_k and delta_v value lists")
    configs = [[GuidanceConfig(delta_k=dk, delta_v=dv) for dv in dvs] for dk in dks]
    if (side := token_grid(batch.img).shape[0]) < SSIM_WINDOW:  # token_grid checks the square
        raise ShapeError(f"{batch.img.shape[0]} image tokens render {side} x {side} pixels; ssim "
                         f"needs at least {SSIM_WINDOW} per side")

    identity = GuidanceConfig.identity()
    reference_block = run_stack(stack, batch, identity)
    grid = token_grid(reference_block)
    lo, hi = float(grid.min()), float(grid.max())
    reference = render_tokens(reference_block, lo, hi)  # raises if hi == lo

    surfaces = {name: np.empty((len(dks), len(dvs))) for name in _METRICS}
    for i, row in enumerate(configs):
        for j, cfg in enumerate(row):
            if cfg == identity:
                image = reference
            else:
                image = render_tokens(run_stack(stack, batch, cfg), lo, hi)
            for name, metric in _METRICS.items():
                surfaces[name][i, j] = metric(image, reference)
    return surfaces


def sweep_csv(dk_values, dv_values, surfaces) -> str:
    """CSV rows delta_k,delta_v then each _METRICS surface's value, row-major, 17 digits."""
    grid = (len(dk_values), len(dv_values))
    for name in _METRICS:
        if (shape := np.shape(surfaces.get(name))) != grid:
            raise ShapeError(f"{name} surface has shape {shape}, grid is {grid}")
    table = np.column_stack([np.repeat(dk_values, grid[1]), np.tile(dv_values, grid[0]),
                             *(np.ravel(surfaces[name]) for name in _METRICS)])
    return "\n".join([",".join(["delta_k", "delta_v", *_METRICS]), *_csv_lines(table)]) + "\n"
