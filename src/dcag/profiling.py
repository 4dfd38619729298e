"""Delta-to-bias ratio profiling across layers and denoising steps.

For a projected block X the ratio is mean_i ||X^i - mean(X)|| / ||mean(X)||,
i.e. how large the per-token deviations are relative to the shared bias
vector. Ratios are measured on the unguided stack, one value per
(layer, step) cell, from the post-RoPE image K block and the raw image V
block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .guidance import _decompose
from .harness import ToyStack, run_stack
from .tensors import as_tensor

__all__ = [
    "RatioProfile",
    "ratio",
    "profile_stack",
    "pearson",
    "ratios_csv",
    "heatmap_pgm",
]


def ratio(block) -> float:
    """Delta-to-bias ratio of an (S_i, H, d_h) block.

    Token vectors are flattened across heads, a whole-token reading of the
    norms. bias and delta are those guidance rescales.
    """
    block = as_tensor(block, "block")
    if block.ndim != 3:
        raise ShapeError(f"ratio expects an (S_i, H, d_h) block, got shape {block.shape}")
    count = block.shape[0]
    if count == 0:
        raise ValueError("ratio: empty token range")
    bias, delta = _decompose(block)[:2]
    bias_norm = float(np.sqrt(np.sum(bias * bias)))
    if bias_norm == 0.0:
        raise DegenerateInputError("ratio undefined for a zero-norm bias")
    delta = delta.reshape(count, -1)
    delta_norms = np.sqrt(np.sum(delta * delta, axis=1, keepdims=True))
    return float(delta_norms.mean() / bias_norm)


@dataclass
class RatioProfile:
    """Layer x step matrix of delta-to-bias ratios for one projection space."""

    space: str
    ratios: np.ndarray

    def __post_init__(self):
        if self.space not in ("K", "V"):
            raise ValueError(f"space must be 'K' or 'V', got {self.space!r}")
        self.ratios = as_tensor(self.ratios, "ratios")
        if self.ratios.ndim != 2:
            raise ShapeError(f"ratios must be (layers, steps), got shape {self.ratios.shape}")
        if np.any(self.ratios < 0.0):
            raise ValueError("ratios must be non-negative")


def profile_stack(stack: ToyStack, batch) -> tuple[RatioProfile, RatioProfile]:
    """Run the stack unguided and record K and V ratios at every (layer, step)."""
    ratios_k = np.zeros((len(stack.layers), stack.step_count))
    ratios_v = np.zeros((len(stack.layers), stack.step_count))

    def tap(layer, step, qkv):
        i_s, i_e = qkv.img_range
        ratios_k[layer, step] = ratio(qkv.k[i_s:i_e])
        ratios_v[layer, step] = ratio(qkv.v[i_s:i_e])

    run_stack(stack, batch, tap=tap)
    return RatioProfile("K", ratios_k), RatioProfile("V", ratios_v)


def pearson(a, b) -> float:
    """Pearson correlation between two equal-shaped matrices, over all entries."""
    a = as_tensor(a, "first profile").ravel()
    b = as_tensor(b, "second profile").ravel()
    if a.shape != b.shape:
        raise ShapeError(f"profiles disagree in size: {a.shape} vs {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    sa = np.sqrt(np.sum(da * da))
    sb = np.sqrt(np.sum(db * db))
    if sa == 0.0 or sb == 0.0:
        raise DegenerateInputError("pearson undefined for zero-variance input")
    return float(np.sum(da * db) / (sa * sb))


def ratios_csv(profile_k: RatioProfile, profile_v: RatioProfile) -> str:
    """CSV rows layer,step,ratio_k,ratio_v in layer-major order, 17 digits."""
    if profile_k.ratios.shape != profile_v.ratios.shape:
        raise ShapeError(
            f"profiles disagree in shape: {profile_k.ratios.shape} vs {profile_v.ratios.shape}"
        )
    lines = ["layer,step,ratio_k,ratio_v"]
    layers, steps = profile_k.ratios.shape
    for layer in range(layers):
        for step in range(steps):
            lines.append(
                f"{layer},{step},{profile_k.ratios[layer, step]:.17g},"
                f"{profile_v.ratios[layer, step]:.17g}"
            )
    return "\n".join(lines) + "\n"


def heatmap_pgm(profile: RatioProfile) -> str:
    """Plain (P2) portable graymap of a profile, min-max scaled to 0..255.

    Layers run along x, steps along y; a constant profile renders black.
    """
    r = profile.ratios
    if r.size == 0:
        raise ValueError("cannot render an empty profile")
    layers, steps = r.shape
    lo = float(r.min())
    hi = float(r.max())
    if hi > lo:
        levels = np.rint((r - lo) / (hi - lo) * 255.0).astype(np.int64)
    else:
        levels = np.zeros_like(r, dtype=np.int64)
    rows = [" ".join(str(levels[layer, step]) for layer in range(layers)) for step in range(steps)]
    return f"P2\n{layers} {steps}\n255\n" + "\n".join(rows) + "\n"
