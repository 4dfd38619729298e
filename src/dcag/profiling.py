"""Delta-to-bias ratio profiling across layers and denoising steps.

For a projected block X the ratio is mean_i ||X^i - mean(X)|| / ||mean(X)||,
i.e. how large the per-token deviations are relative to the shared bias
vector. Ratios are measured on the unguided stack, one value per
(layer, step) cell, from the post-RoPE image K block and the raw image V
block.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .guidance import GuidanceConfig, _bias_delta
from .harness import StackHook, ToyStack, run_stack
from .tensors import _csv_lines, as_real, as_tensor

__all__ = [
    "ratio",
    "profile_stack",
    "pearson",
    "ratios_csv",
    "heatmap_pgm",
]


def ratio(block) -> float:
    """Delta-to-bias ratio of an (S_i, H, d_h) block.

    Token vectors are flattened across heads, a whole-token reading of the
    norms. bias and delta are those guidance rescales. The block may be a
    strided view, such as a StackHook point's; it is read, not copied.
    """
    block = as_real(block, "block")
    if block.ndim != 3:
        raise ShapeError(f"ratio expects an (S_i, H, d_h) block, got shape {block.shape}")
    if block.shape[0] == 0:
        raise ValueError("ratio: empty token range")
    bias, delta = _bias_delta(block)
    bias_norm = float(np.sqrt(np.sum(bias * bias)))
    if bias_norm == 0.0:
        raise DegenerateInputError("ratio undefined for a zero-norm bias")
    delta = delta.reshape(delta.shape[0], -1)
    delta *= delta
    return float(np.sqrt(np.sum(delta, axis=1, keepdims=True)).mean() / bias_norm)


def profile_stack(stack: ToyStack, batch) -> tuple[np.ndarray, np.ndarray]:
    """Run the stack unguided; the K and V ratios of every cell, each shaped (layers, steps)."""
    ratios_k = np.zeros((len(stack.layers), stack.step_count))
    ratios_v = np.zeros((len(stack.layers), stack.step_count))

    s_t = batch.txt.shape[0]

    class Ratios(StackHook):
        def projected(self, layer, step, q, k, v):
            ratios_k[layer, step] = ratio(k[s_t:])
            ratios_v[layer, step] = ratio(v[s_t:])

    run_stack(stack, batch, GuidanceConfig.identity(), hook=Ratios())
    return ratios_k, ratios_v


def _check_ratios(ratios, name: str) -> np.ndarray:
    """A finite, non-negative (layers, steps) ratio map as a float64 array."""
    ratios = as_tensor(ratios, name)
    if ratios.ndim != 2:
        raise ShapeError(f"{name} must be (layers, steps), got shape {ratios.shape}")
    if np.any(ratios < 0.0):
        raise ValueError(f"{name} must be non-negative")
    return ratios


def pearson(a, b) -> float:
    """Pearson correlation between two equal-shaped matrices, over all entries."""
    a, b = as_tensor(a, "first profile"), as_tensor(b, "second profile")
    if a.shape != b.shape:
        raise ShapeError(f"profiles disagree in shape: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DegenerateInputError("pearson undefined for empty input")
    a, b = a.ravel(), b.ravel()
    da = a - a.mean()
    db = b - b.mean()
    sa = np.sqrt(np.sum(da * da))
    sb = np.sqrt(np.sum(db * db))
    if sa == 0.0 or sb == 0.0:
        raise DegenerateInputError("pearson undefined for zero-variance input")
    return float(np.sum(da * db) / (sa * sb))


def ratios_csv(ratios_k, ratios_v) -> str:
    """CSV rows layer,step,ratio_k,ratio_v of two (layers, steps) maps, layer-major, 17 digits."""
    ratios_k, ratios_v = _check_ratios(ratios_k, "ratios_k"), _check_ratios(ratios_v, "ratios_v")
    if ratios_k.shape != ratios_v.shape:
        raise ShapeError(f"profiles disagree in shape: {ratios_k.shape} vs {ratios_v.shape}")
    # layer and step pass as floats, which print as the same integers
    table = np.column_stack([*np.indices(ratios_k.shape).reshape(2, -1),
                             ratios_k.ravel(), ratios_v.ravel()])
    return "\n".join(["layer,step,ratio_k,ratio_v", *_csv_lines(table)]) + "\n"


def heatmap_pgm(ratios) -> str:
    """Plain (P2) portable graymap of a (layers, steps) ratio map, min-max scaled to 0..255.

    Layers run along x, steps along y; a constant map renders black.
    """
    r = _check_ratios(ratios, "ratios")
    if r.size == 0:
        raise ValueError("cannot render an empty profile")
    layers, steps = r.shape
    lo, hi = float(r.min()), float(r.max())
    levels = np.rint((r - lo) / ((hi - lo) or 1.0) * 255.0).astype(np.int64)  # constant: all 0
    rows = [" ".join(str(levels[layer, step]) for layer in range(layers)) for step in range(steps)]
    return f"P2\n{layers} {steps}\n255\n" + "\n".join(rows) + "\n"
