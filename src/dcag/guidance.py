"""Dual-channel bias-delta guidance on the image rows of K and V.

A guided block is split into a per-head token mean (the bias) and per-token
deviations (the deltas), then recombined with independent scales: the Key
channel steers where attention routes, the Value channel what the attended
tokens contribute. Scales of 1 on both channels are exactly the identity.

The decomposition keeps the low-order bits the subtraction rounds away
(`delta_residual`) and re-adds them when recombining. Without that
residual, plain float64 `bias + (x - bias)` differs from x in roughly one
Gaussian-distributed element out of eight, which would break the exact
identity and reconstruction guarantees this module advertises.

The public functions are validating wrappers over the kernels _decompose,
_rescale and _guide; the stack loop in harness calls _guide directly, and
profiling reads (bias, delta) from _bias_delta, the residual-free half of
_decompose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import JointQKV, LayerWeights, StreamBatch, joint_attention, project_qkv
from .errors import ConfigError, ShapeError
from .tensors import as_index, as_tensor, check_finite

__all__ = [
    "BiasDelta",
    "GuidanceConfig",
    "decompose",
    "rescale",
    "apply_dcag",
    "guided_attention",
    "parse_config",
    "load_config",
    "DEFAULT_DELTA_K",
    "DEFAULT_DELTA_V",
]

# Recommended operating point; (1.0, 1.0) everywhere is the identity.
DEFAULT_DELTA_K = 1.10
DEFAULT_DELTA_V = 1.15


def _sum_error(a, b, s):
    # Knuth's error-free transformation: for s = fl(a + b), s + err == a + b exactly.
    # err = (a - (s - bb)) + (b - bb), the same operations without temporaries
    bb = s - a
    err = s - bb
    np.subtract(a, err, out=err)
    np.subtract(b, bb, out=bb)
    err += bb
    return err


def _check_scale(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


@dataclass
class BiasDelta:
    """Bias-delta decomposition of an (S_i, H, d_h) block.

    bias is the per-head token mean (1, H, d_h), delta the per-token
    deviations, and delta_residual the subtraction's rounding error:
    bias + delta + delta_residual equals the block exactly in real
    arithmetic, and reconstruct() / rescale() evaluate that sum with
    compensation so the equality holds bit for bit in float64 too, except
    that a -0.0 comes back as +0.0 (decompose raises if deviations overflow).
    """

    bias: np.ndarray
    delta: np.ndarray
    delta_residual: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """The decomposed block, bit for bit but for a -0.0, which comes back as +0.0."""
        return rescale(self, 1.0)


def _bias_delta(block: np.ndarray):
    """(bias, delta) of an (S_i, H, d_h) block: the per-head token mean and block - bias."""
    bias = block.mean(axis=0, keepdims=True)
    return bias, block - bias


def _decompose(block: np.ndarray):
    """(bias, delta, delta_residual) of an (S_i, H, d_h) block."""
    bias, delta = _bias_delta(block)
    # IEEE subtraction is addition of the negation, so delta is fl(block + -bias)
    return bias, delta, _sum_error(block, -bias, delta)


def _rescale(bias, delta, residual, delta_scale: float) -> np.ndarray:
    """bias + delta_scale * (delta + residual), compensated."""
    b = delta_scale * delta
    total = bias + b
    carry = _sum_error(bias, b, total)
    carry += np.multiply(delta_scale, residual, out=b)  # b is spent: reuse it
    total += carry
    return total


@np.errstate(over="ignore", invalid="ignore")
def decompose(block) -> BiasDelta:
    """Split an (S_i, H, d_h) block into per-head token mean and deviations."""
    block = as_tensor(block, "block")
    if block.ndim != 3:
        raise ShapeError(f"decompose expects an (S_i, H, d_h) block, got shape {block.shape}")
    if block.shape[0] == 0:
        raise ValueError("decompose: empty token range")
    bias, delta, residual = _decompose(block)
    # an overflowing bias or difference leaves a non-finite delta
    return BiasDelta(bias=bias, delta=check_finite(delta, "delta"), delta_residual=residual)


@np.errstate(over="ignore", invalid="ignore")
def rescale(bd: BiasDelta, delta_scale) -> np.ndarray:
    """Recombine a decomposition as bias + delta_scale * delta.

    The scale must be finite and non-negative; 0 collapses every token onto
    the bias. At 1 the result equals the decomposed block bit for bit, except
    that a -0.0 comes back as +0.0 (decompose raises on overflowing deviations).
    """
    delta_scale = _check_scale(delta_scale, "delta_scale")
    return check_finite(_rescale(bd.bias, bd.delta, bd.delta_residual, delta_scale),
                        "rescaled block")


@dataclass(frozen=True)
class GuidanceConfig:
    """Scales and targeting for one guidance setup.

    Guidance applies to the image rows of whatever batch it runs on; an
    empty guided_layers set means every layer. The scale defaults are the
    recommended operating point, and all-ones scales are the declared
    identity configuration (no guidance at all).
    """

    delta_k: float = DEFAULT_DELTA_K
    delta_v: float = DEFAULT_DELTA_V
    guided_layers: frozenset[int] = frozenset()

    def __post_init__(self):
        try:
            for name in ("delta_k", "delta_v"):
                object.__setattr__(self, name, _check_scale(getattr(self, name), name))
            if isinstance(self.guided_layers, str):
                raise ValueError(f"guided_layers must be layer indices, not {self.guided_layers!r}")
            layers = frozenset(as_index(i, "guided_layers entry") for i in self.guided_layers)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if any(i < 0 for i in layers):
            raise ConfigError(f"guided_layers must be non-negative, got {sorted(layers)}")
        object.__setattr__(self, "guided_layers", layers)

    @classmethod
    def identity(cls) -> "GuidanceConfig":
        """The configuration under which guidance is a bitwise no-op."""
        return cls(delta_k=1.0, delta_v=1.0)

    def applies_to(self, layer: int) -> bool:
        layer = as_index(layer, "layer")
        return not self.guided_layers or layer in self.guided_layers


def _guide(k: np.ndarray, v: np.ndarray, i_s: int, cfg: GuidanceConfig) -> None:
    """Rescale the image rows k[i_s:] and v[i_s:] of (S, H, d_h) blocks in place.

    A channel at delta = 1 is left alone, which is what _rescale gives bit
    for bit, except that it turns -0.0 into +0.0 and fails on overflow.
    """
    for x, scale in ((k, cfg.delta_k), (v, cfg.delta_v)):
        if scale != 1.0:
            x[i_s:] = _rescale(*_decompose(x[i_s:]), scale)


@np.errstate(over="ignore", invalid="ignore")
def apply_dcag(qkv: JointQKV, cfg: GuidanceConfig) -> JointQKV:
    """Rescale the image rows of K and V; Q and the text rows pass through.

    K is decomposed as it arrives here (after RoPE), V as projected.
    Returns a new JointQKV; the input is untouched. With identity scales
    the output equals the input bit for bit.
    """
    k = np.array(qkv.k)
    v = np.array(qkv.v)
    _guide(k, v, qkv.img_range[0], cfg)
    return JointQKV._adopt(qkv.q, k, v, qkv.img_range)  # the copies above are the only ones


def guided_attention(batch: StreamBatch, weights: LayerWeights,
                     cfg: GuidanceConfig | None = None) -> np.ndarray:
    """One layer forward as an (S, D) array: project, guide (when cfg is given), attend.

    Layer gating via cfg.guided_layers is the stack runner's job; a config
    passed here is always applied.
    """
    qkv = project_qkv(batch, weights)
    if cfg is not None:
        qkv = apply_dcag(qkv, cfg)
    return joint_attention(qkv)


# --- plain-text key-value config documents ---------------------------------

_CONFIG_KEYS = ("delta_k", "delta_v", "guided_layers")


def parse_config(text: str) -> GuidanceConfig:
    """Parse a key-value config document; '#' starts a comment.

    Omitted keys fall back to the GuidanceConfig defaults.
    """
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key == "guided_layers":
            if value in ("all", ""):
                fields[key] = frozenset()
            else:
                try:
                    fields[key] = frozenset(int(part) for part in value.split(","))
                except ValueError:
                    raise ConfigError(
                        f"line {lineno}: guided_layers must be 'all' or comma-separated "
                        f"layer indices, got {value!r}"
                    ) from None
        else:
            try:
                fields[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    return GuidanceConfig(**fields)


def load_config(path) -> GuidanceConfig:
    """Read and parse a config file; a missing file is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(text)
