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
_rescale and _guide; the stack loop in harness calls _guide directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import JointQKV, LayerWeights, StreamBatch, joint_attention, project_qkv
from .errors import ConfigError, ShapeError
from .tensors import as_tensor, check_finite

__all__ = [
    "BiasDelta",
    "GuidanceConfig",
    "decompose",
    "rescale",
    "apply_dcag",
    "guided_attention",
    "parse_config",
    "format_config",
    "load_config",
    "save_config",
    "DEFAULT_DELTA_K",
    "DEFAULT_DELTA_V",
]

# Recommended operating point; (1.0, 1.0) everywhere is the identity.
DEFAULT_DELTA_K = 1.10
DEFAULT_DELTA_V = 1.15


def _two_sum(a, b):
    # Knuth's error-free transformation: s + err == a + b exactly.
    # err = (a - (s - bb)) + (b - bb), the same operations without temporaries
    s = a + b
    bb = s - a
    err = s - bb
    np.subtract(a, err, out=err)
    np.subtract(b, bb, out=bb)
    err += bb
    return s, err


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
    compensation so the equality holds bit for bit in float64 too.
    """

    bias: np.ndarray
    delta: np.ndarray
    delta_residual: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """The decomposed block, bit for bit."""
        return rescale(self, 1.0, 1.0)


def _decompose(block: np.ndarray):
    """(bias, delta, delta_residual) of an (S_i, H, d_h) block."""
    bias = block.mean(axis=0, keepdims=True)
    delta, residual = _two_sum(block, -bias)
    return bias, delta, residual


def _rescale(bias, delta, residual, lam: float, delta_scale: float) -> np.ndarray:
    """lam * bias + delta_scale * (delta + residual), compensated."""
    total, carry = _two_sum(lam * bias, delta_scale * delta)
    return total + (carry + delta_scale * residual)


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
def rescale(bd: BiasDelta, lam, delta_scale) -> np.ndarray:
    """Recombine a decomposition as lam * bias + delta_scale * delta.

    Scales must be finite and non-negative; 0 removes the corresponding
    part entirely (delta_scale=0 collapses every token onto the bias).
    At (1, 1) the result equals the decomposed block bit for bit.
    """
    lam = _check_scale(lam, "lam")
    delta_scale = _check_scale(delta_scale, "delta_scale")
    return check_finite(_rescale(bd.bias, bd.delta, bd.delta_residual, lam, delta_scale),
                        "rescaled block")


@dataclass(frozen=True)
class GuidanceConfig:
    """Scales and targeting for one guidance setup.

    token_range is the half-open [start, stop) slice of image tokens in the
    joint sequence; an empty guided_layers set means every layer. The scale
    defaults are the recommended operating point, and all-ones scales are
    the declared identity configuration (no guidance at all).
    """

    token_range: tuple[int, int]
    delta_k: float = DEFAULT_DELTA_K
    delta_v: float = DEFAULT_DELTA_V
    lambda_k: float = 1.0
    lambda_v: float = 1.0
    guided_layers: frozenset[int] = frozenset()

    def __post_init__(self):
        i_s, i_e = (int(self.token_range[0]), int(self.token_range[1]))
        if not 0 <= i_s < i_e:
            raise ConfigError(f"token_range must satisfy 0 <= start < stop, got {i_s}:{i_e}")
        object.__setattr__(self, "token_range", (i_s, i_e))
        for name in ("delta_k", "delta_v", "lambda_k", "lambda_v"):
            try:
                value = _check_scale(getattr(self, name), name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            object.__setattr__(self, name, value)
        layers = frozenset(int(i) for i in self.guided_layers)
        if any(i < 0 for i in layers):
            raise ConfigError(f"guided_layers must be non-negative, got {sorted(layers)}")
        object.__setattr__(self, "guided_layers", layers)

    @classmethod
    def identity(cls, token_range) -> "GuidanceConfig":
        """The configuration under which guidance is a bitwise no-op."""
        return cls(token_range=token_range, delta_k=1.0, delta_v=1.0)

    def applies_to(self, layer: int) -> bool:
        return not self.guided_layers or int(layer) in self.guided_layers


def _check_range(cfg: GuidanceConfig, img_range) -> None:
    if tuple(cfg.token_range) != tuple(img_range):
        raise ConfigError(
            f"config token_range {cfg.token_range} does not match the "
            f"image token range {tuple(img_range)}"
        )


def _guide(k: np.ndarray, v: np.ndarray, i_s: int, cfg: GuidanceConfig) -> None:
    """Rescale the image rows k[i_s:] and v[i_s:] of (S, H, d_h) blocks in place."""
    k[i_s:] = _rescale(*_decompose(k[i_s:]), cfg.lambda_k, cfg.delta_k)
    v[i_s:] = _rescale(*_decompose(v[i_s:]), cfg.lambda_v, cfg.delta_v)


@np.errstate(over="ignore", invalid="ignore")
def apply_dcag(qkv: JointQKV, cfg: GuidanceConfig) -> JointQKV:
    """Rescale the image rows of K and V; Q and the text rows pass through.

    K is decomposed as it arrives here (after RoPE), V as projected.
    Returns a new JointQKV; the input is untouched. With identity scales
    the output equals the input bit for bit.
    """
    _check_range(cfg, qkv.img_range)
    k = np.array(qkv.k)
    v = np.array(qkv.v)
    _guide(k, v, qkv.img_range[0], cfg)
    return JointQKV(q=qkv.q, k=k, v=v, img_range=qkv.img_range)


def guided_attention(batch: StreamBatch, weights: LayerWeights,
                     cfg: GuidanceConfig | None = None) -> StreamBatch:
    """One full layer forward: project, guide (when cfg is given), attend.

    Layer gating via cfg.guided_layers is the stack runner's job; a config
    passed here is always applied.
    """
    qkv = project_qkv(batch, weights)
    if cfg is not None:
        qkv = apply_dcag(qkv, cfg)
    return joint_attention(qkv)


# --- plain-text key-value config documents ---------------------------------

_CONFIG_KEYS = ("delta_k", "delta_v", "lambda_k", "lambda_v", "token_range", "guided_layers")


def format_config(cfg: GuidanceConfig) -> str:
    """Render a config as the plain-text key-value document."""
    layers = "all" if not cfg.guided_layers else ",".join(str(i) for i in sorted(cfg.guided_layers))
    lines = [
        f"delta_k = {cfg.delta_k:.17g}",
        f"delta_v = {cfg.delta_v:.17g}",
        f"lambda_k = {cfg.lambda_k:.17g}",
        f"lambda_v = {cfg.lambda_v:.17g}",
        f"token_range = {cfg.token_range[0]}:{cfg.token_range[1]}",
        f"guided_layers = {layers}",
    ]
    return "\n".join(lines) + "\n"


def parse_config(text: str, default_token_range=None) -> GuidanceConfig:
    """Parse a key-value config document; '#' starts a comment.

    Omitted scale keys fall back to the GuidanceConfig defaults and an
    omitted token_range to default_token_range (required one way or the
    other).
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
        if key == "token_range":
            try:
                start, stop = value.split(":")
                fields[key] = (int(start), int(stop))
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: token_range must be 'start:stop', got {value!r}"
                ) from None
        elif key == "guided_layers":
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
    if "token_range" not in fields:
        if default_token_range is None:
            raise ConfigError("config is missing token_range and no default was supplied")
        fields["token_range"] = default_token_range
    return GuidanceConfig(**fields)


def load_config(path, default_token_range=None) -> GuidanceConfig:
    """Read and parse a config file; a missing file is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(text, default_token_range=default_token_range)


def save_config(cfg: GuidanceConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(format_config(cfg))
