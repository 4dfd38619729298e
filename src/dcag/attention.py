"""Dual-stream multi-modal attention.

Text and image token streams are projected with separate QKV weights,
rotary position embeddings are applied to Q and K (1D contiguous positions,
text first), and the streams are concatenated for joint scaled-dot-product
attention over the full sequence. Guidance hooks in between projection and
attention, on the JointQKV value.

All value types validate and freeze their arrays (read-only, private
copies), so they are safe to share across threads. The public functions
are validating wrappers over private kernels that trust their inputs; the
stack loop in harness calls those kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensors import _softmax_rows, as_tensor, check_finite

__all__ = [
    "StreamBatch",
    "LayerWeights",
    "JointQKV",
    "rope",
    "project_qkv",
    "joint_attention",
    "attention_weights",
    "DEFAULT_ROPE_BASE",
]

DEFAULT_ROPE_BASE = 10000.0


def _frozen(x, name: str) -> np.ndarray:
    arr = check_finite(np.array(x, dtype=np.float64, order="C"), name)
    arr.flags.writeable = False
    return arr


@dataclass
class StreamBatch:
    """Paired text (S_t, D) and image (S_i, D) token blocks."""

    txt: np.ndarray
    img: np.ndarray

    def __post_init__(self):
        self.txt = _frozen(self.txt, "txt")
        self.img = _frozen(self.img, "img")
        if self.txt.ndim != 2 or self.img.ndim != 2:
            raise ShapeError(
                f"streams must be 2D token blocks, got txt {self.txt.shape}, img {self.img.shape}"
            )
        if self.txt.shape[0] < 1 or self.img.shape[0] < 1:
            raise ShapeError("each stream needs at least one token")
        if self.txt.shape[1] != self.img.shape[1]:
            raise ShapeError(
                f"streams disagree on hidden dimension: txt {self.txt.shape} vs img {self.img.shape}"
            )

    @property
    def dim(self) -> int:
        return self.txt.shape[1]


@dataclass
class LayerWeights:
    """Per-stream projection matrices for one attention layer.

    All six matrices are (D, D); D splits evenly into `heads` heads of
    d_h = D / heads coordinates each, and d_h is even (RoPE rotates pairs).
    """

    txt_wq: np.ndarray
    txt_wk: np.ndarray
    txt_wv: np.ndarray
    img_wq: np.ndarray
    img_wk: np.ndarray
    img_wv: np.ndarray
    heads: int

    def __post_init__(self):
        names = ("txt_wq", "txt_wk", "txt_wv", "img_wq", "img_wk", "img_wv")
        for name in names:
            setattr(self, name, _frozen(getattr(self, name), name))
        d = self.txt_wq.shape[0]
        for name in names:
            if getattr(self, name).shape != (d, d):
                raise ShapeError(
                    f"{name} must be ({d}, {d}), got {getattr(self, name).shape}"
                )
        if self.heads < 1:
            raise ValueError(f"heads must be positive, got {self.heads}")
        if d % self.heads != 0:
            raise ShapeError(f"hidden dimension {d} is not divisible by {self.heads} heads")
        if self.head_dim % 2 != 0:
            raise ShapeError(f"head dimension {self.head_dim} (hidden dimension {d} / "
                             f"{self.heads} heads) must be even for RoPE")

    @property
    def dim(self) -> int:
        return self.txt_wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class JointQKV:
    """Concatenated per-head Q, K, V of shape (S, H, d_h).

    RoPE is already applied to q and k; v never receives it. Image tokens
    occupy the half-open slice img_range of the sequence, text tokens the
    prefix before it.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    img_range: tuple[int, int]

    def __post_init__(self):
        self.q = _frozen(self.q, "q")
        self.k = _frozen(self.k, "k")
        self.v = _frozen(self.v, "v")
        if self.q.ndim != 3:
            raise ShapeError(f"q/k/v must be (S, H, d_h), got {self.q.shape}")
        if self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ShapeError(
                f"q, k, v shapes disagree: {self.q.shape}, {self.k.shape}, {self.v.shape}"
            )
        i_s, i_e = (int(self.img_range[0]), int(self.img_range[1]))
        self.img_range = (i_s, i_e)
        if not (0 <= i_s < i_e == self.q.shape[0]):
            raise ShapeError(
                f"image range {self.img_range} inconsistent with sequence length {self.q.shape[0]}"
            )


def _rope_table(positions: np.ndarray, head_dim: int):
    """cos and sin of every (position, pair) angle, each shaped (S, 1, d_h / 2)."""
    theta = DEFAULT_ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
    angles = positions[:, None] * theta[None, :]
    return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the (S, H, d_h) block x in place; x may be a strided view."""
    even, odd = x[:, :, 0::2], x[:, :, 1::2]
    even[...], odd[...] = even * cos - odd * sin, even * sin + odd * cos
    return x


@np.errstate(over="ignore", invalid="ignore")
def rope(x, positions) -> np.ndarray:
    """Rotate consecutive coordinate pairs (2j, 2j+1) of an (S, H, d_h) block.

    Pair j of the token at position p turns by the angle
    p * DEFAULT_ROPE_BASE**(-2j/d_h).
    Every rotation is an isometry, so per-pair norms are preserved; position
    0 is left untouched.
    """
    x = as_tensor(x, "rope input")
    if x.ndim != 3:
        raise ShapeError(f"rope expects an (S, H, d_h) block, got shape {x.shape}")
    s, _, dh = x.shape
    if dh % 2 != 0:
        raise ValueError(f"rope needs an even head dimension, got d_h={dh}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (s,):
        raise ShapeError(f"need one position per token: {pos.shape} positions for {s} tokens")
    return check_finite(_rope(x.copy(), *_rope_table(pos, dh)), "rope output")


def _stacked(weights: LayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """The text and image [Wq|Wk|Wv] matrices, (D, 3D) each: one matmul per stream."""
    return (np.concatenate([weights.txt_wq, weights.txt_wk, weights.txt_wv], axis=1),
            np.concatenate([weights.img_wq, weights.img_wk, weights.img_wv], axis=1))


def _project(txt, img, w_txt, w_img, heads: int, cos, sin, out: np.ndarray):
    """Q, K, V of the joint sequence as (S, H, d_h) views into out (S, 3D).

    w_txt and w_img come from _stacked, cos and sin from _rope_table over
    positions 0..S-1; RoPE is applied to Q and K.
    """
    np.matmul(txt, w_txt, out=out[:txt.shape[0]])
    np.matmul(img, w_img, out=out[txt.shape[0]:])
    q, k, v = out.reshape(out.shape[0], 3, heads, -1).transpose(1, 0, 2, 3)
    return _rope(q, cos, sin), _rope(k, cos, sin), v


@np.errstate(over="ignore", invalid="ignore")
def project_qkv(batch: StreamBatch, weights: LayerWeights) -> JointQKV:
    """Project both streams to per-head Q, K, V and apply RoPE to Q and K.

    Positions run 0..S_t-1 over the text tokens and continue contiguously
    S_t..S_t+S_i-1 over the image tokens. Returns the concatenated
    JointQKV, text first, with img_range = (S_t, S_t + S_i).
    """
    if batch.dim != weights.dim:
        raise ShapeError(
            f"batch hidden dimension {batch.dim} does not match weights {weights.dim}"
        )
    s_t = batch.txt.shape[0]
    s = s_t + batch.img.shape[0]
    cos, sin = _rope_table(np.arange(s, dtype=np.float64), weights.head_dim)
    q, k, v = _project(batch.txt, batch.img, *_stacked(weights), weights.heads, cos, sin,
                       np.empty((s, 3 * weights.dim)))
    return JointQKV(q=q, k=k, v=v, img_range=(s_t, s))


def _logits(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scaled logits (S, S) of one head's (S, d_h) q and k, written into out."""
    np.matmul(q, k.T, out=out)
    out *= 1.0 / np.sqrt(q.shape[1])
    return out


def _attend(q, k, v, weights, out: np.ndarray) -> np.ndarray:
    """Attention of (S, H, d_h) blocks into out (S, H, d_h), one head at a time.

    weights yields one C-contiguous (S, S) buffer per head: one buffer
    repeated H times, or the slices of an (H, S, S) tensor. Each is left
    holding its head's softmax weights. These are the per-head gemm calls a
    batched (H, S, S) matmul makes, so the results are bitwise the same.
    Query-block tiling is not: BLAS rounds row blocks differently.
    """
    for head, w in enumerate(weights):
        _softmax_rows(_logits(q[:, head], k[:, head], w))
        np.matmul(w, v[:, head], out=out[:, head])
    return out


@np.errstate(over="ignore", invalid="ignore")
def attention_weights(qkv: JointQKV) -> np.ndarray:
    """Per-head attention weight tensor (H, S, S); every row sums to 1."""
    s, h, dh = qkv.q.shape
    weights = np.empty((h, s, s))
    _attend(qkv.q, qkv.k, qkv.v, weights, np.empty((s, h, dh)))
    return check_finite(weights, "attention weights")


@np.errstate(over="ignore", invalid="ignore")
def joint_attention(qkv: JointQKV) -> StreamBatch:
    """Scaled dot-product attention over the joint sequence.

    Heads are re-merged and the output is split back into text and image
    streams at the image range boundary (so the text prefix must be
    non-empty; use attention_weights for image-only fixtures). Every head
    reuses one (S, S) buffer; attention_weights returns the (H, S, S) tensor.
    """
    s, h, dh = qkv.q.shape
    merged = _attend(qkv.q, qkv.k, qkv.v, (np.empty((s, s)),) * h,
                     np.empty((s, h, dh))).reshape(s, h * dh)
    i_s, i_e = qkv.img_range
    return StreamBatch(txt=merged[:i_s], img=merged[i_s:i_e])
