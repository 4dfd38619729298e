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

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensors import _SOFTMAX_BLOCK_BYTES, _softmax_rows, as_index, as_tensor, check_finite

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


@dataclass(frozen=True)
class LayerWeights:
    """Per-stream projection matrices for one attention layer.

    All six matrices are (D, D); D splits evenly into `heads` heads of
    d_h = D / heads coordinates each, and d_h is even (RoPE rotates pairs).
    Each stream's [Wq|Wk|Wv] is stored once, as the read-only (D, 3D)
    txt_wqkv and img_wqkv; the six matrix fields are read-only views into them,
    and the instance is frozen, so the two cannot diverge.
    """

    txt_wq: np.ndarray
    txt_wk: np.ndarray
    txt_wv: np.ndarray
    img_wq: np.ndarray
    img_wk: np.ndarray
    img_wv: np.ndarray
    heads: int
    txt_wqkv: np.ndarray = field(init=False, repr=False)
    img_wqkv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = ("txt_wq", "txt_wk", "txt_wv", "img_wq", "img_wk", "img_wv")
        mats = [check_finite(np.asarray(getattr(self, name), dtype=np.float64), name)
                for name in names]
        d = mats[0].shape[0]
        for name, mat in zip(names, mats):
            if mat.shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {mat.shape}")
        object.__setattr__(self, "heads", as_index(self.heads, "heads"))
        if self.heads < 1:
            raise ValueError(f"heads must be positive, got {self.heads}")
        if d % self.heads != 0:
            raise ShapeError(f"hidden dimension {d} is not divisible by {self.heads} heads")
        if (d // self.heads) % 2 != 0:
            raise ShapeError(f"head dimension {d // self.heads} (hidden dimension {d} / "
                             f"{self.heads} heads) must be even for RoPE")
        for stream, stream_mats in (("txt", mats[:3]), ("img", mats[3:])):
            fused = np.concatenate(stream_mats, axis=1)
            fused.flags.writeable = False
            object.__setattr__(self, f"{stream}_wqkv", fused)
            for j, part in enumerate(("wq", "wk", "wv")):
                object.__setattr__(self, f"{stream}_{part}", fused[:, j * d:(j + 1) * d])

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
        self.img_range = i_s, i_e = tuple(as_index(i, "img_range bound") for i in self.img_range)
        if not (0 <= i_s < i_e == self.q.shape[0]):
            raise ShapeError(
                f"image range {self.img_range} inconsistent with sequence length {self.q.shape[0]}"
            )

    @classmethod
    def _adopt(cls, q, k, v, img_range) -> "JointQKV":
        """A JointQKV of a valid one's shapes over arrays no caller holds: frozen, not copied."""
        qkv = cls.__new__(cls)
        for name, arr in (("q", q), ("k", k), ("v", v)):
            arr.flags.writeable = False
            setattr(qkv, name, check_finite(arr, name))
        qkv.img_range = img_range
        return qkv


def _rope_table(positions: np.ndarray, head_dim: int, heads: int):
    """cos and sin of every (position, pair) angle, tiled over heads: each (S, H·d_h/2)."""
    theta = DEFAULT_ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
    angles = positions[:, None] * theta[None, :]
    return np.tile(np.cos(angles), heads), np.tile(np.sin(angles), heads)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the pairs of the (S, H·d_h) block x in place, on two temporaries; x may be a view."""
    even, odd = x[:, 0::2], x[:, 1::2]
    a, b = even * cos, odd * sin
    a -= b  # even*cos - odd*sin
    np.multiply(even, sin, out=b)
    even[...] = a
    np.multiply(odd, cos, out=a)
    b += a  # even*sin + odd*cos
    odd[...] = b
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
    s, h, dh = x.shape
    if dh % 2 != 0:
        raise ValueError(f"rope needs an even head dimension, got d_h={dh}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (s,):
        raise ShapeError(f"need one position per token: {pos.shape} positions for {s} tokens")
    out = x.copy()
    _rope(out.reshape(s, h * dh), *_rope_table(pos, dh, h))
    return check_finite(out, "rope output")


def _project(txt, img, w_txt, w_img, heads: int, cos, sin, out: np.ndarray):
    """Q, K, V of the joint sequence as (S, H, d_h) views into out (S, 3D).

    w_txt and w_img are a LayerWeights' txt_wqkv and img_wqkv, cos and sin
    come from _rope_table over positions 0..S-1; RoPE rotates the Q and K
    columns of out in place.
    """
    np.matmul(txt, w_txt, out=out[:txt.shape[0]])
    np.matmul(img, w_img, out=out[txt.shape[0]:])
    d = out.shape[1] // 3
    _rope(out[:, :d], cos, sin)
    _rope(out[:, d:2 * d], cos, sin)
    return out.reshape(out.shape[0], 3, heads, -1).transpose(1, 0, 2, 3)


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
    cos, sin = _rope_table(np.arange(s, dtype=np.float64), weights.head_dim, weights.heads)
    q, k, v = _project(batch.txt, batch.img, weights.txt_wqkv, weights.img_wqkv, weights.heads,
                       cos, sin, np.empty((s, 3 * weights.dim)))
    return JointQKV(q=q, k=k, v=v, img_range=(s_t, s))


def _logits(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scaled logits (G, S, S) of G heads' (S, G, d_h) q and k, written into out."""
    np.matmul(q.transpose(1, 0, 2), k.transpose(1, 2, 0), out=out)
    out *= 1.0 / np.sqrt(q.shape[2])
    return out


def _group_buffer(s: int, heads: int) -> np.ndarray:
    """The (G, S, S) weights buffer _attend fills G heads at a time.

    G is as many heads as fit in one softmax row block, at least one, so a
    buffer over one (S, S) is never larger than _SOFTMAX_BLOCK_BYTES.
    """
    return np.empty((max(1, min(heads, _SOFTMAX_BLOCK_BYTES // (s * s * 8))), s, s))


def _attend(q, k, v, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Attention of (S, H, d_h) blocks into out (S, H, d_h), G heads at a time.

    weights is a C-contiguous (G, S, S) buffer; each group of G heads runs as
    one batched logits matmul, one softmax and one batched weighted sum, and
    leaves its softmax weights in the buffer. A batched matmul makes the same
    per-head gemm calls as a loop over heads, so any G gives the same bits.
    Query-block tiling would not: BLAS rounds row blocks differently.
    """
    g, h = weights.shape[0], q.shape[1]
    for first in range(0, h, g):
        heads = slice(first, first + g)  # the last group may be shorter
        w = _softmax_rows(_logits(q[:, heads], k[:, heads], weights[:h - first]))
        np.matmul(w, v[:, heads].transpose(1, 0, 2), out=out[:, heads].transpose(1, 0, 2))
    return out


@np.errstate(over="ignore", invalid="ignore")
def attention_weights(qkv: JointQKV) -> np.ndarray:
    """Per-head attention weight tensor (H, S, S); every row sums to 1."""
    s, h, dh = qkv.q.shape
    weights = np.empty((h, s, s))
    _attend(qkv.q, qkv.k, qkv.v, weights, np.empty((s, h, dh)))
    # entries are in [0, 1] or NaN: a row sum is finite exactly when its row is
    check_finite(weights.sum(axis=2), "attention weights")
    return weights


@np.errstate(over="ignore", invalid="ignore")
def joint_attention(qkv: JointQKV) -> np.ndarray:
    """Scaled dot-product attention over the joint sequence, as a read-only (S, D) array.

    Heads are re-merged into one output row per token, text rows first,
    image rows at img_range. The heads share one _group_buffer;
    attention_weights returns the (H, S, S) tensor.
    """
    s, h, dh = qkv.q.shape
    out = np.empty((s, h * dh))
    _attend(qkv.q, qkv.k, qkv.v, _group_buffer(s, h), out.reshape(s, h, dh))
    out.flags.writeable = False
    return check_finite(out, "attention output")
