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
from .tensors import _softmax_rows, as_index, as_real, as_tensor, check_finite

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
    # checked before it is copied, so the check's temporary and the copy never coexist
    arr = np.array(as_real(x, name), order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StreamBatch:
    """Paired text (S_t, D) and image (S_i, D) token blocks."""

    txt: np.ndarray
    img: np.ndarray

    def __post_init__(self):
        for name in ("txt", "img"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
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
    """Per-stream fused projection matrices for one attention layer.

    txt_wqkv and img_wqkv are each stream's [Wq|Wk|Wv], (D, 3D), stored as
    read-only private copies in a frozen instance; D splits evenly into
    `heads` heads of d_h = D / heads coordinates each, and d_h is even (RoPE
    rotates pairs).
    """

    txt_wqkv: np.ndarray
    img_wqkv: np.ndarray
    heads: int

    def __post_init__(self):
        if np.ndim(self.txt_wqkv) == 0:  # dim reads txt_wqkv's rows
            raise ShapeError("txt_wqkv must be a (D, 3D) matrix, got a scalar")
        for name in ("txt_wqkv", "img_wqkv"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
            if getattr(self, name).shape != (d := self.dim, 3 * d):  # D from txt_wqkv, frozen first
                raise ShapeError(f"{name} must be ({d}, {3 * d}), got {getattr(self, name).shape}")
        object.__setattr__(self, "heads", as_index(self.heads, "heads"))
        if self.heads < 1:
            raise ValueError(f"heads must be positive, got {self.heads}")
        if d % self.heads != 0:
            raise ShapeError(f"hidden dimension {d} is not divisible by {self.heads} heads")
        if (d // self.heads) % 2 != 0:
            raise ShapeError(f"head dimension {d // self.heads} (hidden dimension {d} / "
                             f"{self.heads} heads) must be even for RoPE")

    @property
    def dim(self) -> int:
        return self.txt_wqkv.shape[0]


@dataclass(frozen=True)
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
        for name in ("q", "k", "v"):
            object.__setattr__(self, name, _frozen(getattr(self, name), name))
        if self.q.ndim != 3:
            raise ShapeError(f"q/k/v must be (S, H, d_h), got {self.q.shape}")
        if self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ShapeError(
                f"q, k, v shapes disagree: {self.q.shape}, {self.k.shape}, {self.v.shape}"
            )
        i_s, i_e = (as_index(i, "img_range bound") for i in self.img_range)
        object.__setattr__(self, "img_range", (i_s, i_e))
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
            object.__setattr__(qkv, name, check_finite(arr, name))
        object.__setattr__(qkv, "img_range", img_range)
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
    pos = as_real(positions, "positions")
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
    h = weights.heads
    cos, sin = _rope_table(np.arange(s, dtype=np.float64), weights.dim // h, h)
    q, k, v = _project(batch.txt, batch.img, weights.txt_wqkv, weights.img_wqkv, h,
                       cos, sin, np.empty((s, 3 * weights.dim)))
    return JointQKV(q=q, k=k, v=v, img_range=(s_t, s))


def _logits(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Scaled logits (R, S) of one head's (R, d_h) q against its (S, d_h) k, into out."""
    np.matmul(q, k.T, out=out)
    out *= 1.0 / np.sqrt(q.shape[1])
    return out


_BAND_BYTES = 4 * 1024 * 1024  # the largest (S, S) kept whole, and the largest band
_MIN_BAND_MACS = 2 ** 21  # the fewest multiply-adds of a band's weighted sum
_MIN_BAND_ROWS = 128  # the fewest rows of a band finer than _BAND_BYTES allows


def _band_shape(s: int, d_h: int) -> tuple[int, int]:
    """The (R, S) weights buffer of _attend, which cli also counts without allocating it.

    R = S while one (S, S) fits in _BAND_BYTES. Above that the S rows split into the most
    near-equal bands whose weighted sums keep _MIN_BAND_MACS multiply-adds (past 10^6 OpenBLAS
    rounds a band as the whole product when S is a multiple of 8) and whose rows number at
    least _MIN_BAND_ROWS (fewer cost time per band), but never fewer bands than of at most
    _BAND_BYTES (one row if a row is larger). R is the largest band's row count.
    """
    bands = -(-s // max(1, _BAND_BYTES // (8 * s)))
    if bands > 1:
        bands = max(bands, min(s * s * d_h // _MIN_BAND_MACS, s // _MIN_BAND_ROWS))
    return -(-s // bands), s


def _bands(s: int, d_h: int) -> list[tuple[int, int]]:
    """The (lo, hi) query-row bands that _band_shape(s, d_h) describes: sizes within one row."""
    count = -(-s // _band_shape(s, d_h)[0])
    return [(i * s // count, (i + 1) * s // count) for i in range(count)]


def _attend(q, k, v, out, weights=None):
    """Attention of (S, H, d_h) blocks into out (S, H, d_h), one head and _bands band at a time.

    A band is one logits matmul against every key, one softmax and one weighted sum, on a
    prefix of one _band_shape buffer, or on its rows of (H, S, S) weights, if given, with no
    sum (weights is returned). out may be q: a band's sum overwrites only rows its logits have
    read. Bands keep the unbanded bits where OpenBLAS rounds a band as the whole product. Once
    d_h·max|q|·max|k|, a bound on every logit, reaches 1e300, each band's logits are checked.
    """
    s, h, d_h = q.shape
    band = np.empty(_band_shape(s, d_h)) if weights is None else None
    bands = _bands(s, d_h)
    bound = d_h * float(max(q.max(), -q.min())) * float(max(k.max(), -k.min()))
    for head in range(h):
        for lo, hi in bands:
            logits = _logits(q[lo:hi, head], k[:, head],
                             band[:hi - lo] if weights is None else weights[head, lo:hi])
            if not bound < 1e300:
                check_finite(np.array([logits.min(), logits.max()]), "attention logits")
            w = _softmax_rows(logits)
            if weights is None:
                np.matmul(w, v[:, head], out=out[lo:hi, head])
    return out if weights is None else weights


@np.errstate(over="ignore", invalid="ignore")
def attention_weights(qkv: JointQKV) -> np.ndarray:
    """joint_attention's (H, S, S) weights, from _attend's bands; rows sum to 1."""
    s, h, _ = qkv.q.shape
    return _attend(qkv.q, qkv.k, None, None, np.empty((h, s, s)))


@np.errstate(over="ignore", invalid="ignore")
def joint_attention(qkv: JointQKV) -> np.ndarray:
    """Scaled dot-product attention over the joint sequence, as a read-only (S, D) array.

    Heads are re-merged into one output row per token, text rows first,
    image rows at img_range. attention_weights returns the (H, S, S) weights it sums with.
    """
    out = _attend(qkv.q, qkv.k, qkv.v, np.empty(qkv.q.shape)).reshape(len(qkv.q), -1)
    out.flags.writeable = False
    return check_finite(out, "attention output")
