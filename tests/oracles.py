"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the slow, obvious way (explicit
loops, no head reshaping, no shared code with the package) so that
agreement with the fast paths is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def naive_matmul(a, b):
    """Triple-loop matrix product with left-to-right accumulation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_softmax_row(row):
    shift = max(row)
    exps = [math.exp(v - shift) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def naive_attention(q, k, v):
    """Per-head scaled dot-product attention with explicit token loops.

    q, k, v are (S, H, d_h); returns (merged (S, H*d_h), weights (H, S, S)).
    """
    s, h, dh = q.shape
    scale = 1.0 / math.sqrt(dh)
    weights = np.zeros((h, s, s))
    merged = np.zeros((s, h * dh))
    for head in range(h):
        for i in range(s):
            logits = [scale * float(np.dot(q[i, head], k[j, head])) for j in range(s)]
            alpha = naive_softmax_row(logits)
            weights[head, i, :] = alpha
            acc = np.zeros(dh)
            for j in range(s):
                acc += alpha[j] * v[j, head]
            merged[i, head * dh:(head + 1) * dh] = acc
    return merged, weights


def naive_rope(x, positions, base=10000.0):
    """Pairwise rotation with per-token, per-pair scalar trigonometry."""
    x = np.asarray(x, dtype=np.float64)
    s, h, dh = x.shape
    out = np.empty_like(x)
    for t in range(s):
        for head in range(h):
            for j in range(dh // 2):
                theta = base ** (-2.0 * j / dh)
                angle = positions[t] * theta
                c, sn = math.cos(angle), math.sin(angle)
                a, b = x[t, head, 2 * j], x[t, head, 2 * j + 1]
                out[t, head, 2 * j] = a * c - b * sn
                out[t, head, 2 * j + 1] = a * sn + b * c
    return out


def key_only_forward(batch, weights, delta_k):
    """One full layer forward with Key-only bias-delta guidance.

    A from-scratch reimplementation: projections via np.dot, scalar RoPE,
    plain mean/subtract decomposition of the post-RoPE image K block
    (bias kept at scale 1, deltas scaled by delta_k), untouched V, and the
    loop-based attention above. Returns (txt_out, img_out).
    """
    txt = np.asarray(batch.txt, dtype=np.float64)
    img = np.asarray(batch.img, dtype=np.float64)
    h = weights.heads
    s_t, d = txt.shape
    s_i = img.shape[0]
    dh = d // h

    def heads_of(x):
        return x.reshape(x.shape[0], h, dh)

    pos_txt = list(range(s_t))
    pos_img = list(range(s_t, s_t + s_i))
    q = np.concatenate([
        naive_rope(heads_of(np.dot(txt, weights.txt_wqkv[:, :d])), pos_txt),
        naive_rope(heads_of(np.dot(img, weights.img_wqkv[:, :d])), pos_img),
    ])
    k = np.concatenate([
        naive_rope(heads_of(np.dot(txt, weights.txt_wqkv[:, d:2 * d])), pos_txt),
        naive_rope(heads_of(np.dot(img, weights.img_wqkv[:, d:2 * d])), pos_img),
    ])
    v = np.concatenate([
        heads_of(np.dot(txt, weights.txt_wqkv[:, 2 * d:])),
        heads_of(np.dot(img, weights.img_wqkv[:, 2 * d:])),
    ])

    k_img = k[s_t:]
    bias = k_img.mean(axis=0)
    k = k.copy()
    for i in range(s_i):
        k[s_t + i] = bias + delta_k * (k_img[i] - bias)

    merged, _ = naive_attention(q, k, v)
    return merged[:s_t], merged[s_t:]


def closed_form_attention(q, k, v, img_start, delta_k, delta_v):
    """Guided attention from the unguided post-RoPE q, k, v, by the paper's closed forms.

    It never forms a guided K or V. Per head, with L the scaled logit, b_k and b_v
    the image-row means of k and v, and c = q·b_k/√d_h per query row:
    - a text key keeps L, an image key gets L + (delta_k - 1)·(L - c);
    - with alpha the softmax of those logits, the output row is
      Σ_j alpha_j·v_j + (delta_v - 1)·Σ_{image j} alpha_j·(v_j - b_v).
    Each guided term is added to the unguided value, so a scale of exactly 1 adds
    exactly zero. Returns (merged (S, H*d_h), weights (H, S, S)).
    """
    s, h, dh = q.shape
    scale = 1.0 / math.sqrt(dh)
    weights = np.zeros((h, s, s))
    merged = np.zeros((s, h * dh))
    for head in range(h):
        b_k = np.zeros(dh)
        b_v = np.zeros(dh)
        for j in range(img_start, s):
            b_k += k[j, head]
            b_v += v[j, head]
        b_k /= s - img_start
        b_v /= s - img_start
        for i in range(s):
            c = scale * float(np.dot(q[i, head], b_k))
            logits = []
            for j in range(s):
                logit = scale * float(np.dot(q[i, head], k[j, head]))
                if j >= img_start:
                    logit += (delta_k - 1.0) * (logit - c)
                logits.append(logit)
            alpha = naive_softmax_row(logits)
            weights[head, i, :] = alpha
            acc = np.zeros(dh)
            shift = np.zeros(dh)
            for j in range(s):
                acc += alpha[j] * v[j, head]
                if j >= img_start:
                    shift += alpha[j] * (v[j, head] - b_v)
            merged[i, head * dh:(head + 1) * dh] = acc + (delta_v - 1.0) * shift
    return merged, weights


def naive_ssim(a, b, window=11, sigma=1.5, c1=0.01 ** 2, c2=0.03 ** 2):
    """Direct per-window SSIM with explicit convolution loops."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    coords = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * sigma ** 2))
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    rows = a.shape[0] - window + 1
    cols = a.shape[1] - window + 1
    values = []
    for i in range(rows):
        for j in range(cols):
            wa = a[i:i + window, j:j + window]
            wb = b[i:i + window, j:j + window]
            mu_a = float((kernel * wa).sum())
            mu_b = float((kernel * wb).sum())
            var_a = float((kernel * wa * wa).sum()) - mu_a ** 2
            var_b = float((kernel * wb * wb).sum()) - mu_b ** 2
            cov = float((kernel * wa * wb).sum()) - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            values.append(num / den)
    return sum(values) / len(values)


def bilinear(xs, ys, values, x, y):
    """Bilinear interpolation of a grid surface at an interior point."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    i = int(np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2))
    j = int(np.clip(np.searchsorted(ys, y, side="right") - 1, 0, ys.size - 2))
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    return (
        values[i, j] * (1 - tx) * (1 - ty)
        + values[i + 1, j] * tx * (1 - ty)
        + values[i, j + 1] * (1 - tx) * ty
        + values[i + 1, j + 1] * tx * ty
    )
