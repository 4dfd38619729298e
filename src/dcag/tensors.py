"""Dense float64 kernels that every other module builds on.

Public functions validate their inputs, never mutate them and return
fresh arrays; private kernels (leading underscore) trust their inputs and
may work in place. Everything runs in float64 so the analytical identities
the test suite asserts hold at machine precision, and every reduction uses
a fixed order, so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["matmul", "softmax_rows"]


def check_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """Return arr, or raise ValueError if any element is inf or nan.

    Kernels run with overflow warnings off; their callers check results here.
    """
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array, rejecting non-finite values."""
    return check_finite(np.ascontiguousarray(x, dtype=np.float64), name)


@np.errstate(over="ignore", invalid="ignore")
def matmul(a, b) -> np.ndarray:
    """Matrix product of a (m, k) and b (k, n)."""
    a = as_tensor(a, "left operand")
    b = as_tensor(b, "right operand")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return check_finite(a @ b, "matmul result")


@np.errstate(over="ignore", invalid="ignore")
def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax of an (m, n) matrix with per-row max subtraction.

    Each output row is non-negative and sums to 1 within 1e-12; the max
    subtraction makes the result stable and invariant under per-row
    constant logit shifts.
    """
    x = as_tensor(x, "logits")
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {x.shape}")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError(f"softmax_rows: empty dimension in shape {x.shape}")
    return _softmax_rows(x.copy())


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of x, computed in place; returns x."""
    x -= x.max(axis=-1, keepdims=True)
    # exp underflows to exactly 0 below -746 and is slow there: skip those
    # entries, then zero them (every evaluated entry is non-negative)
    np.exp(x, out=x, where=x >= -746.0)
    np.copyto(x, 0.0, where=x < 0.0)
    x /= x.sum(axis=-1, keepdims=True)
    return x
