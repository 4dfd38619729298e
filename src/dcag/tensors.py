"""Dense float64 kernels that every other module builds on.

Public functions validate their inputs, never mutate them and return
fresh arrays; private kernels (leading underscore) trust their inputs and
may work in place. Everything runs in float64 so the analytical identities
the test suite asserts hold at machine precision, and every reduction uses
a fixed order, so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import operator

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


def as_real(x, name: str) -> np.ndarray:
    """x as a finite float64 array, copied only if it is not one; the one coercion of
    every public array argument. Anything but bools, integers and floats raises ValueError."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":  # numpy would raise a TypeError or drop an imaginary part
        raise ValueError(f"{name} must hold real numbers, got {type(x).__name__} of {arr.dtype}")
    return check_finite(arr.astype(np.float64, copy=False), name)


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """as_real's array, C-contiguous."""
    return np.ascontiguousarray(as_real(x, name))


def as_index(value, name: str) -> int:
    """An integer argument (numpy integers too) as an int; anything else raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _csv_lines(rows):
    """Each row of a 2-D float array as one 17-significant-digit CSV line, without newline; one
    row at a time becomes Python floats (faster to format than numpy's), never the whole array."""
    rows = np.asarray(rows, dtype=np.float64)
    fmt = ",".join(["%.17g"] * rows.shape[-1])
    for row in rows:
        yield fmt % tuple(row.tolist())


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


# Upper bound on the bytes of one row block of _softmax_rows (one row if a row is larger).
_SOFTMAX_BLOCK_BYTES = 512 * 1024


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of x, computed in place on views of x; returns x.

    The passes run over first-axis blocks (of rows, for a 2-D x), so their temporaries
    are block-sized; every operation is row-local, so the blocking changes no bit.
    exp underflows to exactly +0.0 below -746 and is slow there, so a block
    with such dead entries exps and divides only its live ones and clamps the
    dead ones to +0.0, the value exp and 0/sum give. A block with no dead
    entry runs the plain exp and divide (a masked ufunc costs more even when
    every mask bit is set), and a block of one-hot rows, whose sums are all
    exactly 1, skips the divide: x / 1.0 is x.
    """
    step = max(1, _SOFTMAX_BLOCK_BYTES // (x.shape[-1] * x.itemsize))
    for start in range(0, x.shape[0], step):
        block = x[start:start + step]
        block -= block.max(axis=-1, keepdims=True)
        live = block >= -746.0
        dense = live.all()
        if dense:
            np.exp(block, out=block)
        else:
            np.exp(block, out=block, where=live)
            np.maximum(block, 0.0, out=block)  # evaluated entries are already >= +0.0
        sums = block.sum(axis=-1, keepdims=True)
        if (sums != 1.0).any():
            np.divide(block, sums, out=block, where=True if dense else live)
    return x
