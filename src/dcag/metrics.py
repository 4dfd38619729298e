"""Desk-scale fidelity metrics on [0, 1] grayscale images."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .tensors import as_tensor

__all__ = ["mse", "psnr", "ssim", "PSNR_CAP_DB", "SSIM_WINDOW"]

PSNR_CAP_DB = 100.0
_PSNR_CAP_MSE = 1e-10  # 10*log10(1/1e-10) == 100 dB, so the cap is continuous

SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def _check_pair(a, b):
    a = as_tensor(a, "first image")
    b = as_tensor(b, "second image")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"images must be 2D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"image shapes disagree: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError(f"images must have pixels, got shape {a.shape}")
    for name, img in (("first image", a), ("second image", b)):
        if img.min() < 0.0 or img.max() > 1.0:
            raise ValueError(f"{name} has pixels outside [0, 1]")
    return a, b


def mse(a, b) -> float:
    """Mean squared difference."""
    a, b = _check_pair(a, b)
    d = a - b
    return float(np.mean(d * d))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio, -10*log10(mse) dB for unit peak.

    Saturates at 100 dB once mse drops below 1e-10, so identical images get
    a finite, documented value.
    """
    err = mse(a, b)
    if err < _PSNR_CAP_MSE:
        return PSNR_CAP_DB
    return float(-10.0 * np.log10(err))


def _gaussian_kernel() -> np.ndarray:
    coords = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords ** 2) / (2.0 * _SSIM_SIGMA ** 2))
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def _window_means(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    windows = sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def ssim(a, b) -> float:
    """Single-scale structural similarity.

    11x11 Gaussian window (sigma 1.5), stabilizers C1=(0.01)^2 and
    C2=(0.03)^2 for unit dynamic range, averaged over all interior window
    positions. The result lies in [-1, 1]; identical images give exactly 1.
    """
    a, b = _check_pair(a, b)
    if min(a.shape) < SSIM_WINDOW:
        raise ShapeError(
            f"ssim needs at least {SSIM_WINDOW} pixels per side, got {a.shape}"
        )
    kernel = _gaussian_kernel()
    mu_a = _window_means(a, kernel)
    mu_b = _window_means(b, kernel)
    var_a = _window_means(a * a, kernel) - mu_a * mu_a
    var_b = _window_means(b * b, kernel) - mu_b * mu_b
    cov = _window_means(a * b, kernel) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))
