"""Dual-channel attention guidance (DCAG) at desk scale.

Bias-delta rescaling of the Key and Value projections inside dual-stream
multi-modal attention, plus the tooling to study it: a seeded toy stack,
delta-to-bias ratio profiling, fidelity sweeps over the (delta_k, delta_v)
plane, and iso-level contour extraction. Everything is float64, pure, and
deterministic under a fixed seed.
"""

from .attention import (
    DEFAULT_ROPE_BASE,
    JointQKV,
    LayerWeights,
    StreamBatch,
    attention_weights,
    joint_attention,
    project_qkv,
    rope,
)
from .contours import contour_text, iso_contour, marching_squares
from .errors import ConfigError, DegenerateInputError, ShapeError
from .guidance import (
    DEFAULT_DELTA_K,
    DEFAULT_DELTA_V,
    BiasDelta,
    GuidanceConfig,
    apply_dcag,
    decompose,
    guided_attention,
    load_config,
    parse_config,
    rescale,
)
from .harness import (
    SweepRecord,
    SweepResult,
    ToyStack,
    render_tokens,
    run_stack,
    seeded_batch,
    sweep,
    sweep_csv,
    token_grid,
)
from .metrics import PSNR_CAP_DB, SSIM_WINDOW, mse, psnr, ssim
from .profiling import RatioProfile, heatmap_pgm, pearson, profile_stack, ratio, ratios_csv
from .tensors import matmul, softmax_rows

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateInputError",
    "ShapeError",
    "matmul",
    "softmax_rows",
    "StreamBatch",
    "LayerWeights",
    "JointQKV",
    "rope",
    "project_qkv",
    "joint_attention",
    "attention_weights",
    "DEFAULT_ROPE_BASE",
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
    "RatioProfile",
    "ratio",
    "profile_stack",
    "pearson",
    "ratios_csv",
    "heatmap_pgm",
    "mse",
    "psnr",
    "ssim",
    "PSNR_CAP_DB",
    "SSIM_WINDOW",
    "ToyStack",
    "seeded_batch",
    "run_stack",
    "token_grid",
    "render_tokens",
    "SweepRecord",
    "SweepResult",
    "sweep",
    "sweep_csv",
    "marching_squares",
    "iso_contour",
    "contour_text",
]
