"""Dual-channel attention guidance (DCAG) at desk scale.

Bias-delta rescaling of the Key and Value projections inside dual-stream
multi-modal attention, plus the tooling to study it: a seeded toy stack,
delta-to-bias ratio profiling, fidelity sweeps over the (delta_k, delta_v)
plane, and iso-level contour extraction. Everything is float64, pure, and
deterministic under a fixed seed.

Each module's ``__all__`` is its public surface; the package re-exports all of them.
"""

from . import attention, contours, errors, guidance, harness, metrics, profiling, tensors
from .attention import *
from .contours import *
from .errors import *
from .guidance import *
from .harness import *
from .metrics import *
from .profiling import *
from .tensors import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *tensors.__all__, *attention.__all__, *guidance.__all__,
           *profiling.__all__, *metrics.__all__, *harness.__all__, *contours.__all__]
