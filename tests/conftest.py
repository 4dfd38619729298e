import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import dcag

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def child_env(**extra) -> dict:
    """os.environ for a child interpreter that imports the dcag under test first."""
    src = str(Path(dcag.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)
