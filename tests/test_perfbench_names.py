"""The benchmark tracer wraps dcag functions by name; each name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_label_is_a_dcag_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines TRACED and Tracer; installs nothing
    missing = []
    for label in tracer.TRACED:
        module, name = label.split(".")
        if not callable(getattr(importlib.import_module(f"dcag.{module}"), name, None)):
            missing.append(label)
    assert tracer.TRACED and not missing
