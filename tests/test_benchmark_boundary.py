"""The benchmark's tracer (``perfbench/spans.py``) wraps cinegaze's public
functions by name, and a traced run fails when one of them is gone. This
checks the names against the package, so a rename shows up here first."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_exists():
    calls = load_spans().PUBLIC_CALLS
    missing = [f"cinegaze.{module}.{name}" for module, names in calls.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"cinegaze.{module}"),
                                       name, None))]
    assert calls and not missing, missing
