"""The benchmark (``perfbench/``) imports cinegaze names and its tracer
(``perfbench/spans.py``) wraps cinegaze's public functions by name; a run
fails when one of them is gone. This checks the names against the package,
so a rename shows up here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
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


def test_every_benchmark_import_resolves():
    # every ``from cinegaze[.module] import name``, at any depth of any file
    imports = [(path.name, node.module, alias.name)
               for path in sorted(PERFBENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module or "").split(".")[0] == "cinegaze"
               for alias in node.names]
    missing = []
    for filename, module, name in imports:
        package = importlib.import_module(module)
        if not hasattr(package, name):
            try:  # ``from cinegaze import cli`` names a submodule
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{filename}: from {module} import {name}")
    assert imports and not missing, missing
