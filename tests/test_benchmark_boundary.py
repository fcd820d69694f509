"""The benchmark (``perfbench/``) imports cinegaze names and its tracer
(``perfbench/spans.py``) wraps cinegaze's public functions by name; a run
fails when one of them is gone, or when what one returns loses an
attribute that the benchmark reads. This checks the names and the return
shapes against the package, so a rename shows up here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cinegaze.bench import benchmark_model
from cinegaze.core import ClipMeta, SaliencyMap
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ingest import fixation_map_for_frame
from cinegaze.ioc import IocConfig, loo_window_ioc, read_ioc_series, write_ioc_series
from cinegaze.metrics import cc, nss
from cinegaze.saliency import blur_fixations, make_kernel, resize_bilinear

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


def test_return_shapes_the_benchmark_reads(tmp_path):
    # perfbench/checks.py and the tracer's counters read these attributes of
    # what cinegaze returns; a change of return type breaks a benchmark run
    fix = generate_scanpaths(ScanpathFixture(seed=2, n_observers=3, frame_count=8,
                                             width=24, height=16, congruency=0.9,
                                             cluster_sigma=1.0))
    kernel = make_kernel(1.5)
    fmap = fixation_map_for_frame(fix, 0)
    # checks.py sums, subtracts and compares blurs through ``.values``
    blur = blur_fixations(fmap, kernel)
    assert isinstance(blur, SaliencyMap)
    assert isinstance(blur.values, np.ndarray) and blur.values.shape == (16, 24)
    assert isinstance(nss(blur.values + blur.values, fmap), float)
    assert isinstance(cc(SaliencyMap(blur.values), blur), float)
    # the tracer counts ``.size`` of a resize and reads ``.shape`` of maps
    assert resize_bilinear(blur.values, 12, 8).shape == (8, 12)
    # the tracer reads ``clip_id``, ``n`` and ``values`` of a series, and
    # checks.py iterates ``values`` of a series read back as (start, score)
    meta = ClipMeta(fix.clip_id, 8, 24, 16)
    series = loo_window_ioc(fix, meta, IocConfig(n=3, sigma_px=1.5))
    assert (series.clip_id, series.n) == (fix.clip_id, 3)
    assert [start for start, _ in series.values] == list(range(6))
    assert all(score is None or isinstance(score, float) for _, score in series.values)
    write_ioc_series(series, tmp_path / "s.csv")
    assert dict(read_ioc_series(tmp_path / "s.csv").values) == dict(series.values)
    # the tracer reads ``rows[i].frame_index`` and ``errors`` of a bench run
    result = benchmark_model({f: blur.values for f in range(8)}, fix, kernel,
                             metric_set=("CC",))
    assert {row.frame_index for row in result.rows} <= set(range(8))
    assert isinstance(result.errors, list)
