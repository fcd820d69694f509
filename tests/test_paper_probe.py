"""tools/paper_probe.py at a few frames: its output parses as a benchmark
run, and its ingest and average-map checks hold; tier-1 never runs it
at full size."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_output_parses_as_a_run():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    pairs_tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs_tool)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "paper_probe.py"),
                           "--frames", "6", "--seed", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = pairs_tool.parse_run(proc.stdout)
    assert run["facts"]["seed"] == 3
    assert (run["correct"], run["failed"], run["attempted"]) == (True, 0, 8)
    stages = ("ingest_clip", "write_fixations", "read_fixations", "average_map")
    assert set(run["metrics"]) == {f"{stage}{suffix}" for stage in stages
                                   for suffix in ("_s", "_peak_rss_mb", "_s_projected")}
    for stage in stages:
        assert run["metrics"][f"{stage}_s"] > 0
        assert run["metrics"][f"{stage}_s_projected"] > run["metrics"][f"{stage}_s"]
    assert "projection to 94000 frames" in proc.stdout
