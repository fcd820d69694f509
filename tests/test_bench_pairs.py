"""tools/bench_pairs.py reads ``perfbench/run.py`` output and summarizes
interleaved pairs; tier-1 never runs the benchmark itself."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "data" / "run_model_bench_s1.txt"


@pytest.fixture(scope="module")
def pairs_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parses_a_recorded_run(pairs_tool):
    run = pairs_tool.parse_run(RECORDED.read_text())
    assert run["facts"]["nproc"] == 2 and run["facts"]["held_out_seed"] == 9001
    assert (run["correct"], run["failed"], run["attempted"]) == (True, 0, 39)
    assert run["chain_walls"] == [2.285, 2.233, 2.165]
    assert run["metrics"] == {"wall_s": 2.2325093509998624, "peak_rss_mb": 114.75,
                              "setup_s": 0.20774722900023335}


def test_a_run_without_output_is_an_error(pairs_tool):
    with pytest.raises(ValueError):
        pairs_tool.parse_run("\n")


def test_sides_alternate_which_runs_first(pairs_tool):
    assert [pairs_tool.order(i) for i in range(3)] == [
        ("base", "change"), ("change", "base"), ("base", "change")]


def test_summary_medians_quartiles_and_wins(pairs_tool):
    def run(wall, rss, setup, correct=True):
        return {"correct": correct,
                "metrics": {"wall_s": wall, "peak_rss_mb": rss, "setup_s": setup}}
    pairs = [{"base": run(3.0, 100.0, 0.2), "change": run(2.0, 100.0, 0.3)},
             {"base": run(3.2, 101.0, 0.2), "change": run(2.1, 100.5, 0.1)},
             {"base": run(2.9, 100.0, 0.2), "change": run(3.0, 100.0, 0.2, correct=False)},
             {"base": run(3.1, 100.0, 0.4), "change": run(2.2, 101.0, 0.2)},
             {"base": run(3.3, 100.0, 0.2), "change": run(2.0, 100.0, 0.2)}]
    summary = pairs_tool.summarize(pairs)
    assert summary["pairs"] == 5
    assert summary["failed_runs"] == {"base": 0, "change": 1}
    wall = summary["wall_s"]
    assert wall["base"] == [3.0, 3.2, 2.9, 3.1, 3.3]
    assert wall["base_quartiles"] == {"median": 3.1, "q1": 3.0, "q3": 3.2}
    assert wall["change_quartiles"] == {"median": 2.1, "q1": 2.0, "q3": 2.2}
    assert wall["change_won"] == 4
    assert wall["median_ratio"] == pytest.approx(2.1 / 3.1)
    # ties are not wins
    assert summary["peak_rss_mb"]["change_won"] == 1
    assert summary["setup_s"]["change_won"] == 2


def test_workloads_are_the_declared_ones(pairs_tool):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert pairs_tool.declared_workloads() == [w["name"] for w in declared["workloads"]]


def test_tree_facts_digest_the_benchmark_apart_from_the_code(pairs_tool, tmp_path):
    trees = []
    for name in ("a", "b"):
        tree = tmp_path / name
        (tree / "src").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "src" / "m.py").write_text("x = 1\n")
        (tree / "perfbench" / "run.py").write_text("y = 1\n")
        (tree / "BENCHMARK.json").write_text("{}\n")
        trees.append(tree)
    a, b = (pairs_tool.tree_facts(tree) for tree in trees)
    assert a == b
    (trees[1] / "BENCHMARK.json").write_text('{"run_seconds": 10}\n')
    b = pairs_tool.tree_facts(trees[1])
    assert b["src_sha256"] == a["src_sha256"]
    assert b["benchmark_sha256"] != a["benchmark_sha256"]
    (trees[1] / "perfbench" / "__pycache__").mkdir()
    (trees[1] / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    assert pairs_tool.tree_facts(trees[1]) == b
