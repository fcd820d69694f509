"""tools/bench_pairs.py reads ``perfbench/run.py`` output and summarizes
interleaved pairs; tier-1 never runs the benchmark itself."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "data" / "run_model_bench_s1.txt"
BOUNDS = {"wall_s": 0.25, "peak_rss_mb": 0.25, "setup_s": 0.25}


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
    summary = pairs_tool.summarize(pairs, BOUNDS)
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
    # 4 wins in 5 is short of nine in ten
    assert [summary[m]["verdict"] for m in BOUNDS] == ["level"] * 3


def _pairs(base, change):
    return [{"base": {"correct": True, "metrics": {"wall_s": b}},
             "change": {"correct": True, "metrics": {"wall_s": c}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("base, change, verdict", [
    # every pair won, by more than the base's quartile spread
    ([3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.1], [2.0] * 10, "better"),
    # nine pairs in ten won, but within the base's quartile spread
    ([3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.0, 3.1, 3.2, 3.1],
     [2.95, 3.05, 3.15, 2.95, 3.05, 3.15, 2.95, 3.05, 3.15, 3.2], "level"),
    # 26% worse than the base's median, against a 25% bound
    ([1.0] * 10, [1.26] * 10, "worse"),
    ([1.0] * 10, [1.24] * 10, "level"),
    # the base's quartile spread (1.0 on a median of 2.0) is wider than
    # the bound: unresolved however the medians compare ...
    ([1.0, 1.5, 2.0, 2.5, 3.0], [1.0, 1.5, 2.0, 2.5, 3.0], "unresolved"),
    ([1.0, 1.5, 2.0, 2.5, 3.0], [4.0] * 5, "unresolved"),
    # ... unless every change run is lower than every base run
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5] * 5, "better"),
    # a tight base beside a change whose own quartile spread (0.875 on a
    # median of 1.45) is wider than the bound: unresolved while the runs
    # overlap ...
    ([1.0] * 10, [0.8, 0.9, 1.0, 1.3, 1.4, 1.5, 1.8, 2.0, 2.2, 2.4], "unresolved"),
    # ... and worse once every change run is above every base run
    ([1.0] * 10, [1.3, 1.4, 1.5, 2.0, 2.2, 2.4, 2.8, 3.0, 3.2, 3.4], "worse"),
])
def test_verdict_against_the_bound(pairs_tool, base, change, verdict):
    summary = pairs_tool.summarize(_pairs(base, change), {"wall_s": 0.25})
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["wall_s"]["verdict"] == verdict


def test_verdicts_of_a_recorded_file(pairs_tool):
    # BENCH_auc_judd_blocks.json: blocked AUC-Judd made model_bench faster;
    # two setup_s rows had a parent spread wider than the bound
    recorded = json.loads((ROOT / "BENCH_auc_judd_blocks.json").read_text())
    bounds = pairs_tool.declared_bounds()
    verdicts = {}
    for workload, seeds in recorded["workloads"].items():
        for seed, summary in seeds.items():
            pairs = [{side: {"correct": True,
                             "metrics": {m: summary[m][side][i] for m in bounds}}
                      for side in ("base", "change")} for i in range(summary["pairs"])]
            again = pairs_tool.summarize(pairs, bounds)
            verdicts.update({(workload, seed, m): again[m]["verdict"] for m in bounds
                             if again[m]["verdict"] != "level"})
    assert verdicts == {("model_bench", "1", "wall_s"): "better",
                        ("model_bench", "9001", "wall_s"): "better",
                        ("dataset_prep", "9001", "peak_rss_mb"): "better",
                        ("congruency_dense", "9001", "setup_s"): "unresolved",
                        ("dataset_prep", "9001", "setup_s"): "unresolved"}


def test_workloads_are_the_declared_ones(pairs_tool):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert pairs_tool.declared_workloads() == [w["name"] for w in declared["workloads"]]


def test_bounds_are_the_declared_ones(pairs_tool):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert pairs_tool.declared_bounds() == {m["name"]: m["bound"] for m in declared["end_to_end"]}


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
