"""Interleaved before/after pairs of the cinegaze benchmark, as one JSON file.

Runs ``python3 perfbench/run.py`` on two source trees, a base and a
change, for each workload and seed. Pair ``i`` runs the base first when
``i`` is even and the change first when it is odd, so drift of a shared
host weighs on both sides alike. Each tree runs its own ``perfbench/``
from its own root, as the benchmark expects:

    python3 tools/bench_pairs.py --base ../parent --change . --label auc_judd_blocks \\
        --workloads model_bench --seeds 1 9001 --pairs 10

The workloads are those that ``BENCHMARK.json`` declares, and ``run.py``
runs with its own defaults (the benchmark's run length, untraced). It
writes ``BENCH_<label>.json``: each tree's commit, a digest of its
``src/`` and a digest of its benchmark (``perfbench/`` and
``BENCHMARK.json``), whether the two benchmark digests match, the machine
facts that ``run.py`` prints, and per workload and seed every run of each
end-to-end metric that ``BENCHMARK.json`` declares (``wall_s``,
``peak_rss_mb``, ``setup_s``; lower is better for all three) with their
medians, quartiles, the pairs the change won and a verdict against the
metric's declared bound. The file reports the spread of each side as
measured; nothing is dropped or re-run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 9001)


def declared_workloads(root: Path = ROOT) -> list:
    """The workload names that ``BENCHMARK.json`` under ``root`` declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in declared["workloads"]]


def declared_bounds(root: Path = ROOT) -> dict:
    """Each end-to-end metric that ``BENCHMARK.json`` under ``root``
    declares, with its bound: the share of the base's median by which the
    change's median may be worse."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    if any(m["better"] != "lower" for m in declared["end_to_end"]):
        raise ValueError("summarize compares lower-is-better metrics only")
    return {m["name"]: m["bound"] for m in declared["end_to_end"]}


def parse_run(stdout: str) -> dict:
    """One ``run.py`` output: its machine facts, its result, the chain
    walls behind ``wall_s``, and each end-to-end metric's value."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    facts, chain_walls = None, None
    for line in lines[:-1]:
        if line.startswith("# facts "):
            facts = json.loads(line[len("# facts "):])
        elif line.startswith("# wall_s = ") and "(" in line:
            inside = line[line.rindex("(") + 1:line.rindex(")")]
            chain_walls = [float(v) for v in inside.split(",")]
    return {"facts": facts, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "chain_walls": chain_walls,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values) -> dict:
    """Median and quartiles (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, bounds: dict) -> dict:
    """Per metric of ``bounds``: both sides' values in pair order, their
    quartiles, the pairs the change won (strictly lower), the ratio of the
    medians and a verdict. ``pairs`` holds ``{"base": run, "change": run}``
    of parsed runs.

    The verdict, in this order of precedence:

    - ``unresolved``: the base's quartile spread is wider than the bound
      (as a share of its median), unless every change run is lower than
      every base run;
    - ``better``: the change won at least nine pairs in ten, and its
      median is lower by more than the base's quartile spread;
    - ``worse``: the change's median is higher than the base's by more
      than the bound, unless the change's own quartile spread is wider
      than the bound (as a share of its median) and its runs overlap the
      base's: then ``unresolved``, since a tight base next to a noisy
      change is no evidence that the change is slower;
    - ``level``: none of these.
    """
    out = {"pairs": len(pairs),
           "failed_runs": {side: sum(1 for p in pairs if not p[side]["correct"])
                           for side in ("base", "change")}}
    for name, bound in bounds.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        b, c = quartiles(base), quartiles(change)
        won = sum(1 for x, y in zip(base, change) if y < x)
        spread = b["q3"] - b["q1"]
        if spread > bound * b["median"] and max(change) >= min(base):
            verdict = "unresolved"
        elif won >= 0.9 * len(pairs) and b["median"] - c["median"] > spread:
            verdict = "better"
        elif c["median"] > (1 + bound) * b["median"]:
            noisy = c["q3"] - c["q1"] > bound * c["median"] and min(change) <= max(base)
            verdict = "unresolved" if noisy else "worse"
        else:
            verdict = "level"
        out[name] = {"base": base, "change": change, "base_quartiles": b,
                     "change_quartiles": c, "change_won": won,
                     "median_ratio": c["median"] / b["median"] if b["median"] else None,
                     "bound": bound, "verdict": verdict}
    return out


def order(pair_index: int) -> tuple:
    """Which side runs first in a pair: alternating, base first in pair 0."""
    return ("base", "change") if pair_index % 2 == 0 else ("change", "base")


def digest(tree: Path, tops) -> str:
    """SHA-256 of every file (path and bytes) under the paths ``tops`` of
    ``tree``, files or directories, ``__pycache__`` left out."""
    sha = hashlib.sha256()
    for top in tops:
        path = tree / top
        for file in [path] if path.is_file() else sorted(path.rglob("*")):
            if file.is_file() and "__pycache__" not in file.parts:
                sha.update(str(file.relative_to(tree)).encode() + b"\0" + file.read_bytes())
    return sha.hexdigest()


def tree_facts(tree: Path) -> dict:
    """The tree's git commit (None outside a git checkout) and digests of
    the code measured (``src/``) and of the benchmark that measured it."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"commit": commit, "src_sha256": digest(tree, ["src"]),
            "benchmark_sha256": digest(tree, ["perfbench", "BENCHMARK.json"])}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="tree before the change")
    parser.add_argument("--change", required=True, type=Path, help="tree with the change")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    workloads = declared_workloads()
    bounds = declared_bounds()
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    out = Path(f"BENCH_{args.label}.json")
    facts = {side: tree_facts(tree) for side, tree in trees.items()}
    same = facts["base"]["benchmark_sha256"] == facts["change"]["benchmark_sha256"]
    if not same:
        print("warning: the two trees run different benchmarks (perfbench/ or "
              "BENCHMARK.json differ)", file=sys.stderr, flush=True)
    doc = {"label": args.label, "trees": facts, "same_benchmark": same,
           "facts": None, "workloads": {}}
    for workload in args.workloads:
        for seed in args.seeds:
            pairs = []
            for i in range(args.pairs):
                pair = {}
                for side in order(i):
                    pair[side] = run_once(trees[side], workload, seed)
                    doc["facts"] = doc["facts"] or pair[side]["facts"]
                pairs.append(pair)
                wall = [pair[s]["metrics"]["wall_s"] for s in ("base", "change")]
                print(f"{time.strftime('%H:%M:%S')} {workload} seed {seed} pair {i + 1}: "
                      f"wall_s {wall[0]:.3f} -> {wall[1]:.3f}", flush=True)
            summary = summarize(pairs, bounds)
            summary["runs"] = [{side: {k: p[side][k] for k in ("correct", "failed",
                                                               "attempted", "chain_walls")}
                                for side in ("base", "change")} for p in pairs]
            doc["workloads"].setdefault(workload, {})[str(seed)] = summary
            # written after each workload and seed, so a stopped run keeps them
            out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"-> {out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
