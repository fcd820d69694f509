"""The cinegaze benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload congruency_dense --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed (set-up, timed
separately), then a worker process runs the workload's CLI chain in a
closed loop for ``--seconds`` (see worker.py) and the outputs are checked
(see checks.py). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds traced runs and reports the per-layer metrics (see
spans.py). The last line of standard output is the JSON result; the
lines before it, each starting with '#', say what was run and measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: BLAS/OpenMP thread caps for every process of the benchmark (<= nproc)
THREAD_CAP = "1"
CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
SETUP_REPS = 9  # timed set-ups, after one untimed warm-up set-up
MIN_RUNS = 3
DEADLINE_S = 170.0   # whole invocation, set-up and checks included
CHECK_RESERVE_S = 40.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # reserved for confirming claims; not used while tuning


def _facts(np_version, scipy_version) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np_version, "scipy": scipy_version,
            "thread_caps": {v: os.environ[v] for v in CAP_VARS},
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


def _declared(root: Path) -> dict:
    """BENCHMARK.json, or {} when the checkout has none."""
    try:
        return json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def _say(line: str) -> None:
    print("# " + line, flush=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args, Path.cwd())


def run(args, root: Path) -> int:
    t_start = time.perf_counter()
    declared = _declared(root)
    import numpy
    import scipy
    from checks import CHECKS
    from worker import tree_digest
    from workloads import WORKLOADS

    generate, chain_of = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    traces = root / ".bench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _say("facts " + json.dumps(_facts(numpy.__version__, scipy.__version__)))
        why = next((w["why"] for w in declared.get("workloads", [])
                    if w["name"] == args.workload), "")
        _say(f"workload {args.workload} seed {args.seed}: {why}")

        # set-up: generate the inputs several times, keep the last copy
        inputs = work / "inputs"
        setup_times, digests = [], []
        for _ in range(1 + SETUP_REPS):
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            t0 = time.perf_counter()
            manifest = generate(args.seed, inputs)
            setup_times.append(time.perf_counter() - t0)
            digests.append(tree_digest(inputs))
        setup_times = setup_times[1:]  # the first set-up warms up the interpreter
        _say("sizes " + json.dumps(manifest["sizes"]))
        checks = [("set-up gives identical inputs on every repetition",
                   all(d == digests[0] for d in digests), "")]

        # timed runs, in a worker process of their own
        out = work / "out"
        span_file = traces / f"{args.workload}-s{args.seed}.jsonl"
        job = {"src": str(root / "src"), "out": str(out), "seconds": args.seconds,
               "trace": args.trace, "min_runs": MIN_RUNS, "span_file": str(span_file),
               "chain": chain_of(inputs, out)}
        (work / "job.json").write_text(json.dumps(job))
        budget = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - t_start)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work / "job.json"),
                 str(work / "result.json")],
                capture_output=True, text=True, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            print(f"error: the {args.workload} chain did not finish within {budget:.0f} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: benchmark worker failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())

        # output checks, outside the timed region
        checks += CHECKS[args.workload](manifest, inputs, out)

        walls = result["walls"]
        wall = statistics.median(walls)
        _say(f"wall_s = {wall:.4f} s, median of {len(walls)} runs "
             f"({', '.join(f'{w:.3f}' for w in walls)})")
        if args.trace:
            metrics = _layer_metrics(span_file, out, result, wall, checks)
        else:
            setup = statistics.median(setup_times)
            metrics = {"wall_s": (wall, "s"),
                       "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                       "setup_s": (setup, "s")}
            _say(f"peak_rss_mb = {result['peak_rss_mb']:.1f} MB (worker process)")
            _say(f"setup_s = {setup:.4f} s, median of {SETUP_REPS} set-ups")

        kind = "per_layer" if args.trace else "end_to_end"
        if kind in declared:
            names = {m["name"] for m in declared[kind]}
            checks.append((f"reported metrics are exactly the declared {kind} metrics",
                           names == set(metrics), f"{sorted(names ^ set(metrics))}"))
        failures = list(result["failures"]) + [f"check failed: {name}: {detail}"
                                              for name, ok, detail in checks if not ok]
        attempted = result["ops"] + len(checks)
        _say(f"error_rate = {len(failures) / attempted:.6f} ratio "
             f"({len(failures)} failed of {attempted} operations: "
             f"{result['ops']} subcommands and output comparisons, {len(checks)} checks)")
        for line in failures:
            _say("FAIL " + line.replace("\n", " | ")[:400])
        print(json.dumps({
            "correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_metrics(span_file, out, result, wall, checks) -> dict:
    """Per-layer metrics from the traced runs' spans; appends the trace checks."""
    from checks import window_point_counts
    from cinegaze.ingest import read_fixations
    import spans

    records = [json.loads(line) for line in span_file.read_text().splitlines()]
    cache = {}

    def window_counts(clip, n):
        if (clip, n) not in cache:
            path = next(out.rglob(f"{clip}_fixations.csv"))
            cache[(clip, n)] = window_point_counts(read_fixations(path), n)
        return cache[(clip, n)]

    metrics, notes = spans.layer_metrics(records, window_counts)
    traced = statistics.median(result["traced_walls"])
    metrics["trace.overhead_s"] = (traced - wall, "s")
    counts = notes["counts"]
    checks.append(("exact counts identical in every traced run",
                   all(c == counts[0] for c in counts), json.dumps(counts[0])))
    gaps = {r: abs(a["wall_s"] - a["self_sum_s"]) for r, a in notes["accounting"].items()}
    checks.append(("module self times plus cli.other_s add up to the traced wall",
                   all(g <= 1e-6 * notes["accounting"][r]["wall_s"] for r, g in gaps.items()),
                   json.dumps(gaps)))
    first = counts[0]
    checks.append(("ingest rows in = points out + dropped",
                   first["ingest.rows_in"] == first["ingest.points_out"] + first["ingest.dropped"],
                   ""))
    _say(f"traced wall = {traced:.4f} s, median of {len(result['traced_walls'])} traced runs; "
         f"spans in {span_file.relative_to(out.parents[2])}")
    for name, tail in notes["tails"].items():
        if tail["samples"]:
            _say(f"{name}.tail is p{tail['percentile']} of {tail['samples']} calls")
    return metrics


if __name__ == "__main__":
    _root = Path.cwd()
    if not (_root / "src" / "cinegaze" / "__init__.py").is_file():
        print("error: no cinegaze sources under ./src; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    for _var in CAP_VARS:
        os.environ[_var] = THREAD_CAP
    sys.path.insert(0, str(_root / "src"))
    # a terminated benchmark still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
