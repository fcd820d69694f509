"""Run one workload's CLI chain in a closed loop and report what happened.

Usage: python3 worker.py JOB.json RESULT.json

One client in one process: the chain's subcommands run one after another
through ``cinegaze.cli.main``, the public entry point, with their output
going to a fresh directory per run. A warm-up run comes first and is not
timed. Untraced mode then repeats timed runs until the time budget is
spent (at least ``min_runs``). Traced mode alternates an untraced and a
traced run, so both see the same machine state; the spans of the traced
runs are written to the job's span file at the end.

Every subcommand is one operation; a non-zero exit or an escaping
exception is a failed operation. After each run the output tree is
hashed outside the timed region; every run must reproduce the warm-up
run's bytes, and each such comparison is one more operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def tree_digest(root: Path) -> dict:
    """Relative path -> sha256 of every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(job_path, result_path) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from cinegaze import cli
    import spans

    out = Path(job["out"])
    chain = job["chain"]
    result = {"walls": [], "traced_walls": [], "ops": 0, "failures": []}
    reference = None
    tracer = spans.Tracer()

    def run(label, traced):
        nonlocal reference
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        undo = spans.install(tracer) if traced else None
        if traced:
            tracer.run = len(result["traced_walls"])
            root = tracer.open("chain")
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            for argv in chain:
                result["ops"] += 1
                if traced:
                    sid = tracer.open(f"cli.{argv[0]}", {"average": "--average" in argv})
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        rc = cli.main(argv)
                except Exception:  # a traceback escaping the CLI is a failed operation
                    rc = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
                finally:
                    if traced:
                        tracer.close(sid)
                if rc != 0:
                    result["failures"].append(f"{label}: {argv[0]} -> {rc} {sink.getvalue()[-300:]}")
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.close(root)
                spans.uninstall(undo)
        digest = tree_digest(out)
        if reference is None:
            reference = digest
            return wall
        result["ops"] += 1
        if digest != reference:
            result["failures"].append(f"{label}: outputs differ from the warm-up run")
        return wall

    run("warm-up", traced=False)
    start = time.perf_counter()
    while True:
        if job["trace"]:
            result["walls"].append(run(f"untraced {len(result['walls'])}", traced=False))
            result["traced_walls"].append(run(f"traced {len(result['traced_walls'])}",
                                              traced=True))
        else:
            result["walls"].append(run(f"run {len(result['walls'])}", traced=False))
        if (time.perf_counter() - start >= job["seconds"]
                and len(result["walls"]) >= job["min_runs"]):
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        with open(job["span_file"], "w") as f:
            for record in tracer.records():
                f.write(json.dumps(record) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
