"""Ingest stages at the paper's scale, in one process, outside the benchmark.

Generates one fixed-seed clip of the paper's shape (1920x800 frames on a
1920x1200 display, 14 observers, shot cuts) as a 250 Hz gaze export, about
10 samples per observer per frame, with known shares of saccades, invalid
samples, letterboxed points and malformed rows. Then it times four
stages in-process: ``ingest_clip`` on the export, ``write_fixations`` of
the result, ``read_fixations`` of that file, and ``average_map`` over
every frame of the clip it read, at sigma 45 px (one degree), as
``saliency --average`` runs it. Run from anywhere:

    python3 tools/paper_probe.py --frames 4700 --seed 1

4,700 frames at 250 Hz are about 685,000 export rows, one paper-sized
clip. Each stage reports its seconds and its peak RSS above the RSS at
its start, sampled every 2 ms from /proc/self/statm (Linux), so a spike
shorter than that can be missed. The seconds are also projected linearly
to the paper's ~94,000 frames; that figure is a projection, not a
measurement.

The output follows ``perfbench/run.py``: ``#`` lines say what was run
and measured, and the last line is the JSON result, which
``tools/bench_pairs.py``'s ``parse_run`` reads. ``correct`` says whether
the ingest report equals the planted drops exactly, the file read back
holds every point, and the average map is finite, non-negative and not
all zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cinegaze.core import ClipMeta, distinct_counts, frame_to_display  # noqa: E402
from cinegaze.ingest import (fixation_map_for_frame, ingest_clip, read_fixations,  # noqa: E402
                             write_fixations)
from cinegaze.saliency import average_map, make_kernel  # noqa: E402

PAPER_FRAMES = 94_000
FPS = 24.0
RATE_HZ = 250.0
OBSERVERS = 14
WIDTH, HEIGHT = 1920, 800
SIGMA_PX = 45.0
#: planted share of export rows per drop reason; the rest are clean fixations
NOISE = {"non_fixation_event": 0.12, "invalid_sample": 0.03, "outside_active_area": 0.02,
         "malformed_row": 0.003}
HEADER = "observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event\n"


def _say(line: str) -> None:
    print("# " + line, flush=True)


def write_export(path: Path, seed: int, meta: ClipMeta) -> tuple:
    """The clip's gaze export, one observer at a time; returns (planted
    drop counts, clean points, export rows)."""
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, meta.frame_count * 1000.0 / FPS, 1000.0 / RATE_HZ)
    n = times.size
    shot = (times * FPS / 1000.0 // 120).astype(int)  # a cut every 5 s
    focus = rng.uniform((300, 150), (WIDTH - 300, HEIGHT - 150), (shot[-1] + 1, 2))
    area = meta.active_area
    kinds = list(NOISE)
    planted = dict.fromkeys([*kinds, "observers_rejected"], 0)
    clean = 0
    with open(path, "w") as f:
        f.write(HEADER)
        for k in range(OBSERVERS):
            obs = f"P{k + 1:02d}"
            # a fixation every ~300 ms near the shot's focus, 4 px of jitter
            segment = np.cumsum(rng.random(n) < 1000.0 / RATE_HZ / 300.0)
            offsets = rng.normal(0.0, 120.0, (segment[-1] + 1, 2))
            fx = np.clip(focus[shot, 0] + offsets[segment, 0] + rng.normal(0, 4, n), 1,
                         WIDTH - 2)
            fy = np.clip(focus[shot, 1] + offsets[segment, 1] + rng.normal(0, 4, n), 1,
                         HEIGHT - 2)
            x, y = frame_to_display(fx, fy, meta)
            label = rng.choice(len(kinds) + 1, n, p=[*NOISE.values(), 1 - sum(NOISE.values())])
            valid = np.where(label == kinds.index("invalid_sample"), 0, 1)
            x = np.where(valid == 0, -1.0, x)
            y = np.where(valid == 0, -1.0, y)
            bar = label == kinds.index("outside_active_area")
            y = np.where(bar, rng.uniform(0, area.y, n), y)
            event = np.where(label == kinds.index("non_fixation_event"), "Saccade", "Fixation")
            rows = [f"{obs},{meta.clip_id},{t:.1f},{a:.2f},{b:.2f},{v},{e}\n"
                    for t, a, b, v, e in zip(times.tolist(), x.tolist(), y.tolist(),
                                             valid.tolist(), event.tolist())]
            for i in np.flatnonzero(label == kinds.index("malformed_row")).tolist():
                rows[i] = f"{obs},{meta.clip_id},{times[i]:.1f},960.00\n"  # too few fields
            f.writelines(rows)
            counts = np.bincount(label, minlength=len(kinds) + 1).tolist()
            planted["malformed_row"] += counts[kinds.index("malformed_row")]
            parsed = n - counts[kinds.index("malformed_row")]
            if parsed - counts[kinds.index("invalid_sample")] <= 0.9 * parsed:
                planted["observers_rejected"] += 1  # a short clip can reject one
                continue
            for j, kind in enumerate(kinds):
                if kind != "malformed_row":
                    planted[kind] += counts[j]
            clean += counts[-1]
    return planted, clean, OBSERVERS * n


class PeakRss:
    """Peak resident set size above the RSS at entry, sampled on a thread."""

    def __init__(self, interval_s: float = 0.002):
        self.interval_s = interval_s
        self.page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self.page

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        gc.collect()
        self.start = self.peak = self._rss()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.peak = max(self.peak, self._rss())
        self._stop.set()
        self._thread.join(timeout=5.0)

    @property
    def above_start_mb(self) -> float:
        return (self.peak - self.start) / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=4700,
                        help="clip length in frames (default: one paper-sized clip)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.frames < 1:
        parser.error("--frames must be at least 1")
    meta = ClipMeta("probe_clip", args.frames, WIDTH, HEIGHT, fps=FPS,
                    display_width_px=1920, display_height_px=1200)
    _say("facts " + json.dumps({"nproc": os.cpu_count(), "python": platform.python_version(),
                                "numpy": np.__version__, "seed": args.seed}))
    _say(f"workload paper_probe seed {args.seed}: one {WIDTH}x{HEIGHT} clip, {OBSERVERS} "
         f"observers, a {RATE_HZ:.0f} Hz export; ingest_clip, write_fixations, "
         f"read_fixations and average_map in one process")
    metrics = {}
    with tempfile.TemporaryDirectory(prefix="paper_probe_") as tmp:
        gaze, fix = Path(tmp) / "probe.gaze.csv", Path(tmp) / "probe_fixations.csv"
        planted, clean, rows = write_export(gaze, args.seed, meta)
        _say("sizes " + json.dumps({"frames": args.frames, "observers": OBSERVERS,
                                    "export_rows": rows, "export_mb":
                                    round(gaze.stat().st_size / 2**20, 1)}))
        kernel = make_kernel(SIGMA_PX)

        def average():
            clip = results["read_fixations"]
            maps = (fixation_map_for_frame(clip, f) for f in range(clip.frame_count))
            return average_map([maps], kernel)

        stages = {"ingest_clip": lambda: ingest_clip(gaze, meta),
                  "write_fixations": lambda: write_fixations(cleaned, fix),
                  "read_fixations": lambda: read_fixations(fix),
                  "average_map": average}
        results = {}
        for name, stage in stages.items():
            with PeakRss() as rss:
                t0 = time.perf_counter()
                results[name] = stage()
                seconds = time.perf_counter() - t0
            if name == "ingest_clip":
                cleaned, report = results[name]
            metrics[f"{name}_s"] = (seconds, "s")
            metrics[f"{name}_peak_rss_mb"] = (rss.above_start_mb, "MB")
            metrics[f"{name}_s_projected"] = (seconds * PAPER_FRAMES / args.frames, "s")
            _say(f"{name}_s = {seconds:.4f} s; peak RSS {rss.above_start_mb:.1f} MB above "
                 f"its start; projection to {PAPER_FRAMES} frames: "
                 f"{seconds * PAPER_FRAMES / args.frames:.1f} s (linear, not measured)")
    distinct = distinct_counts(np.concatenate([fixation_map_for_frame(cleaned, f).pixels
                                               for f in range(cleaned.frame_count)]))[0]
    _say(f"average_map blurred {distinct.size} distinct fixated pixels")
    average = results["average_map"].values
    planted = {reason: k for reason, k in planted.items()
               if k or reason == "observers_rejected"}  # as the report counts them
    checks = [("ingest report equals the planted drops",
               report.to_dict() == dict(sorted(planted.items()))),
              ("every clean sample is a fixation point", cleaned.n_points() == clean),
              ("the fixation file reads back every point",
               results["read_fixations"].n_points() == clean),
              ("the average map is finite, non-negative and not all zero",
               bool(np.isfinite(average).all() and (average >= 0).all() and average.any()))]
    failures = [name for name, ok in checks if not ok]
    for name in failures:
        _say("FAIL check failed: " + name)
    print(json.dumps({"correct": not failures, "attempted": len(stages) + len(checks),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
