"""Spans around calls into cinegaze's public functions, and the per-layer
numbers derived from them.

``install`` rebinds every public function named in ``PUBLIC_CALLS``, in
every loaded ``cinegaze`` module that refers to it, to a wrapper that
records a span: name, start, end, parent span and a few exact counts
taken from the call's arguments and result. The program itself is not
edited; the wrappers live here, are installed only around traced runs,
and ``uninstall`` restores the originals. Spans stay in memory (a
``Tracer``) until the run ends.

``layer_metrics`` turns the spans of one or more traced chain runs into
the per-layer metrics listed in BENCHMARK.json. Totals (``*_s``, counts,
rates) are per chain run and reported as the median over runs;
per-call timings (``*_ms_per_*``) pool every call of every traced run
and report the median, plus ``.tail``: the value with exactly ten
samples above it, i.e. the highest percentile with at least ten samples
beyond it (the maximum when there are twenty samples or fewer).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

#: layer module -> public functions whose calls get a span
PUBLIC_CALLS = {
    "ingest": ["parse_gaze_samples", "filter_observers", "clean_and_bin",
               "write_fixations", "read_fixations", "fixation_map_for_frame"],
    "saliency": ["make_kernel", "blur_fixations", "resize_bilinear",
                 "center_prior", "average_map"],
    "gridio": ["read_map", "write_map"],
    "metrics": ["cc", "sim", "auc_judd", "auc_borji", "nss", "kld"],
    "bench": ["benchmark_model", "read_score_rows", "emit_report",
              "aggregate_by_annotation", "dataset_means", "per_clip_means",
              "bias_report"],
    "ioc": ["loo_window_ioc", "sequence_ioc_summary", "cut_drop_analysis",
            "write_ioc_series"],
    "annotations": ["parse_annotations", "cuts_of", "shot_at"],
    "stats": ["one_way_anova", "welch_t_test", "pearson"],
}
MODULES = list(PUBLIC_CALLS)

METRIC_FUNCS = {"cc": "CC", "sim": "SIM", "auc_judd": "AUC_J", "auc_borji": "AUC_B",
                "nss": "NSS", "kld": "KLD"}
REPORT_FUNCS = {"read_score_rows", "emit_report", "aggregate_by_annotation",
                "dataset_means", "per_clip_means", "bias_report"}


class Tracer:
    """In-memory span store for one worker process.

    A span is [run, id, parent, name, start, end, attrs]; ``run`` is the
    id of the chain run it belongs to, ``parent`` the enclosing span's id
    (None for a run's root).
    """

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []

    def open(self, name, attrs=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.run, sid, parent, name, time.perf_counter(), None,
                           attrs or {}])
        self._stack.append(sid)
        return sid

    def close(self, sid) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def records(self) -> list:
        keys = ("run", "id", "parent", "name", "start", "end", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]


def _file_bytes(path) -> int:
    """Size of a map file plus its PGM sidecar, when one exists."""
    total = os.path.getsize(path)
    sidecar = str(path) + ".json"
    if str(path).lower().endswith(".pgm") and os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _grid_pixels(m) -> int:
    v = getattr(m, "values", m)
    return int(v.shape[0] * v.shape[1])


# counts recorded at a boundary, from (args, kwargs, result); kept cheap
# because they run inside the traced chain
_COUNTERS = {
    "ingest.parse_gaze_samples": lambda a, k, r: {
        "rows": sum(len(rec.samples) for rec in r[0]) + r[1].counts["malformed_row"],
        "malformed": r[1].counts["malformed_row"]},
    "ingest.filter_observers": lambda a, k, r: {
        "rejected_rows": sum(len(rec.samples) for rec in r[1])},
    "ingest.clean_and_bin": lambda a, k, r: {
        "rows": sum(len(rec.samples) for rec in a[0]), "points": r.n_points()},
    "saliency.resize_bilinear": lambda a, k, r: {"pixels": int(r.size)},
    "gridio.read_map": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "gridio.write_map": lambda a, k, r: {"bytes": _file_bytes(a[0])},
    "bench.benchmark_model": lambda a, k, r: {
        "frames": len({row.frame_index for row in r.rows}),
        "errors": len(r.errors)},
    "ioc.loo_window_ioc": lambda a, k, r: {
        "clip": r.clip_id, "n": r.n, "windows": len(r.values),
        "absent": sum(1 for _, v in r.values if v is None)},
}
for _name in METRIC_FUNCS:
    _COUNTERS[f"metrics.{_name}"] = lambda a, k, r: {"pixels": _grid_pixels(a[0])}


def _wrap(tracer: Tracer, name: str, fn):
    counter = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counter is not None:
            tracer.spans[sid][6] = counter(args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer) -> list:
    """Rebind every public call to its traced wrapper; returns the undo list."""
    modules = {m: importlib.import_module(f"cinegaze.{m}") for m in MODULES}
    importlib.import_module("cinegaze.cli")
    loaded = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "cinegaze" or name.startswith("cinegaze."))]
    undo = []
    for module, names in PUBLIC_CALLS.items():
        for fname in names:
            original = getattr(modules[module], fname)  # AttributeError: boundary gone
            wrapped = _wrap(tracer, f"{module}.{fname}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


# ------------------------------------------------------------- aggregation

def tail(values):
    """(value, percentile): the sample with exactly ten samples above it.

    With twenty samples or fewer that percentile is not above the median,
    so there is no tail to report; the maximum is returned with
    percentile 100.
    """
    s = sorted(values)
    if len(s) <= 20:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def _module(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in PUBLIC_CALLS else "cli"


def self_times(spans: list) -> dict:
    """Per run: module -> seconds of its spans not covered by child spans.

    ``cli`` collects the run's root span and the subcommand spans, so the
    values of one run add up to the run's traced wall time.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        per_run = out.setdefault(s["run"], {m: 0.0 for m in ["cli", *MODULES]})
        per_run[_module(s["name"])] += own
    return out


def layer_metrics(spans: list, window_counts) -> tuple:
    """Per-layer metrics from the spans of traced chain runs.

    ``window_counts(clip, n)`` returns (distinct points summed over all
    windows, sum over the scored windows of points squared) for an IOC
    call; both are exact integers computed from the call's input.

    Returns (metrics, notes): metrics maps name -> (value, unit); notes
    holds the per-run exact counts and the sample sizes behind each tail.
    """
    runs = sorted({s["run"] for s in spans})
    by_run = {r: [s for s in spans if s["run"] == r] for r in runs}
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    calls = lambda name: [s for s in spans if s["name"] == name]  # noqa: E731
    m = {}
    notes = {"tails": {}}

    def per_run(fn):
        return statistics.median(fn(by_run[r]) for r in runs)

    def total_s(names):
        return lambda ss: sum((dur(s) for s in ss if s["name"] in names), 0.0)

    def count(name, key):
        return lambda ss: sum(s["attrs"][key] for s in ss if s["name"] == name)

    def per_call_ms(metric, samples):
        samples = [1000.0 * v for v in samples]
        if samples:
            m[metric] = (statistics.median(samples), "ms")
            value, pct = tail(samples)
            m[metric + ".tail"] = (value, "ms")
            notes["tails"][metric] = {"samples": len(samples), "percentile": round(pct, 2)}
        else:
            m[metric] = m[metric + ".tail"] = (0.0, "ms")
            notes["tails"][metric] = {"samples": 0, "percentile": None}

    # ingest
    def ingest_counts(ss):
        rows = count("ingest.parse_gaze_samples", "rows")(ss)
        points = count("ingest.clean_and_bin", "points")(ss)
        dropped = (count("ingest.parse_gaze_samples", "malformed")(ss)
                   + count("ingest.filter_observers", "rejected_rows")(ss)
                   + count("ingest.clean_and_bin", "rows")(ss) - points)
        return rows, points, dropped

    def rate(name, key):
        def fn(ss):
            busy = total_s({name})(ss)
            return count(name, key)(ss) / busy if busy > 0 else 0.0
        return fn

    counts = {r: {} for r in runs}
    for r in runs:
        rows, points, dropped = ingest_counts(by_run[r])
        counts[r].update({"ingest.rows_in": rows, "ingest.points_out": points,
                          "ingest.dropped": dropped})
    m["ingest.parse_rows_per_s"] = (per_run(rate("ingest.parse_gaze_samples", "rows")), "rows/s")
    m["ingest.clean_rows_per_s"] = (per_run(rate("ingest.clean_and_bin", "rows")), "rows/s")
    m["ingest.fixfile_write_s"] = (per_run(total_s({"ingest.write_fixations"})), "s")
    m["ingest.fixfile_read_s"] = (per_run(total_s({"ingest.read_fixations"})), "s")

    # saliency
    per_call_ms("saliency.blur_ms_per_frame", [dur(s) for s in calls("saliency.blur_fixations")])
    per_call_ms("saliency.resize_ms_per_frame",
                [dur(s) for s in calls("saliency.resize_bilinear")])
    for r in runs:
        counts[r]["saliency.frames_blurred"] = sum(
            1 for s in by_run[r] if s["name"] == "saliency.blur_fixations")
    m["saliency.average_s"] = (per_run(lambda ss: sum(
        dur(s) for s in ss if s["name"] == "cli.saliency" and s["attrs"].get("average"))), "s")

    # gridio
    per_call_ms("gridio.read_ms_per_map", [dur(s) for s in calls("gridio.read_map")])
    per_call_ms("gridio.write_ms_per_map", [dur(s) for s in calls("gridio.write_map")])
    for r in runs:
        counts[r]["gridio.bytes_read"] = count("gridio.read_map", "bytes")(by_run[r])
        counts[r]["gridio.bytes_written"] = count("gridio.write_map", "bytes")(by_run[r])

    # metrics
    for fname, label in METRIC_FUNCS.items():
        per_call_ms(f"metrics.{label}_ms_per_frame", [dur(s) for s in calls(f"metrics.{fname}")])
    pixels = sorted(s["attrs"]["pixels"] for f in METRIC_FUNCS for s in calls(f"metrics.{f}"))
    for r in runs:
        counts[r]["metrics.pixels_per_frame"] = pixels[len(pixels) // 2] if pixels else 0

    # bench
    bench_calls = calls("bench.benchmark_model")
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def metric_time(span):
        """Time inside a bench call spent in metric calls, at any depth."""
        total = 0.0
        for c in children.get(span["id"], []):
            total += dur(c) if c["name"].startswith("metrics.") else metric_time(c)
        return total

    scored = [s for s in bench_calls if s["attrs"]["frames"] > 0]
    if scored:
        m["bench.frame_ms"] = (statistics.median(
            1000.0 * dur(s) / s["attrs"]["frames"] for s in scored), "ms")
        m["bench.overhead_ms_per_frame"] = (statistics.median(
            1000.0 * (dur(s) - metric_time(s)) / s["attrs"]["frames"] for s in scored), "ms")
    else:
        m["bench.frame_ms"] = m["bench.overhead_ms_per_frame"] = (0.0, "ms")
    for r in runs:
        counts[r]["bench.frames_scored"] = count("bench.benchmark_model", "frames")(by_run[r])
        counts[r]["bench.frame_errors"] = count("bench.benchmark_model", "errors")(by_run[r])
    m["bench.report_s"] = (per_run(total_s({f"bench.{f}" for f in REPORT_FUNCS})), "s")

    # ioc
    ioc_calls = calls("ioc.loo_window_ioc")
    for n in (20, 5):
        samples = [dur(s) / s["attrs"]["windows"] for s in ioc_calls
                   if s["attrs"]["n"] == n and s["attrs"]["windows"]]
        m[f"ioc.n{n}_ms_per_window"] = (
            1000.0 * statistics.median(samples) if samples else 0.0, "ms")
    for r in runs:
        mine = [s for s in by_run[r] if s["name"] == "ioc.loo_window_ioc"]
        windows = sum(s["attrs"]["windows"] for s in mine)
        points = pairs = 0
        for s in mine:
            p, q = window_counts(s["attrs"]["clip"], s["attrs"]["n"])
            points += p
            pairs += q
        counts[r].update({
            "ioc.windows": windows,
            "ioc.windows_absent": sum(s["attrs"]["absent"] for s in mine),
            "ioc.points_per_window": round(points / windows) if windows else 0,
            "ioc.pair_evals": pairs})
    m["ioc.cut_drop_s"] = (per_run(total_s({"ioc.cut_drop_analysis"})), "s")
    m["ioc.series_io_s"] = (per_run(total_s({"ioc.write_ioc_series"})), "s")

    m["annotations.parse_s"] = (per_run(total_s({"annotations.parse_annotations"})), "s")
    m["stats.tests_s"] = (per_run(total_s(
        {f"stats.{f}" for f in PUBLIC_CALLS["stats"]})), "s")

    # exact counts: identical in every run by construction of the workload
    units = {"gridio.bytes_read": "bytes", "gridio.bytes_written": "bytes"}
    first = counts[runs[0]]
    for name, value in first.items():
        m[name] = (value, units.get(name, "count"))
    m["ingest.keep_ratio"] = (first["ingest.points_out"] / first["ingest.rows_in"]
                              if first["ingest.rows_in"] else 0.0, "ratio")
    notes["counts"] = [counts[r] for r in runs]

    # self time per module and the chain remainder
    selfs = self_times(spans)
    walls = {r: dur(next(s for s in by_run[r] if s["parent"] is None)) for r in runs}
    for module in MODULES:
        m[f"{module}.self_s"] = (statistics.median(selfs[r][module] for r in runs), "s")
    m["cli.other_s"] = (statistics.median(selfs[r]["cli"] for r in runs), "s")
    m["trace.wall_s"] = (statistics.median(walls.values()), "s")
    notes["accounting"] = {r: {"wall_s": walls[r], "self_sum_s": sum(selfs[r].values())}
                           for r in runs}
    return m, notes
