"""Output checks for each workload, run after timing on the last run's files.

Each check is one (name, passed, detail) tuple and counts as one
operation in the benchmark's error rate. Recomputations call cinegaze's
public functions directly and compare at the acceptance suite's
tolerances: 1e-6 absolute for metric values (criterion 1) and for IOC
window scores (criterion 3).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cinegaze.bench import read_score_rows
from cinegaze.core import SaliencyMap, rasterize_point
from cinegaze.errors import UndefinedValueError
from cinegaze.gridio import read_map
from cinegaze.ingest import build_fixation_map, fixation_map_for_frame, read_fixations
from cinegaze.ioc import read_ioc_series
from cinegaze.metrics import auc_borji, auc_judd, cc, kld, nss, sim
from cinegaze.saliency import blur_fixations, make_kernel, resize_bilinear

import workloads

TOL = 1e-6
KERNEL = make_kernel(workloads.SIGMA_PX, 3.0)


def window_point_counts(cleaned, n):
    """(distinct points summed over all windows, sum over windows with at
    least two active observers of points squared) for a stride-1 series.

    A window's points are the distinct rasterized pixels of each observer
    within it, summed over observers: the pairs the leave-one-out
    estimator evaluates, counted from its input.
    """
    w, h = cleaned.width, cleaned.height
    per_obs = []
    for obs in cleaned.observers():
        frames, codes = [], []
        for f, pts in cleaned.by_observer[obs].items():
            for x, y in pts:
                xi, yi = rasterize_point(x, y, w, h)
                frames.append(f)
                codes.append(yi * w + xi)
        per_obs.append((np.asarray(frames), np.asarray(codes)))
    points = pairs = 0
    for t in range(cleaned.frame_count - n + 1):
        sizes = [np.unique(c[(f >= t) & (f < t + n)]).size for f, c in per_obs]
        total = sum(sizes)
        points += total
        if sum(1 for s in sizes if s) >= 2:
            pairs += total * total
    return points, pairs


def dense_window_ioc(cleaned, t, n):
    """Leave-one-out NSS of window [t, t+n) from dense blurred maps."""
    maps = {}
    for obs in cleaned.observers():
        pts = [p for f in range(t, t + n) for p in cleaned.points(obs, f)]
        if pts:
            maps[obs] = build_fixation_map(pts, cleaned.width, cleaned.height)
    if len(maps) < 2:
        return None
    blurred = {obs: blur_fixations(fmap, KERNEL).values for obs, fmap in maps.items()}
    total = sum(blurred.values())
    scores = []
    for obs, fmap in maps.items():
        try:
            scores.append(nss(total - blurred[obs], fmap))
        except UndefinedValueError:
            continue  # the leave-one-out map is constant
    return sum(scores) / len(scores) if scores else None


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) < TOL


def _ingest(clip, fix_dir: Path):
    cid = clip["clip_id"]
    report = json.loads((fix_dir / f"{cid}_ingest_report.json").read_text())
    got = {k: v for k, v in report.items() if v}
    want = {k: v for k, v in clip["planted"].items() if v}
    points = read_fixations(fix_dir / f"{cid}_fixations.csv").n_points()
    return [(f"{cid}: ingest drop counts equal the planted noise", got == want,
             f"report {got}, planted {want}"),
            (f"{cid}: fixation points equal the clean rows planted",
             points == clip["points"], f"{points} points, {clip['points']} planted")]


def _series(path: Path, cleaned, n, sample):
    series = read_ioc_series(path)
    expected = cleaned.frame_count - n + 1
    starts = [s for s, _ in series.values]
    out = [(f"{path.name}: {expected} windows (frames - n + 1)",
            starts == list(range(expected)), f"{len(starts)} windows")]
    by_start = dict(series.values)
    for t in sample:
        ref = dense_window_ioc(cleaned, t, n)
        out.append((f"{path.name}: window {t} equals the dense recomputation",
                    _close(by_start.get(t), ref), f"series {by_start.get(t)}, dense {ref}"))
    return out, series


def check_congruency_dense(manifest, inputs: Path, out: Path) -> list:
    clip = manifest["clips"][0]
    results = _ingest(clip, out)
    cleaned = read_fixations(out / f"{clip['clip_id']}_fixations.csv")
    cut = clip["cuts"][0]
    last20 = cleaned.frame_count - 20
    part, series20 = _series(out / "ioc20.csv", cleaned, 20, [0, cut - 10, last20])
    results += part
    part, _ = _series(out / "ioc5.csv", cleaned, 5, [0, cut - 2])
    results += part
    present = [v for _, v in series20.values if v is not None]
    summary = json.loads((out / "ioc20.json").read_text())
    results.append(("ioc20.json: count and mean match the series",
                    summary["count"] == len(present)
                    and abs(summary["mean"] - float(np.mean(present))) < 1e-12,
                    f"summary {summary['count']} / {summary['mean']}"))
    cut_rows = (out / "cuts.csv").read_text().splitlines()[1:]
    results.append(("cuts.csv: one row per cut", len(cut_rows) == len(clip["cuts"]),
                    f"{len(cut_rows)} rows, {len(clip['cuts'])} cuts"))
    return results


def check_model_bench(manifest, inputs: Path, out: Path) -> list:
    frames = manifest["clips"][0]["frames"]
    cleaned = read_fixations(inputs / "bench_clip_fixations.csv")
    rows = read_score_rows(out / "scores.csv")
    results = [("scores.csv: six scores for every frame", len(rows) == 6 * frames,
                f"{len(rows)} rows for {frames} frames")]
    table = {(r.frame_index, r.metric): r.value for r in rows}
    for f in sorted({0, 1, frames // 2, frames - 1}):
        fmap = fixation_map_for_frame(cleaned, f)
        gt = blur_fixations(fmap, KERNEL)
        name = f"{f:06d}.{'pgm' if f % 3 == 0 else 'f32'}"
        pred = read_map(inputs / "model_preds" / name)
        pred = SaliencyMap(np.maximum(resize_bilinear(pred, cleaned.width, cleaned.height), 0.0))
        direct = {"CC": cc(pred, gt), "SIM": sim(pred, gt), "AUC_J": auc_judd(pred, fmap),
                  "AUC_B": auc_borji(pred, fmap, 1, 100, seed=workloads.AUCB_SEED + f),
                  "NSS": nss(pred, fmap), "KLD": kld(pred, gt)}
        bad = {m: (table.get((f, m)), v) for m, v in direct.items()
               if not _close(table.get((f, m)), v)}
        results.append((f"frame {f}: six metrics re-scored directly agree", not bad, str(bad)))
    nss_rows = [r.value for r in rows if r.metric == "NSS"]
    means = _table(out / "means.csv")
    results.append(("means.csv: NSS mean equals the score table's",
                    abs(float(means["all"]["NSS"]) - math.fsum(nss_rows) / len(nss_rows)) < 1e-9,
                    f"{means['all']['NSS']}"))
    anova = json.loads((out / "anova.json").read_text())
    results.append(("anova.json: groups cover every NSS row",
                    sum(anova["group_sizes"].values()) == len(nss_rows)
                    and math.isfinite(anova["f"]), f"{anova['group_sizes']}"))
    for kind in ("motion", "angle", "size"):
        labels = set(_table(out / f"by_{kind}.csv"))
        results.append((f"by_{kind}.csv: one row per label present", len(labels) >= 2,
                        f"{sorted(labels)}"))
    return results


def _table(path: Path) -> dict:
    """label -> {column: cell} of an aggregate report."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return {cells[0]: dict(zip(header[1:], cells[1:]))
            for cells in (ln.split(",") for ln in lines[1:])}


def check_dataset_prep(manifest, inputs: Path, out: Path) -> list:
    fix_dir = out / "fix"
    results = []
    for clip in manifest["clips"]:
        results += _ingest(clip, fix_dir)
    avg = read_map(out / "average.f32")
    prior = read_map(out / "prior.f32")
    results.append(("average.f32: 640x400, finite, non-negative, non-zero",
                    avg.shape == (400, 640) and bool(np.all(np.isfinite(avg)))
                    and avg.min() >= 0 and avg.sum() > 0, f"shape {avg.shape}"))
    results.append(("prior.f32: unit mass", abs(prior.sum() - 1.0) < 1e-4,
                    f"sum {prior.sum()}"))
    bias = json.loads((out / "bias.json").read_text())
    direct = cc(avg, prior)
    results.append(("bias.json: correlation equals metrics.cc on the maps",
                    abs(bias["cc_with_prior"] - direct) < 1e-9,
                    f"{bias['cc_with_prior']} vs {direct}"))
    lo, hi = manifest["maps"]
    first = manifest["clips"][0]
    maps = sorted((out / "maps").glob("*.pgm"))
    results.append(("maps/: one map per frame of the range", len(maps) == hi - lo,
                    f"{len(maps)} maps"))
    cleaned = read_fixations(fix_dir / f"{first['clip_id']}_fixations.csv")
    for f in (lo, hi - 1):
        want = blur_fixations(fixation_map_for_frame(cleaned, f), KERNEL).values
        got = read_map(out / "maps" / f"{f:06d}.pgm")
        step = want.max() / 65535  # one 16-bit quantization step
        err = float(np.abs(got - want).max())
        results.append((f"maps/{f:06d}.pgm equals the blurred fixation map to 16 bits",
                        err <= 0.5 * step * (1 + 1e-9), f"max error {err}, step {step}"))
    for clip in manifest["clips"]:
        cid = clip["clip_id"]
        cleaned = read_fixations(fix_dir / f"{cid}_fixations.csv")
        cut = clip["cuts"][0]
        part, _ = _series(out / f"ioc_{cid}.csv", cleaned, 20,
                          [cut - 10, cleaned.frame_count - 20])
        results += part
    return results


CHECKS = {"congruency_dense": check_congruency_dense,
          "model_bench": check_model_bench,
          "dataset_prep": check_dataset_prep}
