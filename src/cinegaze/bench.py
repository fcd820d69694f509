"""Model benchmarking, annotation-conditioned aggregation, report files.

Scores are long-form rows (clip, frame, metric, value) joined with the
frame's editing labels. Dataset aggregates are unweighted means over
frames, so longer clips weigh more; per-clip means are also available for
transparency. Every report carries a metadata header with the tool
version, a hash of the run configuration, the KLD epsilon and the
AUC-Borji seed, so scores stay comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .annotations import ClipAnnotation, PartitionKind, labels, shot_at
from .core import finite_grid
from .errors import CinegazeError, InputError
from .gridio import read_map
from .ingest import CleanedFixations, fixation_map_for_frame
from .metrics import KLD_EPSILON, Metric, cc, score_frame
from .saliency import GaussianKernel, blur_fixations, resize_bilinear
from .tables import optional_float, provenance, read_table, write_json, write_table

METRIC_ORDER = [m.value for m in Metric]

#: score table columns and their cell converters
SCORE_COLUMNS = {"clip_id": str, "frame_index": int, "metric": str, "value": float,
                 "motions": str, "angle": str, "size": str}


@dataclass(frozen=True)
class ScoreRow:
    clip_id: str
    frame_index: int
    metric: str
    value: float
    motions: tuple = ()
    angle: str = ""
    size: str = ""


@dataclass
class BenchResult:
    rows: list
    errors: list  # of (frame_index, reason)


class DirectoryPredictions:
    """Prediction maps in a directory, one file per frame.

    Filenames are the zero-padded frame index plus a map extension:
    000042.f32 or 000042.pgm.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self, frame: int) -> np.ndarray:
        for name in (f"{frame:06d}.f32", f"{frame:06d}.pgm"):
            p = self.path / name
            if p.exists():
                return read_map(p)
        raise FileNotFoundError(f"no prediction for frame {frame} under {self.path}")


def _load_prediction(predictions, frame: int) -> np.ndarray:
    if hasattr(predictions, "load"):
        return predictions.load(frame)
    if isinstance(predictions, Mapping):
        if frame not in predictions:
            raise FileNotFoundError(f"no prediction for frame {frame}")
        return np.asarray(predictions[frame], dtype=float)
    raise InputError("predictions must expose .load(frame) or be a frame mapping")


def _prediction_map(predictions, frame: int, shape: tuple) -> np.ndarray:
    """The frame's prediction on the ground-truth grid, clamped at zero.

    It is checked once, on its native grid: resampling and clamping a
    finite map cannot make it non-finite or negative. A map without a
    negative value or a -0.0 is not clamped at all: bilinear blends of
    such values have neither, and the clamp would return them unchanged.
    """
    pred = finite_grid(_load_prediction(predictions, frame))
    signed = bool(np.signbit(pred).any())
    if pred.shape == shape:
        # the loader's array may be the caller's; scoring never writes to it
        return np.maximum(pred, 0.0) if signed else pred
    pred = resize_bilinear(pred, shape[1], shape[0])
    if signed:
        np.maximum(pred, 0.0, out=pred)  # the resize's own fresh grid
    return pred


def _keep_freed_heap() -> None:
    """Let the allocator keep a frame's freed grids for the next frame.

    glibc's malloc returns the free top of its heap to the OS once it
    exceeds a trim threshold: twice the largest block it has served by
    mmap and freed, so 24 MiB after a 12 MiB grid. A 1920x800 frame frees
    about 40 MiB of grids, which the next frame then faults back in.
    Freeing one block just under 32 MiB, the largest that moves the
    threshold, raises it to about 64 MiB (mallopt(3), M_MMAP_THRESHOLD).
    The block is never touched, so it costs no page; other allocators
    just map and unmap it.
    """
    block = np.empty((32 << 20) - (64 << 10), dtype=np.uint8)
    del block


def benchmark_model(predictions, cleaned: CleanedFixations, kernel: GaussianKernel,
                    *, annotation: Optional[ClipAnnotation] = None,
                    metric_set: Sequence[str] = tuple(METRIC_ORDER),
                    aucb_seed: int = 0, aucb_splits: int = 100) -> BenchResult:
    """Score per-frame prediction maps against the clip's ground truth.

    Ground truth per frame is the pooled binary fixation map (location
    metrics) and its Gaussian blur (distribution metrics). Predictions at
    a different resolution are resampled bilinearly onto the ground-truth
    grid. Frames whose prediction is missing or unreadable, and metrics
    undefined on a frame, become error entries; the run continues.

    Every frame with at least one fixation is evaluated. AUC-Borji uses a
    per-frame generator seeded with aucb_seed + frame_index.
    """
    metric_set = [Metric(m).value for m in metric_set]
    rows = []
    errors = []
    _keep_freed_heap()
    for f in range(cleaned.frame_count):
        if not cleaned.frame_rows(f).size:
            continue
        fmap = fixation_map_for_frame(cleaned, f)
        gt_blur = blur_fixations(fmap, kernel)
        try:
            pred = _prediction_map(predictions, f, gt_blur.values.shape)
        except (OSError, CinegazeError, ValueError) as exc:
            errors.append((f, f"prediction unusable: {exc}"))
            continue
        scores = score_frame(pred, gt_blur, fmap, metric_set, aucb_splits,
                             seed=aucb_seed + f)
        del pred, gt_blur  # not kept alive while the next frame's maps are built
        if annotation is not None:
            shot = shot_at(annotation, f)
            motions = tuple(sorted(m.value for m in shot.motions))
            angle = shot.angle.value
            size = shot.size.value
        else:
            motions, angle, size = (), "", ""
        for name in metric_set:
            value = scores[name]
            if isinstance(value, CinegazeError):
                errors.append((f, f"{name}: {value}"))
            else:
                rows.append(ScoreRow(cleaned.clip_id, f, name, value, motions, angle, size))
    return BenchResult(rows, errors)


def _sorted_rows(rows: Sequence[ScoreRow]) -> list:
    return sorted(rows, key=lambda r: (r.clip_id, r.frame_index, r.metric))


def group_scores(rows: Sequence[ScoreRow], groups_of: Callable) -> dict:
    """{group: {metric: [values]}} of the rows, each value in the order of
    ``_sorted_rows``; ``groups_of(row)`` lists the groups a row counts toward."""
    out: dict = {}
    for row in _sorted_rows(rows):
        for group in groups_of(row):
            out.setdefault(group, {}).setdefault(row.metric, []).append(row.value)
    return out


def _means(groups: dict) -> dict:
    # plain sum in row order, like a running total; fsum would round differently
    return {group: {m: sum(values) / len(values) for m, values in metrics.items()}
            for group, metrics in groups.items()}


def dataset_means(rows: Sequence[ScoreRow]) -> dict:
    """Unweighted per-metric mean over all rows (frames weigh equally)."""
    return _means(group_scores(rows, lambda row: ("all",))).get("all", {})


def per_clip_means(rows: Sequence[ScoreRow]) -> dict:
    return _means(group_scores(rows, lambda row: (row.clip_id,)))


def aggregate_by_annotation(rows: Sequence[ScoreRow], kind) -> dict:
    """Per-label per-metric means.

    Motion is multi-label: a frame's scores count toward every motion of
    its shot. Labels with no rows are simply absent. Rows without labels
    (scored with no annotation) are excluded.
    """
    kind = PartitionKind(kind)
    return _means(group_scores(rows, lambda row: labels(kind, row.motions, row.angle,
                                                        row.size)))


@dataclass(frozen=True)
class BiasRecord:
    cc_with_prior: float
    peak_offset_px: tuple  # (dx, dy) of the average map's argmax from center


def bias_report(avg, prior) -> BiasRecord:
    """Correlation of an average map with a center prior, plus the offset
    of the average map's density peak from the geometric center.

    Both grids come from outside, so each must be finite and non-negative.
    Ties in the argmax resolve to the first pixel in row-major order.
    """
    avg, prior = finite_grid(avg), finite_grid(prior)
    if (avg < 0).any() or (prior < 0).any():
        raise InputError("saliency map values must be non-negative")
    correlation = cc(avg, prior)
    iy, ix = np.unravel_index(int(np.argmax(avg)), avg.shape)
    dx = ix - (avg.shape[1] - 1) / 2.0
    dy = iy - (avg.shape[0] - 1) / 2.0
    return BiasRecord(correlation, (dx, dy))


def read_score_rows(path) -> list:
    """Read back a delimited score table written by emit_report."""
    _, values = read_table(path, SCORE_COLUMNS)
    return [ScoreRow(clip, frame, metric, value, tuple(m for m in motions.split("|") if m),
                     angle, size)
            for clip, frame, metric, value, motions, angle, size in zip(*values)]


class ReportFormat(str, Enum):
    DELIMITED = "csv"
    STRUCTURED = "json"


def emit_report(data, path, fmt: ReportFormat = ReportFormat.DELIMITED,
                meta: Optional[Mapping] = None, aucb_seed=None) -> None:
    """Write a score table or an aggregate as a deterministic report file.

    ``data`` is either a sequence of ScoreRow or a mapping label ->
    {metric: value}. Column order and row sort are fixed; rerunning on the
    same input produces a byte-identical file.
    """
    fmt = ReportFormat(fmt)
    header = provenance({"kld_epsilon": repr(KLD_EPSILON),
                         "aucb_seed": "" if aucb_seed is None else aucb_seed, **(meta or {})})
    if isinstance(data, Mapping):
        metrics_present = {m for row in data.values() for m in row}
        columns = [m for m in METRIC_ORDER if m in metrics_present]
        columns += sorted(metrics_present - set(columns))
        field_names = ["label"] + columns
        converters = {"label": str, **dict.fromkeys(columns, optional_float)}
        table = [[label] + [data[label].get(m) for m in columns] for label in sorted(data)]
    else:
        field_names = list(SCORE_COLUMNS)
        converters = SCORE_COLUMNS
        table = [[r.clip_id, r.frame_index, r.metric, r.value, "|".join(r.motions),
                  r.angle, r.size] for r in _sorted_rows(data)]
    if not table:
        raise InputError("refusing to emit an empty report")

    if fmt is ReportFormat.DELIMITED:
        write_table(path, converters, list(zip(*table)), meta=header)
        return
    write_json(path, {"meta": header, "columns": field_names,
                      "rows": [dict(zip(field_names, row)) for row in table]})
