"""Raw eye-tracker export parsing and the fixation cleaning pipeline.

Cleaning follows the recording protocol: observers whose share of valid
samples is not above the threshold are rejected wholesale, then only
fixation-flagged valid samples are kept, points on the letterbox or off
screen are discarded, and the survivors are binned into frames by sample
timestamp.

Real exports are dirty, so problems are counted into an IngestReport
instead of aborting the run.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (ClipMeta, FixationMap, GazeEvent, GazeSample, display_to_frame,
                   frame_of, has_control_chars, rasterize_point)
from .errors import FormatError, InputError
from .tables import read_json, read_table, write_table

#: fixation file columns and their cell converters
FIXATION_COLUMNS = {"observer_id": str, "frame_index": int, "x": float, "y": float}


@dataclass
class IngestReport:
    """Counts of dropped samples and rows, keyed by reason."""

    counts: Counter = field(default_factory=Counter)

    def add(self, reason: str, k: int = 1) -> None:
        self.counts[reason] += k

    def to_dict(self) -> dict:
        return dict(sorted(self.counts.items()))


@dataclass(frozen=True)
class ObserverRecord:
    """One observer's time-ordered samples for one clip."""

    observer_id: str
    clip_id: str
    samples: tuple

    @property
    def valid_rate(self) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s.valid) / len(self.samples)


@dataclass
class CleanedFixations:
    """Frame-binned fixation points per observer, in frame pixels.

    Coordinates stay real-valued here; rounding to integer pixels happens
    when a FixationMap is built.
    """

    clip_id: str
    frame_count: int
    width: int
    height: int
    by_observer: dict  # observer_id -> {frame_index -> [(x, y), ...]}

    def observers(self) -> list:
        return sorted(self.by_observer)

    def points(self, observer_id: str, frame: int) -> list:
        return self.by_observer.get(observer_id, {}).get(frame, [])

    def frame_points(self, frame: int) -> list:
        """All observers' points on one frame, observer order."""
        out = []
        for obs in self.observers():
            out.extend(self.by_observer[obs].get(frame, []))
        return out

    def n_points(self) -> int:
        return sum(len(pts) for frames in self.by_observer.values()
                   for pts in frames.values())


@dataclass(frozen=True)
class ColumnMap:
    """Maps the canonical gaze columns onto a vendor export's header names."""

    delimiter: str = ","
    observer_id: str = "observer_id"
    clip_id: str = "clip_id"
    timestamp_ms: str = "timestamp_ms"
    x: str = "x_px"
    y: str = "y_px"
    validity: str = "validity"
    event: str = "event"

    @classmethod
    def from_json(cls, path) -> "ColumnMap":
        doc = read_json(path)
        known = list(cls.__dataclass_fields__)
        if not (isinstance(doc, dict) and set(doc) <= set(known)
                and all(isinstance(v, str) for v in doc.values())):
            raise InputError(f"{path}: a column map is a JSON object of strings "
                             f"with keys from {known}")
        return cls(**doc)


_TRUE_TOKENS = {"1", "true", "valid", "yes"}
_FALSE_TOKENS = {"0", "false", "invalid", "no"}


def _parse_event(token: str) -> GazeEvent:
    t = token.strip().lower()
    if "fixation" in t:
        return GazeEvent.FIXATION
    if "saccade" in t:
        return GazeEvent.SACCADE
    return GazeEvent.UNKNOWN


def parse_gaze_samples(stream, colmap: ColumnMap = ColumnMap(),
                       report: Optional[IngestReport] = None):
    """Parse delimiter-separated gaze samples with a header row.

    Returns (records, report): one ObserverRecord per (observer, clip),
    sorted by clip then observer. Rows that cannot be parsed (wrong field
    count, unparseable numbers, non-finite coordinates, negative
    timestamps, empty ids or ids with control characters) are counted as
    ``malformed_row`` and skipped. Samples are re-sorted by timestamp when
    an observer's stream arrives out of order (counted as
    ``out_of_order_row``).
    """
    if report is None:
        report = IngestReport()
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = iter(stream)
    try:
        header_line = next(lines)
    except StopIteration:
        raise FormatError("gaze stream is empty, expected a header row") from None
    header = [h.strip() for h in header_line.rstrip("\n").split(colmap.delimiter)]
    indices = {}
    for name in ("observer_id", "clip_id", "timestamp_ms", "x", "y", "validity", "event"):
        column = getattr(colmap, name)
        if column not in header:
            raise FormatError(f"mandatory column {column!r} missing from header {header}")
        indices[name] = header.index(column)
    needed = max(indices.values()) + 1

    streams: dict = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(colmap.delimiter)
        if len(fields) < needed:
            report.add("malformed_row")
            continue
        try:
            t = float(fields[indices["timestamp_ms"]])
            x = float(fields[indices["x"]])
            y = float(fields[indices["y"]])
        except ValueError:
            report.add("malformed_row")
            continue
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)) or t < 0:
            report.add("malformed_row")
            continue
        validity_token = fields[indices["validity"]].strip().lower()
        if validity_token in _TRUE_TOKENS:
            valid = True
        elif validity_token in _FALSE_TOKENS:
            valid = False
        else:
            report.add("malformed_row")
            continue
        obs = fields[indices["observer_id"]].strip()
        clip = fields[indices["clip_id"]].strip()
        stream = streams.get((clip, obs))
        if stream is None:
            if not obs or not clip or has_control_chars(obs + clip):
                report.add("malformed_row")
                continue
            stream = streams[(clip, obs)] = []
        stream.append(GazeSample(observer_id=obs, timestamp_ms=t, x=x, y=y, valid=valid,
                                 event=_parse_event(fields[indices["event"]])))

    records = []
    for (clip, obs) in sorted(streams):
        samples = streams[(clip, obs)]
        if any(samples[i].timestamp_ms < samples[i - 1].timestamp_ms
               for i in range(1, len(samples))):
            report.add("out_of_order_row")
            samples = sorted(samples, key=lambda s: s.timestamp_ms)
        records.append(ObserverRecord(obs, clip, tuple(samples)))
    return records, report


def filter_observers(records: Sequence[ObserverRecord], min_rate: float = 0.9):
    """Split records into (kept, rejected) by valid-sample rate.

    Kept records have strictly more than ``min_rate`` valid samples.
    """
    if not (0.0 <= min_rate <= 1.0):
        raise InputError(f"min_rate must be within [0, 1], got {min_rate}")
    kept = [r for r in records if r.valid_rate > min_rate]
    rejected = [r for r in records if r.valid_rate <= min_rate]
    return kept, rejected


def clean_and_bin(records: Sequence[ObserverRecord], meta: ClipMeta,
                  report: Optional[IngestReport] = None) -> CleanedFixations:
    """Run the cleaning pipeline and bin fixations into frames.

    Keeps valid fixation-flagged samples, maps them from display into
    frame coordinates, drops letterboxed/off-screen points, and assigns
    each survivor to the frame on screen at its timestamp. Samples landing
    at or past the clip end are dropped with a warning count.
    """
    if report is None:
        report = IngestReport()
    by_observer: dict = {}
    for record in records:
        if record.clip_id != meta.clip_id:
            raise InputError(
                f"record for clip {record.clip_id!r} passed to clean_and_bin "
                f"for clip {meta.clip_id!r}")
        frames = by_observer.setdefault(record.observer_id, {})
        for sample in record.samples:
            if sample.event is not GazeEvent.FIXATION:
                report.add("non_fixation_event")
                continue
            if not sample.valid:
                report.add("invalid_sample")
                continue
            pos = display_to_frame(sample.x, sample.y, meta)
            if pos is None:
                report.add("outside_active_area")
                continue
            frame = frame_of(sample.timestamp_ms, meta.fps)
            if frame >= meta.frame_count:
                report.add("beyond_clip_end")
                continue
            frames.setdefault(frame, []).append(pos)
    by_observer = {obs: dict(sorted(frames.items()))
                   for obs, frames in sorted(by_observer.items())}
    return CleanedFixations(
        clip_id=meta.clip_id,
        frame_count=meta.frame_count,
        width=meta.frame_width_px,
        height=meta.frame_height_px,
        by_observer=by_observer,
    )


def build_fixation_map(points: Iterable, width: int, height: int,
                       frame_index: int = 0) -> FixationMap:
    """Binary fixation map from real-valued frame coordinates.

    Points round to the nearest pixel (half up); duplicates collapse.
    Out-of-bounds input points are an error.
    """
    pixels = frozenset(rasterize_point(x, y, width, height) for (x, y) in points)
    return FixationMap(frame_index=frame_index, width=width, height=height, points=pixels)


def fixation_map_for_frame(cleaned: CleanedFixations, frame: int) -> FixationMap:
    """All observers' fixations on one frame as a single binary map."""
    if not (0 <= frame < cleaned.frame_count):
        raise InputError(f"frame {frame} outside [0, {cleaned.frame_count})")
    return build_fixation_map(cleaned.frame_points(frame), cleaned.width,
                              cleaned.height, frame_index=frame)


def write_fixations(cleaned: CleanedFixations, path) -> None:
    """Long-form fixation file: one row per point, with clip header lines."""
    rows = ((obs, frame, x, y) for obs in cleaned.observers()
            for frame, pts in cleaned.by_observer[obs].items() for (x, y) in sorted(pts))
    write_table(path, FIXATION_COLUMNS, rows,
                meta={"clip_id": cleaned.clip_id, "frame_count": cleaned.frame_count,
                      "width": cleaned.width, "height": cleaned.height})


def _on_clip_frame(meta: dict):
    """Row check for ``read_table``: a point lies on a frame of the clip,
    inside its width x height grid."""
    bounds = [meta.get(key, "") for key in ("frame_count", "width", "height")]
    if not all(v.isdigit() for v in bounds):
        return None  # a missing or bad header line is reported once the rows are read
    frame_count, width, height = map(int, bounds)

    def check(row: list) -> None:
        if not 0 <= row[1] < frame_count:
            raise ValueError(f"frame {row[1]} outside [0, {frame_count})")
        if not (0 <= row[2] < width and 0 <= row[3] < height):
            raise ValueError(f"point ({row[2]}, {row[3]}) outside {width}x{height} frame")
    return check


def read_fixations(path) -> CleanedFixations:
    """Inverse of write_fixations.

    A point on a frame outside [0, frame_count), or outside the
    width x height frame, is a FormatError that names its line.
    """
    meta, rows = read_table(path, FIXATION_COLUMNS, check=_on_clip_frame)
    by_observer: dict = {}
    for obs, frame, x, y in rows:
        by_observer.setdefault(obs, {}).setdefault(frame, []).append((x, y))
    try:
        return CleanedFixations(
            clip_id=meta["clip_id"],
            frame_count=int(meta["frame_count"]),
            width=int(meta["width"]),
            height=int(meta["height"]),
            by_observer={obs: dict(sorted(frames.items()))
                         for obs, frames in sorted(by_observer.items())},
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing fixation file header line for {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: bad fixation file header line ({exc})") from None
