"""Raw eye-tracker export parsing and the fixation cleaning pipeline.

Cleaning follows the recording protocol: observers whose share of valid
samples is not above the threshold are rejected wholesale, then only
fixation-flagged valid samples are kept, points on the letterbox or off
screen are discarded, and the survivors are binned into frames by sample
timestamp. ``ingest_clip`` runs the whole chain on one clip's export.

An export is read in bounded chunks of lines and kept as columns from the
parser on: numbers convert a column at a time, and each distinct validity,
event and id token is classified once.

Real exports are dirty, so problems are counted into an IngestReport
instead of aborting the run.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (ClipMeta, FixationMap, display_to_frame, frame_of, has_control_chars,
                   rasterize)
from .errors import FormatError, InputError
from .tables import read_json, read_table, write_table

#: fixation file columns and their cell converters
FIXATION_COLUMNS = {"observer_id": str, "frame_index": int, "x": float, "y": float}

#: characters of an export parsed at a time, in whole lines: bounds the
#: fields held as text
_CHUNK_CHARS = 1 << 20


@dataclass
class IngestReport:
    """Counts of dropped samples and rows, keyed by reason."""

    counts: Counter = field(default_factory=Counter)

    def add(self, reason: str, k: int = 1) -> None:
        self.counts[reason] += k

    def to_dict(self) -> dict:
        return dict(sorted(self.counts.items()))


@dataclass(frozen=True, eq=False)
class ObserverRecord:
    """One observer's time-ordered samples for one clip, as equal-length
    columns: time (ms), display x and y, validity, and whether the tracker
    flagged the sample as part of a fixation."""

    observer_id: str
    clip_id: str
    timestamp_ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    valid: np.ndarray
    fixation: np.ndarray

    @property
    def samples(self) -> np.ndarray:
        """The time column: one entry per sample."""
        return self.timestamp_ms

    @property
    def valid_rate(self) -> float:
        n = len(self.timestamp_ms)
        return int(np.count_nonzero(self.valid)) / n if n else 0.0


@dataclass
class CleanedFixations:
    """Frame-binned fixation points per observer, in frame pixels.

    Coordinates stay real-valued here; they round to integer pixels
    (``core.rasterize``) where a FixationMap is built, and in IOC.
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


def _validity(token: str) -> int:
    """1 valid, 0 invalid, -1 not a validity token."""
    t = token.strip().lower()
    return 1 if t in _TRUE_TOKENS else 0 if t in _FALSE_TOKENS else -1


def _is_fixation(token: str) -> bool:
    return "fixation" in token.lower()


def _floats(tokens: list) -> np.ndarray:
    """A column of ``float`` tokens; NaN where a token is not a number."""
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return np.array([_float_or_nan(t) for t in tokens])


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return float("nan")


def _classified(tokens: list, table: dict, classify, dtype) -> np.ndarray:
    """``classify`` of every token, computed once per distinct token and
    kept in ``table`` across chunks."""
    for token in set(tokens).difference(table):
        table[token] = classify(token)
    return np.fromiter(map(table.__getitem__, tokens), dtype, len(tokens))


class _ExportColumns:
    """The columns of an export's well-formed rows, parsed a chunk of whole
    lines at a time; a row that is not well formed is counted as
    ``malformed_row``."""

    def __init__(self, delimiter: str, width: int, indices: dict):
        self.delimiter, self.width, self.indices = delimiter, width, indices
        self.needed = max(indices.values()) + 1
        self.malformed = 0
        self.ids: dict = {}  # id -> its code
        self.id_codes: dict = {}  # raw id token -> code of its id; -1 for no id
        self.validity: dict = {}  # validity token -> 1, 0, or -1 for no validity
        self.events: dict = {}  # event token -> whether it flags a fixation
        self.chunks: list = []  # per chunk, the columns of its well-formed rows

    def _id_code(self, token: str) -> int:
        text = token.strip()
        if not text or has_control_chars(text):
            return -1
        return self.ids.setdefault(text, len(self.ids))

    def _regular(self, lines: list) -> list:
        """The lines with exactly ``width`` fields each: blank lines go, a
        line short of the needed columns is malformed, and a line with
        fewer or more fields than the header is padded or cut to it (the
        columns past ``needed`` are never read)."""
        d, width = self.delimiter, self.width
        counts = np.fromiter(map(str.count, lines, itertools.repeat(d)), np.int64, len(lines))
        odd = counts != width - 1
        if "\n" in lines:
            odd |= np.fromiter(map("\n".__eq__, lines), bool, len(lines))
        if not odd.any():
            return lines
        keep = ~odd
        for i in np.flatnonzero(odd).tolist():
            fields = lines[i].rstrip("\n").split(d)
            if fields == [""]:
                continue  # a blank line
            if len(fields) < self.needed:
                self.malformed += 1
                continue
            lines[i] = d.join((fields + [""] * width)[:width])
            keep[i] = True
        return list(itertools.compress(lines, keep.tolist()))

    def add(self, lines: list) -> None:
        lines = self._regular(lines)
        if not lines:
            return
        # joined by the delimiter, a line's last field keeps its line end,
        # which float() and every token classifier ignore as white space
        fields = self.delimiter.join(lines).split(self.delimiter)
        column = {name: fields[i::self.width] for name, i in self.indices.items()}
        del fields
        t, x, y = (_floats(column[name]) for name in ("timestamp_ms", "x", "y"))
        valid = _classified(column["validity"], self.validity, _validity, np.int8)
        fixation = _classified(column["event"], self.events, _is_fixation, bool)
        obs = _classified(column["observer_id"], self.id_codes, self._id_code, np.int32)
        clip = _classified(column["clip_id"], self.id_codes, self._id_code, np.int32)
        good = (np.isfinite(t) & np.isfinite(x) & np.isfinite(y) & (t >= 0)
                & (valid >= 0) & (obs >= 0) & (clip >= 0))
        kept = int(np.count_nonzero(good))
        self.malformed += len(lines) - kept
        if kept:  # ``records`` takes no chunks as no rows
            self.chunks.append([v[good] for v in (t, x, y, valid, fixation, obs, clip)])

    def records(self, report: IngestReport) -> list:
        """One ObserverRecord per (clip, observer), sorted by clip then
        observer; a stream that is out of time order is re-sorted, stably,
        and counted as ``out_of_order_row``."""
        _tally(report, "malformed_row", self.malformed)
        if not self.chunks:
            return []
        t, x, y, valid, fixation, obs, clip = map(np.concatenate, zip(*self.chunks))
        self.chunks = []
        names = sorted(self.ids)
        rank = np.empty(len(names), dtype=np.int64)
        rank[[self.ids[name] for name in names]] = np.arange(len(names))
        key = rank[clip] * len(names) + rank[obs]
        del obs, clip
        order = np.argsort(key, kind="stable")
        key, t = key[order], t[order]
        same = key[1:] == key[:-1]
        late = key[1:][same & (t[1:] < t[:-1])]  # sorted: one run per stream
        if late.size:
            _tally(report, "out_of_order_row", 1 + int(np.count_nonzero(late[1:] != late[:-1])))
            resort = np.lexsort((t, key))
            order, key, t = order[resort], key[resort], t[resort]
        x, y, valid, fixation = x[order], y[order], valid[order] > 0, fixation[order]
        bounds = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
        records = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            clip_name, obs_name = divmod(int(key[lo]), len(names))
            records.append(ObserverRecord(names[obs_name], names[clip_name], t[lo:hi],
                                          x[lo:hi], y[lo:hi], valid[lo:hi],
                                          fixation[lo:hi]))
        return records


def _tally(report: IngestReport, reason: str, k: int) -> None:
    """Count ``k`` drops for ``reason``; a reason never met stays out of
    the report."""
    if k:
        report.add(reason, k)


def parse_gaze_samples(stream, colmap: ColumnMap = ColumnMap(),
                       report: Optional[IngestReport] = None):
    """Parse delimiter-separated gaze samples with a header row.

    ``stream`` is a text stream, or the export itself as a string; lines
    end at "\\n" as its iteration splits them. Returns (records, report):
    one ObserverRecord per (observer, clip), sorted by clip then observer.
    Rows that cannot be parsed (too few fields, unparseable numbers,
    non-finite coordinates, negative timestamps, unknown validity tokens,
    empty ids or ids with control characters) are counted as
    ``malformed_row`` and skipped. Samples are re-sorted by timestamp,
    stably, when an observer's stream arrives out of order (counted once
    per stream as ``out_of_order_row``).
    """
    if report is None:
        report = IngestReport()
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header_line = stream.readline()
    if not header_line:
        raise FormatError("gaze stream is empty, expected a header row")
    header = [h.strip() for h in header_line.rstrip("\n").split(colmap.delimiter)]
    indices = {}
    for name in ("observer_id", "clip_id", "timestamp_ms", "x", "y", "validity", "event"):
        column = getattr(colmap, name)
        if column not in header:
            raise FormatError(f"mandatory column {column!r} missing from header {header}")
        indices[name] = header.index(column)
    columns = _ExportColumns(colmap.delimiter, len(header), indices)
    for lines in iter(lambda: stream.readlines(_CHUNK_CHARS), []):
        columns.add(lines)
    return columns.records(report), report


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
    at or past the clip end are dropped with a warning count. A frame's
    points keep their sample order.
    """
    if report is None:
        report = IngestReport()
    kept: dict = {}  # observer_id -> [(frames, x, y) per record]
    for record in records:
        if record.clip_id != meta.clip_id:
            raise InputError(
                f"record for clip {record.clip_id!r} passed to clean_and_bin "
                f"for clip {meta.clip_id!r}")
        t, x, y = (np.asarray(v, dtype=float) for v in (record.timestamp_ms, record.x, record.y))
        fixation = np.asarray(record.fixation, dtype=bool)
        valid = np.asarray(record.valid, dtype=bool)
        fixations = int(np.count_nonzero(fixation))
        _tally(report, "non_fixation_event", t.size - fixations)
        keep = fixation & valid
        _tally(report, "invalid_sample", fixations - int(np.count_nonzero(keep)))
        inside = keep & meta.active_area.contains_strict(x, y)
        _tally(report, "outside_active_area", int(np.count_nonzero(keep & ~inside)))
        frames = frame_of(t[inside], meta.fps)
        on_clip = frames < meta.frame_count
        _tally(report, "beyond_clip_end", frames.size - int(np.count_nonzero(on_clip)))
        fx, fy = display_to_frame(x[inside][on_clip], y[inside][on_clip], meta)
        kept.setdefault(record.observer_id, []).append(
            (frames[on_clip].astype(np.int64), fx, fy))
    return CleanedFixations(
        clip_id=meta.clip_id,
        frame_count=meta.frame_count,
        width=meta.frame_width_px,
        height=meta.frame_height_px,
        by_observer={obs: _by_frame(*map(np.concatenate, zip(*kept.pop(obs))))
                     for obs in sorted(kept)},
    )


def _by_frame(frames: np.ndarray, x: np.ndarray, y: np.ndarray) -> dict:
    """{frame: [(x, y), ...]} in frame order; a frame's points keep their
    order in the columns."""
    if not frames.size:
        return {}
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    points = list(zip(x[order].tolist(), y[order].tolist()))
    bounds = np.flatnonzero(np.r_[True, frames[1:] != frames[:-1], True]).tolist()
    return {frame: points[lo:hi]
            for frame, lo, hi in zip(frames[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])}


def ingest_clip(gaze, meta: ClipMeta, colmap: ColumnMap = ColumnMap(),
                min_valid_rate: float = 0.9) -> tuple:
    """One clip's export at path ``gaze``, through the whole ingest chain:
    parse, keep the records of ``meta``'s clip, reject observers with a
    valid-sample rate not above ``min_valid_rate``, clean and bin.

    Returns (CleanedFixations, IngestReport); the report counts the
    rejected observers as ``observers_rejected``.
    """
    with open(gaze) as f:
        records, report = parse_gaze_samples(f, colmap, IngestReport())
    records = [r for r in records if r.clip_id == meta.clip_id]
    kept, rejected = filter_observers(records, min_valid_rate)
    report.add("observers_rejected", len(rejected))
    return clean_and_bin(kept, meta, report), report


def build_fixation_map(points: Iterable, width: int, height: int) -> FixationMap:
    """Binary fixation map from real-valued frame coordinates.

    Points round to pixels by ``core.rasterize``; duplicates collapse.
    Out-of-bounds input points are an error.
    """
    if width <= 0 or height <= 0:
        raise InputError("FixationMap dimensions must be positive")
    return FixationMap(width, height, np.unique(rasterize(list(points), width, height)))


def fixation_map_for_frame(cleaned: CleanedFixations, frame: int) -> FixationMap:
    """All observers' fixations on one frame as a single binary map."""
    if not (0 <= frame < cleaned.frame_count):
        raise InputError(f"frame {frame} outside [0, {cleaned.frame_count})")
    return build_fixation_map(cleaned.frame_points(frame), cleaned.width, cleaned.height)


def write_fixations(cleaned: CleanedFixations, path) -> None:
    """Long-form fixation file: one row per point, with clip header lines.

    Rows go by observer, then frame in the order of ``by_observer``, then
    point.
    """
    observers, frames, xs, ys = [], [], [], []
    for obs in cleaned.observers():
        for frame, pts in cleaned.by_observer[obs].items():
            if pts:
                x, y = zip(*sorted(pts))
                observers += [obs] * len(x)
                frames += [frame] * len(x)
                xs += x
                ys += y
    write_table(path, FIXATION_COLUMNS, [observers, frames, xs, ys],
                meta={"clip_id": cleaned.clip_id, "frame_count": cleaned.frame_count,
                      "width": cleaned.width, "height": cleaned.height})


def _on_clip_frame(meta: dict):
    """Column check for ``read_table``: each point lies on a frame of the
    clip, inside its width x height grid."""
    bounds = [meta.get(key, "") for key in ("frame_count", "width", "height")]
    if not all(v.isdigit() for v in bounds):
        return None  # a missing or bad header line is reported once the rows are read
    frame_count, width, height = map(int, bounds)

    def check(values: list) -> Optional[tuple]:
        _, frames, xs, ys = values
        x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
        ok = (x >= 0) & (x < width) & (y >= 0) & (y < height)
        if frames and not (min(frames) >= 0 and max(frames) < frame_count):
            ok &= np.array([0 <= f < frame_count for f in frames])
        if ok.all():
            return None
        i = int(np.argmin(ok))
        if not 0 <= frames[i] < frame_count:
            return i, f"frame {frames[i]} outside [0, {frame_count})"
        return i, f"point ({xs[i]}, {ys[i]}) outside {width}x{height} frame"
    return check


def read_fixations(path) -> CleanedFixations:
    """Inverse of write_fixations.

    A point on a frame outside [0, frame_count), or outside the
    width x height frame, is a FormatError that names its line.
    """
    meta, (observers, frames, xs, ys) = read_table(path, FIXATION_COLUMNS,
                                                   check=_on_clip_frame)
    try:
        clip = (meta["clip_id"], int(meta["frame_count"]), int(meta["width"]),
                int(meta["height"]))
    except KeyError as exc:
        raise FormatError(f"{path}: missing fixation file header line for {exc}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: bad fixation file header line ({exc})") from None
    names = sorted(set(observers))
    by_observer = {}
    if names:
        code = {name: i for i, name in enumerate(names)}
        obs = np.array(list(map(code.__getitem__, observers)))
        order = np.argsort(obs, kind="stable")
        obs = obs[order]
        frames, xs, ys = (np.array(v)[order] for v in (frames, xs, ys))
        bounds = np.flatnonzero(np.r_[True, obs[1:] != obs[:-1], True]).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            by_observer[names[obs[lo]]] = _by_frame(frames[lo:hi], xs[lo:hi], ys[lo:hi])
    return CleanedFixations(*clip, by_observer=by_observer)
