"""Editing annotations: shots, camera motion, angle, shot size, cuts, faces.

Annotation documents are JSON with an explicit schema version:

    {
      "schema_version": 1,
      "clip_id": "big_fish",
      "frame_count": 3166,
      "frame_width": 1920,
      "frame_height": 1400,
      "shots": [
        {"start": 0, "end": 120, "motions": ["Static"],
         "angle": "Eye", "size": "MS"},
        {"start": 120, "end": 3166, "motions": ["Pan", "Track"],
         "motion_direction": "Left", "angle": "High", "size": "LS"}
      ],
      "faces": {"45": [[830.0, 260.0, 190.0, 240.0]]}
    }

Shots are half-open frame intervals tiling [0, frame_count); cuts are the
shared boundaries. Motions are multi-valued per shot; angle and size are
single-valued. Face boxes are [x, y, w, h] in frame pixels, keyed by frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import InputError, ValidationError
from .tables import read_json

SCHEMA_VERSION = 1


class CameraMotion(str, Enum):
    STATIC = "Static"
    TRACK = "Track"
    ZOOM = "Zoom"
    PAN = "Pan"
    TILT = "Tilt"
    DOLLY = "Dolly"
    CRANE = "Crane"
    HANDHELD = "Handheld"
    RACK_FOCUS = "RackFocus"


class MotionDirection(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"
    NONE = "None"


class CameraAngle(str, Enum):
    EYE = "Eye"
    LOW = "Low"
    HIGH = "High"
    WORM = "Worm"
    BIRD = "Bird"
    TOP = "Top"


class ShotSize(str, Enum):
    XCU = "XCU"
    BCU = "BCU"
    CU = "CU"
    MCU = "MCU"
    MS = "MS"
    MLS = "MLS"
    LS = "LS"
    VLS = "VLS"
    EST = "EST"


# a fixed mount excludes every motion that moves the camera body
_MOVING = frozenset({CameraMotion.PAN, CameraMotion.TILT, CameraMotion.DOLLY,
                     CameraMotion.CRANE, CameraMotion.HANDHELD})


class PartitionKind(str, Enum):
    MOTION = "Motion"
    ANGLE = "Angle"
    SIZE = "Size"


@dataclass(frozen=True)
class Shot:
    start: int  # inclusive
    end: int    # exclusive
    motions: frozenset
    angle: CameraAngle
    size: ShotSize
    motion_direction: Optional[MotionDirection] = None

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValidationError(f"shot [{self.start}, {self.end}) is empty or negative")
        if not self.motions:
            raise ValidationError(f"shot [{self.start}, {self.end}) has no camera motion")
        if CameraMotion.STATIC in self.motions and self.motions & _MOVING:
            moving = sorted(m.value for m in self.motions & _MOVING)
            raise ValidationError(
                f"shot [{self.start}, {self.end}): Static excludes {', '.join(moving)}")
        if self.motion_direction is not None and not (
                self.motions & {CameraMotion.PAN, CameraMotion.DOLLY}):
            raise ValidationError(
                f"shot [{self.start}, {self.end}): motion_direction only applies "
                "to Pan or Dolly shots")


@dataclass(frozen=True)
class FaceBox:
    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class ClipAnnotation:
    clip_id: str
    frame_count: int
    frame_width: int
    frame_height: int
    shots: tuple
    faces: dict = field(default_factory=dict)  # frame -> tuple of FaceBox

    def __post_init__(self):
        if self.frame_count <= 0:
            raise ValidationError("frame_count must be positive")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValidationError("frame dimensions must be positive")
        expected = 0
        for shot in self.shots:
            if shot.start > expected:
                raise ValidationError(
                    f"{self.clip_id}: gap in shot coverage, frames "
                    f"{expected}-{shot.start - 1} belong to no shot")
            if shot.start < expected:
                raise ValidationError(
                    f"{self.clip_id}: overlapping shots at frames "
                    f"{shot.start}-{expected - 1}")
            expected = shot.end
        if expected != self.frame_count:
            if expected < self.frame_count:
                raise ValidationError(
                    f"{self.clip_id}: gap in shot coverage, frames "
                    f"{expected}-{self.frame_count - 1} belong to no shot")
            raise ValidationError(
                f"{self.clip_id}: shots extend to frame {expected - 1}, past the "
                f"clip end {self.frame_count - 1}")
        for frame, boxes in self.faces.items():
            if not (0 <= frame < self.frame_count):
                raise ValidationError(f"{self.clip_id}: face list on out-of-range frame {frame}")
            for b in boxes:
                if (b.w <= 0 or b.h <= 0 or b.x < 0 or b.y < 0
                        or b.x + b.w > self.frame_width or b.y + b.h > self.frame_height):
                    raise ValidationError(
                        f"{self.clip_id}: face box ({b.x}, {b.y}, {b.w}, {b.h}) on frame "
                        f"{frame} extends past the {self.frame_width}x{self.frame_height} frame")


def _enum_value(enum_cls, token, context):
    try:
        return enum_cls(token)
    except ValueError:
        known = ", ".join(e.value for e in enum_cls)
        raise ValidationError(
            f"{context}: unknown {enum_cls.__name__} token {token!r} (expected one of {known})"
        ) from None


def parse_annotations(doc) -> ClipAnnotation:
    """Parse and validate one clip's annotation document, as
    ``tables.read_json`` returns it."""
    if not isinstance(doc, dict):
        raise ValidationError("annotation document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    for key in ("clip_id", "frame_count", "frame_width", "frame_height", "shots"):
        if key not in doc:
            raise ValidationError(f"annotation document missing field {key!r}")
    clip_id = str(doc["clip_id"])
    # the context of the field being read, for a value of the wrong type
    ctx = f"{clip_id} shots"
    try:
        shots = []
        for i, s in enumerate(doc["shots"]):
            ctx = f"{clip_id} shot {i}"
            for key in ("start", "end", "motions", "angle", "size"):
                if key not in s:
                    raise ValidationError(f"{ctx}: missing field {key!r}")
            motions = frozenset(_enum_value(CameraMotion, m, ctx) for m in s["motions"])
            direction = s.get("motion_direction")
            shots.append(Shot(
                start=int(s["start"]),
                end=int(s["end"]),
                motions=motions,
                angle=_enum_value(CameraAngle, s["angle"], ctx),
                size=_enum_value(ShotSize, s["size"], ctx),
                motion_direction=(_enum_value(MotionDirection, direction, ctx)
                                  if direction is not None else None),
            ))
        ctx = f"{clip_id} faces"
        faces = {}
        for key, boxes in doc.get("faces", {}).items():
            ctx = f"{clip_id} faces of frame {key!r}"
            faces[int(key)] = tuple(FaceBox(*[float(v) for v in b]) for b in boxes)
        ctx = clip_id
        return ClipAnnotation(
            clip_id=clip_id,
            frame_count=int(doc["frame_count"]),
            frame_width=int(doc["frame_width"]),
            frame_height=int(doc["frame_height"]),
            shots=tuple(shots),
            faces=faces,
        )
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValidationError(f"{ctx}: malformed field ({exc})") from None


def read_annotation(path) -> ClipAnnotation:
    """The annotation document in JSON file ``path``, parsed and validated;
    a FormatError or ValidationError names the file."""
    doc = read_json(path)
    try:
        return parse_annotations(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def cuts_of(annotation: ClipAnnotation) -> list:
    """Start frames of every shot except the first, ascending."""
    return [s.start for s in annotation.shots[1:]]


@dataclass(frozen=True)
class ShotStats:
    clip_id: str
    sequence_length_s: float
    longest_s: float
    shortest_s: float
    average_s: float


def shot_stats(annotation: ClipAnnotation, fps: float) -> ShotStats:
    """Sequence and shot length summary in seconds."""
    if fps <= 0:
        raise InputError(f"fps must be positive, got {fps}")
    durations = [(s.end - s.start) / fps for s in annotation.shots]
    return ShotStats(
        clip_id=annotation.clip_id,
        sequence_length_s=annotation.frame_count / fps,
        longest_s=max(durations),
        shortest_s=min(durations),
        average_s=sum(durations) / len(durations),
    )


def labels(kind: PartitionKind, motions, angle: str, size: str) -> tuple:
    """The labels a shot (or a score row) counts under in a partition.

    Motion is multi-label and gives every motion; Angle and Size give one
    label. Empty labels (rows scored without an annotation) give none.
    """
    if kind == PartitionKind.MOTION:
        chosen = motions
    elif kind == PartitionKind.ANGLE:
        chosen = (angle,)
    else:
        chosen = (size,)
    return tuple(label for label in chosen if label)


def shot_at(annotation: ClipAnnotation, frame: int) -> Shot:
    """The shot containing a frame."""
    if not (0 <= frame < annotation.frame_count):
        raise InputError(f"frame {frame} outside [0, {annotation.frame_count})")
    for shot in annotation.shots:
        if shot.start <= frame < shot.end:
            return shot
    raise InputError(f"frame {frame} not covered by any shot")  # unreachable: shots tile

