"""Shared data types, display/frame geometry and frame-time arithmetic.

Coordinate conventions used throughout the toolkit:

* points are ``(x, y)`` pairs, x to the right, y downward;
* dense grids are numpy arrays indexed ``[y, x]`` (row-major);
* display coordinates are pixels on the physical screen, frame coordinates
  are pixels of the movie frame.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import FormatError, InputError

_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def has_control_chars(text: str) -> bool:
    """True when ``text`` holds a control character (Unicode category Cc).

    Ids with one are rejected at ingest: they cannot round-trip through
    the line-based table files.
    """
    return _CONTROL_CHARS.search(text) is not None


class GazeEvent(str, Enum):
    FIXATION = "Fixation"
    SACCADE = "Saccade"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: origin top-left, sizes in pixels."""

    x: float
    y: float
    w: float
    h: float

    def contains_strict(self, px: float, py: float) -> bool:
        """True when (px, py) lies strictly inside the rectangle.

        Boundary points count as outside: letterbox borders carry no content.
        """
        return self.x < px < self.x + self.w and self.y < py < self.y + self.h


def letterboxed_area(frame_w: int, frame_h: int, display_w: int, display_h: int) -> Rect:
    """Content rectangle when a frame is fit inside a display.

    The frame is scaled uniformly (aspect ratio preserved) and centered, the
    remaining display area is the letterbox/pillarbox border.
    """
    if min(frame_w, frame_h, display_w, display_h) <= 0:
        raise InputError("letterboxed_area: dimensions must be positive")
    scale = min(display_w / frame_w, display_h / frame_h)
    w = frame_w * scale
    h = frame_h * scale
    return Rect((display_w - w) / 2.0, (display_h - h) / 2.0, w, h)


@dataclass(frozen=True)
class ClipMeta:
    """Static metadata for one movie clip and the screen it was shown on.

    ``active_area`` is the display-pixel rectangle actually covered by frame
    content; when omitted it is derived from the aspect ratios (pure
    translation plus scale, no rotation). ``px_per_degree`` is the viewing
    calibration: how many display pixels one degree of visual angle spans.
    """

    clip_id: str
    frame_count: int
    frame_width_px: int
    frame_height_px: int
    fps: float = 24.0
    display_width_px: int = 1920
    display_height_px: int = 1200
    active_area: Optional[Rect] = None
    px_per_degree: float = 45.0

    def __post_init__(self):
        if self.frame_count <= 0:
            raise InputError(f"frame_count must be positive, got {self.frame_count}")
        if self.fps <= 0:
            raise InputError(f"fps must be positive, got {self.fps}")
        if self.px_per_degree <= 0:
            raise InputError(f"px_per_degree must be positive, got {self.px_per_degree}")
        if min(self.frame_width_px, self.frame_height_px,
               self.display_width_px, self.display_height_px) <= 0:
            raise InputError("frame and display dimensions must be positive")
        if self.active_area is None:
            object.__setattr__(
                self, "active_area",
                letterboxed_area(self.frame_width_px, self.frame_height_px,
                                 self.display_width_px, self.display_height_px))
        a = self.active_area
        eps = 1e-9
        if (a.w <= 0 or a.h <= 0 or a.x < -eps or a.y < -eps
                or a.x + a.w > self.display_width_px + eps
                or a.y + a.h > self.display_height_px + eps):
            raise InputError("active_area does not fit inside the display")

    @property
    def frame_px_per_degree(self) -> float:
        """Visual-angle calibration converted into frame pixels.

        px_per_degree is measured on the display; frame content may be
        scaled by the letterbox fit, so one degree covers
        px_per_degree / scale frame pixels.
        """
        return self.px_per_degree * (self.frame_width_px / self.active_area.w)

    @classmethod
    def from_dict(cls, d: dict) -> "ClipMeta":
        clip_id = d.get("clip_id") if isinstance(d, dict) else None
        if not isinstance(clip_id, str) or has_control_chars(clip_id):
            raise FormatError("clip metadata needs a clip_id string without control characters")
        area = d.get("active_area")
        try:
            fields = dict(
                frame_count=int(d["frame_count"]),
                frame_width_px=int(d["frame_width_px"]),
                frame_height_px=int(d["frame_height_px"]),
                fps=float(d.get("fps", 24.0)),
                display_width_px=int(d.get("display_width_px", 1920)),
                display_height_px=int(d.get("display_height_px", 1200)),
                active_area=Rect(*[float(v) for v in area]) if area is not None else None,
                px_per_degree=float(d.get("px_per_degree", 45.0)),
            )
        except KeyError as exc:
            raise FormatError(f"clip metadata lacks field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed clip metadata: {exc}") from None
        return cls(clip_id=clip_id, **fields)


@dataclass(frozen=True)
class GazeSample:
    """One raw eye-tracker reading, in display pixels."""

    observer_id: str
    timestamp_ms: float
    x: float
    y: float
    valid: bool = True
    event: GazeEvent = GazeEvent.UNKNOWN


@dataclass(frozen=True)
class FixationMap:
    """Per-frame binary grid of fixated pixels, stored as a point set.

    A pixel is fixated or not; duplicates collapse.
    """

    frame_index: int
    width: int
    height: int
    points: frozenset  # of (x, y) integer pairs

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InputError("FixationMap dimensions must be positive")
        for (x, y) in self.points:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise InputError(f"fixation ({x}, {y}) outside {self.width}x{self.height} grid")

    def __len__(self):
        return len(self.points)


def finite_grid(values) -> np.ndarray:
    """``values`` as a float grid; InputError unless it is a non-empty,
    finite 2-D grid. The one check of a map from outside the program."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.size == 0:
        raise InputError("a saliency map must be a non-empty 2-D grid")
    if not np.all(np.isfinite(v)):
        raise InputError("saliency map values must be finite")
    return v


@dataclass(frozen=True)
class SaliencyMap:
    """Dense non-negative real-valued grid, indexed [y, x], as the library
    builds it; it is not checked again (see ``finite_grid``)."""

    values: np.ndarray


def frame_of(timestamp_ms: float, fps: float) -> int:
    """Frame index on screen at the given time: floor(t * fps / 1000).

    Every sample lands in exactly one frame.
    """
    if timestamp_ms < 0:
        raise InputError(f"negative timestamp: {timestamp_ms}")
    if fps <= 0:
        raise InputError(f"fps must be positive, got {fps}")
    return int(math.floor(timestamp_ms * fps / 1000.0))


def display_to_frame(x: float, y: float, meta: ClipMeta) -> Optional[tuple]:
    """Map a display-pixel position into frame pixels, or None when the
    point is not strictly inside the active content area."""
    a = meta.active_area
    if not a.contains_strict(x, y):
        return None
    fx = (x - a.x) * (meta.frame_width_px / a.w)
    fy = (y - a.y) * (meta.frame_height_px / a.h)
    return (fx, fy)


def frame_to_display(fx: float, fy: float, meta: ClipMeta) -> tuple:
    """Inverse of display_to_frame for in-frame coordinates."""
    a = meta.active_area
    return (a.x + fx * (a.w / meta.frame_width_px),
            a.y + fy * (a.h / meta.frame_height_px))


def round_half_up(v: float) -> int:
    """Nearest-integer rounding with half-up tie breaking."""
    return int(math.floor(v + 0.5))


def rasterize_point(x: float, y: float, width: int, height: int) -> tuple:
    """Round a real-valued in-bounds frame coordinate to its integer pixel.

    Coordinates in the last half pixel stick to the grid edge so rounding
    never pushes an in-bounds point off the grid.
    """
    if not (0 <= x < width and 0 <= y < height):
        raise InputError(f"point ({x}, {y}) outside {width}x{height} frame")
    return (min(round_half_up(x), width - 1), min(round_half_up(y), height - 1))
