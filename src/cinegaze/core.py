"""Shared data types, display/frame geometry and frame-time arithmetic.

Coordinate conventions used throughout the toolkit:

* points are ``(x, y)`` pairs, x to the right, y downward;
* dense grids are numpy arrays indexed ``[y, x]`` (row-major);
* display coordinates are pixels on the physical screen, frame coordinates
  are pixels of the movie frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: origin top-left, sizes in pixels."""

    x: float
    y: float
    w: float
    h: float

    def contains_strict(self, px, py):
        """True where (px, py) lies strictly inside the rectangle; px and py
        may be numbers or arrays.

        Boundary points count as outside: letterbox borders carry no content.
        """
        return (self.x < px) & (px < self.x + self.w) & (self.y < py) & (py < self.y + self.h)


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
class FixationMap:
    """Per-frame binary grid of fixated pixels: their sorted, distinct
    row-major positions ``y * width + x`` (int64), as
    ``ingest.build_fixation_map`` builds and checks them; it is not
    checked again."""

    width: int
    height: int
    pixels: np.ndarray


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


def frame_of(timestamp_ms, fps: float):
    """Frame index on screen at the given time: floor(t * fps / 1000), for a
    number or an array of times.

    Every sample lands in exactly one frame. The index is a float64, so a
    time far past any clip still compares exactly with a frame count.
    """
    t = np.asarray(timestamp_ms, dtype=float)
    if not np.all(t >= 0):
        raise InputError(f"negative timestamp: {t[~(t >= 0)].flat[0]}")
    if fps <= 0:
        raise InputError(f"fps must be positive, got {fps}")
    return np.floor(t * fps / 1000.0)


def display_to_frame(x, y, meta: ClipMeta) -> tuple:
    """Map display-pixel positions (numbers or arrays) into frame pixels.

    Only points strictly inside the active content area
    (``meta.active_area.contains_strict``) land on the frame.
    """
    a = meta.active_area
    return ((x - a.x) * (meta.frame_width_px / a.w),
            (y - a.y) * (meta.frame_height_px / a.h))


def frame_to_display(fx: float, fy: float, meta: ClipMeta) -> tuple:
    """Inverse of display_to_frame for in-frame coordinates."""
    a = meta.active_area
    return (a.x + fx * (a.w / meta.frame_width_px),
            a.y + fy * (a.h / meta.frame_height_px))


def rasterize(xy, width: int, height: int) -> np.ndarray:
    """Row-major pixel positions ``y * width + x`` (int64) of an n x 2
    array of real-valued frame points: the one rule that rounds a point to
    a pixel.

    Coordinates round half up, and the last half pixel sticks to the grid
    edge, so rounding never pushes an in-bounds point off the grid. The
    first point outside the frame is an InputError.
    """
    xy = np.asarray(xy).reshape(-1, 2)
    inside = ((xy >= 0) & (xy < (width, height))).all(axis=1)
    if not inside.all():
        x, y = xy[np.argmin(inside)].tolist()
        raise InputError(f"point ({x}, {y}) outside {width}x{height} frame")
    pix = xy + 0.5
    np.floor(pix, out=pix)
    np.minimum(pix, (width - 1, height - 1), out=pix)
    pix = pix.astype(np.int64)
    return pix[:, 1] * width + pix[:, 0]


def distinct_counts(values) -> tuple:
    """The distinct values of a 1-D array, ascending, and how often each
    occurs: ``np.unique(values, return_counts=True)``, by a sort and a
    mask, because ``np.unique`` imports numpy.ma (about 20 ms a process)."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=ordered.size)


def rasterize_point(x: float, y: float, width: int, height: int) -> tuple:
    """``rasterize`` of one point, as its integer pixel (x, y)."""
    return divmod(int(rasterize([(x, y)], width, height)[0]), width)[::-1]
