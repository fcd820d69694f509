"""Inter-observer congruency estimators.

Two estimators are provided:

* ``convex_hull_area``: the area spanned by one frame's fixation points,
  an outlier-sensitive upper bound on congruency;
* ``loo_window_ioc``: leave-one-out NSS over a sliding window of frames.
  For every window and observer, the remaining observers' window
  fixations are blurred into a saliency map and the left-out observer's
  fixations are scored against it with NSS; the window score is the mean
  over observers.

The leave-one-out estimator is the expensive one (every observer times
every window of the dataset). Instead of materializing a blurred map per
(window, observer), this implementation computes NSS's three ingredients
in closed form from the window's fixation pixels, exploiting that the
zero-padded separable Gaussian factorizes:

* map total mass: per-pixel border-clipped kernel mass, tabulated per axis;
* map second moment: pairwise kernel correlations, tabulated per axis;
* map values at fixations: pairwise kernel products.

This is algebraically identical to blurring and z-scoring dense grids
(the naive route lives in the test suite as an oracle) but costs
O(points^2) per window instead of O(pixels * kernel).

Semantics pinned here and echoed in series-file metadata: stride is one
frame; windows truncated by the clip end are dropped; each observer's
window fixations collapse to a binary pixel set, pooled across observers
by summation; observers without window fixations are skipped, not scored
zero; a window with no scorable observer pair has an absent score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ClipMeta, rasterize_point
from .errors import FormatError, InputError
from .ingest import CleanedFixations
from .saliency import make_kernel
from .tables import optional_float, read_table, write_table

#: decisions echoed into every persisted series (see module docstring)
SERIES_POLICY = {
    "stride": "1",
    "window_pooling": "per-observer binary pixel sets, summed across observers",
    "observer_eligibility": "observers without window fixations are skipped",
    "partial_windows": "dropped",
}

#: series file columns and their cell converters
SERIES_COLUMNS = {"clip_id": str, "window_start": int, "n": int, "score": optional_float}


@dataclass(frozen=True)
class IocConfig:
    n: int = 20
    sigma_px: float = 45.0
    min_observers: int = 2
    truncation: float = 3.0

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"window size must be >= 1, got {self.n}")
        if self.min_observers < 2:
            raise InputError(f"min_observers must be >= 2, got {self.min_observers}")
        if self.sigma_px <= 0:
            raise InputError(f"sigma_px must be positive, got {self.sigma_px}")


@dataclass
class IocSeries:
    clip_id: str
    n: int
    stride: int
    values: list  # of (window_start_frame, score or None)


@dataclass(frozen=True)
class IocSummary:
    mean: float
    median: float
    std: float
    count: int


def convex_hull_area(points: Sequence) -> float:
    """Area of the 2-D convex hull, 0 for degenerate point sets.

    Duplicates and ordering do not matter.
    """
    pts = sorted({(float(x), float(y)) for (x, y) in points})
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return 0.0
    area2 = 0.0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        area2 += x0 * y1 - x1 * y0
    return abs(area2) / 2.0


def _border_mass(k1: np.ndarray, r: int, length: int) -> np.ndarray:
    """mass[p] = sum of the 1-D kernel centered at p, clipped to [0, length)."""
    csum = np.concatenate(([0.0], np.cumsum(k1)))
    p = np.arange(length)
    lo = np.maximum(0, r - p)
    hi = np.minimum(2 * r, r + (length - 1 - p))
    return csum[hi + 1] - csum[lo]


def _corr_table(k1: np.ndarray, r: int, length: int) -> np.ndarray:
    """table[d, m] = sum over x in [0, length) of k(x - m) * k(x - m - d).

    Rows run d = 0 .. 2r; one extra all-zero row catches offsets beyond
    kernel support, so callers can index with min(d, 2r + 1).
    """
    two_r = 2 * r
    table = np.zeros((two_r + 2, length))
    m = np.arange(length)
    for d in range(two_r + 1):
        u = np.arange(d - r, r + 1)  # offsets where both factors are non-zero
        prod = k1[u + r] * k1[u - d + r]
        csum = np.concatenate(([0.0], np.cumsum(prod)))
        lo_u = np.maximum(d - r, -m)
        hi_u = np.minimum(r, (length - 1) - m)
        lo_i = lo_u - (d - r)
        hi_i = hi_u - (d - r)
        valid = hi_u >= lo_u
        row = np.zeros(length)
        row[valid] = csum[hi_i[valid] + 1] - csum[lo_i[valid]]
        table[d] = row
    return table


def _window_pixel_arrays(fixations: CleanedFixations, width: int, height: int):
    """Per-observer frame-sorted encoded pixel arrays plus window index maps.

    Returns (frame_arrays, pixel_arrays): for observer i, frame_arrays[i]
    is the sorted frame index of every rasterized point and pixel_arrays[i]
    the matching y * width + x code. Windows slice these with searchsorted.
    """
    frame_arrays = []
    pixel_arrays = []
    for obs in fixations.observers():
        frames = []
        codes = []
        for t, pts in fixations.by_observer[obs].items():
            if not (0 <= t < fixations.frame_count):
                raise InputError(f"fixation on out-of-range frame {t}")
            for (x, y) in pts:
                xi, yi = rasterize_point(x, y, width, height)
                frames.append(t)
                codes.append(yi * width + xi)
        order = np.argsort(np.asarray(frames, dtype=np.int64), kind="stable")
        frame_arrays.append(np.asarray(frames, dtype=np.int64)[order])
        pixel_arrays.append(np.asarray(codes, dtype=np.int64)[order])
    return frame_arrays, pixel_arrays


# row-block size cap so pairwise temporaries stay within ~32 MB
_PAIR_BLOCK_ELEMENTS = 4_000_000


def loo_window_ioc(fixations: CleanedFixations, meta: ClipMeta,
                   cfg: IocConfig = IocConfig()) -> IocSeries:
    """Leave-one-out sliding-window congruency series for one clip.

    Every complete window [t, t + n) at stride 1 gets one score (or None
    when nothing is scorable). Requires at least ``cfg.min_observers``
    observers in the input.
    """
    observers = fixations.observers()
    n_obs = len(observers)
    if n_obs < cfg.min_observers:
        raise InputError(
            f"{n_obs} observers present, leave-one-out needs at least {cfg.min_observers}")
    width, height = meta.frame_width_px, meta.frame_height_px
    if (width, height) != (fixations.width, fixations.height):
        raise InputError(
            f"fixations are on a {fixations.width}x{fixations.height} grid, "
            f"meta says {width}x{height}")
    total_frames = fixations.frame_count
    n = cfg.n

    kernel = make_kernel(cfg.sigma_px, cfg.truncation)
    k1 = kernel.weights_1d
    r = kernel.radius_px
    kval = np.zeros(max(width, height), dtype=float)
    reach = min(r + 1, kval.size)
    kval[:reach] = k1[r:r + reach]
    mass_x = _border_mass(k1, r, width)
    mass_y = _border_mass(k1, r, height)
    corr_x = _corr_table(k1, r, width)
    corr_y = _corr_table(k1, r, height)
    zero_row = 2 * r + 1  # index of the padding row in the corr tables

    frame_arrays, pixel_arrays = _window_pixel_arrays(fixations, width, height)
    n_windows = max(0, total_frames - n + 1)
    window_starts = np.arange(n_windows)
    lo_idx = [np.searchsorted(fa, window_starts, side="left") for fa in frame_arrays]
    hi_idx = [np.searchsorted(fa, window_starts + n, side="left") for fa in frame_arrays]

    n_pixels = width * height
    values = []
    for t in range(n_windows):
        per_obs = []
        active = []
        for oi in range(n_obs):
            seg = pixel_arrays[oi][lo_idx[oi][t]:hi_idx[oi][t]]
            if seg.size:
                per_obs.append(np.unique(seg))
                active.append(oi)
        if len(active) < 2:
            values.append((t, None))
            continue
        counts = np.array([a.size for a in per_obs])
        offsets = np.zeros(len(active), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        codes = np.concatenate(per_obs)
        total_pts = codes.size
        xs = codes % width
        ys = codes // width

        point_mass = mass_x[xs] * mass_y[ys]
        mass_per = np.add.reduceat(point_mass, offsets)
        mass_tot = float(mass_per.sum())

        # pairwise kernel values and correlations, reduced per observer
        row_by_obs = np.empty((total_pts, len(active)))
        corr_by_obs = np.empty((total_pts, len(active)))
        block = max(1, _PAIR_BLOCK_ELEMENTS // total_pts)
        for b0 in range(0, total_pts, block):
            b1 = min(total_pts, b0 + block)
            dx = np.abs(xs[b0:b1, None] - xs[None, :])
            dy = np.abs(ys[b0:b1, None] - ys[None, :])
            g = kval[dx] * kval[dy]
            row_by_obs[b0:b1] = np.add.reduceat(g, offsets, axis=1)
            np.minimum(dx, zero_row, out=dx)
            np.minimum(dy, zero_row, out=dy)
            c = (corr_x[dx, np.minimum(xs[b0:b1, None], xs[None, :])]
                 * corr_y[dy, np.minimum(ys[b0:b1, None], ys[None, :])])
            corr_by_obs[b0:b1] = np.add.reduceat(c, offsets, axis=1)
        row_total = row_by_obs.sum(axis=1)
        v = np.add.reduceat(corr_by_obs, offsets, axis=0)  # (n_active, n_active)
        v_tot = float(v.sum())
        v_row = v.sum(axis=1)

        scores = []
        for a in range(len(active)):
            if total_pts - counts[a] == 0:
                continue  # nobody left to build the map from
            mu = (mass_tot - float(mass_per[a])) / n_pixels
            second = (v_tot - 2.0 * float(v_row[a]) + float(v[a, a])) / n_pixels
            var = second - mu * mu
            if var <= 0.0:
                continue  # the leave-one-out map is constant
            sl = slice(offsets[a], offsets[a] + counts[a])
            s_at_fix = row_total[sl] - row_by_obs[sl, a]
            scores.append((float(s_at_fix.mean()) - mu) / math.sqrt(var))
        values.append((t, sum(scores) / len(scores) if scores else None))
    return IocSeries(fixations.clip_id, n, 1, values)


def sequence_ioc_summary(series: IocSeries) -> IocSummary:
    """Mean, median, population std and count over the present scores."""
    present = np.array([v for _, v in series.values if v is not None])
    if present.size == 0:
        raise InputError("series has no present scores")
    return IocSummary(
        mean=float(present.mean()),
        median=float(np.median(present)),
        std=float(present.std()),
        count=int(present.size),
    )


@dataclass(frozen=True)
class CutDrop:
    cut: int
    pre_mean: Optional[float]
    post_mean: Optional[float]
    drop: Optional[float]
    overlaps_context: bool


def cut_drop_analysis(series: IocSeries, cuts: Sequence[int],
                      pre_frames: int = 5, post_frames: int = 5) -> list:
    """Per-cut congruency drop from a stride-1 series.

    For a cut at frame c, the pre context is windows ending in the
    ``pre_frames`` frames before c (fully pre-cut content), the post
    context is windows starting in [c, c + post_frames). drop is
    pre_mean - post_mean. Cuts whose context reaches another cut are
    flagged rather than excluded.
    """
    if series.stride != 1:
        raise InputError("cut_drop_analysis requires a stride-1 series")
    if pre_frames < 1 or post_frames < 1:
        raise InputError("pre_frames and post_frames must be >= 1")
    n = series.n
    by_start = dict(series.values)
    span = (max(by_start) + n) if by_start else 0
    records = []
    cuts_sorted = sorted(cuts)
    for c in cuts_sorted:
        if not (0 <= c <= span):
            raise InputError(f"cut at frame {c} outside the series range [0, {span}]")
        pre_lo = c - pre_frames - n + 1
        pre_hi = c - n
        post_lo = c
        post_hi = c + post_frames - 1
        pre_vals = [by_start[s] for s in range(max(0, pre_lo), pre_hi + 1)
                    if by_start.get(s) is not None]
        post_vals = [by_start[s] for s in range(max(0, post_lo), post_hi + 1)
                     if by_start.get(s) is not None]
        pre_mean = sum(pre_vals) / len(pre_vals) if pre_vals else None
        post_mean = sum(post_vals) / len(post_vals) if post_vals else None
        drop = (pre_mean - post_mean) if (pre_mean is not None and post_mean is not None) else None
        context_end = post_hi + n - 1
        overlaps = any(other != c and pre_lo <= other <= context_end
                       for other in cuts_sorted)
        records.append(CutDrop(c, pre_mean, post_mean, drop, overlaps))
    return records


def write_ioc_series(series: IocSeries, path, meta: Optional[dict] = None) -> None:
    """Persist a series as delimited text: clip_id, window_start, n, score.

    Absent scores serialize as an empty field. Estimator policy decisions
    are always echoed in the header.
    """
    header = dict(SERIES_POLICY)
    if meta:
        header.update({str(k): str(v) for k, v in meta.items()})
    write_table(path, SERIES_COLUMNS,
                ((series.clip_id, start, series.n, score) for start, score in series.values),
                meta=dict(sorted(header.items())))


def read_ioc_series(path) -> IocSeries:
    _, rows = read_table(path, SERIES_COLUMNS)
    if not rows:
        raise FormatError(f"{path}: no series rows found")
    return IocSeries(rows[0][0], rows[0][2], 1, [(start, score) for _, start, _, score in rows])
