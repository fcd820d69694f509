"""Continuous saliency maps from binary fixation maps.

Fixation maps are blurred with a sampled 2-D Gaussian whose spread matches
one degree of visual angle, approximating foveal extent. Borders are
zero-padded: mass near the edge leaks off-map and no per-frame
renormalization is applied, so edge fixations genuinely weigh less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import FixationMap, SaliencyMap
from .errors import InputError

#: output rows that ``resize_bilinear`` blends across y in one step; a
#: band of 1920-wide rows (480 KiB) stays in cache between its passes
RESIZE_BAND_ROWS = 32


@dataclass(frozen=True)
class GaussianKernel:
    """Sampled, unit-sum, separable 2-D Gaussian."""

    sigma_px: float
    radius_px: int
    weights: np.ndarray     # (2r+1, 2r+1), sums to 1
    weights_1d: np.ndarray  # separable factor, sums to 1

    @property
    def size(self) -> int:
        return 2 * self.radius_px + 1


def make_kernel(sigma_px: float, truncation: float = 3.0) -> GaussianKernel:
    """Discrete Gaussian kernel sampled out to ``truncation`` sigmas.

    The grid is renormalized to unit sum, so blurring a single interior
    fixation deposits exactly one unit of mass.
    """
    if not (math.isfinite(sigma_px) and sigma_px > 0):
        raise InputError(f"sigma_px must be positive and finite, got {sigma_px}")
    if not (math.isfinite(truncation) and truncation > 0):
        raise InputError(f"truncation must be positive and finite, got {truncation}")
    radius = int(math.ceil(truncation * sigma_px))
    d = np.arange(-radius, radius + 1, dtype=float)
    g = np.exp(-(d * d) / (2.0 * sigma_px * sigma_px))
    k1 = g / g.sum()
    weights = np.outer(k1, k1)
    weights = weights / weights.sum()
    return GaussianKernel(sigma_px, radius, weights, k1)


def stamp_kernel(grid: np.ndarray, weights: np.ndarray, x: int, y: int,
                 amount: float = 1.0) -> None:
    """Add ``amount`` copies of a centered kernel at pixel (x, y), in place.

    The part of the kernel falling off the grid is dropped (zero padding).
    """
    h, w = grid.shape
    k = weights.shape[0]
    r = k // 2
    gx0, gx1 = max(0, x - r), min(w, x + r + 1)
    gy0, gy1 = max(0, y - r), min(h, y + r + 1)
    if gx1 <= gx0 or gy1 <= gy0:
        return
    kx0 = gx0 - (x - r)
    ky0 = gy0 - (y - r)
    patch = weights[ky0:ky0 + (gy1 - gy0), kx0:kx0 + (gx1 - gx0)]
    if amount == 1.0:
        grid[gy0:gy1, gx0:gx1] += patch
    else:
        grid[gy0:gy1, gx0:gx1] += amount * patch


def _blur_points(xs, ys, amounts, width: int, height: int,
                 kernel: GaussianKernel) -> np.ndarray:
    """Zero-padded blur of ``amounts[i]`` fixations at each distinct pixel
    (``xs[i]``, ``ys[i]``) on a ``height`` x ``width`` grid.

    Few pixels are rendered by stamping translated kernels, in the order
    given; many fall back to two separable 1-D passes over a grid of the
    amounts. Both routes are the same linear operator (pinned by tests).
    """
    k = kernel.size
    # cost of stamping vs. two full-grid separable passes
    if len(xs) * k * k < 2 * width * height * k:
        out = np.zeros((height, width))
        for x, y, amount in zip(xs, ys, amounts):
            stamp_kernel(out, kernel.weights, x, y, amount)
        return out
    # imported here, not at module level: loading scipy.ndimage adds ~20 MB
    # and ~0.5 s to a process, and only this route needs it
    from scipy.ndimage import correlate1d

    grid = np.zeros((height, width))
    grid[ys, xs] = amounts
    tmp = correlate1d(grid, kernel.weights_1d, axis=0, mode="constant", cval=0.0)
    out = correlate1d(tmp, kernel.weights_1d, axis=1, mode="constant", cval=0.0)
    np.maximum(out, 0.0, out=out)  # clip correlate's -1e-17 dust
    return out


def blur_fixations(fmap: FixationMap, kernel: GaussianKernel) -> SaliencyMap:
    """Linear convolution of a binary fixation map with the Gaussian kernel.

    Output dimensions equal the input's.
    """
    points = sorted(fmap.points)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return SaliencyMap(_blur_points(xs, ys, [1.0] * len(points),
                                    fmap.width, fmap.height, kernel))


def average_map(clips: Iterable[Iterable[FixationMap]], kernel: GaussianKernel,
                width: int = 640, height: int = 400) -> SaliencyMap:
    """Mean over all maps of all clips of each map's blur, resampled onto
    the ``width`` x ``height`` reference grid by ``resize_bilinear``.

    Blur and bilinear resampling are linear, so each clip is blurred and
    resampled once, as the per-pixel count of its maps' fixations; the
    sum over clips is divided by the number of maps. Every map counts,
    an empty one too. The maps of one clip share a grid; clips may differ.
    Clips may be generators: only a clip's fixation keys are held.
    """
    if width <= 0 or height <= 0:
        raise InputError("output dimensions must be positive")
    acc = np.zeros((height, width))
    count = 0
    for maps in clips:
        keys = []
        grid = None
        for m in maps:
            if grid is None:
                grid = (m.width, m.height)
            elif (m.width, m.height) != grid:
                raise InputError(f"map dimensions differ within a clip: "
                                 f"{m.width}x{m.height} vs {grid[0]}x{grid[1]}")
            # x-major flat keys: np.unique returns them in sorted (x, y) order
            keys.extend(x * m.height + y for (x, y) in m.points)
            count += 1
        if keys:
            w, h = grid
            pixels, counts = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
            xs, ys = np.divmod(pixels, h)
            # unnamed, the full-resolution blur is freed before the next clip's
            acc += resize_bilinear(_blur_points(xs.tolist(), ys.tolist(),
                                                counts.astype(float).tolist(), w, h, kernel),
                                   width, height)
    if count == 0:
        raise InputError("no frames remain after exclusion")
    acc /= count
    np.maximum(acc, 0.0, out=acc)  # a blur is non-negative; clears rounding dust
    return SaliencyMap(acc)


def center_prior(width: int, height: int, sigma_fraction: float = 1.0 / 6.0) -> SaliencyMap:
    """Isotropic Gaussian baseline centered on the frame, unit sum.

    sigma = sigma_fraction * min(width, height). The usual lower baseline
    for center bias; the width is a convention, not a measurement.
    """
    if sigma_fraction <= 0:
        raise InputError(f"sigma_fraction must be positive, got {sigma_fraction}")
    if width <= 0 or height <= 0:
        raise InputError("center_prior dimensions must be positive")
    sigma = sigma_fraction * min(width, height)
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    xs = np.arange(width, dtype=float) - cx
    ys = np.arange(height, dtype=float) - cy
    g = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma * sigma))
    return SaliencyMap(g / g.sum())


def resize_bilinear(values: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
    """Bilinear resampling onto a new grid, corners aligned to corners."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise InputError("resize_bilinear expects a 2-D grid")
    if out_width <= 0 or out_height <= 0:
        raise InputError("output dimensions must be positive")
    h, w = v.shape
    if (out_height, out_width) == (h, w):
        return v.copy()
    if out_width == 1:
        sx = np.array([(w - 1) / 2.0])
    else:
        sx = np.arange(out_width) * ((w - 1) / (out_width - 1))
    if out_height == 1:
        sy = np.array([(h - 1) / 2.0])
    else:
        sy = np.arange(out_height) * ((h - 1) / (out_height - 1))
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    # blend each input row that some output row needs across x once, then
    # blend pairs of those rows across y: the products and sums of the
    # four-corner formula, so the values are the same bit for bit, and the
    # result is C-ordered. Both blends run one band of rows at a time, the
    # y blend straight into the output, so no temporary is larger than a
    # band. np.take gathers whole rows and columns, which is cheaper than
    # 2-D fancy indexing; every index is in range, and mode="clip" lets it
    # write into ``out`` directly, where the default mode buffers
    need, pick = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    # the output first: the temporaries after it are freed at the top of
    # the heap, where a later, larger allocation can take their place
    out = np.empty((out_height, out_width))
    cols = np.empty((need.size, out_width))
    band = np.empty((min(RESIZE_BAND_ROWS, max(need.size, out_height)), out_width))
    every_row = need.size == h  # then need[a:b] is a:b, and a slice needs no copy
    gx = 1 - fx
    for a in range(0, need.size, RESIZE_BAND_ROWS):
        b = min(a + RESIZE_BAND_ROWS, need.size)
        rows = v[a:b] if every_row else np.take(v, need[a:b], axis=0)
        left, right = cols[a:b], band[:b - a]
        np.take(rows, x0, axis=1, out=left, mode="clip")
        left *= gx
        np.take(rows, x1, axis=1, out=right, mode="clip")
        right *= fx
        left += right
    top, bottom = pick[:out_height], pick[out_height:]
    for a in range(0, out_height, RESIZE_BAND_ROWS):
        b = min(a + RESIZE_BAND_ROWS, out_height)
        upper, lower = out[a:b], band[:b - a]
        np.take(cols, top[a:b], axis=0, out=upper, mode="clip")
        upper *= (1 - fy[a:b])[:, None]
        np.take(cols, bottom[a:b], axis=0, out=lower, mode="clip")
        lower *= fy[a:b, None]
        upper += lower
    return out
