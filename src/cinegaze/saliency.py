"""Continuous saliency maps from binary fixation maps.

Fixation maps are blurred with a sampled 2-D Gaussian whose spread matches
one degree of visual angle, approximating foveal extent. Borders are
zero-padded: mass near the edge leaks off-map and no per-frame
renormalization is applied, so edge fixations genuinely weigh less.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.ndimage import correlate1d

from .core import FixationMap, SaliencyMap
from .errors import InputError


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


def blur_fixations(fmap: FixationMap, kernel: GaussianKernel) -> SaliencyMap:
    """Linear convolution of a binary fixation map with the Gaussian kernel.

    Output dimensions equal the input's. Sparse maps are rendered by
    stamping translated kernels; dense maps fall back to two separable 1-D
    passes. Both routes are the same linear operator (pinned by tests).
    """
    h, w = fmap.height, fmap.width
    npts = len(fmap.points)
    if npts == 0:
        return SaliencyMap(np.zeros((h, w)))
    k = kernel.size
    # cost of stamping vs. two full-grid separable passes
    if npts * k * k < 2 * w * h * k:
        out = np.zeros((h, w))
        for (x, y) in sorted(fmap.points):
            stamp_kernel(out, kernel.weights, x, y)
    else:
        grid = fmap.to_array()
        tmp = correlate1d(grid, kernel.weights_1d, axis=0, mode="constant", cval=0.0)
        out = correlate1d(tmp, kernel.weights_1d, axis=1, mode="constant", cval=0.0)
        np.maximum(out, 0.0, out=out)  # clip correlate's -1e-17 dust
    return SaliencyMap(out)


def average_map(clips: Iterable[Iterable[SaliencyMap]], skip_first: int = 10) -> SaliencyMap:
    """Pixelwise mean over all frames of all clips, skipping each clip's
    first ``skip_first`` frames (viewers start at screen center before the
    stimulus registers).

    All maps must share one grid; resample beforehand when clips have
    different aspect ratios (see ``resize_bilinear``). Clips may be
    generators: maps are summed as they arrive, never held together.
    """
    if skip_first < 0:
        raise InputError(f"skip_first must be >= 0, got {skip_first}")
    acc = None
    count = 0
    for maps in clips:
        for m in itertools.islice(maps, skip_first, None):
            if acc is None:
                acc = np.zeros_like(m.values)
            elif m.values.shape != acc.shape:
                raise InputError(
                    f"map dimensions differ: {m.values.shape} vs {acc.shape}")
            acc += m.values
            count += 1
    if count == 0:
        raise InputError("no frames remain after exclusion")
    return SaliencyMap(acc / count)


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
    # result is C-ordered
    need, pick = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    cols = v[need[:, None], x0]
    cols *= 1 - fx
    right = v[need[:, None], x1]
    right *= fx
    cols += right
    del right
    out = cols[pick[:out_height]]
    out *= (1 - fy)[:, None]
    bottom = cols[pick[out_height:]]
    bottom *= fy[:, None]
    out += bottom
    return out


def to_reference_grid(smap: SaliencyMap, width: int = 640, height: int = 400) -> SaliencyMap:
    """Resample a map to the common grid used for cross-clip averaging."""
    out = resize_bilinear(smap.values, width, height)
    np.maximum(out, 0.0, out=out)
    return SaliencyMap(out)
