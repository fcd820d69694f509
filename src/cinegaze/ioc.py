"""Inter-observer congruency: leave-one-out NSS over a sliding window.

For every window of frames and every observer, ``loo_window_ioc`` blurs
the remaining observers' window fixations into a saliency map and scores
the left-out observer's fixations against it with NSS; the window score
is the mean over observers.

The estimator is expensive (every observer times every window of the
dataset). Instead of materializing a blurred map per (window, observer),
this implementation computes NSS's three ingredients in closed form from
the window's fixation pixels, exploiting that the zero-padded separable
Gaussian factorizes:

* map total mass: per-pixel border-clipped kernel mass, tabulated per axis;
* map second moment: pairwise kernel correlations, tabulated per axis;
* map values at fixations: pairwise kernel products.

This is algebraically identical to blurring and z-scoring dense grids
(the naive route lives in the test suite as an oracle). The second
moment and the values at fixations reduce to two observer-by-observer
matrices of pair sums over the window's pixels, and these slide with the
window: a step subtracts the pairs of the pixels that leave it and adds
those of the pixels that enter it. A step costs (entering + leaving
pixels) x window pixels pair evaluations instead of window pixels^2, and
nothing is O(pixels * kernel). The sums are rebuilt from scratch every
``_REANCHOR`` windows, which bounds the rounding drift, and on any step
where sliding would cost more pair evaluations than rebuilding (as with
single-frame windows).

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

from . import __version__
from .core import ClipMeta, rasterize_point
from .errors import FormatError, InputError
from .ingest import CleanedFixations
from .saliency import make_kernel
from .tables import config_hash, optional_float, read_table, write_table

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
    values: list  # of (window_start_frame, score or None)


@dataclass(frozen=True)
class IocSummary:
    mean: float
    median: float
    std: float
    count: int


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


def _window_keys(fixations: CleanedFixations, width: int, height: int):
    """Frame-sorted frame indices and keys of every rasterized point.

    A point of observer i (in ``observers()`` order) on pixel (x, y) gets
    the key i * width * height + y * width + x, so a sorted key array is
    grouped by observer and a window's binary pixel sets are the unique
    keys of its slice.
    """
    n_pixels = width * height
    frames = []
    keys = []
    for oi, obs in enumerate(fixations.observers()):
        for t, pts in fixations.by_observer[obs].items():
            for (x, y) in pts:
                xi, yi = rasterize_point(x, y, width, height)
                frames.append(t)
                keys.append(oi * n_pixels + yi * width + xi)
    frames = np.asarray(frames, dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    return frames[order], np.asarray(keys, dtype=np.int64)[order]


# row-block size cap so pairwise temporaries stay within ~32 MB
_PAIR_BLOCK_ELEMENTS = 4_000_000

#: windows between from-scratch rebuilds of the pair sums, bounding the
#: rounding drift of the incremental updates
_REANCHOR = 64


def loo_window_ioc(fixations: CleanedFixations, meta: ClipMeta,
                   cfg: IocConfig = IocConfig()) -> IocSeries:
    """Leave-one-out sliding-window congruency series for one clip.

    Every complete window [t, t + n) at stride 1 gets one score (or None
    when nothing is scorable). Requires at least ``cfg.min_observers``
    observers in the input and a window no longer than the clip.
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
    if n > total_frames:
        raise InputError(f"window of {n} frames is longer than the clip ({total_frames} frames)")

    kernel = make_kernel(cfg.sigma_px, cfg.truncation)
    k1 = kernel.weights_1d
    r = kernel.radius_px
    kval = np.zeros(max(width, height), dtype=float)
    reach = min(r + 1, kval.size)
    kval[:reach] = k1[r:r + reach]
    mass_x = _border_mass(k1, r, width)
    mass_y = _border_mass(k1, r, height)
    # flat corr tables: row d, column m sits at d * length + m
    corr_x = _corr_table(k1, r, width).ravel()
    corr_y = _corr_table(k1, r, height).ravel()
    zero_row = 2 * r + 1  # index of the padding row in the corr tables
    n_pixels = width * height

    def pair_sums(p_keys, q_keys):
        """(A, V) with A[a, b] the sum of kernel values and V[a, b] the sum
        of kernel correlations over pairs (p, q), p in p_keys of observer a,
        q in q_keys of observer b. Both key arrays are sorted."""
        a_sums = np.zeros((n_obs, n_obs))
        v_sums = np.zeros((n_obs, n_obs))
        if not (p_keys.size and q_keys.size):
            return a_sums, v_sums
        p_obs, p_pix = np.divmod(p_keys, n_pixels)
        q_obs, q_pix = np.divmod(q_keys, n_pixels)
        py, px = np.divmod(p_pix, width)
        qy, qx = np.divmod(q_pix, width)
        p_present, p_starts = np.unique(p_obs, return_index=True)
        q_present, q_starts = np.unique(q_obs, return_index=True)
        rows_a = np.empty((p_keys.size, q_present.size))
        rows_v = np.empty((p_keys.size, q_present.size))
        block = max(1, _PAIR_BLOCK_ELEMENTS // q_keys.size)
        for b0 in range(0, p_keys.size, block):
            b1 = min(p_keys.size, b0 + block)
            dx = np.abs(px[b0:b1, None] - qx[None, :])
            dy = np.abs(py[b0:b1, None] - qy[None, :])
            rows_a[b0:b1] = np.add.reduceat(kval[dx] * kval[dy], q_starts, axis=1)
            np.minimum(dx, zero_row, out=dx)
            np.minimum(dy, zero_row, out=dy)
            dx *= width
            dx += np.minimum(px[b0:b1, None], qx[None, :])
            dy *= height
            dy += np.minimum(py[b0:b1, None], qy[None, :])
            rows_v[b0:b1] = np.add.reduceat(corr_x[dx] * corr_y[dy], q_starts, axis=1)
        cells = np.ix_(p_present, q_present)
        a_sums[cells] = np.add.reduceat(rows_a, p_starts, axis=0)
        v_sums[cells] = np.add.reduceat(rows_v, p_starts, axis=0)
        return a_sums, v_sums

    frames, keys = _window_keys(fixations, width, height)
    window_starts = np.arange(total_frames - n + 1)
    lo_idx = np.searchsorted(frames, window_starts, side="left")
    hi_idx = np.searchsorted(frames, window_starts + n, side="left")

    values = []
    prev = keys[:0]
    since_anchor = _REANCHOR
    for t in range(window_starts.size):
        cur = np.unique(keys[lo_idx[t]:hi_idx[t]])
        gone = np.setdiff1d(prev, cur, assume_unique=True)
        came = np.setdiff1d(cur, prev, assume_unique=True)
        step_pairs = gone.size * (prev.size + gone.size) + came.size * (cur.size + came.size)
        if since_anchor >= _REANCHOR or step_pairs >= cur.size * cur.size:
            a_sums, v_sums = pair_sums(cur, cur)
            since_anchor = 0
        else:
            # the pairs of S that touch D (gone from S, or came into it)
            # are X + X.T - Y, X over D x S and Y over D x D: X and X.T
            # both hold the pairs inside D
            for delta, window, sign in ((gone, prev, -1.0), (came, cur, 1.0)):
                x_a, x_v = pair_sums(delta, window)
                y_a, y_v = pair_sums(delta, delta)
                a_sums += sign * (x_a + x_a.T - y_a)
                v_sums += sign * (x_v + x_v.T - y_v)
        since_anchor += 1
        prev = cur

        obs, pix = np.divmod(cur, n_pixels)
        counts = np.bincount(obs, minlength=n_obs)
        active = np.flatnonzero(counts)
        if active.size < 2:
            values.append((t, None))
            continue
        ys, xs = np.divmod(pix, width)
        mass_per = np.bincount(obs, weights=mass_x[xs] * mass_y[ys], minlength=n_obs)
        mass_tot = float(mass_per.sum())
        v_tot = float(v_sums.sum())
        v_row = v_sums.sum(axis=1)
        a_row = a_sums.sum(axis=1)

        scores = []
        for a in active:
            if cur.size - counts[a] == 0:
                continue  # nobody left to build the map from
            mu = (mass_tot - float(mass_per[a])) / n_pixels
            second = (v_tot - 2.0 * float(v_row[a]) + float(v_sums[a, a])) / n_pixels
            var = second - mu * mu
            if var <= 0.0:
                continue  # the leave-one-out map is constant
            s_at_fix = (float(a_row[a]) - float(a_sums[a, a])) / int(counts[a])
            scores.append((s_at_fix - mu) / math.sqrt(var))
        values.append((t, sum(scores) / len(scores) if scores else None))
    return IocSeries(fixations.clip_id, n, values)


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

    Absent scores serialize as an empty field. Estimator policy decisions,
    the tool version and a hash of the whole header are always echoed in
    the header.
    """
    header = dict(SERIES_POLICY, tool_version=__version__)
    if meta:
        header.update({str(k): str(v) for k, v in meta.items()})
    header["config_hash"] = config_hash(header)
    write_table(path, SERIES_COLUMNS,
                ((series.clip_id, start, series.n, score) for start, score in series.values),
                meta=dict(sorted(header.items())))


def read_ioc_series(path) -> IocSeries:
    _, rows = read_table(path, SERIES_COLUMNS)
    if not rows:
        raise FormatError(f"{path}: no series rows found")
    return IocSeries(rows[0][0], rows[0][2], [(start, score) for _, start, _, score in rows])
