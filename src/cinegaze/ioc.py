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
(the naive route lives in the test suite as an oracle). Per window and
observer, the second moment and the values at fixations need sums over
pairs of the window's pixels, and each pair is evaluated once for the
whole series:

* Each row of the clip's fixation columns gives a key, one (observer,
  pixel). A key is present in the windows [first frame - n + 1, last
  frame] of each of its presence intervals; occurrences at most n frames
  apart share one interval.
* Keys with equal intervals form a class. Each class is paired as one
  block with itself and with every later class that starts before it
  ends; every pair in a block enters the window series at the later
  start and leaves at the earlier end.
* So a block's observer sums go into difference arrays at two window
  indices, and so do each key's count and mass. Cumulative sums over the
  windows give every window's sums at once; they restart from zero every
  ``_REANCHOR`` windows, which bounds the rounding drift however long
  the clip is.
* All windows are then scored at once as windows x observers arrays.

Work is the pairs of co-present keys within reach of each other, each
evaluated once, plus the pairs of small classes that share a block, plus
a constant per window; nothing is O(pixels * kernel). A pair more than
2r apart on either axis (r the kernel radius) adds an exact 0 to every
sum, so it is not evaluated: inside a class, keys are sorted by cell, a
2r x 2r square, and a block's rows go in chunks of one cell's keys, each
evaluated against the columns within 2r of its bounding box only. A
block of small classes, which spread over the frame, is evaluated whole.

Semantics pinned here and echoed in series-file metadata: stride is one
frame; windows truncated by the clip end are dropped; each observer's
window fixations collapse to a binary pixel set, pooled across observers
by summation; observers without window fixations are skipped, not scored
zero; a window with no scorable observer pair has an absent score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import distinct_counts, rasterize
from .errors import FormatError, InputError
from .ingest import CleanedFixations
from .saliency import make_kernel
from .tables import optional_float, provenance, read_table, write_table

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
    d = np.arange(two_r + 1)[:, None]
    i = np.arange(two_r + 1)[None, :]
    # csum[d, j]: sum of the first j products k1[d + i] * k1[i], in order
    csum = np.zeros((two_r + 1, two_r + 2))
    csum[:, 1:] = np.where(d + i <= two_r, k1[np.minimum(d + i, two_r)] * k1[i], 0.0)
    np.cumsum(csum, axis=1, out=csum)
    table = np.zeros((two_r + 2, length))
    # away from the borders every row is its full sum; the kernel is
    # clipped only for the columns m within r of either edge
    table[:two_r + 1] = csum[np.arange(two_r + 1), two_r + 1 - np.arange(two_r + 1)][:, None]
    m = np.flatnonzero((np.arange(length) < r) | (np.arange(length) > length - 1 - r))
    lo = np.maximum(0, r - d - m)
    hi = np.minimum(two_r - d, length - 1 - m - d + r)
    table[:two_r + 1, m] = np.where(
        hi >= lo, csum[d, np.maximum(hi, -1) + 1] - csum[d, lo], 0.0)
    return table


def _window_keys(fixations: CleanedFixations, width: int, height: int):
    """Frame indices and keys of every rasterized point.

    A point of observer i (an index into ``observer_ids``) on the pixel of
    row-major position p (``core.rasterize``) gets the key
    i * width * height + p, so sorted keys are grouped by observer.
    """
    pixels = rasterize(np.column_stack((fixations.x, fixations.y)), width, height)
    return fixations.frame, fixations.observer * (width * height) + pixels


def _presence(frames: np.ndarray, keys: np.ndarray, n: int, total_frames: int):
    """(key, first window, last window) of every presence interval.

    A key seen on frame f is in the windows [f - n + 1, f]; occurrences at
    most n frames apart leave no window between them and share one
    interval. Intervals are clipped to the clip's complete windows.
    """
    on_clip = (frames >= 0) & (frames < total_frames)
    seen = distinct_counts(keys[on_clip] * total_frames + frames[on_clip])[0]
    key, frame = np.divmod(seen, total_frames)
    opens = np.ones(seen.size, dtype=bool)
    opens[1:] = (key[1:] != key[:-1]) | (frame[1:] - frame[:-1] > n)
    closes = np.ones(seen.size, dtype=bool)
    closes[:-1] = opens[1:]
    first, last = np.flatnonzero(opens), np.flatnonzero(closes)
    return (key[first], np.maximum(frame[first] - n + 1, 0),
            np.minimum(frame[last], total_frames - n))


def _add_spans(diff: np.ndarray, lo, hi, cols, values) -> None:
    """Add values[i, k] to column cols[i, k] of the windows lo[i] .. hi[i].

    ``diff`` is a difference array whose cumulative sums restart every
    ``_REANCHOR`` windows, so a span is added again at each segment start
    it crosses, and is not taken off where it ends with a segment.
    """
    np.add.at(diff, (lo[:, None], cols), values)
    first = lo // _REANCHOR + 1
    more = hi // _REANCHOR - first + 1
    if more.any():
        entry = np.repeat(np.arange(lo.size), more)
        segment = np.arange(entry.size) - np.repeat(np.cumsum(more) - more - first, more)
        np.add.at(diff, ((segment * _REANCHOR)[:, None], cols[entry]), values[entry])
    stop = hi + 1
    inside = stop % _REANCHOR != 0
    np.add.at(diff, (stop[inside, None], cols[inside]), -values[inside])


def _group_sums(sums: np.ndarray, starts: np.ndarray, axis: int) -> np.ndarray:
    """``sums`` summed over the runs that begin at ``starts`` along ``axis``;
    runs of one are common, and cost reduceat more than they save."""
    if starts.size == sums.shape[axis]:
        return sums
    return np.add.reduceat(sums, starts, axis=axis)


def _batches(offsets: np.ndarray, partners: np.ndarray):
    """Yield (i0, i1, j): the row classes i0 .. i1 - 1 and the column
    classes i0 .. j - 1 of one block.

    ``offsets`` are the classes' first keys and class i overlaps the
    classes i .. partners[i] - 1 from i on. A batch grows while its rows
    times its columns stay within ``_BATCH_ELEMENTS``.
    """
    # memoryviews read Python ints without a list of every class
    off, ends = memoryview(offsets), memoryview(partners)
    i0 = 0
    while i0 < len(ends):
        j, i1 = ends[i0], i0 + 1
        while i1 < len(ends):
            j1 = max(j, ends[i1])
            if (off[i1 + 1] - off[i0]) * (off[j1] - off[i0]) > _BATCH_ELEMENTS:
                break
            j, i1 = j1, i1 + 1
        yield i0, i1, j
        i0 = i1


#: row-chunk size cap of a block, which keeps the five work buffers in the
#: CPU caches
_PAIR_BLOCK_ELEMENTS = 1 << 16

#: classes are paired in batches of about this many pair evaluations, so
#: that small classes share their per-block overhead; a block within it is
#: evaluated whole, and in a larger one the runs of one cell join a row
#: chunk while it stays within it
_BATCH_ELEMENTS = 1 << 14

#: windows per segment of the difference arrays' cumulative sums: every
#: segment sums from zero, which bounds the rounding drift
_REANCHOR = 64

# the four float sums per (window, observer) in the difference array
_A_OFF, _V_ROW, _V_SELF, _MASS = range(4)


class _PairSums:
    """Kernel values and kernel correlations between pixel keys, summed
    block by block in work buffers that every block reuses."""

    #: work buffer types: two index grids, two value grids and the mask of
    #: pairs of one observer
    WORK = (np.int64, np.int64, float, float, bool)

    def __init__(self, kernel, width: int, height: int, xs, ys, obs):
        k1, r = kernel.weights_1d, kernel.radius_px
        self.kval = np.zeros(max(width, height))
        reach = min(r + 1, self.kval.size)
        self.kval[:reach] = k1[r:r + reach]
        # flat corr tables: row d, column m sits at d * length + m
        self.corr_x = _corr_table(k1, r, width).ravel()
        self.corr_y = _corr_table(k1, r, height).ravel()
        self.zero_row = 2 * r + 1  # index of the padding row in the corr tables
        self.reach = 2 * r  # the farthest offset, on each axis, of a nonzero pair
        self.width, self.height = width, height
        self.xs, self.ys, self.obs = xs, ys, obs
        self.work = [np.empty(0, dtype) for dtype in self.WORK]

    def block(self, r0: int, r1: int, c1: int, row_cls, col_cls):
        """Sums over the pairs of the row keys r0 .. r1 and the column keys
        r0 .. c1; ``row_cls`` and ``col_cls`` are the class starts among
        them, relative to r0.

        Returns (by_row, by_col). Per row key and column class, by_row
        holds the kernel values over the keys of other observers, the
        kernel correlations, and the correlations over the keys of the row
        key's own observer. Per row class and column key, by_col holds the
        first two.

        A pair more than 2r apart on either axis adds an exact 0 to all of
        them. So the rows go in chunks of runs of one cell, and a chunk
        evaluates only the columns inside its rows' bounding box grown by
        2r. A block within ``_BATCH_ELEMENTS`` pairs is one chunk and is
        evaluated whole: its rows are small classes that spread over the
        frame.
        """
        xs, ys, obs = self.xs, self.ys, self.obs
        rows, cols = r1 - r0, c1 - r0
        qx, qy, qo = xs[r0:c1], ys[r0:c1], obs[r0:c1]
        by_row = np.zeros((3, rows, col_cls.size))
        by_col = np.zeros((2, row_cls.size, cols))
        # the buffers hold the block's largest chunk before pruning, so
        # chunks of any size reuse them
        size = min(rows, max(1, _PAIR_BLOCK_ELEMENTS // cols)) * cols
        if self.work[0].size < size:
            self.work.clear()  # the smaller buffers go before larger ones come
            self.work.extend(np.empty(size, dtype) for dtype in self.WORK)
        prune = rows * cols > _BATCH_ELEMENTS
        if prune:
            col_ends = np.append(col_cls[1:], cols)
            cell = _cells(xs[r0:r1], ys[r0:r1], self.reach, self.width)
            runs = [0] + (np.flatnonzero(cell[1:] != cell[:-1]) + 1).tolist()
        for b0, b1 in _chunks(runs, rows, cols) if prune else ((0, rows),):
            px, py = xs[r0 + b0:r0 + b1], ys[r0 + b0:r0 + b1]
            near = self.near(px, py, qx, qy) if prune else None
            if near is None:
                cx, cy, co, cls, filled = qx, qy, qo, col_cls, None
            else:
                cx, cy, co = qx[near], qy[near], qo[near]
                cls = np.searchsorted(near, col_cls)
                # reduceat returns an element, not 0, for an empty segment:
                # the classes that pruning empties stay out of the sums
                filled = cls < np.searchsorted(near, col_ends)
                filled = None if filled.all() else np.flatnonzero(filled)
            size = (b1 - b0) * cx.size
            dx, dy, vals, tmp, own = (w[:size].reshape(b1 - b0, -1) for w in self.work)
            px, py = px[:, None], py[:, None]
            # the row classes in this chunk of rows; the first may go on
            # from the previous chunk
            k0 = np.searchsorted(row_cls, b0, side="right") - 1
            k1 = np.searchsorted(row_cls, b1)
            starts = np.maximum(row_cls[k0:k1], b0) - b0
            row_sums = by_row[:, b0:b1]
            col_sums = by_col[:, k0:k1] if near is None else by_col[:, k0:k1, near]

            np.equal(obs[r0 + b0:r0 + b1, None], co, out=own)
            np.abs(np.subtract(px, cx, out=dx), out=dx)
            np.abs(np.subtract(py, cy, out=dy), out=dy)
            # take(mode="clip") fills out= without a buffer; every index is
            # in range
            np.take(self.kval, dx, out=vals, mode="clip")
            vals *= np.take(self.kval, dy, out=tmp, mode="clip")
            np.copyto(vals, 0.0, where=own)
            _class_sums(vals, cls, filled, row_sums[0])
            col_sums[0] += np.add.reduceat(vals, starts, axis=0)

            tie = tmp.view(np.int64)  # free until the next take
            np.minimum(dx, self.zero_row, out=dx)
            dx *= self.width
            dx += np.minimum(px, cx, out=tie)
            np.minimum(dy, self.zero_row, out=dy)
            dy *= self.height
            dy += np.minimum(py, cy, out=tie)
            np.take(self.corr_x, dx, out=vals, mode="clip")
            vals *= np.take(self.corr_y, dy, out=tmp, mode="clip")
            _class_sums(vals, cls, filled, row_sums[1])
            col_sums[1] += np.add.reduceat(vals, starts, axis=0)
            _class_sums(np.multiply(vals, own, out=tmp), cls, filled, row_sums[2])
            if near is not None:
                by_col[:, k0:k1, near] = col_sums
        return by_row, by_col

    def near(self, px, py, qx, qy):
        """Positions of the columns (qx, qy) within 2r of the box of the
        rows (px, py) on both axes, or None when that is every column."""
        reach = self.reach
        x0, x1 = px.min() - reach, px.max() + reach
        y0, y1 = py.min() - reach, py.max() + reach
        if x0 <= 0 and y0 <= 0 and x1 >= self.width - 1 and y1 >= self.height - 1:
            return None
        near = np.flatnonzero((qx >= x0) & (qx <= x1) & (qy >= y0) & (qy <= y1))
        return None if near.size == qx.size else near


def _class_sums(vals, cls, filled, out) -> None:
    """Sum the columns of ``vals`` over the classes that start at ``cls``
    into ``out``; only the classes ``filled`` when that is not None, the
    others keep their 0."""
    if filled is None:
        np.add.reduceat(vals, cls, axis=1, out=out)
    else:
        out[:, filled] = np.add.reduceat(vals, cls[filled], axis=1)


def _cells(xs, ys, side: int, width: int):
    """The cell of each pixel: side x side squares, numbered row by row."""
    return xs // side + ys // side * -(-width // side)


def _chunks(runs: list, rows: int, cols: int):
    """Yield (b0, b1): the row chunks of a block of ``rows`` x ``cols``
    pairs whose rows form runs that start at ``runs``.

    Runs join a chunk while it stays within ``_BATCH_ELEMENTS`` pairs; a
    run above that is a chunk of its own, split at
    ``_PAIR_BLOCK_ELEMENTS`` pairs.
    """
    step = max(1, _PAIR_BLOCK_ELEMENTS // cols)
    b0 = 0
    for s, e in zip(runs, runs[1:] + [rows]):
        if (e - b0) * cols <= _BATCH_ELEMENTS:
            continue
        if s > b0:
            yield b0, s
        b0 = s
        if (e - s) * cols > _BATCH_ELEMENTS:
            for b in range(s, e, step):
                yield b, min(e, b + step)
            b0 = e
    if b0 < rows:
        yield b0, rows


def loo_window_ioc(fixations: CleanedFixations, cfg: IocConfig = IocConfig()) -> IocSeries:
    """Leave-one-out sliding-window congruency series for one clip.

    Every complete window [t, t + n) at stride 1 gets one score (or None
    when nothing is scorable). Requires at least ``cfg.min_observers``
    observers in the input and a window no longer than the clip.
    """
    n_obs = len(fixations.observer_ids)
    if n_obs < cfg.min_observers:
        raise InputError(
            f"{n_obs} observers present, leave-one-out needs at least {cfg.min_observers}")
    total_frames = fixations.frame_count
    n = cfg.n
    if n > total_frames:
        raise InputError(f"window of {n} frames is longer than the clip ({total_frames} frames)")
    counts, sums = _window_sums(fixations, n, make_kernel(cfg.sigma_px, cfg.truncation))
    return IocSeries(fixations.clip_id, n,
                     _scores(counts, sums, fixations.width * fixations.height))


def _window_sums(fixations: CleanedFixations, n: int, kernel) -> tuple:
    """Per window and observer, the count of keys (windows x observers)
    and four sums (windows x 4 x observers): kernel values between the
    observer's keys and other observers' keys, kernel correlations between
    the observer's keys and all keys, and between the observer's own keys,
    and the border-clipped kernel mass of the observer's keys."""
    width, height = fixations.width, fixations.height
    n_obs = len(fixations.observer_ids)
    windows = fixations.frame_count - n + 1

    k1, r = kernel.weights_1d, kernel.radius_px

    # presence intervals, sorted into classes of equal (start, end) and,
    # inside a class, by cell, a 2r x 2r square, and key: so by observer
    # inside a cell
    key, start, end = _presence(*_window_keys(fixations, width, height), n,
                                fixations.frame_count)
    # per-key arrays go as soon as they are used, and the pair loop keeps
    # int32 ones: they set the peak memory on a long sparse clip
    ys, xs = np.divmod(key % (width * height), width)
    order = np.lexsort((key, _cells(xs, ys, 2 * r, width), end, start))
    del xs, ys
    start, end = start[order], end[order]
    obs, pix = np.divmod(key[order], width * height)
    del key, order
    obs = obs.astype(np.int32)
    ys, xs = (v.astype(np.int32) for v in np.divmod(pix, width))
    del pix
    new_class = np.ones(start.size, dtype=bool)
    new_class[1:] = (start[1:] != start[:-1]) | (end[1:] != end[:-1])
    cls_off = np.append(np.flatnonzero(new_class), start.size)
    cls_start, cls_end = start[cls_off[:-1]], end[cls_off[:-1]]
    del start, end  # from here on, a key's span is its class's
    # groups: runs of one observer inside one class and one cell, so an
    # observer may have several groups in a class
    cell = _cells(xs, ys, 2 * r, width)
    new_group = new_class
    new_group[1:] |= (cell[1:] != cell[:-1]) | (obs[1:] != obs[:-1])
    del cell
    grp_off = np.append(np.flatnonzero(new_group), obs.size)
    grp_obs = obs[grp_off[:-1]]
    grp_cls = np.searchsorted(cls_off, grp_off[:-1], side="right") - 1
    cls_grp = np.searchsorted(grp_off, cls_off)
    del new_class, new_group
    mass_x, mass_y = _border_mass(k1, r, width), _border_mass(k1, r, height)

    pairs = _PairSums(kernel, width, height, xs, ys, obs)
    row_parts = np.array([_A_OFF, _V_ROW, _V_SELF]) * n_obs
    col_parts = np.array([_A_OFF, _V_ROW]) * n_obs
    counts = np.zeros((windows + 1, n_obs), dtype=np.int64)
    segments = -(-windows // _REANCHOR)
    diff = np.zeros((segments * _REANCHOR, 4 * n_obs))
    for i0, i1, j in _batches(cls_off, np.searchsorted(cls_start, cls_end, side="right")):
        r0, r1, c1 = cls_off[i0], cls_off[i1], cls_off[j]
        g0, g_rows, g1 = cls_grp[i0], cls_grp[i1], cls_grp[j]
        # the row groups' key counts and masses over their classes' spans
        lo, hi = cls_start[grp_cls[g0:g_rows]], cls_end[grp_cls[g0:g_rows]]
        group = grp_obs[g0:g_rows]
        size = np.diff(grp_off[g0:g_rows + 1])
        np.add.at(counts, (lo, group), size)
        np.add.at(counts, (hi + 1, group), -size)
        _add_spans(diff, lo, hi, (_MASS * n_obs + group)[:, None],
                   np.add.reduceat(mass_x[xs[r0:r1]] * mass_y[ys[r0:r1]],
                                   grp_off[g0:g_rows] - r0)[:, None])
        by_row, by_col = pairs.block(r0, r1, c1, cls_off[i0:i1] - r0, cls_off[i0:j] - r0)
        # per observer group: rows of by_row, columns of by_col
        by_row = _group_sums(by_row, grp_off[g0:g_rows] - r0, axis=1)
        by_col = _group_sums(by_col, grp_off[g0:g1] - r0, axis=2)
        # a (row class, column class) pair counts once, from the earlier
        # class and over the windows where both are present; for two
        # distinct classes the column side holds the mirrored pairs (q, p)
        row_cls = np.arange(i0, i1)[:, None]
        col_cls = np.arange(i0, j)[None, :]
        live = (col_cls >= row_cls) & (cls_start[col_cls] <= cls_end[row_cls])
        rg, cc = np.nonzero(live[grp_cls[g0:g_rows] - i0])
        values = by_row[:, rg, cc]
        cc += i0
        rc = grp_cls[g0 + rg]
        # an own-observer pair of two distinct classes also comes mirrored
        values[2] *= np.where(cc > rc, 2.0, 1.0)
        _add_spans(diff, cls_start[cc], np.minimum(cls_end[rc], cls_end[cc]),
                   row_parts + grp_obs[g0 + rg, None], values.T)
        rc, cg = np.nonzero((live & (col_cls > row_cls))[:, grp_cls[g0:g1] - i0])
        values = by_col[:, rc, cg]
        rc += i0
        cc = grp_cls[g0 + cg]
        _add_spans(diff, cls_start[cc], np.minimum(cls_end[rc], cls_end[cc]),
                   col_parts + grp_obs[g0 + cg, None], values.T)

    np.cumsum(counts, axis=0, out=counts)
    by_segment = diff.reshape(segments, _REANCHOR, 4 * n_obs)
    np.cumsum(by_segment, axis=1, out=by_segment)
    return counts[:windows], diff[:windows].reshape(windows, 4, n_obs)


def _scores(counts: np.ndarray, sums: np.ndarray, n_pixels: int) -> list:
    """(window, score or None) for every window, from ``_window_sums``."""
    present = counts > 0
    # an absent observer's sums are 0 up to the rounding of the cumulative sums
    sums *= present[:, None, :]
    a_off, v_row, v_self, mass = sums.transpose(1, 0, 2)
    mu = mass.sum(axis=1)[:, None] - mass
    mu /= n_pixels
    var = v_row.sum(axis=1)[:, None] - 2.0 * v_row
    var += v_self
    var /= n_pixels
    var -= mu * mu
    # an observer scores when present, with another observer present to
    # build the map from, and a leave-one-out map that is not constant
    scored = present & (var > 0.0) & (present.sum(axis=1) >= 2)[:, None]
    z = a_off / np.maximum(counts, 1)
    z -= mu
    z /= np.sqrt(np.where(scored, var, 1.0))
    # the mean over observers adds them in observer order, as sum() would
    total = np.zeros(len(counts))
    for o in range(counts.shape[1]):
        total += np.where(scored[:, o], z[:, o], 0.0)
    n_scored = scored.sum(axis=1)
    mean = total / np.maximum(n_scored, 1)
    return [(t, m if k else None)
            for t, (m, k) in enumerate(zip(mean.tolist(), n_scored.tolist()))]


def sequence_ioc_summary(series: IocSeries) -> IocSummary:
    """Mean, median, population std and count over the present scores."""
    present = np.array([v for _, v in series.values if v is not None])
    if present.size == 0:
        raise InputError("series has no present scores")
    # np.median's result, without the numpy.ma import that np.median makes
    ranked = np.sort(present)
    half = ranked.size // 2
    median = ranked[half] if ranked.size % 2 else (ranked[half - 1] + ranked[half]) / 2
    return IocSummary(
        mean=float(present.mean()),
        median=float(median),
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


def series_header(meta: Optional[dict] = None) -> dict:
    """A series file's header: the estimator policy decisions, the tool
    version, ``meta`` as text and a hash of all of them."""
    return provenance({**SERIES_POLICY, **(meta or {})})


def write_ioc_series(series: IocSeries, path, meta: Optional[dict] = None) -> None:
    """Persist a series as delimited text: clip_id, window_start, n, score.

    Absent scores serialize as an empty field. The header is
    ``series_header(meta)``.
    """
    k = len(series.values)
    write_table(path, SERIES_COLUMNS,
                [[series.clip_id] * k, [start for start, _ in series.values], [series.n] * k,
                 [score for _, score in series.values]],
                meta=series_header(meta))


def read_ioc_series(path) -> IocSeries:
    _, (clips, starts, ns, scores) = read_table(path, SERIES_COLUMNS)
    if not clips:
        raise FormatError(f"{path}: no series rows found")
    return IocSeries(clips[0], ns[0], list(zip(starts, scores)))
