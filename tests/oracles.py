"""Brute-force reference implementations used only by the test suite.

Everything here recomputes results straight from the definitions (explicit
sums, threshold enumeration, dense grids, numeric integration), shares no
code with the production implementations, and is size-capped: these exist
to pin correctness, not to be fast. The one exception is
``average_map_oracle`` with its ``to_reference_grid``: it pins the
per-clip average to the per-frame route, built from the library's blur
and resample, which the oracles above pin in turn.
"""

import math

import numpy as np

MAX_MAP_SIDE = 32        # metric and window-congruency instances
MAX_CONV_SIDE = 64       # direct convolution instances
MAX_RESIZE_SIDE = 2048   # resize instances: the four-corner formula is vectorized
MAX_OBSERVERS = 8
MAX_FRAMES = 50


def _check_side(grid, cap):
    h, w = grid.shape
    if h > cap or w > cap:
        raise ValueError(f"oracle refuses {w}x{h} instance (cap {cap})")


def fixation_array(fmap):
    """A FixationMap as a dense float64 binary grid, indexed [y, x]."""
    grid = np.zeros((fmap.height, fmap.width))
    for (x, y) in fmap.points:
        grid[y, x] = 1.0
    return grid


def direct_convolve2d(grid, kernel2d):
    """out[y, x] = sum over (i, j) of grid[y - j, x - i] * kernel2d[j, i],
    zero outside the grid. Kernel is odd-sized and centered."""
    grid = np.asarray(grid, dtype=float)
    _check_side(grid, MAX_CONV_SIDE)
    h, w = grid.shape
    k = kernel2d.shape[0]
    r = k // 2
    padded = np.zeros((h + 2 * r, w + 2 * r))
    padded[r:r + h, r:r + w] = grid
    flipped = kernel2d[::-1, ::-1]
    out = np.empty((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = float((padded[y:y + k, x:x + k] * flipped).sum())
    return out


# ---------------------------------------------------------------- resize

def resize_bilinear_oracle(values, out_width, out_height):
    """Bilinear resampling, corners aligned, by the four-corner formula:
    each output pixel blends its four input neighbours, top pair and
    bottom pair across x, then the two across y."""
    v = np.asarray(values, dtype=float)
    _check_side(v, MAX_RESIZE_SIDE)
    h, w = v.shape
    sx = (np.array([(w - 1) / 2.0]) if out_width == 1
          else np.arange(out_width) * ((w - 1) / (out_width - 1)))
    sy = (np.array([(h - 1) / 2.0]) if out_height == 1
          else np.arange(out_height) * ((h - 1) / (out_height - 1)))
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = v[y0][:, x0] * (1 - fx)[None, :] + v[y0][:, x1] * fx[None, :]
    bot = v[y1][:, x0] * (1 - fx)[None, :] + v[y1][:, x1] * fx[None, :]
    return top * (1 - fy)[:, None] + bot * fy[:, None]


# ---------------------------------------------------------------- average

def to_reference_grid(values, width, height):
    """A map resampled by the library onto the ``width`` x ``height``
    grid of cross-clip averaging, clamped at zero."""
    from cinegaze.saliency import resize_bilinear
    out = resize_bilinear(values, width, height)
    np.maximum(out, 0.0, out=out)
    return out


def average_map_oracle(clips, kernel, width, height):
    """The per-frame route of the cross-clip average: every map of every
    clip blurred at full resolution, resampled onto the ``width`` x
    ``height`` grid (``to_reference_grid``), then the plain mean."""
    from cinegaze.saliency import blur_fixations
    grids = [to_reference_grid(blur_fixations(m, kernel).values, width, height)
             for maps in clips for m in maps]
    return sum(grids) / len(grids)


# ---------------------------------------------------------------- metrics

def cc_oracle(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_side(p, MAX_MAP_SIDE)
    n = p.size
    mp = sum(p.flat) / n
    mq = sum(q.flat) / n
    num = sum((a - mp) * (b - mq) for a, b in zip(p.flat, q.flat))
    dp = math.sqrt(sum((a - mp) ** 2 for a in p.flat))
    dq = math.sqrt(sum((b - mq) ** 2 for b in q.flat))
    return num / (dp * dq)


def sim_oracle(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_side(p, MAX_MAP_SIDE)
    ps = sum(p.flat)
    qs = sum(q.flat)
    return sum(min(a / ps, b / qs) for a, b in zip(p.flat, q.flat))


def nss_oracle(s, fix_pixels):
    s = np.asarray(s, dtype=float)
    _check_side(s, MAX_MAP_SIDE)
    n = s.size
    mu = sum(s.flat) / n
    sd = math.sqrt(sum((v - mu) ** 2 for v in s.flat) / n)
    zs = [(s[y, x] - mu) / sd for (x, y) in sorted(set(fix_pixels))]
    return sum(zs) / len(zs)


def _roc_points(fix_vals, neg_vals):
    """ROC swept over the fixation values, >= at both axes, endpoints added."""
    points = [(0.0, 0.0)]
    for t in sorted(fix_vals, reverse=True):
        tpr = sum(1 for v in fix_vals if v >= t) / len(fix_vals)
        fpr = sum(1 for v in neg_vals if v >= t) / len(neg_vals)
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    return points


def _trapezoid(points):
    area = 0.0
    for i in range(1, len(points)):
        (fp0, tp0), (fp1, tp1) = points[i - 1], points[i]
        area += (fp1 - fp0) * (tp1 + tp0) / 2.0
    return area


def auc_judd_oracle(s, fix_pixels):
    s = np.asarray(s, dtype=float)
    _check_side(s, MAX_MAP_SIDE)
    fix_set = set(fix_pixels)
    fix_vals = [s[y, x] for (x, y) in sorted(fix_set)]
    neg_vals = [s[y, x] for y in range(s.shape[0]) for x in range(s.shape[1])
                if (x, y) not in fix_set]
    return _trapezoid(_roc_points(fix_vals, neg_vals))


def auc_borji_oracle(s, fix_pixels, negatives_per_fixation, splits, seed):
    """Replays the production sampling contract (row-major non-fixation
    pixel pool, one uniform index draw per split from default_rng(seed))
    and evaluates each split's ROC by enumeration."""
    s = np.asarray(s, dtype=float)
    _check_side(s, MAX_MAP_SIDE)
    fix_set = set(fix_pixels)
    fix_vals = [s[y, x] for (x, y) in sorted(fix_set)]
    pool = [s[y, x] for y in range(s.shape[0]) for x in range(s.shape[1])
            if (x, y) not in fix_set]
    n_neg = len(fix_vals) * negatives_per_fixation
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(splits):
        idx = rng.integers(0, len(pool), size=n_neg)
        neg_vals = [pool[i] for i in idx]
        total += _trapezoid(_roc_points(fix_vals, neg_vals))
    return total / splits


def auc_borji_split_loop(s, fix_pixels, negatives_per_fixation, splits, seed):
    """AUC-Borji the way the library computed it before its splits became
    arrays: one split at a time, each split's negatives sorted and counted
    against the descending fixated values, its trapezoids summed by
    ``np.cumsum`` and the areas added in a running total. The sampling
    contract is ``auc_borji_oracle``'s. Bit for bit, not just close, is
    what the library must match here."""
    s = np.asarray(s, dtype=float)
    _check_side(s, MAX_CONV_SIDE)
    flat = s.ravel()
    fpos = np.array(sorted({y * s.shape[1] + x for (x, y) in fix_pixels}), dtype=np.int64)
    nfix = fpos.size
    fix_sorted = np.sort(flat[fpos])
    thresholds = fix_sorted[::-1]

    def at_or_above(sorted_vals):
        return sorted_vals.size - np.searchsorted(sorted_vals, thresholds, side="left")

    tp = np.concatenate(([0.0], at_or_above(fix_sorted) / nfix, [1.0]))
    n_neg = nfix * negatives_per_fixation
    skips = fpos - np.arange(nfix)
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(splits):
        idx = rng.integers(0, flat.size - nfix, size=n_neg)
        negatives = np.sort(flat[idx + np.searchsorted(skips, idx, side="right")])
        fp = np.concatenate(([0.0], at_or_above(negatives) / n_neg, [1.0]))
        total += float(np.cumsum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1]) / 2.0)[-1])
    return total / splits


def kld_oracle(p, q, epsilon):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_side(p, MAX_MAP_SIDE)
    ps = sum(p.flat)
    qs = sum(q.flat)
    total = 0.0
    for a, b in zip(p.flat, q.flat):
        qn = b / qs
        if qn > 0:
            total += qn * math.log(qn / (a / ps + epsilon))
    return total


# ------------------------------------------------- window congruency (IOC)

def sampled_gaussian_2d(sigma, truncation):
    r = int(math.ceil(truncation * sigma))
    k = np.empty((2 * r + 1, 2 * r + 1))
    for j in range(2 * r + 1):
        for i in range(2 * r + 1):
            k[j, i] = math.exp(-((i - r) ** 2 + (j - r) ** 2) / (2.0 * sigma ** 2))
    return k / k.sum()


def naive_loo_window_ioc(fixations, n, sigma, truncation, min_observers=2):
    """Window congruency straight from the definition: per window and
    left-out observer, stamp the other observers' binary pixel sets into a
    count map, blur it densely, z-score, average at the left-out pixels."""
    width, height = fixations.width, fixations.height
    if max(width, height) > MAX_MAP_SIDE:
        raise ValueError("oracle refuses maps above the size cap")
    if fixations.frame_count > MAX_FRAMES or len(fixations.observers()) > MAX_OBSERVERS:
        raise ValueError("oracle refuses instances above the size cap")
    if len(fixations.observers()) < min_observers:
        raise ValueError("not enough observers")
    kernel = sampled_gaussian_2d(sigma, truncation)
    r = kernel.shape[0] // 2

    def raster(x, y):
        return (min(int(math.floor(x + 0.5)), width - 1),
                min(int(math.floor(y + 0.5)), height - 1))

    def window_pixels(obs, t):
        out = set()
        for f in range(t, t + n):
            for (x, y) in fixations.points(obs, f):
                out.add(raster(x, y))
        return out

    values = []
    for t in range(fixations.frame_count - n + 1):
        pix = {o: window_pixels(o, t) for o in fixations.observers()}
        scores = []
        for o in fixations.observers():
            if not pix[o]:
                continue
            count_map = np.zeros((height, width))
            for b in fixations.observers():
                if b == o:
                    continue
                for (x, y) in pix[b]:
                    count_map[y, x] += 1.0
            blurred = direct_convolve2d(count_map, kernel)
            mu = sum(blurred.flat) / blurred.size
            sd = math.sqrt(sum((v - mu) ** 2 for v in blurred.flat) / blurred.size)
            if sd == 0.0:
                continue
            zs = [(blurred[y, x] - mu) / sd for (x, y) in sorted(pix[o])]
            scores.append(sum(zs) / len(zs))
        values.append((t, sum(scores) / len(scores) if scores else None))
    return values


# ------------------------------------------------------------- statistics

def betainc_quadrature(a, b, x, nodes=400):
    """Regularized incomplete beta by Gauss-Legendre quadrature under the
    t = sin(theta)^2 substitution, which removes the endpoint
    singularities for a, b >= 1/2. The normalizing beta function is
    integrated the same way over the full range."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0

    glx, glw = np.polynomial.legendre.leggauss(nodes)

    def integral(theta_hi):
        # integrand: 2 sin(theta)^(2a-1) cos(theta)^(2b-1)
        theta = 0.5 * theta_hi * (glx + 1.0)
        s = np.sin(theta)
        c = np.cos(theta)
        vals = 2.0 * np.power(s, 2.0 * a - 1.0) * np.power(c, 2.0 * b - 1.0)
        return 0.5 * theta_hi * float((glw * vals).sum())

    upper = math.asin(math.sqrt(x))
    return integral(upper) / integral(math.pi / 2.0)


def t_p_two_sided_oracle(t, df):
    return betainc_quadrature(df / 2.0, 0.5, df / (df + t * t))


def f_p_oracle(f_stat, df1, df2):
    return betainc_quadrature(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f_stat))


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    r = num / den
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return r, t_p_two_sided_oracle(t, df)


def anova_oracle(groups):
    k = len(groups)
    all_vals = [v for g in groups for v in g]
    big_n = len(all_vals)
    grand = sum(all_vals) / big_n
    means = [sum(g) / len(g) for g in groups]
    ssb = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ssw = sum(sum((v - m) ** 2 for v in g) for g, m in zip(groups, means))
    f = (ssb / (k - 1)) / (ssw / (big_n - k))
    return f, f_p_oracle(f, k - 1, big_n - k)


def pooled_t_oracle(a, b):
    """Equal-variance two-sample t (the classic ANOVA-equivalent form)."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    sa2 = sum((v - ma) ** 2 for v in a)
    sb2 = sum((v - mb) ** 2 for v in b)
    sp2 = (sa2 + sb2) / (na + nb - 2)
    t = (ma - mb) / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    return t, t_p_two_sided_oracle(abs(t), na + nb - 2)


def welch_oracle(a, b):
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    t = (ma - mb) / math.sqrt(va / na + vb / nb)
    df = (va / na + vb / nb) ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df, t_p_two_sided_oracle(abs(t), df)
