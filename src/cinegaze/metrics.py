"""Saliency evaluation metrics.

Six classic scores between a predicted map and ground truth: CC, SIM,
AUC-Judd, AUC-Borji, NSS and KLD. Location-based metrics (NSS, both AUCs)
take a binary fixation map as ground truth; distribution-based metrics
(CC, SIM, KLD) compare two real-valued maps.

Conventions pinned here and echoed in report headers:

* NSS z-scores with the population standard deviation (the map is the
  whole population, not a sample);
* AUC thresholds use >= comparisons on both axes, so ties score at chance
  and a constant map gets exactly 0.5;
* KLD(P, Q) treats Q as ground truth and regularizes only the prediction:
  sum Q * log(Q / (P + eps)) on unit-sum maps, eps = 1e-7;
* SIM and KLD take non-negative maps.

CC, SIM and KLD are summed over the ground truth's support, the pixels
where Q is non-zero: SIM and KLD have no terms outside it, and CC's
cross term has none either, because the prediction's deviations from
its mean sum to zero.

``score_frame`` scores every metric of one frame from shared
intermediates; the six public functions share its kernels and agree
with it bit for bit.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .core import FixationMap
from .errors import CinegazeError, InputError, UndefinedValueError

KLD_EPSILON = 1e-7


class Metric(str, Enum):
    CC = "CC"
    SIM = "SIM"
    AUC_J = "AUC_J"
    AUC_B = "AUC_B"
    NSS = "NSS"
    KLD = "KLD"


def _grid(m) -> np.ndarray:
    """Accept a SaliencyMap or a bare 2-D array."""
    v = np.asarray(getattr(m, "values", m), dtype=float)
    if v.ndim != 2:
        raise InputError("expected a 2-D map")
    return v


def _paired(p, q):
    pv, qv = _grid(p), _grid(q)
    if pv.shape != qv.shape:
        raise InputError(f"map dimensions differ: {pv.shape} vs {qv.shape}")
    return pv, qv


def _nonnegative(pv: np.ndarray, qv: np.ndarray, name: str) -> tuple:
    """(pv, qv), or InputError when either map has a negative value."""
    if (pv < 0).any() or (qv < 0).any():
        raise InputError(f"{name} requires non-negative maps")
    return pv, qv


def _fixated(f: FixationMap, shape) -> np.ndarray:
    """Row-major sorted flat positions y * width + x of the fixated pixels."""
    if (f.height, f.width) != shape:
        raise InputError(
            f"fixation map is {f.width}x{f.height}, saliency map is {shape[1]}x{shape[0]}")
    pos = np.fromiter((y * f.width + x for (x, y) in f.points), dtype=np.int64,
                      count=len(f.points))
    pos.sort()
    return pos


# Kernels shared by the public functions and score_frame, so that both
# give the same value bit for bit on the same map.

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise products of two equal-shaped arrays, in one
    pass and without a temporary. einsum runs its own loop, not BLAS, so
    the bits do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _centered(v: np.ndarray) -> tuple:
    """(v - mean, sum of squared deviations)."""
    d = v - v.mean()
    return d, _dot(d, d)


def _support(q: np.ndarray) -> tuple:
    """(mask of q != 0, q's values there, their sum): the ground truth's
    support, the only pixels that CC, SIM and KLD sum over."""
    on = q != 0
    qs = q[on]
    return on, qs, float(qs.sum())


def _cc(dp, ssp: float, on, qs, q_sum: float) -> float:
    """CC from the prediction's deviations ``dp`` and the ground truth on
    its support ``on``."""
    mq = q_sum / dp.size
    dq = qs - mq
    # each of the pixels off the support deviates by -mq
    ssq = _dot(dq, dq) + (dp.size - qs.size) * mq * mq
    del dq
    sp, sq = math.sqrt(ssp), math.sqrt(ssq)
    if sp == 0.0 and sq == 0.0:
        raise UndefinedValueError("cc undefined: both maps are constant")
    if sp == 0.0 or sq == 0.0:
        return 0.0
    # sum(dp * (q - mq)) = sum(dp * q), as sum(dp) = 0; q is 0 off the support
    r = _dot(dp[on], qs) / (sp * sq)
    return min(1.0, max(-1.0, r))


def _nss(fixated_deviations: np.ndarray, ss: float, n: int) -> float:
    if fixated_deviations.size == 0:
        raise InputError("nss requires at least one fixation")
    sd = math.sqrt(ss / n)  # population standard deviation
    if sd == 0.0:
        raise UndefinedValueError("nss undefined: saliency map is constant")
    return float((fixated_deviations / sd).mean())


def _normalized(pv, on, qs, q_sum: float, name: str) -> tuple:
    """Both maps on the ground truth's support ``on``, each scaled by its
    total mass; InputError unless both masses are positive."""
    p_sum = float(pv.sum())
    if p_sum <= 0 or q_sum <= 0:
        raise InputError(f"{name} requires maps with positive total mass")
    pn = pv[on]
    pn /= p_sum
    return pn, qs / q_sum


def _sim(pn, qn) -> float:
    """SIM from both unit-sum maps on the support: min(p, 0) is 0 off it."""
    return float(np.minimum(pn, qn).sum())


def _kld(pn, qn, epsilon: float) -> float:
    """KLD from both unit-sum maps on the support, where every q is positive."""
    terms = pn + epsilon  # reused in place, which keeps peak memory low
    np.log(terms, out=terms)
    np.subtract(np.log(qn), terms, out=terms)
    terms *= qn
    return float(terms.sum())


def _at_or_above(sorted_vals: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of ``sorted_vals`` are >= each threshold."""
    return sorted_vals.size - np.searchsorted(sorted_vals, thresholds, side="left")


def _roc_area(n_tp: np.ndarray, nfix: int, n_fp: np.ndarray, nneg: int) -> float:
    """Trapezoidal ROC area from exact counts at descending thresholds.

    ``n_tp`` and ``n_fp`` count the fixations and the negatives at or
    above each threshold. Integer counts make the ROC points reproducible
    bit for bit; the cumulative sum adds the trapezoids in order, as a
    sequential loop would.
    """
    tp = np.concatenate(([0.0], n_tp / nfix, [1.0]))
    fp = np.concatenate(([0.0], n_fp / nneg, [1.0]))
    return float(np.cumsum((fp[1:] - fp[:-1]) * (tp[1:] + tp[:-1]) / 2.0)[-1])


def _fixated_roc(flat: np.ndarray, fpos: np.ndarray) -> tuple:
    """(sorted fixated values, descending thresholds, fixations at or above
    each) for the ROC curves of both AUCs."""
    if fpos.size == 0:
        raise InputError("AUC requires at least one fixation")
    if fpos.size == flat.size:
        raise InputError("AUC requires at least one non-fixated pixel")
    fix_sorted = np.sort(flat[fpos])
    thresholds = fix_sorted[::-1]
    return fix_sorted, thresholds, _at_or_above(fix_sorted, thresholds)


def _auc_judd(flat: np.ndarray, fpos: np.ndarray) -> float:
    fix_sorted, thresholds, n_tp = _fixated_roc(flat, fpos)
    # no threshold lies below the lowest fixated value, so only the pixels
    # at or above it are sorted; negatives are all of them minus fixations
    above = flat[flat >= fix_sorted[0]]
    above.sort()
    n_fp = _at_or_above(above, thresholds) - n_tp
    return _roc_area(n_tp, fpos.size, n_fp, flat.size - fpos.size)


def _auc_borji(flat: np.ndarray, fpos: np.ndarray, negatives_per_fixation: int,
               splits: int, seed: int) -> float:
    if negatives_per_fixation < 1:
        raise InputError("negatives_per_fixation must be >= 1")
    if splits < 1:
        raise InputError("splits must be >= 1")
    _, thresholds, n_tp = _fixated_roc(flat, fpos)
    n_neg = fpos.size * negatives_per_fixation
    # skips[j] counts the non-fixated pixels before fixation j, so the i-th
    # non-fixated pixel in row-major order sits at flat position i plus the
    # number of fixations with skips <= i; the pool itself is never built
    skips = fpos - np.arange(fpos.size)
    pool = flat.size - fpos.size
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(splits):
        idx = rng.integers(0, pool, size=n_neg)
        negatives = np.sort(flat[idx + np.searchsorted(skips, idx, side="right")])
        total += _roc_area(n_tp, fpos.size, _at_or_above(negatives, thresholds), n_neg)
    return total / splits


def cc(p, q) -> float:
    """Pearson correlation over pixels treated as paired observations.

    Undefined when both maps are constant. When exactly one map is
    constant the correlation carries no signal and 0.0 is returned.
    """
    pv, qv = _paired(p, q)
    return _cc(*_centered(pv), *_support(qv))


def sim(p, q) -> float:
    """Histogram intersection: sum of pixelwise minima of unit-sum maps.

    Both maps must be non-negative: a negative value is an InputError.
    """
    pv, qv = _nonnegative(*_paired(p, q), "sim")
    return _sim(*_normalized(pv, *_support(qv), "sim"))


def nss(s, f: FixationMap) -> float:
    """Normalized scanpath saliency: mean z-scored value at fixated pixels."""
    sv = _grid(s)
    fpos = _fixated(f, sv.shape)
    d, ss = _centered(sv)
    return _nss(d.ravel()[fpos], ss, sv.size)


def auc_judd(s, f: FixationMap) -> float:
    """AUC with every non-fixated pixel serving as a negative."""
    sv = _grid(s)
    return _auc_judd(sv.ravel(), _fixated(f, sv.shape))


def auc_borji(s, f: FixationMap, negatives_per_fixation: int = 1,
              splits: int = 100, *, seed: int) -> float:
    """AUC against random negatives, averaged over seeded resampling splits.

    Each split draws ``len(f) * negatives_per_fixation`` negative locations
    uniformly (with replacement) from the non-fixated pixels in row-major
    order, using a generator owned by this call. Identical inputs and seed
    give a bit-identical result.
    """
    sv = _grid(s)
    return _auc_borji(sv.ravel(), _fixated(f, sv.shape), negatives_per_fixation,
                      splits, seed)


def kld(p, q, epsilon: float = KLD_EPSILON) -> float:
    """Kullback-Leibler divergence of ground truth Q from prediction P.

    Both maps must be non-negative (a negative value is an InputError).
    They are normalized to unit sum; epsilon regularizes P inside the
    logarithm so empty predicted regions stay finite. 0 * log(0/.) is 0.
    """
    pv, qv = _nonnegative(*_paired(p, q), "kld")
    return _kld(*_normalized(pv, *_support(qv), "kld"), epsilon)


def score_frame(pred, gt, fmap: FixationMap, metric_set: Sequence[str],
                splits: int = 100, *, seed: int) -> dict:
    """Every metric in ``metric_set`` for one frame: {name: value or error}.

    ``gt`` is the blurred ground truth (for CC, SIM and KLD) and ``fmap``
    the binary one (for NSS and both AUCs); AUC-Borji draws from
    ``default_rng(seed)``. A metric that is undefined on this frame maps
    to the CinegazeError its public function would raise; values equal
    the public functions' bit for bit. Work shared between metrics is
    done once: the ground truth's support (CC, SIM, KLD), the
    prediction's deviations from its mean (CC, NSS), the unit-sum maps on
    the support (SIM, KLD) and the fixated pixels' positions (NSS and
    both AUCs). Maps of different dimensions raise InputError.
    """
    wanted = {Metric(m).value for m in metric_set}
    p, q = _paired(pred, gt)
    fpos = _fixated(fmap, p.shape)
    scores = {}
    if wanted & {"CC", "SIM", "KLD"}:
        support = _support(q)

    def score(name, fn, *args):
        try:
            scores[name] = fn(*args)
        except CinegazeError as exc:
            scores[name] = exc

    # each full-grid temporary is dropped as soon as the metrics that
    # share it are scored, which keeps the peak memory of a frame low
    if wanted & {"CC", "NSS"}:
        dp, ssp = _centered(p)
        if "NSS" in wanted:
            score("NSS", _nss, dp.ravel()[fpos], ssp, p.size)
        if "CC" in wanted:
            score("CC", _cc, dp, ssp, *support)
        del dp
    unit = [m for m in ("SIM", "KLD") if m in wanted]
    if unit:
        try:
            pn, qn = _normalized(p, *support, unit[0].lower())
        except InputError:
            for name in unit:  # the same check, raised with each one's message
                score(name, _normalized, p, *support, name.lower())
        else:
            if "SIM" in wanted:
                score("SIM", _sim, pn, qn)
            if "KLD" in wanted:
                score("KLD", _kld, pn, qn, KLD_EPSILON)
            del pn, qn
    flat = p.ravel()
    if "AUC_J" in wanted:
        score("AUC_J", _auc_judd, flat, fpos)
    if "AUC_B" in wanted:
        score("AUC_B", _auc_borji, flat, fpos, 1, splits, seed)
    return scores
