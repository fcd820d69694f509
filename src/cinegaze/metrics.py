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
import threading
from enum import Enum
from typing import Sequence

import numpy as np

from .core import FixationMap
from .errors import CinegazeError, InputError, UndefinedValueError

KLD_EPSILON = 1e-7
#: pixels per block of AUC-Judd's count: the block's sorted values, at
#: most 64 KiB, are its largest temporary
AUC_JUDD_BLOCK = 1 << 13


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
    return f.pixels


# Kernels shared by the public functions and score_frame, so that both
# give the same value bit for bit on the same map.

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise products of two equal-shaped arrays, in one
    pass and without a temporary. einsum runs its own loop, not BLAS, so
    the bits do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _mass(v: np.ndarray) -> float:
    """The sum of ``v``; divided by ``v.size`` it is ``v.mean()`` bit for bit."""
    return float(v.sum())


def _squares(v: np.ndarray, mean: float) -> float:
    """Sum of the squared deviations of ``v`` from ``mean``."""
    d = v - mean
    return _dot(d, d)


def _support(q: np.ndarray) -> tuple:
    """(mask of q != 0, q's values there, their sum): the ground truth's
    support, the only pixels that CC, SIM and KLD sum over."""
    on = q != 0
    qs = q[on]
    return on, qs, float(qs.sum())


def _cc(ps, mean: float, ssp: float, n: int, qs, q_sum: float) -> float:
    """CC from the prediction on the ground truth's support ``ps``, its
    mean and its sum of squared deviations over all ``n`` pixels, and the
    ground truth on its support."""
    mq = q_sum / n
    dq = qs - mq
    # each of the pixels off the support deviates by -mq
    ssq = _dot(dq, dq) + (n - qs.size) * mq * mq
    del dq
    sp, sq = math.sqrt(ssp), math.sqrt(ssq)
    if sp == 0.0 and sq == 0.0:
        raise UndefinedValueError("cc undefined: both maps are constant")
    if sp == 0.0 or sq == 0.0:
        return 0.0
    # sum((p - mp) * (q - mq)) = sum((p - mp) * q), as p's deviations sum
    # to 0; q is 0 off the support
    r = _dot(ps - mean, qs) / (sp * sq)
    return min(1.0, max(-1.0, r))


def _nss(fixated_deviations: np.ndarray, ss: float, n: int) -> float:
    if fixated_deviations.size == 0:
        raise InputError("nss requires at least one fixation")
    sd = math.sqrt(ss / n)  # population standard deviation
    if sd == 0.0:
        raise UndefinedValueError("nss undefined: saliency map is constant")
    return float((fixated_deviations / sd).mean())


def _unit(ps, p_sum: float, qs, q_sum: float, name: str) -> tuple:
    """Both maps on the ground truth's support, each divided by its total
    mass; the prediction ``ps`` in place. InputError, with ``ps``
    untouched, unless both masses are positive."""
    if p_sum <= 0 or q_sum <= 0:
        raise InputError(f"{name} requires maps with positive total mass")
    ps /= p_sum
    return ps, qs / q_sum


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


def _roc_areas(n_tp: np.ndarray, nfix: int, n_fp: np.ndarray, nneg: int) -> np.ndarray:
    """Trapezoidal ROC area of each row of ``n_fp``, from exact counts at
    descending thresholds.

    ``n_tp`` and each row of ``n_fp`` count the fixations and the negatives
    at or above each threshold. Integer counts make the ROC points
    reproducible bit for bit; the row-wise cumulative sum adds each row's
    trapezoids in order, as a sequential loop would.
    """
    tp = np.concatenate(([0.0], n_tp / nfix, [1.0]))
    fp = np.zeros((n_fp.shape[0], nfix + 2))
    fp[:, 1:-1] = n_fp / nneg
    fp[:, -1] = 1.0
    return np.cumsum((fp[:, 1:] - fp[:, :-1]) * (tp[1:] + tp[:-1]) / 2.0, axis=1)[:, -1]


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
    # at or above it are sorted, one block at a time; the counts at or
    # above each threshold add up to those of one sort of them all, and
    # negatives are all of them minus fixations
    lowest = fix_sorted[0]
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for start in range(0, flat.size, AUC_JUDD_BLOCK):
        block = flat[start:start + AUC_JUDD_BLOCK]
        above = block[block >= lowest]
        above.sort()
        counts += _at_or_above(above, thresholds)
    n_fp = counts - n_tp
    return float(_roc_areas(n_tp, fpos.size, n_fp[None, :], flat.size - fpos.size)[0])


def _auc_borji(flat: np.ndarray, fpos: np.ndarray, negatives_per_fixation: int,
               splits: int, seed: int) -> float:
    if negatives_per_fixation < 1:
        raise InputError("negatives_per_fixation must be >= 1")
    if splits < 1:
        raise InputError("splits must be >= 1")
    fix_sorted, _, n_tp = _fixated_roc(flat, fpos)
    n_neg = fpos.size * negatives_per_fixation
    # skips[j] counts the non-fixated pixels before fixation j, so the i-th
    # non-fixated pixel in row-major order sits at flat position i plus the
    # number of fixations with skips <= i; the pool itself is never built
    skips = fpos - np.arange(fpos.size)
    pool = flat.size - fpos.size
    rng = np.random.default_rng(seed)
    # row s holds split s's draws: numpy keeps no per-call buffer for int64
    # draws, so one call yields the stream of one call per split (pinned
    # by the split-loop oracle test)
    idx = rng.integers(0, pool, size=(splits, n_neg))
    idx += np.searchsorted(skips, idx, side="right")
    # rank[s, i]: the fixated values at or below negative i of split s, so
    # that negative is at or above the k-th largest fixated value (the
    # k-th descending threshold, from 0) when rank > nfix - 1 - k. Counts
    # of each rank per split, summed from the top rank down, give every
    # split's negatives at or above every threshold
    nfix = fpos.size
    rank = np.searchsorted(fix_sorted, np.take(flat, idx), side="right")
    rank += np.arange(splits)[:, None] * (nfix + 1)
    per_rank = np.bincount(rank.ravel(), minlength=splits * (nfix + 1))
    n_fp = np.cumsum(per_rank.reshape(splits, nfix + 1)[:, :0:-1], axis=1)
    # the areas added in split order, as the loop would
    return float(np.cumsum(_roc_areas(n_tp, nfix, n_fp, n_neg))[-1]) / splits


def cc(p, q) -> float:
    """Pearson correlation over pixels treated as paired observations.

    Undefined when both maps are constant. When exactly one map is
    constant the correlation carries no signal and 0.0 is returned.
    """
    pv, qv = _paired(p, q)
    on, qs, q_sum = _support(qv)
    mean = _mass(pv) / pv.size
    return _cc(pv[on], mean, _squares(pv, mean), pv.size, qs, q_sum)


def sim(p, q) -> float:
    """Histogram intersection: sum of pixelwise minima of unit-sum maps.

    Both maps must be non-negative: a negative value is an InputError.
    """
    pv, qv = _nonnegative(*_paired(p, q), "sim")
    on, qs, q_sum = _support(qv)
    return _sim(*_unit(pv[on], _mass(pv), qs, q_sum, "sim"))


def nss(s, f: FixationMap) -> float:
    """Normalized scanpath saliency: mean z-scored value at fixated pixels."""
    sv = _grid(s)
    fpos = _fixated(f, sv.shape)
    mean = _mass(sv) / sv.size
    return _nss(sv.ravel()[fpos] - mean, _squares(sv, mean), sv.size)


def auc_judd(s, f: FixationMap) -> float:
    """AUC with every non-fixated pixel serving as a negative."""
    sv = _grid(s)
    return _auc_judd(sv.ravel(), _fixated(f, sv.shape))


def auc_borji(s, f: FixationMap, negatives_per_fixation: int = 1,
              splits: int = 100, *, seed: int) -> float:
    """AUC against random negatives, averaged over seeded resampling splits.

    Each split draws ``f.pixels.size * negatives_per_fixation`` negative
    locations uniformly (with replacement) from the non-fixated pixels in
    row-major order, using a generator owned by this call. Identical
    inputs and seed give a bit-identical result.
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
    on, qs, q_sum = _support(qv)
    return _kld(*_unit(pv[on], _mass(pv), qs, q_sum, "kld"), epsilon)


class _Helper(threading.Thread):
    """``fn(*args)`` on a thread of its own, started at once. ``result()``
    joins it and returns the value, or the CinegazeError it raised; any
    other exception is raised again in the caller."""

    def __init__(self, fn, *args):
        super().__init__(daemon=True)
        self._call = (fn, args)
        self._outcome = None
        self.start()

    def run(self):
        fn, args = self._call
        try:
            self._outcome = (True, fn(*args))
        except BaseException as exc:  # handed to the caller by result()
            self._outcome = (False, exc)

    def result(self):
        self.join()
        ok, value = self._outcome
        if ok or isinstance(value, CinegazeError):
            return value
        raise value


def score_frame(pred, gt, fmap: FixationMap, metric_set: Sequence[str],
                splits: int = 100, *, seed: int) -> dict:
    """Every metric in ``metric_set`` for one frame: {name: value or error}.

    ``gt`` is the blurred ground truth (for CC, SIM and KLD) and ``fmap``
    the binary one (for NSS and both AUCs); AUC-Borji draws from
    ``default_rng(seed)``. A metric that is undefined on this frame maps
    to the CinegazeError its public function would raise; values equal
    the public functions' bit for bit. Work shared between metrics is
    done once: the ground truth's support (CC, SIM, KLD), the
    prediction's sum (its mean for CC and NSS, its mass for SIM and KLD),
    its values on the support (CC, SIM, KLD) and the fixated pixels'
    positions (NSS and both AUCs). Maps of different dimensions raise
    InputError.

    AUC-Judd is counted on a helper thread while the other metrics are
    scored; numpy releases the GIL in its sorts and compares, so the two
    lanes use two cores. The helper only reads the prediction, calls no
    public function, and is joined before this returns.
    """
    wanted = {Metric(m).value for m in metric_set}
    p, q = _paired(pred, gt)
    fpos = _fixated(fmap, p.shape)
    flat = p.ravel()
    scores = {}

    def score(name, fn, *args):
        try:
            scores[name] = fn(*args)
        except CinegazeError as exc:
            scores[name] = exc

    judd = _Helper(_auc_judd, flat, fpos) if "AUC_J" in wanted else None
    try:
        # one sum gives the mean (CC, NSS) and the mass (SIM, KLD); one
        # gather gives the prediction on the support (CC, then SIM and KLD
        # in place). The full-grid deviations are summed and dropped before
        # the gather, and every other temporary is dropped as soon as the
        # metrics that share it are scored, which keeps the peak memory of
        # a frame low
        if wanted & {"CC", "NSS", "SIM", "KLD"}:
            p_sum = _mass(p)
            mean = p_sum / p.size
        if wanted & {"CC", "NSS"}:
            ssp = _squares(p, mean)
        if "NSS" in wanted:
            score("NSS", _nss, flat[fpos] - mean, ssp, p.size)
        if wanted & {"CC", "SIM", "KLD"}:
            on, qs, q_sum = _support(q)
            ps = p[on]
            del on
        if "CC" in wanted:
            score("CC", _cc, ps, mean, ssp, p.size, qs, q_sum)
        unit = [m for m in ("SIM", "KLD") if m in wanted]
        if unit:
            try:
                pn, qn = _unit(ps, p_sum, qs, q_sum, unit[0].lower())
            except InputError:
                for name in unit:  # the same check, raised with each one's message
                    score(name, _unit, ps, p_sum, qs, q_sum, name.lower())
            else:
                if "SIM" in wanted:
                    score("SIM", _sim, pn, qn)
                if "KLD" in wanted:
                    score("KLD", _kld, pn, qn, KLD_EPSILON)
                del pn, qn
        if wanted & {"CC", "SIM", "KLD"}:
            del ps, qs
        if judd is not None:
            scores["AUC_J"] = judd.result()
        if "AUC_B" in wanted:
            score("AUC_B", _auc_borji, flat, fpos, 1, splits, seed)
        return scores
    finally:
        if judd is not None:
            judd.join()  # also when another metric raised
