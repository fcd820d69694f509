import numpy as np
import pytest

from cinegaze.fixtures import ScanpathFixture
from cinegaze.ingest import CleanedFixations


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cleaned_from(by_observer, frame_count, width, height, clip="clip"):
    """A CleanedFixations of the points {observer_id: {frame: [(x, y), ...]}}."""
    ids = sorted(by_observer)
    rows = [(i, f, x, y) for i, obs in enumerate(ids)
            for f, pts in by_observer[obs].items() for x, y in pts]
    return CleanedFixations(clip, frame_count, width, height, ids,
                            *(zip(*rows) if rows else ([],) * 4))


def fixation_columns(fix):
    """The clip and the columns of a CleanedFixations as plain values, to
    compare two of them."""
    return (fix.clip_id, fix.frame_count, fix.width, fix.height, fix.observer_ids,
            fix.observer.tolist(), fix.frame.tolist(), fix.x.tolist(), fix.y.tolist())


def scanpath_battery():
    """Nine small scanpath fixtures spanning congruency levels, scatter,
    cut schedules and observer counts; sized for the brute-force oracles.
    The last, at low congruency on a frame of 4 x 4 IOC cells at sigma
    1.5, keeps most of its pixel pairs beyond the kernel's reach."""
    return [
        ScanpathFixture(seed=0, n_observers=3, frame_count=20, width=24, height=18,
                        congruency=1.0, cluster_sigma=0.0),
        ScanpathFixture(seed=1, n_observers=4, frame_count=24, width=28, height=20,
                        congruency=0.9, cluster_sigma=1.0, cut_frames=(12,),
                        reconvergence_lag=3),
        ScanpathFixture(seed=2, n_observers=5, frame_count=30, width=32, height=24,
                        congruency=0.7, cluster_sigma=1.5, cut_frames=(10, 20),
                        reconvergence_lag=2),
        ScanpathFixture(seed=3, n_observers=2, frame_count=16, width=20, height=20,
                        congruency=0.5, cluster_sigma=2.0),
        ScanpathFixture(seed=4, n_observers=8, frame_count=25, width=32, height=32,
                        congruency=0.8, cluster_sigma=1.0, cut_frames=(13,)),
        ScanpathFixture(seed=5, n_observers=4, frame_count=50, width=24, height=24,
                        congruency=0.3, cluster_sigma=2.5, cut_frames=(17, 34),
                        reconvergence_lag=4),
        ScanpathFixture(seed=6, n_observers=6, frame_count=18, width=30, height=16,
                        congruency=0.0, cluster_sigma=1.0),
        ScanpathFixture(seed=7, n_observers=5, frame_count=40, width=26, height=26,
                        congruency=0.95, cluster_sigma=0.5, cut_frames=(8, 16, 24, 32),
                        reconvergence_lag=3),
        ScanpathFixture(seed=8, n_observers=8, frame_count=30, width=32, height=32,
                        congruency=0.3, cluster_sigma=3.0, cut_frames=(15,),
                        reconvergence_lag=4),
    ]


def random_metric_instance(rng, side=16, style=None):
    """One (saliency, ground truth, fixation pixels) triple.

    Styles mix continuous, quantized (deliberate saliency-value ties) and
    smooth blob maps so threshold tie handling gets exercised.
    """
    if style is None:
        style = int(rng.integers(0, 3))
    def one_map():
        m = rng.random((side, side))
        if style == 1:
            m = np.round(m, 1)
        elif style == 2:
            cy, cx = rng.integers(0, side, 2)
            yy, xx = np.mgrid[0:side, 0:side]
            m = m * 0.2 + np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * 9.0))
        return m
    s = one_map()
    q = one_map() + 1e-3  # keep strictly positive total mass
    n_fix = int(rng.integers(1, max(2, side * side // 6)))
    flat = rng.choice(side * side, size=n_fix, replace=False)
    fix_pixels = [(int(i % side), int(i // side)) for i in flat]
    return s, q, fix_pixels
