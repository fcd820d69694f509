"""Deterministic synthetic scanpath generation for tests and benchmarks.

A fixture describes a population of observers watching a synthetic clip:
per segment between cuts there is one shared attention target and one
private target per observer. Each frame, each observer looks near the
shared target with probability ``congruency``, otherwise near their own
private target, with Gaussian scatter ``cluster_sigma`` around whichever
target applies. For ``reconvergence_lag`` frames after each cut every
observer searches privately before the population can re-converge.

Identical seeds give identical output. The per-frame uniform draws are
shared across congruency levels at a fixed seed, so raising congruency
only ever turns private looks into shared looks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ingest import CleanedFixations


@dataclass(frozen=True)
class ScanpathFixture:
    seed: int
    n_observers: int
    frame_count: int
    width: int
    height: int
    congruency: float
    cluster_sigma: float
    cut_frames: tuple = ()
    reconvergence_lag: int = 0
    clip_id: str = "synthetic"

    def __post_init__(self):
        if self.n_observers < 1:
            raise InputError("fixture needs at least one observer")
        if self.frame_count < 1:
            raise InputError("fixture needs at least one frame")
        if self.width < 2 or self.height < 2:
            raise InputError("fixture frames must be at least 2x2")
        if not (0.0 <= self.congruency <= 1.0):
            raise InputError(f"congruency must be within [0, 1], got {self.congruency}")
        if self.cluster_sigma < 0:
            raise InputError("cluster_sigma must be non-negative")
        if self.reconvergence_lag < 0:
            raise InputError("reconvergence_lag must be non-negative")
        cuts = tuple(sorted(self.cut_frames))
        if cuts != tuple(self.cut_frames):
            object.__setattr__(self, "cut_frames", cuts)
        for c in self.cut_frames:
            if not (0 < c < self.frame_count):
                raise InputError(f"cut frame {c} outside (0, {self.frame_count})")


def generate_scanpaths(fixture: ScanpathFixture) -> CleanedFixations:
    """One fixation point per observer per frame, per the fixture's model."""
    rng = np.random.default_rng(fixture.seed)
    n = fixture.n_observers
    w, h = float(fixture.width), float(fixture.height)
    boundaries = [0, *fixture.cut_frames, fixture.frame_count]
    n_segments = len(boundaries) - 1

    # targets stay off the frame border so scatter rarely needs clamping
    shared_x = rng.uniform(0.1 * w, 0.9 * w, size=n_segments)
    shared_y = rng.uniform(0.1 * h, 0.9 * h, size=n_segments)
    own_x = rng.uniform(0.1 * w, 0.9 * w, size=(n, n_segments))
    own_y = rng.uniform(0.1 * h, 0.9 * h, size=(n, n_segments))

    xs, ys = np.empty((n, fixture.frame_count)), np.empty((n, fixture.frame_count))
    segment = 0
    for t in range(fixture.frame_count):
        while t >= boundaries[segment + 1]:
            segment += 1
        u = rng.random(n)
        jx = rng.normal(0.0, 1.0, size=n)
        jy = rng.normal(0.0, 1.0, size=n)
        # within reconvergence_lag frames of the last cut, everyone searches
        searching = segment > 0 and t - boundaries[segment] < fixture.reconvergence_lag
        shared = (u < fixture.congruency) & (not searching)
        tx = np.where(shared, shared_x[segment], own_x[:, segment])
        ty = np.where(shared, shared_y[segment], own_y[:, segment])
        xs[:, t] = np.clip(tx + fixture.cluster_sigma * jx, 0.0, w - 1.0)
        ys[:, t] = np.clip(ty + fixture.cluster_sigma * jy, 0.0, h - 1.0)
    return CleanedFixations(
        clip_id=fixture.clip_id,
        frame_count=fixture.frame_count,
        width=fixture.width,
        height=fixture.height,
        observer_ids=[f"obs{i:02d}" for i in range(n)],
        observer=np.repeat(np.arange(n), fixture.frame_count),
        frame=np.tile(np.arange(fixture.frame_count), n),
        x=xs.ravel(),
        y=ys.ravel(),
    )
