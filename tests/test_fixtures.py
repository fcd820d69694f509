import pytest

from cinegaze.errors import InputError
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ioc import IocConfig, loo_window_ioc, sequence_ioc_summary


def test_same_seed_same_output():
    fx = ScanpathFixture(seed=42, n_observers=4, frame_count=30, width=40,
                         height=30, congruency=0.6, cluster_sigma=1.5,
                         cut_frames=(15,), reconvergence_lag=3)
    a = generate_scanpaths(fx)
    b = generate_scanpaths(fx)
    assert a.by_observer == b.by_observer


def test_different_seed_differs():
    kw = dict(n_observers=4, frame_count=30, width=40, height=30,
              congruency=0.6, cluster_sigma=1.5)
    a = generate_scanpaths(ScanpathFixture(seed=1, **kw))
    b = generate_scanpaths(ScanpathFixture(seed=2, **kw))
    assert a.by_observer != b.by_observer


def test_full_congruency_zero_scatter_collapses_to_one_pixel():
    fx = ScanpathFixture(seed=7, n_observers=5, frame_count=12, width=40,
                         height=30, congruency=1.0, cluster_sigma=0.0)
    fix = generate_scanpaths(fx)
    for t in range(12):
        pts = {tuple(p) for o in fix.observers() for p in fix.points(o, t)}
        assert len(pts) == 1


def test_zero_congruency_targets_independent():
    fx = ScanpathFixture(seed=7, n_observers=5, frame_count=12, width=40,
                         height=30, congruency=0.0, cluster_sigma=0.0)
    fix = generate_scanpaths(fx)
    pts = {tuple(fix.points(o, 0)[0]) for o in fix.observers()}
    assert len(pts) == 5  # every observer on their own target


def test_one_point_per_observer_per_frame():
    fx = ScanpathFixture(seed=3, n_observers=3, frame_count=20, width=30,
                         height=30, congruency=0.5, cluster_sigma=2.0)
    fix = generate_scanpaths(fx)
    assert fix.n_points() == 3 * 20
    for o in fix.observers():
        assert sorted(fix.by_observer[o]) == list(range(20))


def test_points_stay_in_bounds():
    fx = ScanpathFixture(seed=9, n_observers=4, frame_count=40, width=20,
                         height=12, congruency=0.4, cluster_sigma=30.0)
    fix = generate_scanpaths(fx)
    for o in fix.observers():
        for pts in fix.by_observer[o].values():
            for (x, y) in pts:
                assert 0.0 <= x <= 19.0
                assert 0.0 <= y <= 11.0


def test_congruency_raises_ioc():
    kw = dict(n_observers=5, frame_count=40, width=32, height=24,
              cluster_sigma=1.0, cut_frames=(20,))
    cfg = IocConfig(n=5, sigma_px=1.5)
    means = {}
    for congruency in (0.1, 0.9):
        fx = ScanpathFixture(seed=5, congruency=congruency, **kw)
        fix = generate_scanpaths(fx)
        means[congruency] = sequence_ioc_summary(loo_window_ioc(fix, cfg)).mean
    assert means[0.9] > means[0.1]


def test_parameter_validation():
    with pytest.raises(InputError):
        ScanpathFixture(seed=0, n_observers=0, frame_count=10, width=10,
                        height=10, congruency=0.5, cluster_sigma=1.0)
    with pytest.raises(InputError):
        ScanpathFixture(seed=0, n_observers=2, frame_count=10, width=10,
                        height=10, congruency=1.5, cluster_sigma=1.0)
    with pytest.raises(InputError):
        ScanpathFixture(seed=0, n_observers=2, frame_count=10, width=10,
                        height=10, congruency=0.5, cluster_sigma=1.0,
                        cut_frames=(0,))
