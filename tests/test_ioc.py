import tracemalloc

import numpy as np
import pytest

from cinegaze.core import ClipMeta
from cinegaze.errors import InputError
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ingest import CleanedFixations, build_fixation_map
from cinegaze.ioc import (_REANCHOR, SERIES_COLUMNS, IocConfig, IocSeries,
                          _presence, _window_keys, cut_drop_analysis, loo_window_ioc,
                          read_ioc_series, sequence_ioc_summary, write_ioc_series)
from cinegaze.metrics import nss
from cinegaze.saliency import blur_fixations, make_kernel
from cinegaze.tables import read_table

from conftest import scanpath_battery
from oracles import naive_loo_window_ioc


def cleaned_from(points_by_obs, frame_count, w, h, clip="clip"):
    return CleanedFixations(clip, frame_count, w, h, points_by_obs)


def meta_for(fix):
    return ClipMeta(fix.clip_id, fix.frame_count, fix.width, fix.height)


class TestLooWindowIoc:
    def test_identical_fixations_constant_series(self):
        # every observer on one pixel, every frame: the leave-one-out map is
        # a scaled kernel stamp, so every window scores the same value
        n_obs, frames = 4, 10
        by_obs = {f"o{i}": {t: [(10.0, 8.0)] for t in range(frames)}
                  for i in range(n_obs)}
        fix = cleaned_from(by_obs, frames, 28, 20)
        cfg = IocConfig(n=3, sigma_px=2.0)
        series = loo_window_ioc(fix, meta_for_dims(fix), cfg)
        scores = [v for _, v in series.values]
        assert all(v is not None for v in scores)
        assert max(scores) - min(scores) < 1e-9
        # direct computation of the same quantity through the metrics module
        fmap = build_fixation_map([(10.0, 8.0)], 28, 20)
        blurred = blur_fixations(fmap, make_kernel(2.0))
        expected = nss(blurred, fmap)
        assert scores[0] == pytest.approx(expected, abs=1e-9)

    def test_mutually_distant_observers_score_negative(self):
        # four observers on four pixels > 6 sigma apart: the left-out
        # observer's pixel carries no mass, scoring near the map minimum
        corners = [(3.0, 3.0), (24.0, 3.0), (3.0, 16.0), (24.0, 16.0)]
        frames = 6
        by_obs = {f"o{i}": {t: [corners[i]] for t in range(frames)}
                  for i in range(4)}
        fix = cleaned_from(by_obs, frames, 28, 20)
        cfg = IocConfig(n=3, sigma_px=2.0)
        series = loo_window_ioc(fix, meta_for_dims(fix), cfg)
        score = series.values[0][1]
        assert score < 0
        # compare with the z-value floor of one leave-one-out map
        others = build_fixation_map(corners[1:], 28, 20)
        blurred = blur_fixations(others, make_kernel(2.0)).values
        z_floor = (blurred.min() - blurred.mean()) / blurred.std()
        assert score == pytest.approx(z_floor, abs=1e-6)
        # congruent case scores far above
        congruent = {f"o{i}": {t: [(14.0, 10.0)] for t in range(frames)}
                     for i in range(4)}
        best = loo_window_ioc(cleaned_from(congruent, frames, 28, 20),
                              meta_for_dims(fix), cfg)
        assert best.values[0][1] - score > 3.0

    def test_two_observers_one_empty_window_is_absent(self):
        by_obs = {
            "a": {0: [(5.0, 5.0)], 1: [(5.0, 5.0)], 4: [(6.0, 6.0)]},
            "b": {4: [(5.0, 5.0)], 5: [(5.0, 5.0)]},
        }
        fix = cleaned_from(by_obs, 6, 20, 20)
        cfg = IocConfig(n=2, sigma_px=1.5)
        series = loo_window_ioc(fix, meta_for_dims(fix), cfg)
        by_start = dict(series.values)
        assert by_start[0] is None      # only a has fixations
        assert by_start[2] is None      # nobody has fixations
        assert by_start[4] is not None  # both present

    def test_min_observers_enforced(self):
        fix = cleaned_from({"a": {0: [(1.0, 1.0)]}}, 4, 10, 10)
        with pytest.raises(InputError):
            loo_window_ioc(fix, meta_for_dims(fix), IocConfig(n=2, sigma_px=1.0))

    def test_windows_truncated_at_clip_end_dropped(self):
        fx = scanpath_battery()[1]
        fix = generate_scanpaths(fx)
        series = loo_window_ioc(fix, meta_for(fx), IocConfig(n=5, sigma_px=1.5))
        assert len(series.values) == fx.frame_count - 5 + 1
        assert series.values[-1][0] == fx.frame_count - 5

    def test_permutation_invariant_in_observer_order(self):
        fx = scanpath_battery()[2]
        fix = generate_scanpaths(fx)
        renamed = {f"zz_{obs}": frames for obs, frames in fix.by_observer.items()}
        flipped = CleanedFixations(fix.clip_id, fix.frame_count, fix.width,
                                   fix.height, renamed)
        cfg = IocConfig(n=4, sigma_px=1.5)
        a = loo_window_ioc(fix, meta_for(fx), cfg)
        b = loo_window_ioc(flipped, meta_for(fx), cfg)
        for (t1, v1), (t2, v2) in zip(a.values, b.values):
            assert t1 == t2
            if v1 is None:
                assert v2 is None
            else:
                assert v1 == pytest.approx(v2, abs=1e-9)

    def test_duplicate_observer_keeps_congruent_score(self):
        # on perfectly congruent fixtures the leave-one-out map only gains
        # scale when an observer is duplicated, and NSS ignores scale
        for seed in (0, 3):
            fx = ScanpathFixture(seed=seed, n_observers=5, frame_count=16,
                                 width=28, height=20, congruency=1.0,
                                 cluster_sigma=0.0, cut_frames=(8,))
            fix = generate_scanpaths(fx)
            dup = {k: {f: list(v) for f, v in fr.items()}
                   for k, fr in fix.by_observer.items()}
            dup["zz_dup"] = {f: list(v) for f, v in fix.by_observer["obs00"].items()}
            fix_dup = CleanedFixations(fix.clip_id, fix.frame_count, fix.width,
                                       fix.height, dup)
            cfg = IocConfig(n=4, sigma_px=2.0)
            a = loo_window_ioc(fix, meta_for(fx), cfg)
            b = loo_window_ioc(fix_dup, meta_for(fx), cfg)
            for (_, v1), (_, v2) in zip(a.values, b.values):
                assert v2 >= v1 - 1e-9

    def test_two_observer_case_matches_direct_nss_average(self):
        fx = scanpath_battery()[3]  # N = 2
        fix = generate_scanpaths(fx)
        n = 3
        cfg = IocConfig(n=n, sigma_px=1.5)
        kernel = make_kernel(1.5)
        series = loo_window_ioc(fix, meta_for(fx), cfg)
        obs = fix.observers()
        for t, score in series.values:
            windows = {}
            for o in obs:
                pts = []
                for f in range(t, t + n):
                    pts.extend(fix.points(o, f))
                windows[o] = pts
            directions = []
            for o in obs:
                other = [b for b in obs if b != o][0]
                if not windows[o] or not windows[other]:
                    continue
                fmap_o = build_fixation_map(windows[o], fix.width, fix.height)
                map_other = build_fixation_map(windows[other], fix.width, fix.height)
                directions.append(nss(blur_fixations(map_other, kernel), fmap_o))
            if directions:
                assert score == pytest.approx(
                    sum(directions) / len(directions), abs=1e-9)
            else:
                assert score is None

    def test_fast_path_equals_naive_on_battery(self):
        # the mandatory oracle equivalence: no incremental shortcuts on the
        # oracle side, dense grids and direct convolution only
        for fx in scanpath_battery()[:4]:
            fix = generate_scanpaths(fx)
            cfg = IocConfig(n=4, sigma_px=1.5)
            fast = loo_window_ioc(fix, meta_for(fx), cfg)
            ref = naive_loo_window_ioc(fix, 4, 1.5, cfg.truncation)
            assert len(fast.values) == len(ref)
            for (t1, v1), (t2, v2) in zip(fast.values, ref):
                assert t1 == t2
                if v1 is None:
                    assert v2 is None
                else:
                    assert v1 == pytest.approx(v2, abs=1e-6)

    def test_fast_path_edge_configurations(self):
        # single-frame windows, and a kernel wider than the frame (border
        # truncation everywhere): the closed-form tables must still agree
        fx = scanpath_battery()[2]
        fix = generate_scanpaths(fx)
        for n, sigma in ((1, 1.5), (3, 6.0)):
            cfg = IocConfig(n=n, sigma_px=sigma)
            fast = loo_window_ioc(fix, meta_for(fx), cfg)
            ref = naive_loo_window_ioc(fix, n, sigma, cfg.truncation)
            for (t1, v1), (t2, v2) in zip(fast.values, ref):
                assert t1 == t2
                if v1 is None:
                    assert v2 is None
                else:
                    assert v1 == pytest.approx(v2, abs=1e-6)

    def test_window_longer_than_clip_rejected(self):
        fix = cleaned_from({"a": {0: [(1.0, 1.0)]}, "b": {1: [(2.0, 2.0)]}}, 4, 10, 10)
        assert len(loo_window_ioc(fix, meta_for_dims(fix), IocConfig(n=4, sigma_px=1.0)).values) == 1
        with pytest.raises(InputError):
            loo_window_ioc(fix, meta_for_dims(fix), IocConfig(n=5, sigma_px=1.0))

    def test_sliding_window_equals_single_window_recomputation(self):
        # the series sums each pair once over the windows where both keys
        # are present, in cumulative sums that restart every _REANCHOR
        # windows; each score must equal the same window scored on its
        # own. A small grid makes pixels repeat within and across
        # observers' windows, observer o5 is silent for longer than a
        # window, and later only o0 looks, long enough for windows with an
        # absent score.
        w, h, frames = 64, 48, 2 * _REANCHOR + 20
        rng = np.random.default_rng(5)
        by_obs = {}
        for i in range(6):
            center = rng.uniform((8, 8), (w - 8, h - 8))
            by_obs[f"o{i}"] = {}
            for t in range(frames):
                if (i == 5 and 40 <= t < 52) or (i > 0 and 100 <= t < 111):
                    continue
                center = np.clip(center + rng.normal(0, 1.5, 2), 4, (w - 5, h - 5))
                pts = np.clip(center + rng.normal(0, 3.0, (8, 2)), 0, (w - 1, h - 1))
                by_obs[f"o{i}"][t] = [(float(x), float(y)) for x, y in pts]
        fix = cleaned_from(by_obs, frames, w, h)
        for n in (1, 7):
            cfg = IocConfig(n=n, sigma_px=2.0)
            series = loo_window_ioc(fix, meta_for_dims(fix), cfg)
            assert len(series.values) == frames - n + 1
            assert any(score is None for _, score in series.values)
            for t, score in series.values:
                window = {o: {f - t: fr[f] for f in range(t, t + n) if f in fr}
                          for o, fr in by_obs.items()}
                alone = cleaned_from(window, n, w, h)
                (_, ref), = loo_window_ioc(alone, meta_for_dims(alone), cfg).values
                if ref is None:
                    assert score is None, t
                else:
                    assert score == pytest.approx(ref, abs=1e-9), (n, t)

    def test_long_clip_sampled_windows_equal_single_window_recomputation(self):
        # about 1,000 frames: held fixations give keys long and merged
        # presence intervals, o3 is silent for longer than any window, and
        # a stretch where only o0 looks leaves absent windows. Every 50th
        # window and both windows around each _REANCHOR segment boundary
        # must equal the window scored on its own.
        w, h, frames = 40, 30, 1000
        rng = np.random.default_rng(11)
        by_obs = {}
        for i in range(5):
            by_obs[f"o{i}"] = {}
            held = 0
            for t in range(frames):
                if (i == 3 and 300 <= t < 330) or (i > 0 and 600 <= t < 625):
                    continue
                if held == 0:  # a new fixation, held for 1 to 12 frames
                    center = rng.uniform((4, 4), (w - 5, h - 5))
                    held = int(rng.integers(1, 13))
                held -= 1
                pts = np.clip(center + rng.normal(0, 1.0, (2, 2)), 0, (w - 1, h - 1))
                by_obs[f"o{i}"][t] = [(float(x), float(y)) for x, y in pts]
        fix = cleaned_from(by_obs, frames, w, h)
        for n in (1, 7, 20):
            cfg = IocConfig(n=n, sigma_px=2.0)
            series = loo_window_ioc(fix, meta_for_dims(fix), cfg)
            windows = frames - n + 1
            assert len(series.values) == windows
            assert any(score is None for _, score in series.values)
            sample = set(range(0, windows, 50))
            for boundary in range(_REANCHOR, windows, _REANCHOR):
                sample |= {boundary - 1, boundary}
            for t in sorted(sample):
                window = {o: {f - t: fr[f] for f in range(t, t + n) if f in fr}
                          for o, fr in by_obs.items()}
                alone = cleaned_from(window, n, w, h)
                (_, ref), = loo_window_ioc(alone, meta_for_dims(alone), cfg).values
                score = series.values[t][1]
                if ref is None:
                    assert score is None, (n, t)
                else:
                    assert score == pytest.approx(ref, abs=1e-9), (n, t)

    @pytest.mark.parametrize("gap, intervals", [(4, 1), (5, 2)])
    def test_presence_intervals_merge_at_most_n_frames_apart(self, gap, intervals):
        # with n = 4, pixel (5, 5) of observer a seen on frames 3 and
        # 3 + gap: 4 frames apart no window lies between the two sightings
        # and they share one presence interval, 5 frames apart window 4
        # holds neither and they are two
        n, frames = 4, 16
        by_obs = {
            "a": {3: [(5.0, 5.0)], 3 + gap: [(5.0, 5.0)], 10: [(8.0, 4.0)]},
            "b": {t: [(6.0, 5.0)] for t in range(0, frames, 2)},
            "c": {t: [(4.0, 6.0 + t % 3)] for t in range(1, frames)},
        }
        fix = cleaned_from(by_obs, frames, 12, 10)
        frames_of, keys = _window_keys(fix, fix.width, fix.height)
        key, start, end = _presence(frames_of, keys, n, frames)
        pixel = 0 * 12 * 10 + 5 * 12 + 5  # observer a, the first, at (5, 5)
        assert (key == pixel).sum() == intervals
        cfg = IocConfig(n=n, sigma_px=1.5)
        fast = loo_window_ioc(fix, meta_for_dims(fix), cfg)
        ref = naive_loo_window_ioc(fix, n, 1.5, cfg.truncation)
        for (t1, v1), (t2, v2) in zip(fast.values, ref):
            assert t1 == t2
            if v2 is None:
                assert v1 is None
            else:
                assert v1 == pytest.approx(v2, abs=1e-9)

    def test_peak_memory_within_the_sliding_estimator_s(self):
        # the per-window pair sums go into difference arrays as each block
        # is summed, so memory stays bounded by the blocks, not by the
        # clip. The ceiling is the tracemalloc peak of the earlier
        # estimator that slid its pair sums from window to window,
        # measured once on this clip: 3,966,273 bytes. Holding every
        # block's sums until the end takes tens of MB here.
        fx = ScanpathFixture(seed=7, n_observers=15, frame_count=2000, width=320,
                             height=200, congruency=0.8, cluster_sigma=6.0,
                             cut_frames=tuple(range(100, 2000, 100)),
                             reconvergence_lag=5, clip_id="long")
        fix = generate_scanpaths(fx)
        tracemalloc.start()
        try:
            series = loo_window_ioc(fix, meta_for(fx), IocConfig(n=20, sigma_px=8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series.values) == 2000 - 20 + 1
        assert peak <= 3_966_273, peak


def meta_for_dims(fix):
    return ClipMeta(fix.clip_id, fix.frame_count, fix.width, fix.height)


class TestSummary:
    def test_constant_series(self):
        series = IocSeries("c", 5, [(t, 3.0) for t in range(4)])
        s = sequence_ioc_summary(series)
        assert (s.mean, s.std, s.count) == (3.0, 0.0, 4)

    def test_small_series(self):
        series = IocSeries("c", 5, [(0, 1.0), (1, 2.0), (2, 3.0)])
        s = sequence_ioc_summary(series)
        assert s.mean == 2.0
        assert s.median == 2.0

    def test_absent_scores_excluded(self):
        series = IocSeries("c", 5, [(0, 1.0), (1, None), (2, 3.0)])
        s = sequence_ioc_summary(series)
        assert s.count == 2
        assert s.mean == 2.0

    def test_all_absent_is_error(self):
        with pytest.raises(InputError):
            sequence_ioc_summary(IocSeries("c", 5, [(0, None)]))


class TestCutDrop:
    def test_constant_series_zero_drop(self):
        series = IocSeries("c", 5, [(t, 4.0) for t in range(40)])
        records = cut_drop_analysis(series, [20], pre_frames=5, post_frames=5)
        assert records[0].drop == 0.0
        assert not records[0].overlaps_context

    def test_step_function_drop(self):
        n = 5
        cut = 20
        values = []
        for t in range(36):
            if t + n - 1 < cut:
                values.append((t, 5.0))   # window fully before the cut
            elif t >= cut:
                values.append((t, 3.0))   # window fully after
            else:
                values.append((t, 4.2))   # straddling: in neither context
        series = IocSeries("c", n, values)
        record = cut_drop_analysis(series, [cut], pre_frames=5, post_frames=5)[0]
        assert record.pre_mean == 5.0
        assert record.post_mean == 3.0
        assert record.drop == 2.0

    def test_close_cuts_are_flagged(self):
        series = IocSeries("c", 5, [(t, 4.0) for t in range(40)])
        records = cut_drop_analysis(series, [18, 22])
        assert all(r.overlaps_context for r in records)

    def test_reconvergence_fixture_shows_positive_drop(self):
        fx = ScanpathFixture(seed=11, n_observers=6, frame_count=48, width=30,
                             height=24, congruency=0.95, cluster_sigma=0.8,
                             cut_frames=(16, 32), reconvergence_lag=5)
        fix = generate_scanpaths(fx)
        series = loo_window_ioc(fix, meta_for(fx), IocConfig(n=5, sigma_px=1.5))
        records = cut_drop_analysis(series, [16, 32], pre_frames=5, post_frames=5)
        for r in records:
            assert r.drop is not None and r.drop > 0

    def test_cut_outside_series_rejected(self):
        series = IocSeries("c", 5, [(t, 4.0) for t in range(10)])
        with pytest.raises(InputError):
            cut_drop_analysis(series, [500])


class TestSeriesFiles:
    def test_round_trip_with_absent_scores(self, tmp_path):
        series = IocSeries("clip9", 20, [(0, 4.125), (1, None), (2, 3.911236621)])
        path = tmp_path / "series.csv"
        write_ioc_series(series, path, meta={"sigma_px": 45.0})
        back = read_ioc_series(path)
        assert back.clip_id == "clip9"
        assert back.n == 20
        assert back.values == series.values

    def test_policy_flags_in_header(self, tmp_path):
        series = IocSeries("c", 5, [(0, 1.0)])
        path = tmp_path / "series.csv"
        write_ioc_series(series, path)
        text = path.read_text()
        assert "# observer_eligibility=" in text
        assert "# partial_windows=dropped" in text
        assert "# tool_version=" in text
        # the config hash repeats for the same meta in any order, and
        # changes with the window
        hashes = []
        for i, meta in enumerate(({"window": 5, "sigma_px": 45.0},
                                  {"sigma_px": 45.0, "window": 5},
                                  {"window": 20, "sigma_px": 45.0})):
            path = tmp_path / f"series{i}.csv"
            write_ioc_series(series, path, meta=meta)
            hashes.append(read_table(path, SERIES_COLUMNS)[0]["config_hash"])
        assert hashes[0] == hashes[1]
        assert hashes[0] != hashes[2]

    def test_absent_field_is_empty(self, tmp_path):
        series = IocSeries("c", 5, [(0, None)])
        path = tmp_path / "series.csv"
        write_ioc_series(series, path)
        assert "c,0,5,\n" in path.read_text()
