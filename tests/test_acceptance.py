"""Acceptance criteria, one test per criterion, one status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 5 through 9 need the published gaze recordings and editing
annotations prepared under $CINEGAZE_DATASET (layout documented in the
README); without the data they skip. Everything else runs self-contained
on synthetic data and brute-force oracles.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cinegaze.annotations import (PartitionKind, cuts_of, labels,
                                  parse_annotations, shot_at, shot_stats)
from cinegaze.bench import benchmark_model, dataset_means
from cinegaze.core import ClipMeta
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ingest import (ColumnMap, clean_and_bin, filter_observers,
                             parse_gaze_samples)
from cinegaze.ioc import (IocConfig, cut_drop_analysis, loo_window_ioc,
                          sequence_ioc_summary)
from cinegaze.metrics import (KLD_EPSILON, auc_borji, auc_judd, cc, kld, nss,
                              sim)
from cinegaze.saliency import blur_fixations, center_prior, make_kernel
from cinegaze.stats import one_way_anova, pearson, t_sf_two_sided, f_sf, welch_t_test
from cinegaze.tables import read_json

from conftest import random_metric_instance, scanpath_battery
from oracles import (auc_borji_oracle, auc_judd_oracle, cc_oracle,
                     direct_convolve2d, f_p_oracle, fixation_array, kld_oracle,
                     naive_loo_window_ioc, nss_oracle, pooled_t_oracle,
                     sim_oracle, t_p_two_sided_oracle)

from test_cli import run_pipeline


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL: {name}", flush=True)
        raise
    print(f"\n[criterion {num:02d}] PASS: {name}", flush=True)


def skip_criterion(num, name, reason):
    print(f"\n[criterion {num:02d}] SKIP: {name} ({reason})", flush=True)
    pytest.skip(reason)


# ------------------------------------------------------------------ C1-C4

def test_criterion_01_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence, 200 instances per metric, <10s"):
        rng = np.random.default_rng(20240601)
        start = time.perf_counter()
        from cinegaze.core import FixationMap
        for i in range(200):
            s, q, fix_pixels = random_metric_instance(rng)
            fmap = FixationMap(0, 16, 16, frozenset(fix_pixels))
            assert abs(cc(s, q) - cc_oracle(s, q)) < 1e-6
            assert abs(sim(s, q) - sim_oracle(s, q)) < 1e-6
            assert abs(nss(s, fmap) - nss_oracle(s, fix_pixels)) < 1e-6
            assert abs(kld(s + 1e-4, q) - kld_oracle(s + 1e-4, q, KLD_EPSILON)) < 1e-6
            assert abs(auc_judd(s, fmap) - auc_judd_oracle(s, fix_pixels)) < 1e-6
            seed = 5000 + i
            mine = auc_borji(s, fmap, splits=6, seed=seed)
            assert mine == auc_borji_oracle(s, fix_pixels, 1, 6, seed)  # bit-identical
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"metric battery took {elapsed:.1f}s"


def test_criterion_02_convolution_equivalence():
    with criterion(2, "separable blur equals direct 2-D convolution on 64x64"):
        rng = np.random.default_rng(20240602)
        from cinegaze.core import FixationMap
        kernel = make_kernel(2.5)
        r = kernel.radius_px
        for i in range(50):
            n_points = int(rng.integers(1, 40))
            flat = rng.choice(64 * 64, size=n_points, replace=False)
            pts = frozenset((int(v % 64), int(v // 64)) for v in flat)
            fmap = FixationMap(0, 64, 64, pts)
            mine = blur_fixations(fmap, kernel).values
            ref = direct_convolve2d(fixation_array(fmap), kernel.weights)
            assert np.abs(mine - ref).max() < 1e-6
            if all(r <= x < 64 - r and r <= y < 64 - r for (x, y) in pts):
                assert abs(mine.sum() - len(pts)) < 1e-6
        # interior mass conservation, checked explicitly
        interior = frozenset({(20, 20), (30, 25), (25, 38)})
        mine = blur_fixations(FixationMap(0, 64, 64, interior), kernel).values
        assert abs(mine.sum() - 3.0) < 1e-6


def test_criterion_03_ioc_fast_path_equivalence():
    with criterion(3, "sliding-window congruency equals the naive per-window oracle"):
        for fx in scanpath_battery():
            fix = generate_scanpaths(fx)
            if len(fix.observers()) < 2:
                continue
            cfg = IocConfig(n=5, sigma_px=1.5)
            fast = loo_window_ioc(
                fix, ClipMeta(fx.clip_id, fx.frame_count, fx.width, fx.height), cfg)
            ref = naive_loo_window_ioc(fix, 5, 1.5, cfg.truncation)
            assert len(fast.values) == len(ref)
            for (t1, v1), (t2, v2) in zip(fast.values, ref):
                assert t1 == t2
                if v1 is None:
                    assert v2 is None
                else:
                    assert abs(v1 - v2) < 1e-6


def test_criterion_04_statistics_oracles():
    with criterion(4, "ANOVA F=t^2, tail probabilities vs quadrature, exact pearson"):
        rng = np.random.default_rng(20240604)
        for _ in range(100):
            a = list(rng.normal(0, 1, int(rng.integers(2, 15))))
            b = list(rng.normal(1, 3, int(rng.integers(2, 15))))
            res = one_way_anova([a, b])
            t, p_t = pooled_t_oracle(a, b)
            assert abs(res.f - t * t) < 1e-9
            assert abs(res.p - p_t) < 1e-8
        t_points = [(1, 0.5), (2, 1.0), (5, 2.0), (10, 0.1), (10, 3.5),
                    (30, 2.0), (100, 1.96), (7, 4.2), (3, 0.7), (60, 0.25)]
        for df, t in t_points:
            assert abs(t_sf_two_sided(t, df) - t_p_two_sided_oracle(t, df)) < 1e-8
        f_points = [(1, 4, 2.0), (2, 6, 3.0), (3, 12, 1.5), (5, 40, 2.2),
                    (8, 8, 0.5), (2, 30, 10.0), (6, 20, 1.0), (4, 4, 7.3),
                    (1, 100, 3.84), (12, 60, 2.5)]
        for df1, df2, f_stat in f_points:
            assert abs(f_sf(f_stat, df1, df2) - f_p_oracle(f_stat, df1, df2)) < 1e-8
        for _ in range(20):
            x = [float(v) for v in rng.uniform(-5, 5, int(rng.integers(3, 30)))]
            slope = float(rng.uniform(0.1, 4.0)) * (1 if rng.random() < 0.5 else -1)
            intercept = float(rng.uniform(-3, 3))
            r, p = pearson(x, [slope * v + intercept for v in x])
            assert r == math.copysign(1.0, slope)
            assert p == 0.0


# --------------------------------------------------------- dataset loading

DATASET_LAYOUT = ("expects $CINEGAZE_DATASET with meta/<clip>.json, "
                  "gaze/<clip>.csv, annotations/<clip>.json")


def dataset_root():
    root = os.environ.get("CINEGAZE_DATASET", "")
    if root and (Path(root) / "meta").is_dir():
        return Path(root)
    return None


_dataset_cache = {}


def load_clip(root: Path, meta_path: Path):
    key = str(meta_path)
    if key not in _dataset_cache:
        meta = ClipMeta.from_dict(json.loads(meta_path.read_text()))
        colmap_path = root / "colmap.json"
        colmap = (ColumnMap.from_json(colmap_path) if colmap_path.exists()
                  else ColumnMap())
        with open(root / "gaze" / f"{meta.clip_id}.csv") as f:
            records, _ = parse_gaze_samples(f, colmap)
        records = [r for r in records if r.clip_id == meta.clip_id]
        kept, _ = filter_observers(records, 0.9)
        cleaned = clean_and_bin(kept, meta)
        ann_path = root / "annotations" / f"{meta.clip_id}.json"
        annotation = parse_annotations(read_json(ann_path)) if ann_path.exists() else None
        _dataset_cache[key] = (meta, cleaned, annotation)
    return _dataset_cache[key]


def load_dataset():
    root = dataset_root()
    if root is None:
        return None
    clips = []
    for meta_path in sorted((root / "meta").glob("*.json")):
        clips.append(load_clip(root, meta_path))
    return clips


_ioc_cache = {}


def ioc_series_for_config(clips, n, sigma_px):
    key = (n, sigma_px)
    if key not in _ioc_cache:
        series = {}
        for meta, cleaned, _ in clips:
            cfg = IocConfig(n=n, sigma_px=sigma_px)
            series[meta.clip_id] = loo_window_ioc(cleaned, meta, cfg)
        _ioc_cache[key] = series
    return _ioc_cache[key]


def ioc_series_for(clips, n):
    return ioc_series_for_config(clips, n, 45.0)


def windows_by_label(clips, series, kind):
    """Window scores bucketed by the label of the shot containing the whole
    window; windows spanning a cut carry no single label and are excluded."""
    kind = PartitionKind(kind)
    groups: dict = {}
    for meta, _, annotation in clips:
        if annotation is None:
            continue
        s = series[meta.clip_id]
        for start, score in s.values:
            if score is None:
                continue
            shot = shot_at(annotation, start)
            if start + s.n > shot.end:
                continue
            for label in labels(kind, [m.value for m in shot.motions],
                                shot.angle.value, shot.size.value):
                groups.setdefault(label, []).append(score)
    return groups


# ------------------------------------------------------------------ C5-C9

def test_criterion_05_center_prior_benchmark():
    name = "center-prior benchmark reproduces the published baseline row"
    clips = load_dataset()
    if clips is None:
        skip_criterion(5, name, DATASET_LAYOUT)
    with criterion(5, name):
        expected = {"CC": 0.398, "SIM": 0.302, "AUC_J": 0.859,
                    "AUC_B": 0.771, "NSS": 1.762, "KLD": 2.490}
        all_rows = []
        for meta, cleaned, _ in clips:
            kernel = make_kernel(meta.frame_px_per_degree)
            prior = center_prior(meta.frame_width_px, meta.frame_height_px)
            predictions = {f: prior.values for f in range(meta.frame_count)}
            result = benchmark_model(predictions, cleaned, kernel, aucb_seed=1)
            all_rows.extend(result.rows)
        means = dataset_means(all_rows)
        print("  center prior means:", {k: round(v, 3) for k, v in means.items()})
        # sensitive to the prior's sigma fraction and the KLD epsilon, both
        # echoed in emitted reports
        for metric, target in expected.items():
            assert abs(means[metric] - target) <= 0.05, (metric, means[metric])


def test_criterion_06_ioc_dataset_mean_and_extremes():
    name = "IOC n=20: dataset mean 4.1 +- 0.4, extremes at the expected clips"
    clips = load_dataset()
    if clips is None:
        skip_criterion(6, name, DATASET_LAYOUT)
    with criterion(6, name):
        series = ioc_series_for(clips, 20)
        all_scores = []
        clip_means = {}
        for clip_id, s in series.items():
            summary = sequence_ioc_summary(s)
            clip_means[clip_id] = summary.mean
            all_scores.extend(v for _, v in s.values if v is not None)
        overall = float(np.mean(all_scores))
        print(f"  dataset IOC mean {overall:.3f}; per-clip",
              {k: round(v, 2) for k, v in sorted(clip_means.items())})
        assert abs(overall - 4.1) <= 0.4
        top = max(clip_means, key=clip_means.get)
        bottom = min(clip_means, key=clip_means.get)
        assert "shining" in top.lower()
        assert "armageddon" in bottom.lower()


def test_criterion_07_ioc_vs_shot_length_correlation():
    name = "IOC vs average shot length: r 0.35 +- 0.1, p 0.19 +- 0.1"
    clips = load_dataset()
    if clips is None:
        skip_criterion(7, name, DATASET_LAYOUT)
    with criterion(7, name):
        series = ioc_series_for(clips, 20)
        xs, ys = [], []
        for meta, cleaned, annotation in clips:
            if "shining" in meta.clip_id.lower():
                continue  # shot-length outlier, excluded from this fit
            assert annotation is not None
            xs.append(shot_stats(annotation, meta.fps).average_s)
            ys.append(sequence_ioc_summary(series[meta.clip_id]).mean)
        r, p = pearson(xs, ys)
        print(f"  n={len(xs)} r={r:.3f} p={p:.3f}")
        assert abs(r - 0.35) <= 0.1
        assert abs(p - 0.19) <= 0.1


def test_criterion_08_cut_drop():
    name = "n=5 congruency drops after cuts for >= 80% of clips"
    clips = load_dataset()
    if clips is None:
        skip_criterion(8, name, DATASET_LAYOUT)
    with criterion(8, name):
        series = ioc_series_for(clips, 5)
        dropped = 0
        eligible = 0
        for meta, cleaned, annotation in clips:
            if annotation is None or not cuts_of(annotation):
                continue
            records = cut_drop_analysis(series[meta.clip_id], cuts_of(annotation),
                                        pre_frames=5, post_frames=5)
            pre = [r.pre_mean for r in records if r.pre_mean is not None]
            post = [r.post_mean for r in records if r.post_mean is not None]
            if not pre or not post:
                continue
            eligible += 1
            if float(np.mean(post)) < float(np.mean(pre)):
                dropped += 1
        print(f"  {dropped}/{eligible} clips show the drop")
        assert eligible > 0
        assert dropped / eligible >= 0.8


def test_criterion_09_annotation_anova():
    name = "ANOVA p<1e-5 per annotation family; Welch brackets for two pairs"
    clips = load_dataset()
    if clips is None:
        skip_criterion(9, name, DATASET_LAYOUT)
    with criterion(9, name):
        series = ioc_series_for(clips, 20)
        groups = {kind: windows_by_label(clips, series, kind)
                  for kind in PartitionKind}
        for kind in PartitionKind:
            usable = [v for v in groups[kind].values() if len(v) >= 2]
            res = one_way_anova(usable)
            print(f"  {kind.value}: F={res.f:.1f} p={res.p:.2e}")
            assert res.p < 1e-5
        motion = groups[PartitionKind.MOTION]
        size = groups[PartitionKind.SIZE]
        _, p_static_dolly = welch_t_test(motion["Static"], motion["Dolly"])
        _, p_xcu_est = welch_t_test(size["XCU"], size["EST"])
        print(f"  Static|Dolly p={p_static_dolly:.3f}, XCU|EST p={p_xcu_est:.3f}")
        assert 0.005 <= p_static_dolly <= 0.1
        assert 0.05 <= p_xcu_est <= 0.5


# ----------------------------------------------------------------- C10-C12

def test_criterion_10_synthetic_monotonicity():
    name = "congruency 0.9 fixtures score above 0.1 at n=5 and n=20"
    with criterion(10, name):
        kw = dict(n_observers=6, frame_count=80, width=64, height=40,
                  cluster_sigma=1.5, cut_frames=(40,))
        for n in (5, 20):
            cfg = IocConfig(n=n, sigma_px=2.0)
            means = {}
            for congruency in (0.1, 0.9):
                fx = ScanpathFixture(seed=99, congruency=congruency, **kw)
                fix = generate_scanpaths(fx)
                meta = ClipMeta(fx.clip_id, fx.frame_count, fx.width, fx.height)
                means[congruency] = sequence_ioc_summary(
                    loo_window_ioc(fix, meta, cfg)).mean
            assert means[0.9] > means[0.1], f"n={n}: {means}"


def _paper_scale_clip(seed):
    fx = ScanpathFixture(seed=seed, n_observers=14, frame_count=4700,
                         width=1920, height=800, congruency=0.8,
                         cluster_sigma=25.0,
                         cut_frames=tuple(range(90, 4700, 90)),
                         reconvergence_lag=5, clip_id=f"clip{seed:02d}")
    fix = generate_scanpaths(fx)
    meta = ClipMeta(fx.clip_id, fx.frame_count, fx.width, fx.height)
    series = loo_window_ioc(fix, meta, IocConfig(n=20, sigma_px=45.0))
    return len(series.values), sequence_ioc_summary(series).mean


@pytest.mark.perf
def test_criterion_11_full_scale_throughput():
    name = "94k frames x 14 observers, n=20, sigma 45: under 10 minutes"
    with criterion(11, name):
        start = time.perf_counter()
        workers = max(1, min(8, os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_paper_scale_clip, range(20)))
        elapsed = time.perf_counter() - start
        windows = sum(n for n, _ in results)
        print(f"  {windows} windows over 20 clips in {elapsed:.0f}s "
              f"({workers} workers)")
        assert windows == 20 * (4700 - 20 + 1)
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_criterion_12_pipeline_determinism(tmp_path):
    name = "two identical pipeline runs produce byte-identical reports"
    with criterion(12, name):
        out_a = run_pipeline(tmp_path / "a")
        out_b = run_pipeline(tmp_path / "b")
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
