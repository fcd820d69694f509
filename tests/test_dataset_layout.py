"""End-to-end exercise of the prepared-dataset path on synthetic clips.

The dataset-gated acceptance criteria skip without the real recordings;
this module builds a miniature dataset in the documented layout and drives
the same loaders and computations, so that path stays honest. Clip
construction mirrors the qualitative structure those criteria rely on:
one long-shot high-congruency clip and one rapid-cut low-congruency clip.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import test_acceptance as acc
from cinegaze.annotations import cuts_of, shot_stats
from cinegaze.bench import benchmark_model, dataset_means
from cinegaze.core import ClipMeta, frame_to_display
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ioc import cut_drop_analysis, sequence_ioc_summary
from cinegaze.saliency import center_prior, make_kernel
from cinegaze.stats import one_way_anova, pearson, welch_t_test

W, H, FRAMES = 80, 50, 120

CLIPS = {
    # clip_id: (congruency, cut spacing, angle, size)
    "the_shining_mini": (0.95, 60, "Eye", "MS"),
    "departures_mini": (0.85, 40, "High", "LS"),
    "armageddon_mini": (0.35, 12, "Low", "XCU"),
}


def build_mini_dataset(root: Path):
    (root / "meta").mkdir(parents=True)
    (root / "gaze").mkdir()
    (root / "annotations").mkdir()
    for i, (clip_id, (congruency, spacing, angle, size)) in enumerate(CLIPS.items()):
        meta_dict = {"clip_id": clip_id, "frame_count": FRAMES,
                     "frame_width_px": W, "frame_height_px": H, "fps": 24.0,
                     "display_width_px": 800, "display_height_px": 500}
        (root / "meta" / f"{clip_id}.json").write_text(json.dumps(meta_dict))
        meta = ClipMeta.from_dict(meta_dict)
        cuts = tuple(range(spacing, FRAMES, spacing))
        fx = ScanpathFixture(seed=300 + i, n_observers=6, frame_count=FRAMES,
                             width=W, height=H, congruency=congruency,
                             cluster_sigma=2.0, cut_frames=cuts,
                             reconvergence_lag=4, clip_id=clip_id)
        fix = generate_scanpaths(fx)
        lines = ["observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event"]
        for obs in fix.observers():
            for frame, pts in fix.by_observer[obs].items():
                for (fxp, fyp) in pts:
                    dx, dy = frame_to_display(fxp, fyp, meta)
                    t = (frame + 0.5) / meta.fps * 1000.0
                    lines.append(f"{obs},{clip_id},{t},{dx},{dy},1,Fixation")
        (root / "gaze" / f"{clip_id}.csv").write_text("\n".join(lines) + "\n")
        boundaries = [0, *cuts, FRAMES]
        motions = ["Static"] if spacing > 30 else ["Pan", "Track"]
        shots = [{"start": boundaries[j], "end": boundaries[j + 1],
                  "motions": motions, "angle": angle, "size": size,
                  **({"motion_direction": "Left"} if "Pan" in motions else {})}
                 for j in range(len(boundaries) - 1)]
        (root / "annotations" / f"{clip_id}.json").write_text(json.dumps({
            "schema_version": 1, "clip_id": clip_id, "frame_count": FRAMES,
            "frame_width": W, "frame_height": H, "shots": shots}))


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini_dataset")
    build_mini_dataset(root)
    return root


@pytest.fixture()
def clips(mini_dataset, monkeypatch):
    monkeypatch.setenv("CINEGAZE_DATASET", str(mini_dataset))
    acc._dataset_cache.clear()
    acc._ioc_cache.clear()
    loaded = acc.load_dataset()
    yield loaded
    acc._dataset_cache.clear()
    acc._ioc_cache.clear()


def test_loader_finds_every_clip(clips):
    assert [meta.clip_id for meta, _, _ in clips] == sorted(CLIPS)
    for meta, cleaned, annotation in clips:
        assert cleaned.n_points() == 6 * FRAMES
        assert annotation is not None
        assert annotation.frame_count == FRAMES


def test_center_prior_benchmark_machinery(clips):
    # the criterion-5 computation shape, without the published targets
    all_rows = []
    for meta, cleaned, _ in clips:
        kernel = make_kernel(meta.frame_px_per_degree / 4.0)  # small map, small blur
        prior = center_prior(meta.frame_width_px, meta.frame_height_px)
        predictions = {f: prior.values for f in range(meta.frame_count)}
        result = benchmark_model(predictions, cleaned, kernel, aucb_seed=1,
                                 aucb_splits=10)
        assert not result.errors
        all_rows.extend(result.rows)
    means = dataset_means(all_rows)
    assert set(means) == {"CC", "SIM", "AUC_J", "AUC_B", "NSS", "KLD"}
    assert 0.0 <= means["AUC_J"] <= 1.0
    assert means["KLD"] >= 0.0


def test_ioc_extremes_follow_congruency(clips):
    series = acc.ioc_series_for_config(clips, n=10, sigma_px=2.0)
    clip_means = {cid: sequence_ioc_summary(s).mean for cid, s in series.items()}
    assert max(clip_means, key=clip_means.get) == "the_shining_mini"
    assert min(clip_means, key=clip_means.get) == "armageddon_mini"


def test_shot_length_pairs_feed_pearson(clips):
    series = acc.ioc_series_for_config(clips, n=10, sigma_px=2.0)
    xs, ys = [], []
    for meta, _, annotation in clips:
        xs.append(shot_stats(annotation, meta.fps).average_s)
        ys.append(sequence_ioc_summary(series[meta.clip_id]).mean)
    r, p = pearson(xs, ys)
    assert -1.0 <= r <= 1.0 and 0.0 <= p <= 1.0
    assert r > 0  # longer shots, higher congruency by construction


def test_cut_drop_machinery(clips):
    series = acc.ioc_series_for_config(clips, n=5, sigma_px=2.0)
    dropped = 0
    for meta, _, annotation in clips:
        records = cut_drop_analysis(series[meta.clip_id], cuts_of(annotation),
                                    pre_frames=5, post_frames=5)
        assert records
        pre = [r.pre_mean for r in records if r.pre_mean is not None]
        post = [r.post_mean for r in records if r.post_mean is not None]
        if pre and post and float(np.mean(post)) < float(np.mean(pre)):
            dropped += 1
    assert dropped == len(clips)  # reconvergence lag guarantees the drop here


def test_window_labels_feed_anova(clips):
    n = 10
    series = acc.ioc_series_for_config(clips, n=n, sigma_px=2.0)
    # the scored windows that no cut splits; each clip has one motion set,
    # one angle and one size, so a label's group is its clips' windows
    inside = {meta.clip_id: [score for start, score in series[meta.clip_id].values
                             if score is not None
                             and not any(start < c < start + n for c in cuts_of(annotation))]
              for meta, _, annotation in clips}
    expected = {
        "Motion": {"Static": inside["departures_mini"] + inside["the_shining_mini"],
                   "Pan": inside["armageddon_mini"], "Track": inside["armageddon_mini"]},
        "Angle": {"Eye": inside["the_shining_mini"], "High": inside["departures_mini"],
                  "Low": inside["armageddon_mini"]},
        "Size": {"MS": inside["the_shining_mini"], "LS": inside["departures_mini"],
                 "XCU": inside["armageddon_mini"]},
    }
    for kind, want in expected.items():
        groups = acc.windows_by_label(clips, series, kind=kind)
        assert groups == want, kind
        res = one_way_anova([v for v in groups.values() if len(v) >= 2])
        assert 0.0 <= res.p <= 1.0
    t, p = welch_t_test(expected["Size"]["MS"], expected["Size"]["XCU"])
    assert 0.0 <= p <= 1.0
