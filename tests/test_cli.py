import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cinegaze import __version__
from cinegaze.cli import build_parser, main
from cinegaze.core import ClipMeta, frame_to_display
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.gridio import read_map, write_float_grid, write_map
from cinegaze.ingest import (CleanedFixations, fixation_map_for_frame, read_fixations,
                             write_fixations)
from cinegaze.ioc import read_ioc_series
from cinegaze.saliency import center_prior, make_kernel
from cinegaze.tables import config_hash, read_meta

from oracles import average_map_oracle

CLIP = "synthclip"
W, H, FRAMES = 64, 40, 30


def make_meta(path: Path):
    meta = {"clip_id": CLIP, "frame_count": FRAMES, "frame_width_px": W,
            "frame_height_px": H, "fps": 24.0,
            "display_width_px": 640, "display_height_px": 400}
    path.write_text(json.dumps(meta, indent=2))
    return ClipMeta.from_dict(meta)


def make_raw_gaze(path: Path, meta: ClipMeta):
    fx = ScanpathFixture(seed=77, n_observers=5, frame_count=FRAMES, width=W,
                         height=H, congruency=0.85, cluster_sigma=1.5,
                         cut_frames=(10, 20), reconvergence_lag=3)
    fix = generate_scanpaths(fx)
    lines = ["observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event"]
    for obs in fix.observers():
        for frame, pts in fix.by_observer[obs].items():
            for (fxp, fyp) in pts:
                dx, dy = frame_to_display(fxp, fyp, meta)
                t = (frame + 0.5) / meta.fps * 1000.0
                lines.append(f"{obs},{CLIP},{t},{dx},{dy},1,Fixation")
    # noise the cleaner must survive: saccades, blinks, a bad row, a
    # letterboxed point and one observer with a poor validity rate
    lines.append(f"obs00,{CLIP},2.0,320.0,200.0,1,Saccade")
    lines.append(f"obs01,{CLIP},4.0,nonsense,200.0,1,Fixation")
    lines.append(f"obs02,{CLIP},6.0,320.0,200.0,0,Fixation")
    for i in range(40):
        valid = "1" if i % 2 else "0"  # 50% validity: rejected wholesale
        lines.append(f"obs_bad,{CLIP},{float(i)},320.0,200.0,{valid},Fixation")
    path.write_text("\n".join(lines) + "\n")
    return fix


def make_annotation(path: Path):
    doc = {
        "schema_version": 1, "clip_id": CLIP, "frame_count": FRAMES,
        "frame_width": W, "frame_height": H,
        "shots": [
            {"start": 0, "end": 10, "motions": ["Static"], "angle": "Eye", "size": "CU"},
            {"start": 10, "end": 20, "motions": ["Pan"], "motion_direction": "Left",
             "angle": "High", "size": "LS"},
            {"start": 20, "end": FRAMES, "motions": ["Dolly", "Track"],
             "motion_direction": "Right", "angle": "Low", "size": "MS"},
        ],
    }
    path.write_text(json.dumps(doc, indent=2))


def run_pipeline(root: Path) -> Path:
    """The whole CLI surface on one synthetic clip; returns the output dir."""
    root.mkdir(parents=True, exist_ok=True)
    meta_path = root / "meta.json"
    meta = make_meta(meta_path)
    gaze_path = root / "raw_gaze.csv"
    make_raw_gaze(gaze_path, meta)
    ann_path = root / "annotation.json"
    make_annotation(ann_path)
    out = root / "out"
    out.mkdir(exist_ok=True)

    config = root / "config.json"
    config.write_text(json.dumps({"sigma_px": 2.0, "window": 5, "skip_first": 2,
                                  "auc_b_seed": 9, "auc_b_splits": 8}))
    cfg = ["--config", str(config)]

    assert main(["ingest", "--gaze", str(gaze_path), "--meta", str(meta_path),
                 "--out-dir", str(out), *cfg]) == 0
    fix_path = out / f"{CLIP}_fixations.csv"

    # per-frame prediction maps: the center prior as a baseline model
    pred_dir = root / "pred"
    pred_dir.mkdir(exist_ok=True)
    prior = center_prior(W, H)
    for f in range(FRAMES):
        write_float_grid(pred_dir / f"{f:06d}.f32", prior.values)

    assert main(["saliency", "--fixations", str(fix_path), "--average",
                 str(out / "average.f32"), "--ref-width", "64", "--ref-height", "40",
                 *cfg]) == 0
    assert main(["saliency", "--center-prior", str(out / "prior.f32"),
                 "--width", "64", "--height", "40", *cfg]) == 0
    assert main(["saliency", "--fixations", str(fix_path), "--out-dir",
                 str(out / "maps"), "--frames", "0:3", *cfg]) == 0

    assert main(["ioc", "--fixations", str(fix_path), "--meta", str(meta_path),
                 "--out", str(out / "ioc_series.csv"),
                 "--summary", str(out / "ioc_summary.json"),
                 "--cut-drop", str(out / "cut_drop.csv"),
                 "--annotation", str(ann_path), *cfg]) == 0

    assert main(["bench", "--fixations", str(fix_path), "--predictions",
                 str(pred_dir), "--annotation", str(ann_path),
                 "--out", str(out / "scores.csv"), *cfg]) == 0

    assert main(["stats", "--scores", str(out / "scores.csv"), "--metric", "NSS",
                 "--partition", "Size", "--out", str(out / "anova_size.json"),
                 *cfg]) == 0

    assert main(["report", "--scores", str(out / "scores.csv"), "--partition",
                 "Motion", "--out", str(out / "table_motion.csv"), *cfg]) == 0
    assert main(["report", "--scores", str(out / "scores.csv"),
                 "--out", str(out / "dataset_means.csv"), *cfg]) == 0
    assert main(["report", "--bias", "--average", str(out / "average.f32"),
                 "--prior", str(out / "prior.f32"),
                 "--out", str(out / "bias.json"), *cfg]) == 0
    ann_dir = root / "annotations"
    ann_dir.mkdir(exist_ok=True)
    (ann_dir / f"{CLIP}.json").write_text(ann_path.read_text())
    assert main(["report", "--shot-stats", str(ann_dir),
                 "--out", str(out / "shot_stats.csv"), *cfg]) == 0
    return out


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("run"))


class TestPipeline:
    def test_ingest_drops_bad_observer_and_noise(self, out):
        cleaned = read_fixations(out / f"{CLIP}_fixations.csv")
        assert "obs_bad" not in cleaned.observers()
        assert len(cleaned.observers()) == 5
        report = json.loads((out / f"{CLIP}_ingest_report.json").read_text())
        assert report["observers_rejected"] == 1
        assert report["malformed_row"] == 1
        assert report["non_fixation_event"] == 1
        assert report["invalid_sample"] == 1

    def test_series_has_scores(self, out):
        series = read_ioc_series(out / "ioc_series.csv")
        assert series.n == 5
        present = [v for _, v in series.values if v is not None]
        assert len(present) == len(series.values)  # every window scorable here
        summary = json.loads((out / "ioc_summary.json").read_text())
        assert summary["mean"] > 0
        # the summary carries the series header's provenance
        header = read_meta(out / "ioc_series.csv")
        assert summary["tool_version"] == header["tool_version"] == __version__
        assert summary["config_hash"] == header["config_hash"]

    def test_cut_drop_rows(self, out):
        lines = (out / "cut_drop.csv").read_text().splitlines()
        assert lines[0] == "cut,pre_mean,post_mean,drop,overlaps_context"
        assert len(lines) == 3  # two cuts

    def test_scores_cover_metrics_and_labels(self, out):
        text = (out / "scores.csv").read_text()
        for metric in ("CC", "SIM", "AUC_J", "AUC_B", "NSS", "KLD"):
            assert f",{metric}," in text
        assert ",Pan," in text

    def test_anova_output(self, out):
        doc = json.loads((out / "anova_size.json").read_text())
        assert doc["test"] == "one_way_anova"
        assert 0.0 <= doc["p"] <= 1.0
        assert set(doc["group_sizes"]) == {"CU", "LS", "MS"}
        assert doc["tool_version"] == __version__
        assert doc["config_hash"] == config_hash({"tool_version": __version__,
                                                  "test": "one_way_anova",
                                                  "metric": "NSS", "partition": "Size"})

    def test_aggregate_table_shape(self, out):
        lines = [l for l in (out / "table_motion.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0].startswith("label,")
        labels = {l.split(",")[0] for l in lines[1:]}
        assert labels == {"Static", "Pan", "Dolly", "Track"}

    def test_average_matches_per_frame_route(self, out):
        cleaned = read_fixations(out / f"{CLIP}_fixations.csv")
        # the config's skip_first=2; frames without points stay out of the mean
        maps = [fixation_map_for_frame(cleaned, f) for f in range(2, FRAMES)
                if cleaned.frame_points(f)]
        expected = average_map_oracle([maps], make_kernel(2.0), W, H)
        written = read_map(out / "average.f32")
        # within 1e-12 of the peak, plus the float32 rounding of the file
        assert np.allclose(written, expected, rtol=2.0 ** -24, atol=1e-12 * expected.max())

    def test_bias_record(self, out):
        doc = json.loads((out / "bias.json").read_text())
        assert -1.0 <= doc["cc_with_prior"] <= 1.0
        assert doc["tool_version"] == __version__
        assert doc["config_hash"] == config_hash({"tool_version": __version__,
                                                  "report": "bias"})

    def test_shot_stats_table(self, out):
        lines = (out / "shot_stats.csv").read_text().splitlines()
        assert lines[0].startswith("clip_id,")
        assert lines[1].split(",")[0] == CLIP

    def test_maps_written(self, out):
        maps = sorted((out / "maps").glob("*.f32"))
        assert len(maps) == 3
        grid = read_map(maps[0])
        assert grid.shape == (H, W)


def test_two_runs_byte_identical(tmp_path):
    out_a = run_pipeline(tmp_path / "a")
    out_b = run_pipeline(tmp_path / "b")
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_average_selects_frames(tmp_path):
    """--skip-first, --frames-file and empty frames pick the averaged maps."""
    paths = []
    for clip in ("listed", "unlisted"):
        pts = {f: [(float(3 * f), float(2 * f + 1)), (10.0, 7.0)] for f in (0, 1, 3, 5, 6)}
        paths.append(tmp_path / f"{clip}.csv")
        write_fixations(CleanedFixations(clip, 8, 20, 16, {"obs": pts}), paths[-1])
    (tmp_path / "frames.json").write_text(json.dumps({"listed": [0, 1, 2, 3]}))
    assert main(["saliency", "--fixations", str(paths[0]), "--fixations", str(paths[1]),
                 "--average", str(tmp_path / "a.f32"), "--frames-file",
                 str(tmp_path / "frames.json"), "--skip-first", "1", "--sigma-px", "2",
                 "--ref-width", "12", "--ref-height", "10"]) == 0
    listed, unlisted = (read_fixations(p) for p in paths)
    chosen = [[fixation_map_for_frame(listed, f) for f in (1, 3)],
              [fixation_map_for_frame(unlisted, f) for f in (1, 3, 5, 6)]]
    expected = average_map_oracle(chosen, make_kernel(2.0), 12, 10)
    assert np.allclose(read_map(tmp_path / "a.f32"), expected, rtol=2.0 ** -24,
                       atol=1e-12 * expected.max())


def test_readme_commands_parse():
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("cinegaze ")]
    assert len(commands) >= 13
    for argv in commands:
        build_parser().parse_args(argv)


def test_flag_beats_config_beats_default(out, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"window": 5, "sigma_px": 2.0}))
    assert main(["ioc", "--fixations", str(out / f"{CLIP}_fixations.csv"),
                 "--meta", str(out.parent / "meta.json"), "--out", str(tmp_path / "s.csv"),
                 "--config", str(config), "--window", "4"]) == 0
    meta = read_meta(tmp_path / "s.csv")
    assert (meta["window"], meta["sigma_px"], meta["truncation"]) == ("4", "2.0", "3.0")


def test_report_takes_seed_from_score_table(out, tmp_path):
    scores = tmp_path / "scores.csv"
    assert main(["bench", "--fixations", str(out / f"{CLIP}_fixations.csv"),
                 "--predictions", str(out.parent / "pred"), "--metrics", "NSS",
                 "--auc-b-seed", "5", "--out", str(scores)]) == 0
    assert main(["report", "--scores", str(scores), "--out", str(tmp_path / "m.csv")]) == 0
    assert read_meta(tmp_path / "m.csv")["aucb_seed"] == "5"
    # a table without the line gives an empty seed, not a default
    bare = tmp_path / "bare.csv"
    bare.write_text("clip_id,frame_index,metric,value,motions,angle,size\nc,0,NSS,1.0,,,\n")
    assert main(["report", "--scores", str(bare), "--out", str(tmp_path / "b.csv")]) == 0
    assert read_meta(tmp_path / "b.csv")["aucb_seed"] == ""


def test_pearson_output_records_provenance(tmp_path):
    (tmp_path / "pairs.csv").write_text("a,b\n1,2\n2,3\n3,5\n4,4\n")
    assert main(["stats", "--pairs", str(tmp_path / "pairs.csv"), "--x-col", "a",
                 "--y-col", "b", "--out", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert (doc["test"], doc["n"], doc["tool_version"]) == ("pearson", 4, __version__)
    assert doc["config_hash"] == config_hash({"tool_version": __version__, "test": "pearson",
                                              "x": "a", "y": "b"})


#: every run_pipeline output that records a config_hash -> the table whose
#: other header lines the hash digests, or the settings that it digests
#: together with the output's tool_version
HASHED_FIELDS = {
    "ioc_series.csv": "ioc_series.csv",
    "ioc_summary.json": "ioc_series.csv",
    "scores.csv": "scores.csv",
    "table_motion.csv": "table_motion.csv",
    "dataset_means.csv": "dataset_means.csv",
    "anova_size.json": {"test": "one_way_anova", "metric": "NSS", "partition": "Size"},
    "bias.json": {"report": "bias"},
}


def test_every_config_hash_digests_its_header(out):
    carrying = {p.relative_to(out).as_posix() for p in out.rglob("*")
                if p.is_file() and b"config_hash" in p.read_bytes()}
    assert carrying == set(HASHED_FIELDS)
    for name, source in HASHED_FIELDS.items():
        path = out / name
        recorded = (json.loads(path.read_text()) if path.suffix == ".json"
                    else read_meta(path))
        if isinstance(source, str):
            fields = read_meta(out / source)
            del fields["config_hash"]
        else:
            fields = {"tool_version": recorded["tool_version"], **source}
        assert recorded["tool_version"] == fields["tool_version"] == __version__, name
        assert recorded["config_hash"] == config_hash(fields), name


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"sigma": 45}))
    rc = main(["report", "--scores", "nonexistent.csv",
               "--out", str(tmp_path / "x.csv"), "--config", str(config)])
    assert rc == 2


def test_cli_errors_return_nonzero(tmp_path):
    rc = main(["ioc", "--fixations", str(tmp_path / "missing.csv"),
               "--meta", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out.csv")])
    assert rc != 0


#: run in a fresh interpreter: the CLI chain must not load scipy, and the two
#: calls that need it must load it and still work
_SCIPY_ON_DEMAND = """
import sys
import numpy as np
from cinegaze.cli import main

d, meta, fix, ann, preds = sys.argv[1:]
for argv in (["ingest", "--gaze", d + "/gaze.csv", "--meta", meta, "--out-dir", d],
             ["ioc", "--fixations", fix, "--meta", meta, "--out", d + "/ioc.csv",
              "--summary", d + "/ioc.json", "--cut-drop", d + "/cuts.csv",
              "--annotation", ann],
             ["bench", "--fixations", fix, "--predictions", preds, "--annotation", ann,
              "--out", d + "/scores.csv"],
             ["report", "--scores", d + "/scores.csv", "--partition", "Size",
              "--out", d + "/table.csv"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:3]

from cinegaze import saliency, stats
r, p = stats.pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
assert r == 0.8 and abs(p - 0.10408803866182782) < 1e-12, (r, p)
kernel = saliency.make_kernel(1.0)
pixels = [(x, y) for x in range(8) for y in (0, 2, 5)]
xs, ys = [x for x, _ in pixels], [y for _, y in pixels]
stamped = np.zeros((6, 8))
for x, y in zip(xs, ys):
    saliency.stamp_kernel(stamped, kernel.weights, x, y, 2.0)
blurred = saliency._blur_points(xs, ys, [2.0] * len(xs), 8, 6, kernel)
assert np.allclose(blurred, stamped, rtol=0, atol=1e-12)
assert {"scipy.special", "scipy.ndimage"} <= set(sys.modules)  # the separable route ran
"""


def test_scipy_loads_only_where_it_is_called(tmp_path):
    meta = tmp_path / "meta.json"
    make_raw_gaze(tmp_path / "gaze.csv", make_meta(meta))
    make_annotation(tmp_path / "ann.json")
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_ON_DEMAND, str(tmp_path), str(meta),
         str(tmp_path / f"{CLIP}_fixations.csv"), str(tmp_path / "ann.json"),
         _predictions(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _predictions(d: Path) -> str:
    """A directory with a scorable prediction for every frame."""
    preds = d / "preds"
    preds.mkdir()
    for f in range(FRAMES):
        write_float_grid(preds / f"{f:06d}.f32", center_prior(W, H).values)
    return str(preds)


def _bad_input_argv(name, d: Path) -> list:
    """Argument list for one malformed user input; files live under d."""
    fix = str(d / f"{CLIP}_fixations.csv")
    meta = str(d / "meta.json")
    if name == "pairs_missing_column":
        (d / "pairs.csv").write_text("a,b\n1,2\n2,3\n3,5\n")
        return ["stats", "--pairs", str(d / "pairs.csv"), "--x-col", "nope",
                "--y-col", "b", "--out", str(d / "o.json")]
    if name == "colmap_unknown_key":
        (d / "colmap.json").write_text(json.dumps({"gaze_x": "X"}))
        return ["ingest", "--gaze", str(d / "gaze.csv"), "--meta", meta,
                "--colmap", str(d / "colmap.json"), "--out-dir", str(d / "o")]
    if name == "meta_without_clip_id":
        (d / "bad_meta.json").write_text(json.dumps({"frame_count": 3}))
        return ["ingest", "--gaze", str(d / "gaze.csv"), "--meta",
                str(d / "bad_meta.json"), "--out-dir", str(d / "o")]
    if name == "frames_not_a_range":
        return ["saliency", "--fixations", fix, "--out-dir", str(d / "o"),
                "--frames", "x"]
    if name == "frames_empty_range":
        return ["saliency", "--fixations", fix, "--out-dir", str(d / "o"),
                "--frames", "5:2"]
    if name == "skip_first_negative":
        return ["saliency", "--fixations", fix, "--average", str(d / "a.f32"),
                "--skip-first", "-5"]
    if name == "frames_file_is_a_list":
        (d / "frames.json").write_text("[1, 2, 3]")
        return ["saliency", "--fixations", fix, "--average", str(d / "a.f32"),
                "--frames-file", str(d / "frames.json")]
    if name in ("frames_file_boolean", "frames_file_negative"):
        frame = {"frames_file_boolean": True, "frames_file_negative": -4}[name]
        (d / "frames.json").write_text(json.dumps({CLIP: [2, 5, frame]}))
        return ["saliency", "--fixations", fix, "--average", str(d / "a.f32"),
                "--frames-file", str(d / "frames.json"), "--skip-first", "0"]
    if name == "per_frame_two_clips":
        return ["saliency", "--fixations", fix, "--fixations", fix,
                "--out-dir", str(d / "o"), "--frames", "0:3"]
    if name == "frames_file_unknown_clip":
        (d / "frames.json").write_text(json.dumps({CLIP: [1, 2, 3], "other": [5]}))
        return ["saliency", "--fixations", fix, "--average", str(d / "a.f32"),
                "--frames-file", str(d / "frames.json"), "--skip-first", "0"]
    if name == "unknown_metric":
        return ["bench", "--fixations", fix, "--predictions", str(d),
                "--metrics", "XX", "--out", str(d / "s.csv")]
    if name == "window_longer_than_clip":
        return ["ioc", "--fixations", fix, "--meta", meta, "--window", str(FRAMES + 1),
                "--out", str(d / "s.csv")]
    if name in ("sigma_nan", "truncation_inf"):
        flag = {"sigma_nan": ["--sigma-px", "nan"], "truncation_inf": ["--truncation", "inf"]}
        return ["bench", "--fixations", fix, "--predictions", str(d),
                "--out", str(d / "s.csv")] + flag[name]
    if name == "frame_out_of_range":
        bad = d / "bad_fixations.csv"
        bad.write_text(Path(fix).read_text() + f"obs00,-1,10.0,10.0\nobs00,{FRAMES},10.0,10.0\n")
        # every frame scorable, so only the range can fail
        return ["bench", "--fixations", str(bad), "--predictions", _predictions(d),
                "--out", str(d / "s.csv")]
    if name in ("auc_b_seed_negative", "auc_b_splits_zero"):
        flag = {"auc_b_seed_negative": ["--auc-b-seed", "-5"],
                "auc_b_splits_zero": ["--auc-b-splits", "0"]}
        return ["bench", "--fixations", fix, "--predictions", _predictions(d),
                "--out", str(d / "s.csv")] + flag[name]
    if name == "cut_drop_without_annotation":
        return ["ioc", "--fixations", fix, "--meta", meta, "--out", str(d / "s.csv"),
                "--cut-drop", str(d / "cuts.csv")]
    if name == "pre_frames_negative":
        make_annotation(d / "ann.json")
        return ["ioc", "--fixations", fix, "--meta", meta, "--out", str(d / "s.csv"),
                "--cut-drop", str(d / "cuts.csv"), "--annotation", str(d / "ann.json"),
                "--pre-frames", "-3"]
    if name == "coordinate_out_of_frame":
        bad = d / "bad_fixations.csv"
        bad.write_text(Path(fix).read_text() + f"obs00,5,{W + 5}.0,10.0\n")
        return ["ioc", "--fixations", str(bad), "--meta", meta, "--out", str(d / "s.csv")]
    if name == "pairs_nan_cell":
        (d / "pairs.csv").write_text("a,b\n1,2\nnan,3\n3,5\n4,4\n")
        return ["stats", "--pairs", str(d / "pairs.csv"), "--x-col", "a",
                "--y-col", "b", "--out", str(d / "o.json")]
    if name == "scores_nan_value":
        (d / "scores.csv").write_text(
            "clip_id,frame_index,metric,value,motions,angle,size\n"
            "c,0,NSS,1.0,Static,Eye,CU\nc,1,NSS,nan,Static,Eye,CU\n"
            "c,2,NSS,2.0,Pan,Eye,LS\nc,3,NSS,3.0,Pan,Eye,LS\n")
        return ["stats", "--scores", str(d / "scores.csv"), "--metric", "NSS",
                "--partition", "Size", "--out", str(d / "o.json")]
    if name == "report_json_nan":
        (d / "scores.csv").write_text(
            "clip_id,frame_index,metric,value,motions,angle,size\n"
            "c,0,CC,0.5,Static,Eye,CU\nc,1,CC,nan,Static,Eye,CU\n")
        return ["report", "--scores", str(d / "scores.csv"), "--format", "json",
                "--out", str(d / "r.json")]
    if name == "config_value_not_a_number":
        (d / "config.json").write_text(json.dumps({"window": "abc"}))
        return ["ioc", "--fixations", fix, "--meta", meta, "--out", str(d / "s.csv"),
                "--config", str(d / "config.json")]
    if name == "config_window_infinity":
        (d / "config.json").write_text(json.dumps({"window": float("inf")}))
        return ["ioc", "--fixations", fix, "--meta", meta, "--out", str(d / "s.csv"),
                "--config", str(d / "config.json")]
    if name in ("fps_nan", "config_fps_nan"):
        (d / "ann").mkdir()
        make_annotation(d / "ann" / f"{CLIP}.json")
        (d / "config.json").write_text(json.dumps({"fps": float("nan")}))
        fps = {"fps_nan": ["--fps", "nan"], "config_fps_nan": ["--config", str(d / "config.json")]}
        return ["report", "--shot-stats", str(d / "ann"), "--out", str(d / "shots.csv")] + fps[name]
    if name.endswith("_not_json"):
        bad = str(d / "bad.json")
        (d / "bad.json").write_text("{bad")
        return {
            "frames_file_not_json": ["saliency", "--fixations", fix, "--average",
                                     str(d / "a.f32"), "--frames-file", bad],
            "meta_not_json": ["ingest", "--gaze", str(d / "gaze.csv"), "--meta", bad,
                              "--out-dir", str(d / "o")],
            "colmap_not_json": ["ingest", "--gaze", str(d / "gaze.csv"), "--meta", meta,
                                "--colmap", bad, "--out-dir", str(d / "o")],
            "config_not_json": ["ioc", "--fixations", fix, "--meta", meta,
                                "--out", str(d / "s.csv"), "--config", bad],
            "ioc_annotation_not_json": ["ioc", "--fixations", fix, "--meta", meta,
                                        "--out", str(d / "s.csv"),
                                        "--cut-drop", str(d / "cuts.csv"), "--annotation", bad],
            "bench_annotation_not_json": ["bench", "--fixations", fix, "--predictions",
                                          _predictions(d), "--annotation", bad,
                                          "--out", str(d / "s.csv")],
        }[name]
    if name == "per_frame_missing_fixations":
        return ["saliency", "--fixations", str(d / "nonexist.csv"), "--out-dir", str(d / "o"),
                "--frames", "0:3"]
    if name in ("bias_average_nan", "bias_prior_negative"):
        avg, prior = np.ones((4, 3)), np.ones((4, 3))
        if name == "bias_average_nan":
            avg[1, 2] = np.nan
        else:
            prior[0, 0] = -0.5
        write_float_grid(d / "avg.f32", avg)
        write_float_grid(d / "prior.f32", prior)
        return ["report", "--bias", "--average", str(d / "avg.f32"),
                "--prior", str(d / "prior.f32"), "--out", str(d / "bias.json")]
    if name in ("pgm_sidecar_without_scale", "pgm_header_not_a_number"):
        write_map(d / "prior.f32", np.ones((4, 3)))
        write_map(d / "avg.pgm", np.ones((4, 3)))
        if name == "pgm_sidecar_without_scale":
            (d / "avg.pgm.json").write_text("{}")
        else:
            (d / "avg.pgm").write_bytes(b"P5\nabc 4\n65535\n" + bytes(24))
        return ["report", "--bias", "--average", str(d / "avg.pgm"),
                "--prior", str(d / "prior.f32"), "--out", str(d / "bias.json")]
    raise AssertionError(name)


@pytest.mark.parametrize("name", [
    "pairs_missing_column", "colmap_unknown_key", "meta_without_clip_id",
    "frames_not_a_range", "frames_file_is_a_list", "unknown_metric",
    "config_value_not_a_number", "window_longer_than_clip", "sigma_nan",
    "truncation_inf", "frame_out_of_range", "pairs_nan_cell", "scores_nan_value",
    "skip_first_negative", "frames_empty_range", "coordinate_out_of_frame",
    "report_json_nan", "fps_nan", "config_fps_nan", "config_window_infinity",
    "frames_file_unknown_clip", "auc_b_seed_negative", "auc_b_splits_zero",
    "cut_drop_without_annotation", "pre_frames_negative", "pgm_sidecar_without_scale",
    "pgm_header_not_a_number", "frames_file_boolean", "frames_file_negative",
    "per_frame_two_clips", "frames_file_not_json", "meta_not_json", "colmap_not_json",
    "config_not_json", "ioc_annotation_not_json", "bench_annotation_not_json",
    "per_frame_missing_fixations", "bias_average_nan", "bias_prior_negative"])
def test_bad_input_gives_one_error_line(tmp_path, capsys, name):
    make_raw_gaze(tmp_path / "gaze.csv", make_meta(tmp_path / "meta.json"))
    assert main(["ingest", "--gaze", str(tmp_path / "gaze.csv"), "--meta",
                 str(tmp_path / "meta.json"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    argv = _bad_input_argv(name, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: "), err
    if "--frames-file" in argv:
        assert argv[argv.index("--frames-file") + 1] in err[0]
    if name.endswith("_not_json"):
        assert str(tmp_path / "bad.json") in err[0]
    assert not (tmp_path / "s.csv").exists()
    # --average names an output of saliency and an input of report --bias
    outputs = ("--out", "--cut-drop") + (("--average",) if argv[0] == "saliency" else ())
    for flag in outputs:
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1]).exists()
    if "--out-dir" in argv:
        assert not Path(argv[argv.index("--out-dir") + 1]).exists()
