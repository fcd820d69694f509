"""Seeded input generators and CLI chains for the three benchmark workloads.

Every input is synthetic and derived from ``cinegaze.fixtures``: a
scanpath fixture gives one attention point per observer per frame, and
the generators here turn it into what a user hands the CLI: raw gaze
exports with planted noise, clip metadata, annotation documents,
fixation files and per-frame prediction maps. The same seed gives the
same bytes.

Each workload's ``generate`` writes its inputs under a directory and
returns a manifest: the facts the output checks need (planted drop
counts, expected point counts, geometry) plus the input sizes that the
benchmark prints. ``chain`` turns a manifest into the list of CLI argument
vectors one run executes, in order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cinegaze.core import ClipMeta, frame_to_display, letterboxed_area
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.gridio import write_map
from cinegaze.ingest import write_fixations

DISPLAY_W, DISPLAY_H = 1920, 1200
FPS = 24.0
SIGMA_PX = 45.0
AUCB_SEED = 1

#: share of a kept observer's export rows turned into each kind of noise;
#: the counts are exact (rounded shares), only their placement is random
NOISE_SHARE = {"malformed_row": 0.01, "non_fixation_event": 0.06,
               "invalid_sample": 0.03, "outside_active_area": 0.03}
#: share of invalid samples planted on the one observer ingest must reject
REJECTED_INVALID_SHARE = 0.25

HEADER = "observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event\n"

# shot labels cycled over a clip's shots; every partition gets >= 2 labels
_SHOT_LABELS = [
    (["Static"], "Eye", "MS"),
    (["Pan", "Track"], "High", "LS"),
    (["Handheld"], "Low", "CU"),
    (["Zoom"], "Eye", "CU"),
    (["Dolly"], "Low", "MS"),
    (["Static"], "High", "LS"),
]


def _meta(clip_id, frames, width, height):
    return {"clip_id": clip_id, "frame_count": frames,
            "frame_width_px": width, "frame_height_px": height, "fps": FPS,
            "display_width_px": DISPLAY_W, "display_height_px": DISPLAY_H,
            "px_per_degree": 45.0}


def cuts(frames, shots):
    """Cut frames splitting a clip into ``shots`` near-equal shots."""
    return tuple(frames * i // shots for i in range(1, shots))


def _annotation(clip_id, frames, width, height, cut_frames):
    bounds = [0, *cut_frames, frames]
    shots = []
    for i in range(len(bounds) - 1):
        motions, angle, size = _SHOT_LABELS[i % len(_SHOT_LABELS)]
        shots.append({"start": bounds[i], "end": bounds[i + 1],
                      "motions": motions, "angle": angle, "size": size})
    return {"schema_version": 1, "clip_id": clip_id, "frame_count": frames,
            "frame_width": width, "frame_height": height, "shots": shots}


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _scanpaths(seed, clip_id, observers, frames, width, height, cut_frames):
    """Fixture scanpaths with plain float coordinates.

    ``generate_scanpaths`` yields numpy scalars, which ``write_fixations``
    would serialize as ``np.float64(...)`` and ``read_fixations`` rejects;
    ingest itself produces plain floats, so convert to match it.
    """
    fix = generate_scanpaths(ScanpathFixture(
        seed=seed, n_observers=observers, frame_count=frames, width=width,
        height=height, congruency=0.7, cluster_sigma=60.0, cut_frames=cut_frames,
        reconvergence_lag=3, clip_id=clip_id))
    for frames_of in fix.by_observer.values():
        for f, pts in frames_of.items():
            frames_of[f] = [(float(x), float(y)) for x, y in pts]
    return fix


def _noise_labels(rng, rows, shares):
    """Exact per-kind counts, shuffled over the rows; '' marks a clean row."""
    labels = np.full(rows, "", dtype=object)
    start = 0
    for kind, share in shares.items():
        k = int(round(share * rows))
        labels[start:start + k] = kind
        start += k
    return labels[rng.permutation(rows)]


def _malformed(obs, clip, t, i):
    """Four kinds of unparseable row, cycled."""
    kind = i % 4
    if kind == 0:
        return f"{obs},{clip},{t:.1f},960.00\n"                      # too few fields
    if kind == 1:
        return f"{obs},{clip},{t:.1f},nan,600.00,1,Fixation\n"       # non-finite x
    if kind == 2:
        return f"{obs},{clip},{t:.1f},960.00,600.00,maybe,Fixation\n"  # bad validity
    return f"{obs},{clip},-{t + 1:.1f},960.00,600.00,1,Fixation\n"   # negative time


def write_export(path, seed, meta, observers, rate_hz, jitter_px, cut_frames):
    """Raw gaze export for one clip, with noise planted at known counts.

    ``observers`` ids are exported; the last one gets enough invalid
    samples to be rejected. Returns (planted report counts, clean points,
    data rows): the first two are exactly what ``cinegaze ingest`` must
    report and keep.
    """
    clip, frames = meta["clip_id"], meta["frame_count"]
    width, height = meta["frame_width_px"], meta["frame_height_px"]
    clip_meta = ClipMeta.from_dict(meta)
    area = letterboxed_area(width, height, DISPLAY_W, DISPLAY_H)
    fix = _scanpaths(seed, clip, len(observers), frames, width, height, cut_frames)
    rng = np.random.default_rng([seed, 7])
    duration_ms = frames * 1000.0 / FPS
    if rate_hz is None:  # downsampled: one sample mid-frame
        times = (np.arange(frames) + 0.5) * (1000.0 / FPS)
    else:
        times = np.arange(0.0, duration_ms, 1000.0 / rate_hz)
    sample_frames = np.floor(times * FPS / 1000.0).astype(int)
    rows = times.size
    planted = {kind: 0 for kind in NOISE_SHARE}
    planted["observers_rejected"] = 1
    clean_points = 0
    out = [HEADER]
    for oi, obs in enumerate(observers):
        src = fix.by_observer[f"obs{oi:02d}"]
        base = np.array([src[f][0] for f in sample_frames])
        fx = np.clip(base[:, 0] + rng.normal(0.0, jitter_px, rows), 0.5, width - 1.5)
        fy = np.clip(base[:, 1] + rng.normal(0.0, jitter_px, rows), 0.5, height - 1.5)
        rejected = oi == len(observers) - 1
        if rejected:
            labels = _noise_labels(rng, rows, {"invalid_sample": REJECTED_INVALID_SHARE})
        else:
            labels = _noise_labels(rng, rows, NOISE_SHARE)
        bar = rng.uniform(0.0, 1.0, rows)
        for i in range(rows):
            t = float(times[i])
            label = labels[i]
            if label == "malformed_row":
                out.append(_malformed(obs, clip, t, i))
                planted["malformed_row"] += 1
                continue
            x, y = frame_to_display(float(fx[i]), float(fy[i]), clip_meta)
            valid, event = 1, "Fixation"
            if label == "non_fixation_event":
                event = "Saccade"
            elif label == "invalid_sample":
                valid, x, y = 0, -1.0, -1.0
            elif label == "outside_active_area":
                if area.y > 0:  # letterbox bars above and below
                    y = bar[i] * area.y if i % 2 else area.y + area.h + bar[i] * area.y
                else:           # pillarbox bars left and right
                    x = bar[i] * area.x if i % 2 else area.x + area.w + bar[i] * area.x
            if not rejected:
                if label:
                    planted[label] += 1
                else:
                    clean_points += 1
            out.append(f"{obs},{clip},{t:.1f},{x:.2f},{y:.2f},{valid},{event}\n")
    Path(path).write_text("".join(out))
    return planted, clean_points, len(out) - 1


def _export_clip(root, seed, clip_id, frames, width, height, observers, rate_hz, jitter,
                 shots=3):
    meta = _meta(clip_id, frames, width, height)
    _write_json(root / f"{clip_id}.meta.json", meta)
    ids = [f"P{i + 1:02d}" for i in range(observers)]
    cut_frames = cuts(frames, shots)
    planted, points, rows = write_export(root / f"{clip_id}.gaze.csv", seed, meta,
                                         ids, rate_hz, jitter, cut_frames)
    return {"clip_id": clip_id, "frames": frames, "width": width, "height": height,
            "observers": observers, "cuts": list(cut_frames), "planted": planted,
            "points": points, "rows": rows}


# --------------------------------------------------------------- workloads

DENSE = {"frames": 40, "observers": 15, "rate_hz": 250.0, "jitter_px": 4.0, "shots": 3}


def generate_congruency_dense(seed, root: Path) -> dict:
    d = DENSE
    clip = _export_clip(root, seed, "dense_clip", d["frames"], 1920, 800,
                        d["observers"], d["rate_hz"], d["jitter_px"], d["shots"])
    _write_json(root / "dense_clip.ann.json",
                _annotation("dense_clip", d["frames"], 1920, 800, clip["cuts"]))
    return {"clips": [clip],
            "sizes": {"frames": d["frames"], "frame": "1920x800",
                      "display": f"{DISPLAY_W}x{DISPLAY_H}",
                      "observers_exported": d["observers"],
                      "sample_rate_hz": d["rate_hz"], "jitter_px": d["jitter_px"],
                      "export_rows": clip["rows"], "shots": d["shots"]}}


def chain_congruency_dense(inp: Path, out: Path) -> list:
    fix = out / "dense_clip_fixations.csv"
    meta = inp / "dense_clip.meta.json"
    return [
        ["ingest", "--gaze", str(inp / "dense_clip.gaze.csv"), "--meta", str(meta),
         "--out-dir", str(out)],
        ["ioc", "--fixations", str(fix), "--meta", str(meta), "--window", "20",
         "--out", str(out / "ioc20.csv"), "--summary", str(out / "ioc20.json"),
         "--cut-drop", str(out / "cuts.csv"),
         "--annotation", str(inp / "dense_clip.ann.json")],
        ["ioc", "--fixations", str(fix), "--meta", str(meta), "--window", "5",
         "--out", str(out / "ioc5.csv")],
    ]


BENCH = {"frames": 72, "observers": 14, "shots": 6, "native": (480, 200)}


def _prediction(rng, points, width, height, native):
    """A plausible model output at native resolution: center bias plus a
    blob near (not on) the observers' mean gaze, over a small noise floor."""
    nw, nh = native
    xs = np.arange(nw, dtype=float)[None, :]
    ys = np.arange(nh, dtype=float)[:, None]
    mx, my = np.mean(points, axis=0)
    bx = mx * nw / width + rng.normal(0.0, 0.04 * nw)
    by = my * nh / height + rng.normal(0.0, 0.04 * nh)
    s = 0.06 * nw
    blob = np.exp(-((xs - bx) ** 2 + (ys - by) ** 2) / (2 * s * s))
    center = np.exp(-((xs - nw / 2) ** 2 + (ys - nh / 2) ** 2) / (2 * (nh / 3) ** 2))
    return blob + 0.5 * center + 0.02 * rng.random((nh, nw))


def generate_model_bench(seed, root: Path) -> dict:
    b = BENCH
    frames = b["frames"]
    cut_frames = cuts(frames, b["shots"])
    fix = _scanpaths(seed, "bench_clip", b["observers"], frames, 1920, 800, cut_frames)
    write_fixations(fix, root / "bench_clip_fixations.csv")
    _write_json(root / "bench_clip.ann.json",
                _annotation("bench_clip", frames, 1920, 800, cut_frames))
    preds = root / "model_preds"
    preds.mkdir()
    rng = np.random.default_rng([seed, 11])
    for f in range(frames):
        grid = _prediction(rng, fix.frame_points(f), 1920, 800, b["native"])
        write_map(preds / f"{f:06d}.{'pgm' if f % 3 == 0 else 'f32'}", grid)
    return {"clips": [{"clip_id": "bench_clip", "frames": frames,
                       "width": 1920, "height": 800}],
            "sizes": {"frames": frames, "frame": "1920x800",
                      "observers": b["observers"], "shots": b["shots"],
                      "prediction": "%dx%d" % b["native"],
                      "prediction_files": "one per frame, every third .pgm, others .f32"}}


def chain_model_bench(inp: Path, out: Path) -> list:
    scores = str(out / "scores.csv")
    chain = [["bench", "--fixations", str(inp / "bench_clip_fixations.csv"),
              "--predictions", str(inp / "model_preds"),
              "--annotation", str(inp / "bench_clip.ann.json"),
              "--metrics", "CC,SIM,AUC_J,AUC_B,NSS,KLD", "--auc-b-seed", str(AUCB_SEED),
              "--out", scores]]
    for kind in ("Motion", "Angle", "Size"):
        chain.append(["report", "--scores", scores, "--partition", kind,
                      "--out", str(out / f"by_{kind.lower()}.csv")])
    chain.append(["report", "--scores", scores, "--out", str(out / "means.csv")])
    chain.append(["stats", "--scores", scores, "--metric", "NSS", "--partition", "Size",
                  "--out", str(out / "anova.json")])
    return chain


#: (clip id, frame width, frame height): letterboxed 2.39:1 and 16:9 and a
#: pillarboxed 4:3 clip on the same 16:10 display
PREP_CLIPS = [("prep_scope", 1920, 800), ("prep_wide", 1920, 1080),
              ("prep_academy", 1440, 1080)]
#: the average map runs over every ``average_step``-th frame (a --frames-file),
#: which keeps saliency near half of the run instead of ~70%; the per-frame
#: maps are few and 16-bit because every run writes them anew and more
#: bytes per run outpace the disk's writeback, stalling the runs after
PREP = {"frames": 300, "observers": 15, "maps": (0, 12), "average_step": 3}


def generate_dataset_prep(seed, root: Path) -> dict:
    p = PREP
    clips = [_export_clip(root, seed + 101 * i, cid, p["frames"], w, h,
                          p["observers"], None, 2.0)
             for i, (cid, w, h) in enumerate(PREP_CLIPS)]
    _write_json(root / "average_frames.json",
                {cid: list(range(0, p["frames"], p["average_step"]))
                 for cid, _, _ in PREP_CLIPS})
    return {"clips": clips, "maps": list(p["maps"]),
            "sizes": {"clips": len(clips),
                      "frames_per_clip": p["frames"],
                      "frames": ", ".join(f"{w}x{h}" for _, w, h in PREP_CLIPS),
                      "observers_exported": p["observers"],
                      "samples_per_observer_per_frame": 1,
                      "export_rows": sum(c["rows"] for c in clips),
                      "average_every_nth_frame": p["average_step"],
                      "pgm_maps_written": p["maps"][1] - p["maps"][0]}}


def chain_dataset_prep(inp: Path, out: Path) -> list:
    fix = out / "fix"
    chain = [["ingest", "--gaze", str(inp / f"{cid}.gaze.csv"),
              "--meta", str(inp / f"{cid}.meta.json"), "--out-dir", str(fix)]
             for cid, _, _ in PREP_CLIPS]
    avg = ["saliency"]
    for cid, _, _ in PREP_CLIPS:
        avg += ["--fixations", str(fix / f"{cid}_fixations.csv")]
    chain.append(avg + ["--average", str(out / "average.f32"),
                        "--frames-file", str(inp / "average_frames.json"),
                        "--ref-width", "640", "--ref-height", "400"])
    chain.append(["saliency", "--center-prior", str(out / "prior.f32"),
                  "--width", "640", "--height", "400"])
    chain.append(["report", "--bias", "--average", str(out / "average.f32"),
                  "--prior", str(out / "prior.f32"), "--out", str(out / "bias.json")])
    lo, hi = PREP["maps"]
    cid = PREP_CLIPS[0][0]
    chain.append(["saliency", "--fixations", str(fix / f"{cid}_fixations.csv"),
                  "--out-dir", str(out / "maps"), "--format", "pgm",
                  "--frames", f"{lo}:{hi}"])
    for cid, _, _ in PREP_CLIPS:
        chain.append(["ioc", "--fixations", str(fix / f"{cid}_fixations.csv"),
                      "--meta", str(inp / f"{cid}.meta.json"), "--window", "20",
                      "--out", str(out / f"ioc_{cid}.csv")])
    return chain


WORKLOADS = {
    "congruency_dense": (generate_congruency_dense, chain_congruency_dense),
    "model_bench": (generate_model_bench, chain_model_bench),
    "dataset_prep": (generate_dataset_prep, chain_dataset_prep),
}
