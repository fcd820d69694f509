"""Command-line interface.

Subcommands mirror the pipeline stages:

    cinegaze ingest    raw gaze exports -> per-clip fixation files + report
    cinegaze saliency  fixation files -> blurred maps, averages, center prior
    cinegaze ioc       fixation file -> congruency series, summary, cut drops
    cinegaze bench     prediction maps -> per-frame score table
    cinegaze stats     score tables -> ANOVA / pairwise tests / correlation
    cinegaze report    score tables -> aggregates, dataset means, bias record

A JSON config file (--config) supplies defaults for any flag; explicit
flags win. The resolved configuration is echoed into every report header.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .annotations import (PartitionKind, cuts_of, labels, parse_annotations,
                          shot_stats)
from .bench import (DirectoryPredictions, ReportFormat, aggregate_by_annotation,
                    benchmark_model, bias_report, dataset_means, emit_report,
                    per_clip_means, read_score_rows)
from .core import ClipMeta, SaliencyMap
from .errors import CinegazeError, InputError
from .gridio import read_map, write_map
from .ingest import (ColumnMap, IngestReport, clean_and_bin, filter_observers,
                     fixation_map_for_frame, parse_gaze_samples,
                     read_fixations, write_fixations)
from .ioc import (IocConfig, cut_drop_analysis, loo_window_ioc,
                  sequence_ioc_summary, write_ioc_series)
from .metrics import Metric
from .saliency import average_map, blur_fixations, center_prior, make_kernel
from .stats import one_way_anova, pearson, welch_t_test
from .tables import read_table, write_json, write_table

DEFAULTS = {
    "sigma_px": 45.0,
    "truncation": 3.0,
    "window": 20,
    "skip_first": 10,
    "min_valid_rate": 0.9,
    "min_observers": 2,
    "auc_b_seed": 1,
    "auc_b_splits": 100,
    "ref_width": 640,
    "ref_height": 400,
    "sigma_fraction": 1.0 / 6.0,
    "pre_frames": 5,
    "post_frames": 5,
    "fps": 24.0,
}


def _resolve(args, config: dict, key: str):
    """A setting from its flag, else the config file, else DEFAULTS; it is
    converted to the type of its default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, DEFAULTS[key])
    kind = type(DEFAULTS[key])
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InputError(f"{key} must be {kind.__name__}, got {value!r}") from None


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise InputError(f"{args.config}: a config file is a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return loaded
    return {}


def _load_frames_file(path) -> dict:
    """--frames-file: a JSON object mapping clip ids to lists of frame indices."""
    with open(path) as f:
        doc = json.load(f)
    if not (isinstance(doc, dict) and all(
            isinstance(frames, list) and all(isinstance(v, int) for v in frames)
            for frames in doc.values())):
        raise InputError(f"{path}: expected a JSON object of clip_id -> [frame, ...]")
    return {clip: set(frames) for clip, frames in doc.items()}


def _load_meta(path) -> ClipMeta:
    with open(path) as f:
        return ClipMeta.from_dict(json.load(f))


def cmd_ingest(args):
    config = _load_config(args)
    min_rate = _resolve(args, config, "min_valid_rate")
    meta = _load_meta(args.meta)
    colmap = ColumnMap.from_json(args.colmap) if args.colmap else ColumnMap()
    report = IngestReport()
    with open(args.gaze) as f:
        records, report = parse_gaze_samples(f, colmap, report)
    records = [r for r in records if r.clip_id == meta.clip_id]
    kept, rejected = filter_observers(records, min_rate)
    report.add("observers_rejected", len(rejected))
    cleaned = clean_and_bin(kept, meta, report)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fix_path = out_dir / f"{meta.clip_id}_fixations.csv"
    write_fixations(cleaned, fix_path)
    write_json(out_dir / f"{meta.clip_id}_ingest_report.json", report.to_dict())
    print(f"{meta.clip_id}: {len(kept)} observers kept, {len(rejected)} rejected, "
          f"{cleaned.n_points()} fixation points -> {fix_path}")
    return 0


def cmd_saliency(args):
    config = _load_config(args)
    sigma = _resolve(args, config, "sigma_px")
    truncation = _resolve(args, config, "truncation")

    if args.center_prior:
        if not (args.width and args.height):
            raise InputError("--center-prior requires --width and --height")
        fraction = _resolve(args, config, "sigma_fraction")
        prior = center_prior(args.width, args.height, fraction)
        write_map(args.center_prior, prior.values)
        print(f"center prior {args.width}x{args.height} -> {args.center_prior}")
        return 0

    if not args.fixations:
        raise InputError("saliency needs --fixations (or --center-prior)")
    kernel = make_kernel(sigma, truncation)

    if args.average:
        skip = _resolve(args, config, "skip_first")
        ref_w = _resolve(args, config, "ref_width")
        ref_h = _resolve(args, config, "ref_height")
        if skip < 0:
            raise InputError(f"skip_first must be >= 0, got {skip}")
        frame_filter = _load_frames_file(args.frames_file) if args.frames_file else None

        def selected_maps(cleaned):
            """The clip's wanted non-empty frames from ``skip`` on, streamed."""
            wanted = frame_filter.get(cleaned.clip_id) if frame_filter else None
            return (fixation_map_for_frame(cleaned, f)
                    for f in range(skip, cleaned.frame_count)
                    if (wanted is None or f in wanted) and cleaned.frame_points(f))

        average = average_map((selected_maps(read_fixations(path))
                               for path in args.fixations), kernel, ref_w, ref_h)
        write_map(args.average, average.values)
        print(f"average map -> {args.average}")
        return 0

    if not args.out_dir:
        raise InputError("per-frame saliency needs --out-dir")
    lo, hi = 0, sys.maxsize  # every frame unless --frames narrows the range
    if args.frames:
        try:
            lo, hi = (int(v) for v in args.frames.split(":"))
        except ValueError:
            raise InputError(f"--frames expects lo:hi, got {args.frames!r}") from None
        if lo >= hi:
            raise InputError(f"--frames {args.frames}: the range lo:hi is empty")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = args.format
    written = 0
    for path in args.fixations:
        cleaned = read_fixations(path)
        for f in range(lo, min(hi, cleaned.frame_count)):
            if not cleaned.frame_points(f) and not args.frames:
                continue
            blurred = blur_fixations(fixation_map_for_frame(cleaned, f), kernel)
            write_map(out_dir / f"{f:06d}.{suffix}", blurred.values)
            written += 1
    print(f"{written} saliency maps -> {out_dir}")
    return 0


def cmd_ioc(args):
    config = _load_config(args)
    cfg = IocConfig(
        n=_resolve(args, config, "window"),
        sigma_px=_resolve(args, config, "sigma_px"),
        min_observers=_resolve(args, config, "min_observers"),
        truncation=_resolve(args, config, "truncation"),
    )
    meta = _load_meta(args.meta)
    cleaned = read_fixations(args.fixations)
    series = loo_window_ioc(cleaned, meta, cfg)
    echo = {"window": cfg.n, "sigma_px": cfg.sigma_px,
            "truncation": cfg.truncation, "min_observers": cfg.min_observers}
    write_ioc_series(series, args.out, meta=echo)
    print(f"{series.clip_id}: {len(series.values)} windows -> {args.out}")
    if args.summary:
        s = sequence_ioc_summary(series)
        write_json(args.summary, {"clip_id": series.clip_id, "n": series.n, "mean": s.mean,
                                  "median": s.median, "std": s.std, "count": s.count})
        print(f"summary mean={s.mean:.4f} -> {args.summary}")
    if args.cut_drop:
        if not args.annotation:
            raise InputError("--cut-drop needs --annotation for the cut list")
        ann = parse_annotations(Path(args.annotation).read_text())
        records = cut_drop_analysis(
            series, cuts_of(ann),
            pre_frames=_resolve(args, config, "pre_frames"),
            post_frames=_resolve(args, config, "post_frames"))
        write_table(args.cut_drop, ["cut", "pre_mean", "post_mean", "drop", "overlaps_context"],
                    [(r.cut, r.pre_mean, r.post_mean, r.drop, int(r.overlaps_context))
                     for r in records])
        print(f"{len(records)} cuts -> {args.cut_drop}")
    return 0


def cmd_bench(args):
    config = _load_config(args)
    sigma = _resolve(args, config, "sigma_px")
    seed = _resolve(args, config, "auc_b_seed")
    splits = _resolve(args, config, "auc_b_splits")
    kernel = make_kernel(sigma, _resolve(args, config, "truncation"))
    cleaned = read_fixations(args.fixations)
    annotation = None
    if args.annotation:
        annotation = parse_annotations(Path(args.annotation).read_text())
    known = [m.value for m in Metric]
    metric_set = [m.strip() for m in args.metrics.split(",")] if args.metrics else known
    if not set(metric_set) <= set(known):
        raise InputError(f"--metrics {args.metrics!r}: choose from {', '.join(known)}")
    result = benchmark_model(
        DirectoryPredictions(args.predictions), cleaned, kernel,
        annotation=annotation, metric_set=metric_set,
        aucb_seed=seed, aucb_splits=splits)
    echo = {"sigma_px": sigma, "auc_b_splits": splits,
            "metrics": ",".join(metric_set),
            "predictions": Path(args.predictions).name}
    emit_report(result.rows, args.out, meta=echo, aucb_seed=seed)
    print(f"{len(result.rows)} scores, {len(result.errors)} frame errors -> {args.out}")
    if args.errors_out and result.errors:
        write_table(args.errors_out, ["frame_index", "reason"], result.errors)
    return 0


def cmd_stats(args):
    config = _load_config(args)
    if args.pairs:
        if not (args.x_col and args.y_col):
            raise InputError("--pairs needs --x-col and --y-col")
        _, rows = read_table(args.pairs, {args.x_col: float, args.y_col: float}, subset=True)
        # one cell per row when both flags name the same column
        xs, ys = [row[0] for row in rows], [row[-1] for row in rows]
        r, p = pearson(xs, ys)
        out = {"test": "pearson", "x": args.x_col, "y": args.y_col,
               "n": len(xs), "r": r, "p": p}
    else:
        if not (args.scores and args.metric and args.partition):
            raise InputError("stats needs --scores/--metric/--partition or --pairs")
        rows = read_score_rows(args.scores)
        kind = PartitionKind(args.partition)
        groups: dict = {}
        for row in rows:
            if row.metric != args.metric:
                continue
            for label in labels(kind, row.motions, row.angle, row.size):
                groups.setdefault(label, []).append(row.value)
        usable = {k: v for k, v in sorted(groups.items()) if len(v) >= 2}
        if len(usable) < 2:
            raise InputError("fewer than two usable groups for ANOVA")
        res = one_way_anova(list(usable.values()), names=list(usable))
        pairwise = {}
        names = list(usable)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                t, p = welch_t_test(usable[a], usable[b])
                pairwise[f"{a}|{b}"] = {"t": t, "p": p}
        out = {"test": "one_way_anova", "metric": args.metric,
               "partition": kind.value, "f": res.f, "p": res.p,
               "df_between": res.df_between, "df_within": res.df_within,
               "group_sizes": dict(zip(res.group_names, res.group_sizes)),
               "pairwise_welch": pairwise}
    write_json(args.out, out)
    print(f"stats -> {args.out}")
    return 0


def cmd_report(args):
    config = _load_config(args)
    fmt = ReportFormat(args.format)
    if args.bias:
        avg = SaliencyMap(read_map(args.average))
        prior = SaliencyMap(read_map(args.prior))
        record = bias_report(avg, prior)
        write_json(args.out, {"cc_with_prior": record.cc_with_prior,
                              "peak_offset_px": list(record.peak_offset_px)})
    elif args.shot_stats:
        fps = _resolve(args, config, "fps")
        stats_rows = []
        for path in sorted(Path(args.shot_stats).glob("*.json")):
            ann = parse_annotations(path.read_text())
            stats_rows.append(shot_stats(ann, fps))
        if not stats_rows:
            raise InputError(f"no annotation documents under {args.shot_stats}")
        write_table(args.out, ["clip_id", "sequence_length_s", "longest_s", "shortest_s",
                               "average_s"],
                    [(s.clip_id, s.sequence_length_s, s.longest_s, s.shortest_s, s.average_s)
                     for s in sorted(stats_rows, key=lambda s: s.average_s)])
    else:
        if not args.scores:
            raise InputError("report needs --scores, --bias or --shot-stats")
        rows = read_score_rows(args.scores)
        seed = _resolve(args, config, "auc_b_seed")
        if args.partition:
            data = aggregate_by_annotation(rows, PartitionKind(args.partition))
            echo = {"aggregate": args.partition}
        elif args.per_clip:
            data = per_clip_means(rows)
            echo = {"aggregate": "per_clip"}
        else:
            data = {"all": dataset_means(rows)}
            echo = {"aggregate": "dataset_means"}
        emit_report(data, args.out, fmt=fmt, meta=echo, aucb_seed=seed)
    print(f"report -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cinegaze",
        description="Eye-tracking analytics for film clips")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and clean raw gaze exports")
    p.add_argument("--gaze", required=True, help="raw gaze samples (delimited text)")
    p.add_argument("--meta", required=True, help="clip metadata JSON")
    p.add_argument("--colmap", help="column mapping descriptor JSON")
    p.add_argument("--min-valid-rate", type=float, dest="min_valid_rate")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("saliency", help="blur fixations into saliency maps")
    p.add_argument("--fixations", action="append", help="fixation file (repeatable)")
    p.add_argument("--out-dir", help="write one map per frame here")
    p.add_argument("--format", choices=("f32", "pgm"), default="f32")
    p.add_argument("--frames", help="frame range lo:hi for per-frame output")
    p.add_argument("--average", help="write the cross-clip average map here")
    p.add_argument("--frames-file", help="JSON {clip_id: [frames]} filter for --average")
    p.add_argument("--center-prior", help="write a centered Gaussian baseline here")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--sigma-px", type=float, dest="sigma_px")
    p.add_argument("--truncation", type=float)
    p.add_argument("--skip-first", type=int, dest="skip_first")
    p.add_argument("--ref-width", type=int, dest="ref_width")
    p.add_argument("--ref-height", type=int, dest="ref_height")
    p.add_argument("--sigma-fraction", type=float, dest="sigma_fraction")
    p.add_argument("--config")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("ioc", help="leave-one-out congruency series")
    p.add_argument("--fixations", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, help="window size in frames (5 or 20)")
    p.add_argument("--sigma-px", type=float, dest="sigma_px")
    p.add_argument("--truncation", type=float)
    p.add_argument("--min-observers", type=int, dest="min_observers")
    p.add_argument("--summary", help="write a summary JSON here")
    p.add_argument("--cut-drop", dest="cut_drop", help="write per-cut drops here")
    p.add_argument("--annotation", help="annotation JSON (for --cut-drop)")
    p.add_argument("--pre-frames", type=int, dest="pre_frames")
    p.add_argument("--post-frames", type=int, dest="post_frames")
    p.add_argument("--config")
    p.set_defaults(func=cmd_ioc)

    p = sub.add_parser("bench", help="score prediction maps against ground truth")
    p.add_argument("--fixations", required=True)
    p.add_argument("--predictions", required=True, help="directory of per-frame maps")
    p.add_argument("--out", required=True)
    p.add_argument("--annotation")
    p.add_argument("--metrics", help="comma-separated subset of CC,SIM,AUC_J,AUC_B,NSS,KLD")
    p.add_argument("--sigma-px", type=float, dest="sigma_px")
    p.add_argument("--truncation", type=float)
    p.add_argument("--auc-b-seed", type=int, dest="auc_b_seed")
    p.add_argument("--auc-b-splits", type=int, dest="auc_b_splits")
    p.add_argument("--errors-out", dest="errors_out")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="significance tests over score tables")
    p.add_argument("--scores", help="score table from bench")
    p.add_argument("--metric", help="metric column to test, e.g. NSS")
    p.add_argument("--partition", choices=[k.value for k in PartitionKind])
    p.add_argument("--pairs", help="CSV of paired series for --pearson style test")
    p.add_argument("--x-col", dest="x_col")
    p.add_argument("--y-col", dest="y_col")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="aggregate tables and bias records")
    p.add_argument("--scores")
    p.add_argument("--partition", choices=[k.value for k in PartitionKind])
    p.add_argument("--per-clip", action="store_true", dest="per_clip")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--average", help="average map file (for --bias)")
    p.add_argument("--prior", help="center prior map file (for --bias)")
    p.add_argument("--shot-stats", dest="shot_stats",
                   help="directory of annotation JSONs for a shot length table")
    p.add_argument("--fps", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--auc-b-seed", type=int, dest="auc_b_seed")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CinegazeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
