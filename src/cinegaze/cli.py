"""Command-line interface.

Subcommands mirror the pipeline stages:

    cinegaze ingest    raw gaze exports -> per-clip fixation files + report
    cinegaze saliency  fixation files -> blurred maps, averages, center prior
    cinegaze ioc       fixation file -> congruency series, summary, cut drops
    cinegaze bench     prediction maps -> per-frame score table
    cinegaze stats     score tables -> ANOVA / pairwise tests / correlation
    cinegaze report    score tables -> aggregates, dataset means, bias record

Every setting is declared once, in DEFAULTS, with its default and its
bounds; a subcommand takes each of its settings as a ``--key-name`` flag,
typed like the default. A setting is its flag, else its key in the JSON
``--config`` file, else its default; a float must be finite, an int
integral, and either must meet its bounds. Every setting is checked
before a subcommand runs, so a bad one writes no output. Score tables,
aggregates and IOC series echo settings into their header lines.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path

from .annotations import PartitionKind, cuts_of, labels, read_annotation, shot_stats
from .bench import (METRIC_ORDER, DirectoryPredictions, ReportFormat,
                    aggregate_by_annotation, benchmark_model, bias_report, dataset_means,
                    emit_report, group_scores, per_clip_means, read_score_rows)
from .core import ClipMeta
from .errors import CinegazeError, InputError
from .gridio import read_map, write_map
from .ingest import (ColumnMap, fixation_map_for_frame, ingest_clip, read_fixations,
                     write_fixations)
from .ioc import (IocConfig, cut_drop_analysis, loo_window_ioc,
                  sequence_ioc_summary, series_header, write_ioc_series)
from .saliency import average_map, blur_fixations, center_prior, make_kernel
from .stats import one_way_anova, pearson, welch_t_test
from .tables import (optional_float, provenance, read_json, read_meta, read_table,
                     write_json, write_table)

#: output table columns and the converters that read their cells back
CUT_DROP_COLUMNS = {"cut": int, "pre_mean": optional_float, "post_mean": optional_float,
                    "drop": optional_float, "overlaps_context": int}
SHOT_STATS_COLUMNS = {"clip_id": str, "sequence_length_s": float, "longest_s": float,
                      "shortest_s": float, "average_s": float}

#: setting -> (default, *bounds); a bound is (comparison, limit)
DEFAULTS = {
    "sigma_px": (45.0, (">", 0)),
    "truncation": (3.0, (">", 0)),
    "window": (20, (">=", 1)),
    "skip_first": (10, (">=", 0)),
    "min_valid_rate": (0.9, (">=", 0), ("<=", 1)),
    "min_observers": (2, (">=", 2)),
    "auc_b_seed": (1, (">=", 0)),
    "auc_b_splits": (100, (">=", 1)),
    "ref_width": (640, (">=", 1)),
    "ref_height": (400, (">=", 1)),
    "sigma_fraction": (1.0 / 6.0, (">", 0)),
    "pre_frames": (5, (">=", 1)),
    "post_frames": (5, (">=", 1)),
    "fps": (24.0, (">", 0)),
}
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _settings(p: argparse.ArgumentParser, command, *keys: str) -> None:
    """Declare ``--config`` and each DEFAULTS key as ``--key-name``, typed
    like its default; ``main`` resolves them, then runs ``command``."""
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=type(DEFAULTS[key][0]))
    p.add_argument("--config")
    p.set_defaults(func=command, settings=keys)


def _typed(key: str, value):
    """``value`` as the type of ``key``'s default: a finite float, or an int
    from an integral number or text; a bool is neither. It must meet the
    key's bounds."""
    default, *bounds = DEFAULTS[key]
    kind = type(default)
    try:
        typed = kind(value)
        valid = not isinstance(value, bool) and (
            math.isfinite(typed) if kind is float
            else not isinstance(value, float) or typed == value)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        wanted = "a finite float" if kind is float else "an integer"
        raise InputError(f"{key} must be {wanted}, got {value!r}")
    if not all(_COMPARISONS[op](typed, limit) for op, limit in bounds):
        wanted = " and ".join(f"{op} {limit}" for op, limit in bounds)
        raise InputError(f"{key} must be {wanted}, got {value!r}")
    return typed


def _resolve_settings(args) -> None:
    """Set each declared setting on ``args``: its flag, else the config file,
    else DEFAULTS."""
    config = {}
    if args.config:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise InputError(f"{args.config}: a config file is a JSON object")
        unknown = set(config) - set(DEFAULTS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
    for key in args.settings:
        flag = getattr(args, key)
        setattr(args, key, _typed(key, config.get(key, DEFAULTS[key][0]) if flag is None else flag))


def _load_frames_file(path) -> dict:
    """--frames-file: a JSON object mapping clip ids to lists of frame indices."""
    doc = read_json(path)
    if not (isinstance(doc, dict) and all(isinstance(frames, list) for frames in doc.values())):
        raise InputError(f"{path}: expected a JSON object of clip_id -> [frame, ...]")
    for clip, frames in doc.items():
        # bool is an int: `true` would select frame 1
        bad = [v for v in frames if isinstance(v, bool) or not isinstance(v, int) or v < 0]
        if bad:
            raise InputError(f"{path}: clip {clip!r} has frames that are not "
                             f"non-negative integers: {json.dumps(bad)}")
    return {clip: set(frames) for clip, frames in doc.items()}


def _stamp(header: dict) -> dict:
    """What a JSON output records of a ``tables.provenance`` header: its
    ``tool_version`` and ``config_hash``."""
    return {key: header[key] for key in ("tool_version", "config_hash")}


def _of_clip(path, clip: tuple, cleaned, fixations_path) -> None:
    """InputError naming both files unless ``clip``, the (clip id, frame
    count, frame width, frame height) that the file ``path`` describes, is
    the clip of the fixation file."""
    theirs = (cleaned.clip_id, cleaned.frame_count, cleaned.width, cleaned.height)
    if clip != theirs:
        text = "clip {!r}, {} frames of {}x{}"
        raise InputError(f"{path} describes {text.format(*clip)}, but {fixations_path} "
                         f"holds {text.format(*theirs)}")


def _annotation_of(path, cleaned, fixations_path):
    """The annotation document at ``path``, which must describe the clip of
    the fixation file (``_of_clip``)."""
    ann = read_annotation(path)
    _of_clip(path, (ann.clip_id, ann.frame_count, ann.frame_width, ann.frame_height),
             cleaned, fixations_path)
    return ann


def cmd_ingest(args):
    meta = ClipMeta.from_dict(read_json(args.meta))
    colmap = ColumnMap.from_json(args.colmap) if args.colmap else ColumnMap()
    cleaned, report = ingest_clip(args.gaze, meta, colmap, args.min_valid_rate)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fix_path = out_dir / f"{meta.clip_id}_fixations.csv"
    write_fixations(cleaned, fix_path)
    write_json(out_dir / f"{meta.clip_id}_ingest_report.json", report.to_dict())
    print(f"{meta.clip_id}: {len(cleaned.by_observer)} observers kept, "
          f"{report.counts['observers_rejected']} rejected, "
          f"{cleaned.n_points()} fixation points -> {fix_path}")
    return 0


def cmd_saliency(args):
    if args.center_prior:
        if not (args.width and args.height):
            raise InputError("--center-prior requires --width and --height")
        prior = center_prior(args.width, args.height, args.sigma_fraction)
        write_map(args.center_prior, prior.values)
        print(f"center prior {args.width}x{args.height} -> {args.center_prior}")
        return 0

    if not args.fixations:
        raise InputError("saliency needs --fixations (or --center-prior)")
    kernel = make_kernel(args.sigma_px, args.truncation)

    if args.average:
        frame_filter = _load_frames_file(args.frames_file) if args.frames_file else {}
        clips = set()

        def selected_maps(cleaned):
            """The clip's wanted non-empty frames from ``skip_first`` on, streamed;
            every frame when the frames file does not name the clip."""
            clips.add(cleaned.clip_id)
            wanted = frame_filter.get(cleaned.clip_id)
            return (fixation_map_for_frame(cleaned, f)
                    for f in range(args.skip_first, cleaned.frame_count)
                    if (wanted is None or f in wanted) and cleaned.frame_points(f))

        # one fixation file at a time: the ids are checked once all are read
        average = average_map((selected_maps(read_fixations(path))
                               for path in args.fixations), kernel,
                              args.ref_width, args.ref_height)
        unknown = sorted(set(frame_filter) - clips)
        if unknown:
            raise InputError(f"{args.frames_file}: no --fixations file has clip ids {unknown}")
        write_map(args.average, average.values)
        print(f"average map -> {args.average}")
        return 0

    if not args.out_dir:
        raise InputError("per-frame saliency needs --out-dir")
    if len(args.fixations) > 1:
        # every clip's maps are named by frame index alone
        raise InputError("per-frame saliency takes one --fixations file: clips would "
                         "overwrite each other's maps in --out-dir")
    lo, hi = 0, sys.maxsize  # every frame unless --frames narrows the range
    if args.frames:
        try:
            lo, hi = (int(v) for v in args.frames.split(":"))
        except ValueError:
            raise InputError(f"--frames expects lo:hi, got {args.frames!r}") from None
        if lo >= hi:
            raise InputError(f"--frames {args.frames}: the range lo:hi is empty")
    cleaned = read_fixations(args.fixations[0])  # before the directory is made
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for f in range(lo, min(hi, cleaned.frame_count)):
        if not cleaned.frame_points(f) and not args.frames:
            continue
        blurred = blur_fixations(fixation_map_for_frame(cleaned, f), kernel)
        write_map(out_dir / f"{f:06d}.{args.format}", blurred.values)
        written += 1
    print(f"{written} saliency maps -> {out_dir}")
    return 0


def cmd_ioc(args):
    cfg = IocConfig(n=args.window, sigma_px=args.sigma_px,
                    min_observers=args.min_observers, truncation=args.truncation)
    if args.cut_drop and not args.annotation:
        raise InputError("--cut-drop needs --annotation for the cut list")
    meta = ClipMeta.from_dict(read_json(args.meta))
    cleaned = read_fixations(args.fixations)
    _of_clip(args.meta, (meta.clip_id, meta.frame_count, meta.frame_width_px,
                         meta.frame_height_px), cleaned, args.fixations)
    annotation = (_annotation_of(args.annotation, cleaned, args.fixations)
                  if args.annotation else None)
    cuts = cuts_of(annotation) if args.cut_drop else None
    series = loo_window_ioc(cleaned, cfg)
    # every output is computed before the first is written
    summary = sequence_ioc_summary(series) if args.summary else None
    records = cut_drop_analysis(series, cuts, pre_frames=args.pre_frames,
                                post_frames=args.post_frames) if cuts is not None else None
    echo = {"window": cfg.n, "sigma_px": cfg.sigma_px,
            "truncation": cfg.truncation, "min_observers": cfg.min_observers}
    write_ioc_series(series, args.out, meta=echo)
    print(f"{series.clip_id}: {len(series.values)} windows -> {args.out}")
    if summary is not None:
        write_json(args.summary, {"clip_id": series.clip_id, "n": series.n,
                                  "mean": summary.mean, "median": summary.median,
                                  "std": summary.std, "count": summary.count,
                                  **_stamp(series_header(echo))})
        print(f"summary mean={summary.mean:.4f} -> {args.summary}")
    if records is not None:
        write_table(args.cut_drop, CUT_DROP_COLUMNS,
                    [[r.cut for r in records], [r.pre_mean for r in records],
                     [r.post_mean for r in records], [r.drop for r in records],
                     [int(r.overlaps_context) for r in records]])
        print(f"{len(records)} cuts -> {args.cut_drop}")
    return 0


def cmd_bench(args):
    kernel = make_kernel(args.sigma_px, args.truncation)
    cleaned = read_fixations(args.fixations)
    annotation = (_annotation_of(args.annotation, cleaned, args.fixations)
                  if args.annotation else None)
    metric_set = ([m.strip() for m in args.metrics.split(",")] if args.metrics
                  else METRIC_ORDER)
    if not set(metric_set) <= set(METRIC_ORDER):
        raise InputError(f"--metrics {args.metrics!r}: choose from {', '.join(METRIC_ORDER)}")
    result = benchmark_model(
        DirectoryPredictions(args.predictions), cleaned, kernel,
        annotation=annotation, metric_set=metric_set,
        aucb_seed=args.auc_b_seed, aucb_splits=args.auc_b_splits)
    echo = {"sigma_px": args.sigma_px, "auc_b_splits": args.auc_b_splits,
            "metrics": ",".join(metric_set),
            "predictions": Path(args.predictions).name}
    emit_report(result.rows, args.out, meta=echo, aucb_seed=args.auc_b_seed)
    print(f"{len(result.rows)} scores, {len(result.errors)} frame errors -> {args.out}")
    if args.errors_out and result.errors:
        write_table(args.errors_out, {"frame_index": int, "reason": str},
                    [[f for f, _ in result.errors], [reason for _, reason in result.errors]])
    return 0


def cmd_stats(args):
    if args.pairs:
        if not (args.x_col and args.y_col):
            raise InputError("--pairs needs --x-col and --y-col")
        _, values = read_table(args.pairs, {args.x_col: float, args.y_col: float}, subset=True)
        # one column when both flags name the same column
        xs, ys = values[0], values[-1]
        r, p = pearson(xs, ys)
        echo = {"test": "pearson", "x": args.x_col, "y": args.y_col}
        out = {**echo, "n": len(xs), "r": r, "p": p}
    else:
        if not (args.scores and args.metric and args.partition):
            raise InputError("stats needs --scores/--metric/--partition or --pairs")
        kind = PartitionKind(args.partition)
        groups = group_scores(read_score_rows(args.scores),
                              lambda row: labels(kind, row.motions, row.angle, row.size))
        usable = {label: metrics[args.metric] for label, metrics in sorted(groups.items())
                  if len(metrics.get(args.metric, ())) >= 2}
        if len(usable) < 2:
            raise InputError("fewer than two usable groups for ANOVA")
        res = one_way_anova(list(usable.values()), names=list(usable))
        pairwise = {}
        names = list(usable)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                t, p = welch_t_test(usable[a], usable[b])
                pairwise[f"{a}|{b}"] = {"t": t, "p": p}
        echo = {"test": "one_way_anova", "metric": args.metric, "partition": kind.value}
        out = {**echo, "f": res.f, "p": res.p,
               "df_between": res.df_between, "df_within": res.df_within,
               "group_sizes": dict(zip(res.group_names, res.group_sizes)),
               "pairwise_welch": pairwise}
    write_json(args.out, {**out, **_stamp(provenance(echo))})
    print(f"stats -> {args.out}")
    return 0


def cmd_report(args):
    fmt = ReportFormat(args.format)
    if args.bias:
        record = bias_report(read_map(args.average), read_map(args.prior))
        write_json(args.out, {"cc_with_prior": record.cc_with_prior,
                              "peak_offset_px": list(record.peak_offset_px),
                              **_stamp(provenance({"report": "bias"}))})
    elif args.shot_stats:
        stats_rows = []
        for path in sorted(Path(args.shot_stats).glob("*.json")):
            stats_rows.append(shot_stats(read_annotation(path), args.fps))
        if not stats_rows:
            raise InputError(f"no annotation documents under {args.shot_stats}")
        stats_rows.sort(key=lambda s: s.average_s)
        write_table(args.out, SHOT_STATS_COLUMNS,
                    [[getattr(s, name) for s in stats_rows] for name in SHOT_STATS_COLUMNS],
                    meta=provenance({"report": "shot_stats", "fps": args.fps}))
    else:
        if not args.scores:
            raise InputError("report needs --scores, --bias or --shot-stats")
        rows = read_score_rows(args.scores)
        if args.partition:
            data = aggregate_by_annotation(rows, PartitionKind(args.partition))
            echo = {"aggregate": args.partition}
        elif args.per_clip:
            data = per_clip_means(rows)
            echo = {"aggregate": "per_clip"}
        else:
            data = {"all": dataset_means(rows)}
            echo = {"aggregate": "dataset_means"}
        # the seed the scores were computed with, as their table records it
        emit_report(data, args.out, fmt=fmt, meta=echo,
                    aucb_seed=read_meta(args.scores).get("aucb_seed"))
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
    p.add_argument("--out-dir", required=True)
    _settings(p, cmd_ingest, "min_valid_rate")

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
    _settings(p, cmd_saliency, "sigma_px", "truncation", "skip_first", "ref_width",
              "ref_height", "sigma_fraction")

    p = sub.add_parser("ioc", help="leave-one-out congruency series")
    p.add_argument("--fixations", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="write a summary JSON here")
    p.add_argument("--cut-drop", dest="cut_drop", help="write per-cut drops here")
    p.add_argument("--annotation", help="annotation JSON (for --cut-drop)")
    _settings(p, cmd_ioc, "window", "sigma_px", "truncation", "min_observers",
              "pre_frames", "post_frames")

    p = sub.add_parser("bench", help="score prediction maps against ground truth")
    p.add_argument("--fixations", required=True)
    p.add_argument("--predictions", required=True, help="directory of per-frame maps")
    p.add_argument("--out", required=True)
    p.add_argument("--annotation")
    p.add_argument("--metrics", help="comma-separated subset of CC,SIM,AUC_J,AUC_B,NSS,KLD")
    p.add_argument("--errors-out", dest="errors_out")
    _settings(p, cmd_bench, "sigma_px", "truncation", "auc_b_seed", "auc_b_splits")

    p = sub.add_parser("stats", help="significance tests over score tables")
    p.add_argument("--scores", help="score table from bench")
    p.add_argument("--metric", help="metric column to test, e.g. NSS")
    p.add_argument("--partition", choices=[k.value for k in PartitionKind])
    p.add_argument("--pairs", help="CSV of paired series for --pearson style test")
    p.add_argument("--x-col", dest="x_col")
    p.add_argument("--y-col", dest="y_col")
    p.add_argument("--out", required=True)
    _settings(p, cmd_stats)

    p = sub.add_parser("report", help="aggregate tables and bias records")
    p.add_argument("--scores")
    p.add_argument("--partition", choices=[k.value for k in PartitionKind])
    p.add_argument("--per-clip", action="store_true", dest="per_clip")
    p.add_argument("--bias", action="store_true")
    p.add_argument("--average", help="average map file (for --bias)")
    p.add_argument("--prior", help="center prior map file (for --bias)")
    p.add_argument("--shot-stats", dest="shot_stats",
                   help="directory of annotation JSONs for a shot length table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _settings(p, cmd_report, "fps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        return args.func(args)
    except (CinegazeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
