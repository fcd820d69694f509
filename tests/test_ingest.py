import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cinegaze.core import ClipMeta, frame_to_display
from cinegaze.errors import FormatError, InputError
from cinegaze.ingest import (CleanedFixations, ColumnMap, IngestReport,
                             ObserverRecord, build_fixation_map, clean_and_bin,
                             filter_observers, fixation_map_for_frame,
                             parse_gaze_samples, read_fixations,
                             write_fixations)
from cinegaze.tables import write_json

from oracles import clean_and_bin_oracle, fixation_array, parse_gaze_oracle

HEADER = "observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event\n"


def meta(frame_w=1920, frame_h=1200, frame_count=100, **kw):
    return ClipMeta("clip", frame_count, frame_w, frame_h, **kw)


def row(obs="o1", clip="clip", t=0.0, x=960.0, y=600.0, valid="1", event="Fixation"):
    return f"{obs},{clip},{t},{x},{y},{valid},{event}\n"


def make_record(samples, obs="o1", clip="clip"):
    """An ObserverRecord from (t, x, y, valid, fixation) samples."""
    t, x, y, valid, fixation = (zip(*samples) if samples else ([],) * 5)
    return ObserverRecord(obs, clip, np.array(t, dtype=float), np.array(x, dtype=float),
                          np.array(y, dtype=float), np.array(valid, dtype=bool),
                          np.array(fixation, dtype=bool))


def samples_of(record):
    """A record's samples as (t, x, y, valid, fixation) tuples of Python values."""
    return list(zip(record.timestamp_ms.tolist(), record.x.tolist(), record.y.tolist(),
                    record.valid.tolist(), record.fixation.tolist()))


class TestParsing:
    def test_three_rows_one_observer(self):
        text = HEADER + row(t=0) + row(t=10) + row(t=20)
        records, report = parse_gaze_samples(text)
        assert len(records) == 1
        assert len(records[0].samples) == 3
        assert report.to_dict() == {}

    def test_header_only_is_empty(self):
        records, report = parse_gaze_samples(HEADER)
        assert records == []
        assert report.to_dict() == {}

    def test_nan_coordinate_dropped_with_warning(self):
        text = HEADER + row(t=0) + row(t=10, x="NaN")
        records, report = parse_gaze_samples(text)
        assert len(records[0].samples) == 1
        assert report.counts["malformed_row"] == 1

    def test_unparseable_row_dropped(self):
        text = HEADER + row() + "garbage line without fields\n"
        records, report = parse_gaze_samples(text)
        assert len(records[0].samples) == 1
        assert report.counts["malformed_row"] == 1

    def test_missing_mandatory_column(self):
        text = "observer_id,clip_id,timestamp_ms,x_px,y_px,validity\n"
        with pytest.raises(FormatError, match="event"):
            parse_gaze_samples(text)

    def test_column_mapping_adapts_vendor_headers(self):
        colmap = ColumnMap(delimiter="\t", observer_id="Subject", clip_id="Media",
                           timestamp_ms="RecTime", x="GazeX", y="GazeY",
                           validity="Valid", event="EventType")
        text = ("Subject\tMedia\tRecTime\tGazeX\tGazeY\tValid\tEventType\n"
                "s01\tclip\t5.0\t100.0\t200.0\ttrue\tFixation\n")
        records, _ = parse_gaze_samples(text, colmap)
        assert (records[0].observer_id, *samples_of(records[0])[0]) == (
            "s01", 5.0, 100.0, 200.0, True, True)

    def test_out_of_order_rows_sorted_with_warning(self):
        text = HEADER + row(t=20) + row(t=0)
        records, report = parse_gaze_samples(text)
        times = records[0].timestamp_ms.tolist()
        assert times == [0.0, 20.0]
        assert report.counts["out_of_order_row"] == 1

    def test_one_record_per_observer_clip(self):
        text = (HEADER + row(obs="a", clip="c1") + row(obs="b", clip="c1")
                + row(obs="a", clip="c2"))
        records, _ = parse_gaze_samples(text)
        assert [(r.clip_id, r.observer_id) for r in records] == [
            ("c1", "a"), ("c1", "b"), ("c2", "a")]


class TestObserverFilter:
    def make_record(self, n_valid, n_total):
        samples = [(float(i), 0.0, 0.0, i < n_valid, False) for i in range(n_total)]
        return make_record(samples, "o", "c")

    def test_fully_valid_kept(self):
        kept, rejected = filter_observers([self.make_record(10, 10)])
        assert len(kept) == 1 and not rejected

    def test_exactly_at_threshold_rejected(self):
        kept, rejected = filter_observers([self.make_record(9, 10)], min_rate=0.9)
        assert not kept and len(rejected) == 1

    def test_rate_is_fraction_of_valid(self):
        record = self.make_record(9, 10)
        assert record.valid_rate == pytest.approx(0.9)

    def test_bad_min_rate(self):
        with pytest.raises(InputError):
            filter_observers([], min_rate=1.5)


class TestCleanAndBin:
    def make_record(self, samples):
        return make_record(samples)

    def test_saccade_only_gives_empty_output(self):
        record = self.make_record(
            [(0.0, 960.0, 600.0, True, False)])
        cleaned = clean_and_bin([record], meta())
        assert cleaned.n_points() == 0

    def test_single_center_fixation_lands_in_frame_zero(self):
        record = self.make_record(
            [(0.0, 960.0, 600.0, True, True)])
        cleaned = clean_and_bin([record], meta())
        assert cleaned.points("o1", 0) == [(960.0, 600.0)]

    def test_samples_distribute_across_frames(self):
        times = [0.0, 50.0, 100.0, 150.0, 200.0]
        record = self.make_record(
            [(t, 960.0, 600.0, True, True) for t in times])
        cleaned = clean_and_bin([record], meta())
        frames = sorted(cleaned.by_observer["o1"])
        assert frames == [0, 1, 2, 3, 4]

    def test_letterboxed_point_dropped(self):
        m = meta(1920, 800)  # active y in [200, 1000)
        record = self.make_record(
            [(0.0, 960.0, 100.0, True, True)])
        report = IngestReport()
        cleaned = clean_and_bin([record], m, report)
        assert cleaned.n_points() == 0
        assert report.counts["outside_active_area"] == 1

    def test_sample_past_clip_end_dropped(self):
        m = meta(frame_count=10)
        record = self.make_record(
            [(5000.0, 960.0, 600.0, True, True)])
        report = IngestReport()
        cleaned = clean_and_bin([record], m, report)
        assert cleaned.n_points() == 0
        assert report.counts["beyond_clip_end"] == 1

    def test_invalid_fixation_dropped(self):
        record = self.make_record(
            [(0.0, 960.0, 600.0, False, True)])
        report = IngestReport()
        cleaned = clean_and_bin([record], meta(), report)
        assert cleaned.n_points() == 0
        assert report.counts["invalid_sample"] == 1

    def test_clip_mismatch_rejected(self):
        record = make_record([], clip="other_clip")
        with pytest.raises(InputError):
            clean_and_bin([record], meta())

    def test_never_creates_points(self, rng):
        m = meta(1920, 800, frame_count=20)
        samples = []
        for i in range(200):
            samples.append((float(i * 4), float(rng.uniform(-10, 1930)),
                            float(rng.uniform(-10, 1210)), True, bool(rng.random() < 0.7)))
        cleaned = clean_and_bin([self.make_record(samples)], m)
        assert cleaned.n_points() <= len(samples)

    def test_output_points_round_trip_into_active_area(self, rng):
        m = meta(1920, 800, frame_count=20)
        samples = [(float(i * 4), float(rng.uniform(0, 1920)), float(rng.uniform(0, 1200)),
                    True, True) for i in range(200)]
        cleaned = clean_and_bin([self.make_record(samples)], m)
        a = m.active_area
        for frames in cleaned.by_observer.values():
            for pts in frames.values():
                for (fx, fy) in pts:
                    dx, dy = frame_to_display(fx, fy, m)
                    assert a.x < dx < a.x + a.w
                    assert a.y < dy < a.y + a.h

    def test_idempotent_on_own_output(self, rng):
        m = meta(1920, 800, frame_count=20)
        samples = [(float(i * 4), float(rng.uniform(0, 1920)), float(rng.uniform(0, 1200)),
                    True, True) for i in range(200)]
        cleaned = clean_and_bin([self.make_record(samples)], m)
        # map the cleaned points back into samples at mid-frame timestamps
        resamples = []
        for frame, pts in cleaned.by_observer["o1"].items():
            for (fx, fy) in pts:
                dx, dy = frame_to_display(fx, fy, m)
                t = (frame + 0.5) / m.fps * 1000.0
                resamples.append((t, dx, dy, True, True))
        resamples.sort(key=lambda s: s[0])
        again = clean_and_bin([self.make_record(resamples)], m)
        for frame, pts in cleaned.by_observer["o1"].items():
            ours = sorted(again.by_observer["o1"][frame])
            theirs = sorted(pts)
            assert len(ours) == len(theirs)
            for (x1, y1), (x2, y2) in zip(ours, theirs):
                assert abs(x1 - x2) < 1e-9 and abs(y1 - y2) < 1e-9


class TestFixationMapBuilding:
    def test_empty_points_all_zero(self):
        fmap = build_fixation_map([], 8, 8)
        assert fmap.pixels.size == 0
        assert not fixation_array(fmap).any()

    def test_duplicates_collapse(self):
        fmap = build_fixation_map([(3.0, 3.0), (3.0, 3.0)], 8, 8)
        assert fmap.pixels.tolist() == [3 * 8 + 3]

    def test_fourteen_distinct_points(self):
        pts = [(float(i), float(i % 8)) for i in range(14)]
        fmap = build_fixation_map(pts, 16, 8)
        assert fmap.pixels.size == 14

    def test_half_up_rounding(self):
        fmap = build_fixation_map([(2.5, 1.49)], 8, 8)
        assert fmap.pixels.tolist() == [1 * 8 + 3]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InputError):
            build_fixation_map([(8.0, 0.0)], 8, 8)

    def test_map_for_frame_pools_observers(self):
        cleaned = CleanedFixations("c", 5, 8, 8, {
            "a": {2: [(1.0, 1.0)]},
            "b": {2: [(5.0, 5.0)], 3: [(2.0, 2.0)]},
        })
        fmap = fixation_map_for_frame(cleaned, 2)
        assert fmap.pixels.tolist() == [1 * 8 + 1, 5 * 8 + 5]


class TestFixationFiles:
    def test_round_trip(self, tmp_path, rng):
        by_observer = {}
        for obs in ("a", "b"):
            frames = {}
            for f in range(4):
                frames[f] = [(float(rng.uniform(0, 100)), float(rng.uniform(0, 50)))
                             for _ in range(3)]
            by_observer[obs] = frames
        cleaned = CleanedFixations("clip7", 10, 100, 50, by_observer)
        path = tmp_path / "fix.csv"
        write_fixations(cleaned, path)
        back = read_fixations(path)
        assert back.clip_id == "clip7"
        assert (back.frame_count, back.width, back.height) == (10, 100, 50)
        for obs in by_observer:
            for f in range(4):
                assert sorted(back.points(obs, f)) == sorted(cleaned.points(obs, f))

    @pytest.mark.parametrize("x,y", [(100.0, 10.0), (-0.5, 10.0), (10.0, 50.0),
                                     (float("nan"), 10.0)])
    def test_point_outside_frame_names_its_line(self, tmp_path, x, y):
        cleaned = CleanedFixations("clip7", 10, 100, 50,
                                   {"a": {0: [(1.0, 2.0)], 3: [(x, y)]}})
        path = tmp_path / "fix.csv"
        write_fixations(cleaned, path)
        # four header lines and the column row come first
        with pytest.raises(FormatError, match=r"fix\.csv:7: .*outside 100x50 frame"):
            read_fixations(path)

    def test_report_file(self, tmp_path):
        report = IngestReport()
        report.add("malformed_row", 3)
        report.add("outside_active_area")
        path = tmp_path / "report.json"
        write_json(path, report.to_dict())
        assert json.loads(path.read_text()) == {
            "malformed_row": 3, "outside_active_area": 1}


def _oracle_clean(records, m):
    """clean_and_bin_oracle over oracle records of ``m``'s clip."""
    by_observer, counts = {}, {}
    for clip, obs, samples in records:
        if clip == m.clip_id:
            by_observer[obs], drops = clean_and_bin_oracle(samples, m)
            for reason, k in drops.items():
                counts[reason] = counts.get(reason, 0) + k
    return by_observer, counts


H = HEADER
DIRTY_EXPORTS = {
    "too_few_fields": H + row() + "o1,clip,5.0,960.0\n" + "o1,clip\n" + "o1\n",
    "extra_fields": H + row(t=1) + "o1,clip,2.0,961.0,600.0,1,Fixation,extra,more\n",
    "float_tokens": H + "".join(row(t=t, x=x) for t, x in [
        (0, "nan"), (1, "inf"), (2, "-inf"), (3, "NaN"), (4, "Infinity"), (-0.0, "960.0"),
        (5, "1_0"), (6, " 961.5 "), (7, "9e1"), (8, "96O"), (9, ""), (10, "0x10"),
        (11, "1__0"), (12, "  "), ("1e400", "960.0")]),
    "negative_time": H + row(t=-0.5) + row(t="-0.0") + row(t=0.0) + row(t="-1e-300"),
    "validity_tokens": H + "".join(row(t=i, valid=v) for i, v in enumerate(
        ["1", "0", "true", "false", "valid", "invalid", "yes", "no", "TRUE", " Yes ",
         "No\t", "Valid", "INVALID", "maybe", "", "2", "1.0", "y"])),
    "event_tokens": H + "".join(row(t=i, event=e) for i, e in enumerate(
        ["Fixation", "fixation", "FIXATION ", "Saccade", "saccade fixation", "Blink",
         "", "fix"])),
    "ids": H + row(obs="") + row(obs=" ") + row(clip="") + row(obs="a\x07b")
    + row(obs="a\tb") + row(obs="\x85x") + row(obs=" padded ") + row(obs="padded")
    + row(obs="ü") + row(obs="#lead") + row(obs='q"uote'),
    "crlf_and_blank_lines": H.replace("\n", "\r\n") + row(t=1).replace("\n", "\r\n")
    + "\n\n" + row(t=2).replace("\n", "\r\n") + "\r\n" + row(t=3, event="Saccade\r"),
    "line_separator_in_id": H + row(obs="a b") + row(obs="c d", t=1)
    + row(obs="e\x1cf", t=2) + row(obs="g\x0bh", t=3),
    "out_of_order_ties": H + "".join(row(obs=o, t=t, x=x) for o, t, x in [
        ("a", 10, 1), ("b", 0, 2), ("a", 5, 3), ("a", 5, 4), ("a", 10, 5), ("b", 0, 6),
        ("a", "-0.0", 7), ("a", 0, 8), ("b", 1, 9)]),
    "second_clip": H + row(clip="other", t=3) + row(t=1) + row(clip="other", t=1)
    + row(obs="z", t=0) + row(t=2, clip=" clip "),
    "no_final_newline": H + row(t=1) + row(t=2).rstrip("\n"),
    "every_row_rejected": H + row(valid="maybe") + row(t=1, x="nan") + row(obs="", t=2),
}


def _random_export(rng, rows=3000):
    """Clean and dirty rows of every kind above, shuffled together."""
    kinds = [row(obs=f"o{rng.integers(3)}", t=round(float(rng.uniform(-50, 5000)), 1),
                 x=round(float(rng.uniform(-100, 2000)), 2),
                 y=round(float(rng.uniform(-100, 1300)), 2),
                 valid=str(rng.choice(["1", "0", "maybe"], p=[0.8, 0.15, 0.05])),
                 event=str(rng.choice(["Fixation", "Saccade"], p=[0.8, 0.2])))
             for _ in range(rows)]
    for i in rng.choice(rows, rows // 20, replace=False):
        kinds[i] = str(rng.choice(["o1,clip,1.0\n", "\n", "o1,clip,1,nan,2,1,Fixation\n",
                                   "o1,clip,1,2,3,1,Fixation,extra\n", ",clip,1,2,3,1,x\n"]))
    return H + "".join(kinds)


class TestColumnsAgainstRowOracle:
    """The column parser and cleaner against today's per-row reference."""

    @pytest.mark.parametrize("chunk_chars", [1 << 20, 50])
    @pytest.mark.parametrize("case", sorted(DIRTY_EXPORTS) + ["random"])
    def test_records_and_counts_equal(self, case, chunk_chars, rng, monkeypatch):
        import cinegaze.ingest as ingest
        monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
        text = _random_export(rng) if case == "random" else DIRTY_EXPORTS[case]
        records, report = parse_gaze_samples(text)
        want, want_counts = parse_gaze_oracle(text)
        assert [(r.clip_id, r.observer_id, samples_of(r)) for r in records] == want
        assert report.to_dict() == dict(sorted(want_counts.items()))

        m = meta(1920, 800, frame_count=60)
        report = IngestReport()
        cleaned = clean_and_bin([r for r in records if r.clip_id == "clip"], m, report)
        by_observer, counts = _oracle_clean(want, m)
        assert cleaned.by_observer == by_observer
        assert report.to_dict() == dict(sorted(counts.items()))

    def test_bits_of_every_coordinate_kept(self, rng):
        m = meta(1280, 720, frame_count=500)
        text = H + "".join(row(t=float(rng.uniform(0, 20000)), x=float(rng.uniform(0, 1920)),
                               y=float(rng.uniform(0, 1200))) for _ in range(500))
        records, _ = parse_gaze_samples(text)
        got = clean_and_bin(records, m).by_observer["o1"]
        want = _oracle_clean(parse_gaze_oracle(text)[0], m)[0]["o1"]
        assert {f: [(x.hex(), y.hex()) for x, y in pts] for f, pts in got.items()} == {
            f: [(x.hex(), y.hex()) for x, y in pts] for f, pts in want.items()}

    def test_vendor_columns_in_another_order(self):
        colmap = ColumnMap(delimiter=";", observer_id="Subject", clip_id="Media",
                           timestamp_ms="RecTime", x="GazeX", y="GazeY",
                           validity="Valid", event="EventType")
        names = {"observer_id": "Subject", "clip_id": "Media", "timestamp_ms": "RecTime",
                 "x": "GazeX", "y": "GazeY", "validity": "Valid", "event": "EventType"}
        text = ("Extra;EventType;GazeY;GazeX;RecTime;Valid;Media;Subject;Tail\n"
                "e;Fixation;200;100;5;1;clip;s1;t\n"
                "e;Fixation;200;100;4;1;clip;s1\n"
                "e;Saccade;201;101;3;0;clip;s2;t;u\n"
                "e;Fixation;200;100;2;1;clip\n")
        records, report = parse_gaze_samples(text, colmap)
        want, counts = parse_gaze_oracle(text, names, delimiter=";")
        assert [(r.clip_id, r.observer_id, samples_of(r)) for r in records] == want
        assert report.to_dict() == dict(sorted(counts.items()))


def test_ingest_and_ioc_leave_numpy_ma_unloaded(tmp_path):
    """np.unique and np.median import numpy.ma (about 20 ms a process); the
    ingest and IOC path sorts and masks instead."""
    rows = [row(obs=f"o{k}", t=(f + 0.5) * 1000 / 24, x=300 + 40 * k + f, y=200 + 30 * k)
            for k in range(3) for f in range(12)]
    (tmp_path / "gaze.csv").write_text(H + "".join(rows))
    script = (
        "import sys\n"
        "from cinegaze.core import ClipMeta\n"
        "from cinegaze.ingest import ingest_clip\n"
        "from cinegaze.ioc import (IocConfig, cut_drop_analysis, loo_window_ioc,\n"
        "                          sequence_ioc_summary)\n"
        "meta = ClipMeta('clip', 12, 64, 40, display_width_px=640, display_height_px=400)\n"
        "cleaned, _ = ingest_clip(sys.argv[1], meta)\n"
        "series = loo_window_ioc(cleaned, IocConfig(n=3, sigma_px=4.0))\n"
        "assert cleaned.n_points() == 36 and len(series.values) == 10, series\n"
        "sequence_ioc_summary(series)\n"
        "cut_drop_analysis(series, [6])\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "gaze.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
