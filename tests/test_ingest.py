import json

import pytest

from cinegaze.core import ClipMeta, GazeEvent, GazeSample, frame_to_display
from cinegaze.errors import FormatError, InputError
from cinegaze.ingest import (CleanedFixations, ColumnMap, IngestReport,
                             ObserverRecord, build_fixation_map, clean_and_bin,
                             filter_observers, fixation_map_for_frame,
                             parse_gaze_samples, read_fixations,
                             write_fixations)
from cinegaze.tables import write_json

from oracles import fixation_array

HEADER = "observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event\n"


def meta(frame_w=1920, frame_h=1200, frame_count=100, **kw):
    return ClipMeta("clip", frame_count, frame_w, frame_h, **kw)


def row(obs="o1", clip="clip", t=0.0, x=960.0, y=600.0, valid="1", event="Fixation"):
    return f"{obs},{clip},{t},{x},{y},{valid},{event}\n"


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
        assert records[0].samples[0] == GazeSample("s01", 5.0, 100.0, 200.0,
                                                   True, GazeEvent.FIXATION)

    def test_out_of_order_rows_sorted_with_warning(self):
        text = HEADER + row(t=20) + row(t=0)
        records, report = parse_gaze_samples(text)
        times = [s.timestamp_ms for s in records[0].samples]
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
        samples = tuple(
            GazeSample("o", float(i), 0.0, 0.0, valid=i < n_valid)
            for i in range(n_total))
        return ObserverRecord("o", "c", samples)

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
        return ObserverRecord("o1", "clip", tuple(samples))

    def test_saccade_only_gives_empty_output(self):
        record = self.make_record(
            [GazeSample("o1", 0.0, 960.0, 600.0, True, GazeEvent.SACCADE)])
        cleaned = clean_and_bin([record], meta())
        assert cleaned.n_points() == 0

    def test_single_center_fixation_lands_in_frame_zero(self):
        record = self.make_record(
            [GazeSample("o1", 0.0, 960.0, 600.0, True, GazeEvent.FIXATION)])
        cleaned = clean_and_bin([record], meta())
        assert cleaned.points("o1", 0) == [(960.0, 600.0)]

    def test_samples_distribute_across_frames(self):
        times = [0.0, 50.0, 100.0, 150.0, 200.0]
        record = self.make_record(
            [GazeSample("o1", t, 960.0, 600.0, True, GazeEvent.FIXATION) for t in times])
        cleaned = clean_and_bin([record], meta())
        frames = sorted(cleaned.by_observer["o1"])
        assert frames == [0, 1, 2, 3, 4]

    def test_letterboxed_point_dropped(self):
        m = meta(1920, 800)  # active y in [200, 1000)
        record = self.make_record(
            [GazeSample("o1", 0.0, 960.0, 100.0, True, GazeEvent.FIXATION)])
        report = IngestReport()
        cleaned = clean_and_bin([record], m, report)
        assert cleaned.n_points() == 0
        assert report.counts["outside_active_area"] == 1

    def test_sample_past_clip_end_dropped(self):
        m = meta(frame_count=10)
        record = self.make_record(
            [GazeSample("o1", 5000.0, 960.0, 600.0, True, GazeEvent.FIXATION)])
        report = IngestReport()
        cleaned = clean_and_bin([record], m, report)
        assert cleaned.n_points() == 0
        assert report.counts["beyond_clip_end"] == 1

    def test_invalid_fixation_dropped(self):
        record = self.make_record(
            [GazeSample("o1", 0.0, 960.0, 600.0, False, GazeEvent.FIXATION)])
        report = IngestReport()
        cleaned = clean_and_bin([record], meta(), report)
        assert cleaned.n_points() == 0
        assert report.counts["invalid_sample"] == 1

    def test_clip_mismatch_rejected(self):
        record = ObserverRecord("o1", "other_clip", ())
        with pytest.raises(InputError):
            clean_and_bin([record], meta())

    def test_never_creates_points(self, rng):
        m = meta(1920, 800, frame_count=20)
        samples = []
        for i in range(200):
            samples.append(GazeSample(
                "o1", float(i * 4), float(rng.uniform(-10, 1930)),
                float(rng.uniform(-10, 1210)), True,
                GazeEvent.FIXATION if rng.random() < 0.7 else GazeEvent.SACCADE))
        cleaned = clean_and_bin([self.make_record(samples)], m)
        assert cleaned.n_points() <= len(samples)

    def test_output_points_round_trip_into_active_area(self, rng):
        m = meta(1920, 800, frame_count=20)
        samples = [GazeSample("o1", float(i * 4), float(rng.uniform(0, 1920)),
                              float(rng.uniform(0, 1200)), True, GazeEvent.FIXATION)
                   for i in range(200)]
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
        samples = [GazeSample("o1", float(i * 4), float(rng.uniform(0, 1920)),
                              float(rng.uniform(0, 1200)), True, GazeEvent.FIXATION)
                   for i in range(200)]
        cleaned = clean_and_bin([self.make_record(samples)], m)
        # map the cleaned points back into samples at mid-frame timestamps
        resamples = []
        for frame, pts in cleaned.by_observer["o1"].items():
            for (fx, fy) in pts:
                dx, dy = frame_to_display(fx, fy, m)
                t = (frame + 0.5) / m.fps * 1000.0
                resamples.append(GazeSample("o1", t, dx, dy, True, GazeEvent.FIXATION))
        resamples.sort(key=lambda s: s.timestamp_ms)
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
