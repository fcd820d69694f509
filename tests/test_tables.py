import numpy as np
import pytest

from cinegaze.bench import ScoreRow, emit_report, read_score_rows
from cinegaze.core import ClipMeta
from cinegaze.errors import FormatError
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.ingest import (CleanedFixations, parse_gaze_samples, read_fixations,
                             write_fixations)
from cinegaze.ioc import IocSeries, read_ioc_series, write_ioc_series
from cinegaze.tables import optional_float, read_table, write_table

# ids that a hand-split line format cannot carry: delimiter, quote,
# comment marker at the start of a row, another delimiter, non-ASCII
AWKWARD_IDS = ["a,b", 'q"uote', "#lead", "semi;colon", "ü"]

COLUMNS = {"name": str, "count": int, "score": optional_float}


class TestWriteRead:
    def test_meta_order_quoting_and_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, COLUMNS, [("a,b", 1, 0.1), ("#x", 2, None)],
                    meta={"width": 3, "height": 2})
        assert path.read_text() == ("# width=3\n# height=2\nname,count,score\n"
                                    '"a,b",1,0.1\n#x,2,\n')
        meta, rows = read_table(path, COLUMNS)
        assert meta == {"width": "3", "height": "2"}
        assert rows == [["a,b", 1, 0.1], ["#x", 2, None]]

    def test_numpy_floats_written_as_plain_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, COLUMNS, [("a", 1, np.float64(0.25))])
        assert path.read_text().splitlines()[-1] == "a,1,0.25"

    def test_hash_lines_after_column_row_are_data(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# k=v\nname,count,score\n# not meta,3,\n")
        meta, rows = read_table(path, COLUMNS)
        assert meta == {"k": "v"}
        assert rows == [["# not meta", 3, None]]

    def test_column_row_checked_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# k=v\nname,score,count\n")
        with pytest.raises(FormatError, match=r"t\.csv:2: expected columns"):
            read_table(path, COLUMNS)

    def test_bad_cell_names_path_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,count,score\na,1,0.5\nb,two,0.5\n")
        with pytest.raises(FormatError, match=r"t\.csv:3: malformed row"):
            read_table(path, COLUMNS)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("name,count,score\na,1\n")
        with pytest.raises(FormatError, match=r"t\.csv:2: malformed row"):
            read_table(path, COLUMNS)

    def test_no_column_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# only=meta\n\n")
        with pytest.raises(FormatError, match="no column row"):
            read_table(path, COLUMNS)

    def test_subset_picks_named_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,other,y\n1,skip,2\n3,skip,4\n")
        _, rows = read_table(path, {"y": float, "x": float}, subset=True)
        assert rows == [[2.0, 1.0], [4.0, 3.0]]
        with pytest.raises(FormatError, match="expected columns"):
            read_table(path, {"z": float}, subset=True)


class TestRoundTrips:
    @pytest.mark.parametrize("ident", AWKWARD_IDS)
    def test_fixation_file(self, tmp_path, ident):
        cleaned = CleanedFixations(ident, 4, 10, 8, {
            ident: {0: [(1.5, 2.25)], 3: [(9.0, 0.1)]},
            "plain": {1: [(0.0, 7.75), (4.0, 4.0)]},
        })
        path = tmp_path / "fix.csv"
        write_fixations(cleaned, path)
        assert read_fixations(path) == cleaned

    @pytest.mark.parametrize("ident", AWKWARD_IDS)
    def test_ioc_series(self, tmp_path, ident):
        series = IocSeries(ident, 5, [(0, 0.5), (1, None), (2, 1.0 / 3.0)])
        path = tmp_path / "series.csv"
        write_ioc_series(series, path, meta={"window": 5})
        assert read_ioc_series(path) == series

    @pytest.mark.parametrize("ident", AWKWARD_IDS)
    def test_score_table(self, tmp_path, ident):
        rows = [ScoreRow(ident, 0, "NSS", 1.25, ("Pan", "Track"), "Eye", "CU"),
                ScoreRow(ident, 1, "CC", 0.1, (), "", "")]
        path = tmp_path / "scores.csv"
        emit_report(rows, path, meta={"predictions": ident})
        assert read_score_rows(path) == sorted(
            rows, key=lambda r: (r.clip_id, r.frame_index, r.metric))

    def test_fixation_file_with_numpy_float_points(self, tmp_path):
        fix = generate_scanpaths(ScanpathFixture(seed=3, n_observers=3, frame_count=6,
                                                 width=20, height=12, congruency=0.8,
                                                 cluster_sigma=1.0))
        assert isinstance(fix.frame_points(0)[0][0], np.floating)
        path = tmp_path / "fix.csv"
        write_fixations(fix, path)
        back = read_fixations(path)
        assert back.observers() == fix.observers()
        for obs in fix.observers():
            assert back.by_observer[obs] == {
                f: sorted(pts) for f, pts in fix.by_observer[obs].items()}


class TestControlCharacters:
    @pytest.mark.parametrize("field", ["observer_id", "clip_id"])
    def test_export_row_with_control_character_is_malformed(self, field):
        ids = {"observer_id": "o1", "clip_id": "clip"}
        bad = dict(ids, **{field: "bad\x07id"})
        text = ("observer_id,clip_id,timestamp_ms,x_px,y_px,validity,event\n"
                "{observer_id},{clip_id},0.0,960.0,600.0,1,Fixation\n".format(**ids)
                + "{observer_id},{clip_id},10.0,960.0,600.0,1,Fixation\n".format(**bad))
        records, report = parse_gaze_samples(text)
        assert [(r.observer_id, r.clip_id) for r in records] == [("o1", "clip")]
        assert report.counts["malformed_row"] == 1

    def test_meta_clip_id_with_control_character_rejected(self):
        with pytest.raises(FormatError, match="control characters"):
            ClipMeta.from_dict({"clip_id": "a\tb", "frame_count": 10,
                                "frame_width_px": 64, "frame_height_px": 40})
