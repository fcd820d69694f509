from pathlib import Path

import pytest

from cinegaze.annotations import (CameraAngle, CameraMotion, FaceBox,
                                  MotionDirection, ShotSize, cuts_of,
                                  parse_annotations, shot_at, shot_stats)
from cinegaze.errors import InputError, ValidationError
from cinegaze.tables import read_json

GOLDEN = Path(__file__).parent / "data" / "golden_annotation.json"


def doc(shots, frame_count=20, faces=None, **extra):
    d = {
        "schema_version": 1,
        "clip_id": "clip",
        "frame_count": frame_count,
        "frame_width": 640,
        "frame_height": 360,
        "shots": shots,
    }
    if faces is not None:
        d["faces"] = faces
    d.update(extra)
    return d


def shot_dict(start, end, motions=("Static",), angle="Eye", size="MS", **kw):
    return {"start": start, "end": end, "motions": list(motions),
            "angle": angle, "size": size, **kw}


class TestParsing:
    def test_minimal_single_shot(self):
        ann = parse_annotations(doc([shot_dict(0, 20)]))
        assert len(ann.shots) == 1
        assert ann.shots[0].motions == frozenset({CameraMotion.STATIC})
        assert cuts_of(ann) == []

    def test_two_shots_one_cut(self):
        ann = parse_annotations(doc([shot_dict(0, 10), shot_dict(10, 20)]))
        assert cuts_of(ann) == [10]

    def test_gap_error_names_frames(self):
        with pytest.raises(ValidationError, match=r"10-11"):
            parse_annotations(doc([shot_dict(0, 10), shot_dict(12, 20)]))

    def test_overlap_error(self):
        with pytest.raises(ValidationError, match="overlapping"):
            parse_annotations(doc([shot_dict(0, 12), shot_dict(10, 20)]))

    def test_short_coverage_is_gap(self):
        with pytest.raises(ValidationError, match=r"18-19"):
            parse_annotations(doc([shot_dict(0, 18)]))

    def test_unknown_motion_token(self):
        with pytest.raises(ValidationError, match="Wobble"):
            parse_annotations(doc([shot_dict(0, 20, motions=("Wobble",))]))

    def test_unknown_size_token(self):
        with pytest.raises(ValidationError, match="XXL"):
            parse_annotations(doc([shot_dict(0, 20, size="XXL")]))

    def test_static_excludes_moving_motions(self):
        with pytest.raises(ValidationError, match="Static excludes"):
            parse_annotations(doc([shot_dict(0, 20, motions=("Static", "Pan"))]))

    def test_static_with_zoom_is_fine(self):
        ann = parse_annotations(doc([shot_dict(0, 20, motions=("Static", "Zoom"))]))
        assert CameraMotion.ZOOM in ann.shots[0].motions

    def test_direction_needs_pan_or_dolly(self):
        with pytest.raises(ValidationError, match="motion_direction"):
            parse_annotations(doc([shot_dict(0, 20, motion_direction="Left")]))
        ann = parse_annotations(doc(
            [shot_dict(0, 20, motions=("Dolly",), motion_direction="Right")]))
        assert ann.shots[0].motion_direction is MotionDirection.RIGHT

    def test_empty_motions_rejected(self):
        with pytest.raises(ValidationError, match="no camera motion"):
            parse_annotations(doc([shot_dict(0, 20, motions=())]))

    def test_bad_schema_version(self):
        with pytest.raises(ValidationError, match="schema_version"):
            parse_annotations(doc([shot_dict(0, 20)], schema_version=99))

    def test_face_box_past_frame_edge(self):
        faces = {"3": [[600.0, 300.0, 100.0, 100.0]]}
        with pytest.raises(ValidationError, match="extends past"):
            parse_annotations(doc([shot_dict(0, 20)], faces=faces))

    def test_face_on_out_of_range_frame(self):
        faces = {"25": [[10.0, 10.0, 20.0, 20.0]]}
        with pytest.raises(ValidationError, match="out-of-range"):
            parse_annotations(doc([shot_dict(0, 20)], faces=faces))


class TestRoundTrip:
    """The golden document loads with every schema field intact."""

    def test_golden_document_fields(self):
        ann = parse_annotations(read_json(GOLDEN))
        assert ann.faces == {
            12: (FaceBox(100.0, 50.0, 80.0, 120.0), FaceBox(400.0, 60.0, 70.0, 110.0)),
            41: (FaceBox(250.0, 40.0, 140.0, 200.0),),
        }
        moving = ann.shots[1]
        assert moving.motion_direction is MotionDirection.LEFT
        assert moving.motions == frozenset({CameraMotion.PAN, CameraMotion.TRACK})
        assert [(s.angle, s.size) for s in ann.shots] == [
            (CameraAngle.EYE, ShotSize.MS), (CameraAngle.HIGH, ShotSize.LS),
            (CameraAngle.LOW, ShotSize.CU)]

    def test_shots_tile_frame_count(self):
        ann = parse_annotations(read_json(GOLDEN))
        assert sum(s.end - s.start for s in ann.shots) == ann.frame_count


class TestQueries:
    def test_shot_stats_single_shot(self):
        ann = parse_annotations(doc([shot_dict(0, 240)], frame_count=240))
        stats = shot_stats(ann, fps=24.0)
        assert stats.sequence_length_s == 10.0
        assert stats.longest_s == stats.shortest_s == stats.average_s == 10.0

    def test_shot_stats_ordering_invariant(self):
        ann = parse_annotations(doc(
            [shot_dict(0, 48), shot_dict(48, 72), shot_dict(72, 240)], frame_count=240))
        stats = shot_stats(ann, fps=24.0)
        assert stats.shortest_s <= stats.average_s <= stats.longest_s
        assert stats.longest_s == 7.0
        assert stats.shortest_s == 1.0
        assert stats.average_s == pytest.approx(240 / 24.0 / 3)

    def test_cut_count_matches_shot_count(self):
        ann = parse_annotations(read_json(GOLDEN))
        assert len(cuts_of(ann)) == len(ann.shots) - 1

    def test_shot_at(self):
        ann = parse_annotations(read_json(GOLDEN))
        assert shot_at(ann, 0).start == 0
        assert shot_at(ann, 39).start == 25
        with pytest.raises(InputError):
            shot_at(ann, 60)

