import numpy as np
import pytest

from cinegaze.core import (ClipMeta, Rect, display_to_frame, frame_of, frame_to_display,
                           letterboxed_area, rasterize, rasterize_point)
from cinegaze.errors import InputError
from cinegaze.ingest import build_fixation_map

from oracles import fixation_array


def make_meta(frame_w=1920, frame_h=800, display_w=1920, display_h=1200, **kw):
    return ClipMeta("clip", kw.pop("frame_count", 100), frame_w, frame_h,
                    display_width_px=display_w, display_height_px=display_h, **kw)


class TestFrameOf:
    def test_zero(self):
        assert frame_of(0, 24) == 0

    def test_one_second_at_24fps(self):
        assert frame_of(1000, 24) == 24

    def test_fractional_timestamp(self):
        # 41.7 * 24 / 1000 = 1.0008 -> floor 1
        assert frame_of(41.7, 24) == 1

    def test_negative_timestamp_rejected(self):
        with pytest.raises(InputError):
            frame_of(-1, 24)

    def test_monotone_in_timestamp(self, rng):
        ts = np.sort(rng.uniform(0, 10000, 500))
        frames = [frame_of(t, 24) for t in ts]
        assert frames == sorted(frames)


class TestLetterbox:
    def test_full_screen_when_aspects_match(self):
        area = letterboxed_area(1920, 1200, 1920, 1200)
        assert (area.x, area.y, area.w, area.h) == (0, 0, 1920, 1200)

    def test_wide_frame_letterboxed_vertically(self):
        area = letterboxed_area(1920, 800, 1920, 1200)
        assert (area.x, area.y, area.w, area.h) == (0, 200, 1920, 800)

    def test_narrow_frame_pillarboxed(self):
        area = letterboxed_area(800, 1200, 1920, 1200)
        assert (area.y, area.h) == (0, 1200)
        assert area.x == pytest.approx((1920 - 800) / 2)


class TestDisplayToFrame:
    def test_identity_when_full_screen(self):
        meta = make_meta(1920, 1200)
        assert display_to_frame(960.0, 600.0, meta) == (960.0, 600.0)

    def test_letterbox_rejection(self):
        meta = make_meta(1920, 1050)  # bars at y < 75 and y >= 1125
        assert not meta.active_area.contains_strict(0.0, 0.0)

    def test_centered_letterbox_offset(self):
        meta = make_meta(1920, 800)  # active y in [200, 1000)
        assert display_to_frame(960.0, 600.0, meta) == (960.0, 400.0)

    def test_boundary_is_outside(self):
        meta = make_meta(1920, 800)
        assert not meta.active_area.contains_strict(960.0, 200.0)
        assert not meta.active_area.contains_strict(960.0, 1000.0)
        assert not meta.active_area.contains_strict(0.0, 600.0)
        x, y = np.array([960.0, 960.0, 0.0, 960.0]), np.array([200.0, 1000.0, 600.0, 600.0])
        assert meta.active_area.contains_strict(x, y).tolist() == [False, False, False, True]

    def test_round_trip_recovers_display_point(self, rng):
        meta = make_meta(1280, 720, 1920, 1200)
        a = meta.active_area
        for _ in range(300):
            x = rng.uniform(a.x + 1e-6, a.x + a.w - 1e-6)
            y = rng.uniform(a.y + 1e-6, a.y + a.h - 1e-6)
            fx, fy = display_to_frame(x, y, meta)
            bx, by = frame_to_display(fx, fy, meta)
            assert abs(bx - x) < 1e-9 and abs(by - y) < 1e-9


class TestClipMeta:
    def test_rejects_bad_frame_count(self):
        with pytest.raises(InputError):
            ClipMeta("c", 0, 640, 480)

    def test_rejects_bad_fps(self):
        with pytest.raises(InputError):
            ClipMeta("c", 10, 640, 480, fps=0)

    def test_rejects_area_outside_display(self):
        with pytest.raises(InputError):
            ClipMeta("c", 10, 640, 480, active_area=Rect(0, 0, 5000, 5000))

    def test_frame_px_per_degree_follows_letterbox_scale(self):
        # frame shown 1:1 -> calibration carries over unchanged
        assert make_meta(1920, 800).frame_px_per_degree == pytest.approx(45.0)
        # frame upscaled 2x on screen -> one degree covers half the frame px
        meta = make_meta(960, 600, 1920, 1200)
        assert meta.frame_px_per_degree == pytest.approx(22.5)

    def test_from_dict_roundtrip(self):
        meta = ClipMeta.from_dict({
            "clip_id": "c", "frame_count": 10, "frame_width_px": 640,
            "frame_height_px": 480, "fps": 25.0,
        })
        assert meta.fps == 25.0
        assert meta.active_area.h == 1200  # 640x480 fit in 1920x1200 -> pillarbox


class TestGridTypes:
    def test_fixation_map_validates_bounds(self):
        with pytest.raises(InputError, match=r"point \(4, 0\) outside 4x4 frame"):
            build_fixation_map([(4, 0)], 4, 4)
        with pytest.raises(InputError, match="dimensions must be positive"):
            build_fixation_map([], 0, 4)

    def test_fixation_map_to_array(self):
        fmap = build_fixation_map([(2, 1), (0, 0)], 3, 2)
        expected = np.array([[1.0, 0, 0], [0, 0, 1.0]])
        assert np.array_equal(fixation_array(fmap), expected)


class TestRounding:
    """``core.rasterize`` is the one rule that rounds a point to a pixel;
    each table row is (x, y, width, height, pixel)."""

    @staticmethod
    def check(table):
        for x, y, width, height, pixel in table:
            (position,) = rasterize(np.array([[x, y]]), width, height).tolist()
            assert divmod(position, width) == pixel[::-1], (x, y)
            assert rasterize_point(x, y, width, height) == pixel, (x, y)

    def test_half_up(self):
        self.check([(2.5, 0.5, 8, 8, (3, 1)),          # ties round up
                    (0.5, 6.5, 8, 8, (1, 7)),
                    (2.49, 1.5 - 1e-9, 8, 8, (2, 1)),  # just below a tie rounds down
                    (0.0, 0.0, 8, 8, (0, 0))])

    def test_rasterize_sticks_to_edge(self):
        self.check([(7.5, 3.5, 8, 4, (7, 3)),            # width - 0.5
                    (8 - 1e-9, 4 - 1e-9, 8, 4, (7, 3)),  # width - 1e-9
                    (639.7, 0.0, 640, 480, (639, 0))])

    def test_positions_are_row_major_int64_in_input_order(self):
        got = rasterize([(1.0, 2.0), (0.0, 0.0), (1.0, 2.0)], 5, 4)
        assert got.dtype == np.int64 and got.tolist() == [11, 0, 11]
        assert rasterize(np.empty((0, 2)), 5, 4).tolist() == []

    def test_rasterize_rejects_out_of_bounds(self):
        # the first point outside the 640x480 frame is named, as given
        for points, message in [
                ([(640.0, 0.0)], "point (640.0, 0.0) outside 640x480 frame"),
                ([(0.0, 480.0)], "point (0.0, 480.0) outside 640x480 frame"),
                ([(3.0, 3.0), (-1e-09, 2.0), (700.0, 0.0)],
                 "point (-1e-09, 2.0) outside 640x480 frame"),
                ([(float("nan"), 1.0)], "point (nan, 1.0) outside 640x480 frame"),
                ([(1.0, float("inf"))], "point (1.0, inf) outside 640x480 frame"),
                ([(640, 0)], "point (640, 0) outside 640x480 frame")]:
            for build in (rasterize, build_fixation_map):
                with pytest.raises(InputError) as exc:
                    build(points, 640, 480)
                assert str(exc.value) == message
            with pytest.raises(InputError, match="outside 640x480 frame"):
                rasterize_point(*points[-1], 640, 480)
