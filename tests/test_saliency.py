import math

import numpy as np
import pytest

from cinegaze.errors import InputError
from cinegaze.ingest import build_fixation_map
from cinegaze import saliency
from cinegaze.saliency import (_blur_points, average_map, blur_fixations, center_prior,
                               make_kernel, resize_bilinear, stamp_kernel, stamps_points)

from oracles import (average_map_oracle, direct_convolve2d, fixation_array,
                     resize_bilinear_oracle, to_reference_grid)


def fmap(points, w=64, h=64):
    return build_fixation_map(points, w, h)


class TestKernel:
    def test_center_is_maximum(self):
        k = make_kernel(3.0)
        r = k.radius_px
        assert k.weights[r, r] == k.weights.max()

    def test_unit_sum(self):
        for sigma in (0.7, 2.0, 45.0):
            assert abs(make_kernel(sigma).weights.sum() - 1.0) < 1e-9

    def test_radius_from_truncation(self):
        assert make_kernel(45.0, truncation=3).radius_px == 135

    def test_symmetry(self):
        w = make_kernel(2.5).weights
        assert np.allclose(w, w.T)
        assert np.allclose(w, np.rot90(w))
        assert np.allclose(w, w[::-1, :])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InputError):
            make_kernel(0.0)
        with pytest.raises(InputError):
            make_kernel(-1.0)

    @pytest.mark.parametrize("sigma,truncation", [
        (math.nan, 3.0), (math.inf, 3.0), (2.0, math.nan), (2.0, math.inf)])
    def test_rejects_non_finite_settings(self, sigma, truncation):
        with pytest.raises(InputError):
            make_kernel(sigma, truncation)


class TestBlur:
    def test_empty_map_blurs_to_zero(self):
        out = blur_fixations(fmap([]), make_kernel(2.0))
        assert out.values.shape == (64, 64)
        assert not out.values.any()

    def test_delta_response_is_translated_kernel(self):
        k = make_kernel(2.0)
        out = blur_fixations(fmap([(32, 30)]), k)
        r = k.radius_px
        assert np.allclose(out.values[30 - r:30 + r + 1, 32 - r:32 + r + 1],
                           k.weights, atol=1e-12)
        assert abs(out.values.sum() - 1.0) < 1e-6

    def test_two_close_fixations_sum_of_kernels(self):
        k = make_kernel(2.0)
        out = blur_fixations(fmap([(30, 30), (31, 30)]), k)
        expected = direct_convolve2d(fixation_array(fmap([(30, 30), (31, 30)])), k.weights)
        assert np.abs(out.values - expected).max() < 1e-6

    def test_matches_direct_convolution_both_paths(self, rng):
        k = make_kernel(2.0)
        # sparse: stamping path; dense: separable path
        for n_points in (3, 900):
            flat = rng.choice(64 * 64, size=n_points, replace=False)
            pts = [(int(i % 64), int(i // 64)) for i in flat]
            out = blur_fixations(fmap(pts), k)
            expected = direct_convolve2d(fixation_array(fmap(pts)), k.weights)
            assert np.abs(out.values - expected).max() < 1e-6

    def test_border_mass_leaks_off_map(self):
        out = blur_fixations(fmap([(0, 0)]), make_kernel(3.0))
        assert out.values.sum() < 0.5  # three quadrants of the kernel fall off

    def test_mass_conservation_interior(self, rng):
        k = make_kernel(2.0)
        r = k.radius_px
        flat = rng.choice(40 * 40, size=12, replace=False)
        pts = [(int(i % 40) + r, int(i // 40) + r) for i in flat]
        out = blur_fixations(fmap(pts, 40 + 2 * r, 40 + 2 * r), k)
        assert abs(out.values.sum() - len(pts)) < 1e-6

    def test_linear_in_fixation_sets(self, rng):
        k = make_kernel(1.5)
        flat = rng.choice(64 * 64, size=30, replace=False)
        pts = [(int(i % 64), int(i // 64)) for i in flat]
        a, b = set(pts[:20]), set(pts[10:])
        lhs = blur_fixations(fmap(a | b), k).values
        rhs = (blur_fixations(fmap(a), k).values
               + blur_fixations(fmap(b), k).values
               - blur_fixations(fmap(a & b), k).values)
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_translation_equivariance(self):
        k = make_kernel(1.5)
        base = blur_fixations(fmap([(20, 22), (24, 22)]), k).values
        shifted = blur_fixations(fmap([(25, 30), (29, 30)]), k).values
        assert np.allclose(np.roll(np.roll(base, 8, axis=0), 5, axis=1), shifted,
                           atol=1e-12)

    def test_stamps_in_x_then_y_order(self, rng):
        # the order of the stamps fixes the bits of overlapping sums, and
        # with them the bytes of every map and score written
        k = make_kernel(2.0)
        flat = rng.choice(30 * 20, size=25, replace=False)
        pts = sorted((int(i % 30), int(i // 30)) for i in flat)
        stamped = np.zeros((20, 30))
        for x, y in pts:
            stamp_kernel(stamped, k.weights, x, y)
        assert np.array_equal(blur_fixations(fmap(pts, 30, 20), k).values, stamped)

    def test_paper_sized_frame_is_stamped_bit_for_bit(self, rng):
        k = make_kernel(45.0)
        pts = sorted({(int(rng.integers(1920)), int(rng.integers(800))) for _ in range(14)})
        assert stamps_points(len(pts), 1920, 800, k)
        assert np.array_equal(blur_fixations(fmap(pts, 1920, 800), k).values,
                              stamped(pts, np.ones(len(pts)), 1920, 800, k))


def stamped(pts, amounts, w, h, kernel):
    """Sequential ``stamp_kernel`` of ``amounts[i]`` at each of ``pts``."""
    out = np.zeros((h, w))
    for (x, y), amount in zip(pts, amounts):
        stamp_kernel(out, kernel.weights, x, y, amount)
    return out


class TestFftRoute:
    """The many-points route against stamping: the same zero set, and
    values within 1e-12 of the peak."""

    @pytest.fixture(autouse=True)
    def fft_route(self, monkeypatch):
        monkeypatch.setattr(saliency, "FFT_COST", 0)  # nothing is stamped

    def check(self, pts, amounts, w, h, kernel):
        pixels = np.array([y * w + x for x, y in pts], dtype=np.int64)
        order = np.argsort(pixels)
        got = _blur_points(pixels[order], np.asarray(amounts, float)[order], w, h, kernel)
        want = stamped(pts, amounts, w, h, kernel)
        assert got.shape == (h, w) and got.flags.c_contiguous
        assert np.array_equal(got == 0, want == 0)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    @pytest.mark.parametrize("w,h", [(40, 30), (30, 45), (97, 11), (1, 20), (20, 1), (1, 1)])
    def test_every_edge_and_counts_above_one(self, rng, w, h):
        k = make_kernel(2.5)  # radius 8: most stamps below are clipped
        edges = {(x, y) for x in (0, w - 1) for y in range(h)}
        edges |= {(x, y) for x in range(w) for y in (0, h - 1)}
        inner = {(int(rng.integers(w)), int(rng.integers(h))) for _ in range(w * h // 8)}
        pts = sorted(edges | inner)
        self.check(pts, rng.integers(1, 6, len(pts)), w, h, k)

    @pytest.mark.parametrize("line", ["row", "column"])
    def test_single_row_or_column_of_points(self, rng, line):
        k = make_kernel(3.0)
        w, h = 64, 48
        if line == "row":
            pts = [(int(x), 20) for x in sorted(rng.choice(w, 30, replace=False))]
        else:
            pts = [(5, int(y)) for y in sorted(rng.choice(h, 30, replace=False))]
        self.check(pts, rng.integers(1, 4, len(pts)), w, h, k)

    def test_sparse_points_leave_exact_zeros_between(self, rng):
        k = make_kernel(2.0)  # radius 6
        pts = [(3, 4), (60, 4), (3, 70), (90, 80), (91, 80), (45, 40)]
        self.check(pts, [1, 2, 3, 1, 7, 2], 100, 90, k)

    def test_paper_sized_clip(self, rng):
        k = make_kernel(45.0)
        flat = np.unique(rng.integers(0, 1920 * 800, 1500))
        pts = [(int(p % 1920), int(p // 1920)) for p in flat]
        self.check(pts, rng.integers(1, 9, len(pts)), 1920, 800, k)


def random_maps(rng, frames, w, h, per_frame):
    """``frames`` fixation maps of ``per_frame`` random pixels each."""
    return [fmap({(int(rng.integers(w)), int(rng.integers(h))) for _ in range(per_frame)},
                 w, h) for _ in range(frames)]


def assert_matches_oracle(clips, kernel, w, h):
    got = average_map(clips, kernel, w, h).values
    expected = average_map_oracle(clips, kernel, w, h)
    assert got.shape == (h, w)
    assert np.abs(got - expected).max() <= 1e-12 * expected.max()


class TestAverageMap:
    def test_single_map_equals_per_frame_route(self, rng):
        k = make_kernel(2.0)
        for m in (fmap([(3, 60), (40, 2)], 64, 64), fmap([(0, 0)], 20, 30),
                  random_maps(rng, 1, 32, 24, 300)[0]):  # sparse, edge, dense
            for ref in ((64, 64), (40, 25), (17, 33)):
                per_frame = to_reference_grid(blur_fixations(m, k).values, *ref)
                assert np.array_equal(average_map([[m]], k, *ref).values, per_frame)

    def test_mean_of_constants(self):
        # a kernel this narrow blurs the fully fixated map to 1 everywhere;
        # the empty map counts in the mean like any other
        everywhere = fmap([(x, y) for x in range(3) for y in range(3)], 3, 3)
        out = average_map([[everywhere, fmap([], 3, 3)]], make_kernel(0.1), 3, 3)
        assert np.allclose(out.values, 0.5, rtol=0, atol=1e-12)

    def test_three_clips_hand_average(self, rng):
        k = make_kernel(2.0)
        clips = [random_maps(rng, 4, 48, 20, 5), random_maps(rng, 7, 40, 30, 3),
                 random_maps(rng, 2, 30, 40, 9)]
        assert_matches_oracle(clips, k, 32, 24)
        streamed = average_map(((m for m in maps) for maps in clips), k, 32, 24)
        assert np.array_equal(streamed.values, average_map(clips, k, 32, 24).values)

    def test_identical_inputs_fixed_point(self, rng):
        k = make_kernel(2.0)
        m = random_maps(rng, 1, 40, 30, 6)[0]
        out = average_map([[m, m, m]], k, 40, 30).values
        expected = blur_fixations(m, k).values
        assert np.abs(out - expected).max() <= 1e-12 * expected.max()

    def test_same_pixel_in_many_frames(self, rng):
        k = make_kernel(2.0)
        maps = [fmap([(20, 15), *zip(m.pixels % 40, m.pixels // 40)], 40, 30)
                for m in random_maps(rng, 20, 40, 30, 2)]
        assert_matches_oracle([maps], k, 32, 24)

    def test_duplicate_points_in_a_frame_collapse(self):
        k = make_kernel(2.0)
        twice = build_fixation_map([(10.2, 5.1), (9.8, 4.9), (30.0, 20.0)], 40, 30)
        once = build_fixation_map([(10.0, 5.0), (30.0, 20.0)], 40, 30)
        other = fmap([(10, 5)], 40, 30)
        out = average_map([[twice, other]], k, 32, 24).values
        assert np.array_equal(out, average_map([[once, other]], k, 32, 24).values)
        assert_matches_oracle([[twice, other]], k, 32, 24)

    def test_points_at_the_edges(self):
        k = make_kernel(3.0)  # radius 9: every stamp below is clipped
        corners = [(0, 0), (39, 0), (0, 29), (39, 29), (20, 0), (0, 15), (39, 14), (5, 29)]
        maps = [fmap(corners[i:i + 3], 40, 30) for i in range(len(corners))]
        assert_matches_oracle([maps], k, 32, 24)
        assert_matches_oracle([maps], k, 40, 30)

    def test_dense_clip_takes_separable_route(self, rng):
        k = make_kernel(2.0)
        w, h = 32, 24
        maps = random_maps(rng, 30, w, h, 10)
        # each frame alone is stamped; the clip's distinct pixels are not
        assert all(stamps_points(m.pixels.size, w, h, k) for m in maps)
        distinct = np.unique(np.concatenate([m.pixels for m in maps])).size
        assert not stamps_points(distinct, w, h, k)
        assert_matches_oracle([maps, random_maps(rng, 3, 20, 20, 2)], k, 28, 20)

    def test_all_frames_excluded_is_error(self):
        k = make_kernel(2.0)
        for clips in ([], [[]], [iter(())]):
            with pytest.raises(InputError, match="no frames"):
                average_map(clips, k)

    def test_dimension_mismatch_is_error(self):
        clips = [[fmap([(1, 1)], 10, 10), fmap([(1, 1)], 12, 10)]]
        with pytest.raises(InputError):
            average_map(clips, make_kernel(2.0))

    def test_reference_grid_must_be_positive(self):
        with pytest.raises(InputError):
            average_map([[fmap([(1, 1)], 10, 10)]], make_kernel(2.0), 0, 10)


class TestCenterPrior:
    def test_peak_at_center(self):
        p = center_prior(101, 51)
        iy, ix = np.unravel_index(np.argmax(p.values), p.values.shape)
        assert (ix, iy) == (50, 25)

    def test_unit_sum(self):
        assert abs(center_prior(100, 100).values.sum() - 1.0) < 1e-9

    def test_falloff_matches_closed_form(self):
        p = center_prior(100, 100, sigma_fraction=1.0 / 6.0)
        sigma = 100.0 / 6.0
        ratio = p.values[67, 50] / p.values[50, 50]
        # (50, 67) is 17.5 px below the center at (49.5, 49.5) in y,
        # (50, 50) is at radius sqrt(2)/2; the exact ratio follows the Gaussian
        d_center = (50 - 49.5) ** 2 + (67 - 49.5) ** 2
        d_peakpx = (50 - 49.5) ** 2 + (50 - 49.5) ** 2
        expected = math.exp(-(d_center - d_peakpx) / (2 * sigma * sigma))
        assert abs(ratio - expected) < 1e-12
        assert abs(ratio - 0.594) < 5e-2

    def test_rejects_bad_sigma_fraction(self):
        with pytest.raises(InputError):
            center_prior(10, 10, sigma_fraction=0.0)


class TestResize:
    def test_identity(self, rng):
        g = rng.random((7, 9))
        assert np.array_equal(resize_bilinear(g, 9, 7), g)

    def test_constant_preserved(self):
        out = resize_bilinear(np.full((5, 5), 3.25), 11, 13)
        assert np.allclose(out, 3.25)

    def test_linear_ramp_exact(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 9), (4, 1))
        out = resize_bilinear(ramp, 17, 4)
        assert np.allclose(out, np.tile(np.linspace(0.0, 1.0, 17), (4, 1)), atol=1e-12)

    @pytest.mark.parametrize("shape,out", [
        ((7, 9), (25, 19)),   # up in both axes
        ((40, 50), (13, 9)),  # down in both axes
        ((6, 40), (17, 11)),  # up in y, down in x
        ((30, 5), (3, 16)),   # down in y, up in x
        ((9, 7), (1, 5)),     # output width 1
        ((9, 7), (6, 1)),     # output height 1
        ((1, 8), (5, 3)),     # input height 1
        ((8, 1), (3, 5)),     # input width 1
        ((5, 5), (1, 1)),
        # outputs several bands of RESIZE_BAND_ROWS tall
        ((20, 30), (50, 101)),     # up, a height that is not a multiple of the band
        ((50, 40), (70, 96)),      # up, exactly three bands
        ((40, 50), (300, 33)),     # down in x, one row in the last band
        ((40, 50), (300, 1)),      # one wide row
        ((800, 1920), (640, 400)),  # down in both axes, 12.5 bands
        ((200, 480), (1920, 800)),  # the benchmark's prediction onto its frame
    ])
    def test_equals_four_corner_formula(self, rng, shape, out):
        g = rng.random(shape)
        got = resize_bilinear(g, *out)
        assert np.array_equal(got, resize_bilinear_oracle(g, *out))
        assert got.shape == (out[1], out[0]) and got.flags.c_contiguous

    def test_reference_grid_shape(self, rng):
        out = to_reference_grid(rng.random((300, 720)), 640, 400)
        assert out.shape == (400, 640)
