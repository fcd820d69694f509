import math
import threading
import time

import numpy as np
import pytest

from cinegaze import metrics
from cinegaze.errors import CinegazeError, InputError, UndefinedValueError
from cinegaze.ingest import build_fixation_map
from cinegaze.metrics import (KLD_EPSILON, auc_borji, auc_judd, cc, kld, nss,
                              score_frame, sim)
from cinegaze.saliency import blur_fixations, make_kernel

from conftest import random_metric_instance
from oracles import (auc_borji_oracle, auc_borji_split_loop, auc_judd_one_sort,
                     auc_judd_oracle, cc_oracle, kld_oracle, nss_oracle, sim_oracle)


def fixation_map(pixels, w=16, h=16):
    return build_fixation_map(pixels, w, h)


class TestCC:
    def test_self_correlation(self, rng):
        p = rng.random((8, 8))
        assert cc(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self, rng):
        p = rng.random((8, 8))
        assert cc(p, 5.0 - p) == pytest.approx(-1.0, abs=1e-12)

    def test_fixed_grids_against_textbook_formula(self):
        p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 1.0]])
        q = np.array([[2.0, 1.0, 4.0], [3.0, 6.0, 5.0], [8.0, 9.0, 2.0]])
        expected = 0.9335757202552881  # direct sum-of-products computation
        assert cc(p, q) == pytest.approx(expected, abs=1e-12)
        assert cc_oracle(p, q) == pytest.approx(expected, abs=1e-12)

    def test_both_constant_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            cc(np.ones((4, 4)), np.full((4, 4), 2.0))

    def test_one_constant_returns_zero(self, rng):
        assert cc(np.ones((4, 4)), rng.random((4, 4))) == 0.0

    def test_symmetric(self, rng):
        p, q = rng.random((8, 8)), rng.random((8, 8))
        assert cc(p, q) == pytest.approx(cc(q, p), abs=1e-14)

    def test_signed_ground_truth_zero_on_part_of_the_grid(self, rng):
        # the cross term is summed where q != 0, so negative q counts too
        p, q = rng.random((9, 7)), rng.normal(size=(9, 7))
        q[:, :3] = 0.0
        assert cc(p, q) == pytest.approx(cc_oracle(p, q), abs=1e-12)
        assert cc(q, p) == pytest.approx(cc_oracle(q, p), abs=1e-12)


class TestSIM:
    def test_self_similarity(self, rng):
        p = rng.random((8, 8)) + 0.01
        assert sim(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        p = np.zeros((4, 4)); p[0, 0] = 1.0
        q = np.zeros((4, 4)); q[3, 3] = 1.0
        assert sim(p, q) == 0.0

    def test_uniform_vs_point_mass(self):
        n = 25
        p = np.ones((5, 5))
        q = np.zeros((5, 5)); q[2, 1] = 4.0
        assert sim(p, q) == pytest.approx(1.0 / n, abs=1e-12)

    def test_zero_sum_rejected(self, rng):
        with pytest.raises(InputError):
            sim(np.zeros((4, 4)), rng.random((4, 4)))

    def test_symmetric(self, rng):
        p, q = rng.random((8, 8)) + 0.01, rng.random((8, 8)) + 0.01
        assert sim(p, q) == pytest.approx(sim(q, p), abs=1e-14)

    def test_negative_value_rejected(self):
        # SIM is defined on distributions; a negative pixel used to give
        # a silent 0.357 here
        negative = np.array([[0.5, -0.1], [0.3, 0.0]])
        for p, q in ((np.ones((2, 2)), negative), (negative, np.ones((2, 2)))):
            with pytest.raises(InputError):
                sim(p, q)


class TestNSS:
    def test_three_pixel_hand_computation(self):
        # S = [0, 0, 3]: mean 1, population std sqrt(2); z at the peak = sqrt(2)
        s = np.array([[0.0, 0.0, 3.0]])
        assert nss(s, fixation_map([(2, 0)], 3, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_fixations_everywhere_average_to_zero(self, rng):
        s = rng.random((4, 4))
        everywhere = [(x, y) for x in range(4) for y in range(4)]
        assert nss(s, fixation_map(everywhere, 4, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_independent_maps_score_near_zero(self, rng):
        total = 0.0
        trials = 1000
        for _ in range(trials):
            s = rng.random((8, 8))
            x, y = rng.integers(0, 8, 2)
            total += nss(s, fixation_map([(int(x), int(y))], 8, 8))
        assert abs(total / trials) < 0.05

    def test_empty_fixations_rejected(self, rng):
        with pytest.raises(InputError):
            nss(rng.random((4, 4)), fixation_map([], 4, 4))

    def test_constant_map_undefined(self):
        with pytest.raises(UndefinedValueError):
            nss(np.ones((4, 4)), fixation_map([(0, 0)], 4, 4))


class TestAucJudd:
    def test_perfect_ranking(self):
        fmap = fixation_map([(8, 8), (3, 12)])
        s = blur_fixations(fmap, make_kernel(1.5))
        assert auc_judd(s, fmap) >= 0.99

    def test_constant_map_is_chance(self):
        assert auc_judd(np.ones((6, 6)), fixation_map([(1, 2), (3, 3)], 6, 6)) == 0.5

    def test_hand_enumerated_5x5(self):
        s = np.array([[0.1, 0.2, 0.3, 0.4, 0.5],
                      [0.6, 0.7, 0.8, 0.9, 1.0],
                      [0.15, 0.25, 0.35, 0.45, 0.55],
                      [0.65, 0.75, 0.85, 0.95, 0.05],
                      [0.12, 0.22, 0.32, 0.42, 0.52]])
        fmap = fixation_map([(4, 1), (2, 3)], 5, 5)
        # thresholds 1.0 and 0.85: points (0,0), (0,.5), (2/23,1), (1,1)
        expected = 22.5 / 23.0
        assert auc_judd(s, fmap) == pytest.approx(expected, abs=1e-12)
        assert auc_judd_oracle(s, [(4, 1), (2, 3)]) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_fixations_rejected(self, rng):
        s = rng.random((3, 3))
        with pytest.raises(InputError):
            auc_judd(s, fixation_map([], 3, 3))
        everything = [(x, y) for x in range(3) for y in range(3)]
        with pytest.raises(InputError):
            auc_judd(s, fixation_map(everything, 3, 3))


class TestAucJuddBlocks:
    """AUC-Judd counted block by block equals one sort of every pixel."""

    def pixels(self, shape, flat):
        return [(int(i % shape[1]), int(i // shape[1])) for i in flat]

    def check(self, s, pixels, oracle=False):
        got = auc_judd(s, fixation_map(pixels, s.shape[1], s.shape[0]))
        assert got == auc_judd_one_sort(s, pixels)
        if oracle:
            assert got == auc_judd_oracle(s, pixels)
        frame = score_frame(s, s, fixation_map(pixels, s.shape[1], s.shape[0]), ("AUC_J",),
                            seed=0)
        assert frame["AUC_J"] == got
        return got

    def cases(self, rng, block):
        # (grid, fixated flat positions) around the block's edges: flat sizes
        # block - 1, block, block + 1 and 2 * block + 1, fixations only in
        # the last, partial block, the lowest fixated value at the global
        # minimum, and ties straddling a block boundary
        for size in (block - 1, block, block + 1, 2 * block + 1):
            s = rng.random((1, size))
            yield s, rng.choice(size, size=max(2, size // 50), replace=False)
            yield np.round(s, 1).reshape(-1, 1), rng.choice(size, size=3, replace=False)
        size = 2 * block + 5
        s = rng.random((1, size))
        yield s, [2 * block, 2 * block + 2, 2 * block + 4]
        s = rng.random((1, size))
        low = int(np.argmin(s))
        yield s, [low, (low + block) % size]
        s = rng.random((1, size))
        s[0, block - 3:block + 3] = 0.25  # one tie across the boundary
        s[0, 2 * block - 1:2 * block + 2] = s[0, 7]
        yield s, [block - 2, block + 1, 7, size - 1]

    def test_real_block_equals_one_sort(self, rng):
        for s, flat in self.cases(rng, metrics.AUC_JUDD_BLOCK):
            self.check(s, self.pixels(s.shape, flat))

    def test_small_block_equals_one_sort_and_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(metrics, "AUC_JUDD_BLOCK", 8)
        for s, flat in self.cases(rng, 8):
            s = s.reshape(-1, 3) if s.size % 3 == 0 else s.reshape(1, -1)
            self.check(s, self.pixels(s.shape, flat), oracle=True)
        for style in (0, 1, 2) * 3:
            s, _, pixels = random_metric_instance(rng, side=12, style=style)
            self.check(s, pixels, oracle=True)

    def test_a_block_of_one_pixel(self, rng, monkeypatch):
        monkeypatch.setattr(metrics, "AUC_JUDD_BLOCK", 1)
        s = np.round(rng.random((5, 7)), 1)
        self.check(s, [(0, 0), (6, 4), (3, 2)], oracle=True)


class TestAucBorji:
    def test_constant_map_is_chance(self):
        v = auc_borji(np.ones((6, 6)), fixation_map([(1, 2), (3, 3)], 6, 6), seed=9)
        assert v == pytest.approx(0.5, abs=0.02)

    def test_perfect_ranking(self):
        fmap = fixation_map([(8, 8), (3, 12)])
        s = blur_fixations(fmap, make_kernel(1.5))
        assert auc_borji(s, fmap, seed=3) >= 0.99

    def test_deterministic_given_seed(self, rng):
        s = rng.random((16, 16))
        fmap = fixation_map([(2, 2), (9, 12), (14, 3)])
        a = auc_borji(s, fmap, splits=20, seed=77)
        b = auc_borji(s, fmap, splits=20, seed=77)
        assert a == b
        assert a != auc_borji(s, fmap, splits=20, seed=78)

    def test_seed_is_mandatory(self, rng):
        with pytest.raises(TypeError):
            auc_borji(rng.random((8, 8)), fixation_map([(1, 1)], 8, 8))

    @pytest.mark.parametrize("splits", [1, 100])
    @pytest.mark.parametrize("negatives_per_fixation", [1, 3])
    def test_equals_the_split_loop_bit_for_bit(self, rng, splits, negatives_per_fixation):
        # all splits as arrays against one split at a time: same draws, same
        # counts, the same areas added in the same order
        for style in (0, 1, 2) * 4:  # style 1 quantizes the map: tied values
            s, _, fix_pixels = random_metric_instance(rng, side=12, style=style)
            # one fixation makes n_neg odd, so split rows start mid-way
            # through the generator's 64-bit words
            for pixels in (fix_pixels, fix_pixels + [(0, 0), (11, 11)], fix_pixels[:1]):
                pixels = sorted(set(pixels))
                seed = int(rng.integers(1 << 31))
                got = auc_borji(s, fixation_map(pixels, 12, 12), negatives_per_fixation,
                                splits, seed=seed)
                assert got == auc_borji_split_loop(s, pixels, negatives_per_fixation,
                                                   splits, seed)

    def test_all_ties_and_one_fixation_equal_the_split_loop(self):
        s = np.zeros((5, 7))
        s[2, 3] = 1.0
        for pixels in ([(0, 0)], [(6, 4)], [(3, 2)], [(0, 0), (6, 4), (3, 2)]):
            for seed in (0, 1, 2):
                got = auc_borji(s, fixation_map(pixels, 7, 5), 3, 100, seed=seed)
                assert got == auc_borji_split_loop(s, pixels, 3, 100, seed)


class TestKLD:
    def test_identity_within_epsilon_bound(self, rng):
        # kld(P, P) = -sum q*log(1 + eps/p), so |kld| <= N*eps on N pixels
        small = rng.random((3, 3)) + 0.1
        assert abs(kld(small, small)) < 1e-6
        p = rng.random((8, 8)) + 0.1
        v = kld(p, p)
        assert -p.size * KLD_EPSILON <= v <= 0.0

    def test_point_mass_vs_uniform_closed_form(self):
        q = np.zeros((5, 5)); q[2, 2] = 1.0
        p = np.ones((5, 5))
        exact = math.log(1.0 / (1.0 / 25.0 + KLD_EPSILON))
        assert kld(p, q) == pytest.approx(exact, abs=1e-12)
        assert kld(p, q) == pytest.approx(math.log(25), abs=1e-4)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(100):
            p = rng.random((8, 8)) + 1e-3
            q = rng.random((8, 8)) + 1e-3
            assert kld(p, q) >= 0.0

    def test_asymmetric(self, rng):
        p = rng.random((8, 8)) + 1e-3
        q = p ** 3 + 1e-3
        assert kld(p, q) != pytest.approx(kld(q, p), abs=1e-6)

    def test_zero_sum_rejected(self, rng):
        with pytest.raises(InputError):
            kld(np.zeros((4, 4)), rng.random((4, 4)))

    def test_negative_value_rejected(self):
        # a negative ground-truth pixel used to give NaN with a numpy
        # RuntimeWarning
        negative = np.array([[0.5, -0.1], [0.3, 0.0]])
        for p, q in ((np.ones((2, 2)), negative), (negative, np.ones((2, 2)))):
            with pytest.raises(InputError):
                kld(p, q)


class TestSharedProperties:
    def test_translation_invariance(self, rng):
        s, q, fix_pixels = random_metric_instance(rng, side=16)
        # keep content identical under a cyclic shift of both maps
        dx, dy = 3, 5
        s2 = np.roll(np.roll(s, dy, axis=0), dx, axis=1)
        q2 = np.roll(np.roll(q, dy, axis=0), dx, axis=1)
        fix2 = [((x + dx) % 16, (y + dy) % 16) for (x, y) in fix_pixels]
        f1, f2 = fixation_map(fix_pixels), fixation_map(fix2)
        assert cc(s, q) == pytest.approx(cc(s2, q2), abs=1e-10)
        assert sim(s, q) == pytest.approx(sim(s2, q2), abs=1e-10)
        assert nss(s, f1) == pytest.approx(nss(s2, f2), abs=1e-10)
        assert auc_judd(s, f1) == pytest.approx(auc_judd(s2, f2), abs=1e-12)
        assert kld(s + 1e-3, q) == pytest.approx(kld(s2 + 1e-3, q2), abs=1e-10)

    def test_affine_rescaling_invariance(self, rng):
        s, q, fix_pixels = random_metric_instance(rng, side=16)
        fmap = fixation_map(fix_pixels)
        s2 = 3.5 * s + 2.0
        assert cc(s2, q) == pytest.approx(cc(s, q), abs=1e-9)
        assert nss(s2, fmap) == pytest.approx(nss(s, fmap), abs=1e-9)
        # ranking metrics are exactly invariant: identical threshold counts
        assert auc_judd(s2, fmap) == auc_judd(s, fmap)
        assert (auc_borji(s2, fmap, splits=10, seed=5)
                == auc_borji(s, fmap, splits=10, seed=5))


class TestOracleEquivalence:
    def test_battery_against_naive_oracles(self, rng):
        for _ in range(60):
            s, q, fix_pixels = random_metric_instance(rng)
            fmap = fixation_map(fix_pixels)
            assert cc(s, q) == pytest.approx(cc_oracle(s, q), abs=1e-6)
            assert sim(s, q) == pytest.approx(sim_oracle(s, q), abs=1e-6)
            assert nss(s, fmap) == pytest.approx(nss_oracle(s, fix_pixels), abs=1e-6)
            assert kld(s + 1e-4, q) == pytest.approx(
                kld_oracle(s + 1e-4, q, KLD_EPSILON), abs=1e-6)
            if len(fix_pixels) < 256:
                assert auc_judd(s, fmap) == pytest.approx(
                    auc_judd_oracle(s, fix_pixels), abs=1e-6)
                mine = auc_borji(s, fmap, splits=4, seed=101)
                ref = auc_borji_oracle(s, fix_pixels, 1, 4, 101)
                assert mine == ref  # same seed: bit-identical


ALL_METRICS = ("CC", "SIM", "AUC_J", "AUC_B", "NSS", "KLD")


def public_scores(p, q, fmap, splits, seed):
    """The six public functions, each value or the error it raised."""
    calls = {"CC": lambda: cc(p, q), "SIM": lambda: sim(p, q),
             "AUC_J": lambda: auc_judd(p, fmap),
             "AUC_B": lambda: auc_borji(p, fmap, 1, splits, seed=seed),
             "NSS": lambda: nss(p, fmap), "KLD": lambda: kld(p, q)}
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except CinegazeError as exc:
            out[name] = exc
    return out


class TestScoreFrame:
    """score_frame against the six public functions, bit for bit."""

    def check(self, p, q, fmap, splits=7, seed=3):
        got = score_frame(p, q, fmap, ALL_METRICS, splits, seed=seed)
        want = public_scores(p, q, fmap, splits, seed)
        assert set(got) == set(want)
        for name, value in want.items():
            if isinstance(value, CinegazeError):
                assert type(got[name]) is type(value), name
                assert str(got[name]) == str(value), name
            else:
                assert got[name] == value, name
        return got

    def test_random_instances(self, rng):
        for style in (0, 1, 2) * 5:
            s, q, fix_pixels = random_metric_instance(rng, side=12, style=style)
            got = self.check(s, q, fixation_map(fix_pixels, 12, 12), seed=int(rng.integers(100)))
            # same arithmetic as the brute-force ROC: equal, not just close
            assert got["AUC_J"] == auc_judd_oracle(s, fix_pixels)

    def test_first_and_last_pixel_and_duplicates(self, rng):
        s, q = rng.random((9, 11)), rng.random((9, 11))
        points = [(0.0, 0.0), (10.0, 8.0), (4.2, 3.9), (3.8, 4.1), (4.0, 4.0)]
        fmap = build_fixation_map(points, 11, 9)
        assert fmap.pixels.size == 3
        self.check(s, q, fmap)
        self.check(s, q, fmap, splits=3)

    def test_lowest_fixated_value_is_the_global_minimum(self, rng):
        s, q = rng.random((10, 10)), rng.random((10, 10))
        y, x = np.unravel_index(int(np.argmin(s)), s.shape)
        got = self.check(s, q, fixation_map([(int(x), int(y)), (2, 7)], 10, 10))
        assert got["AUC_J"] == auc_judd_oracle(s, [(int(x), int(y)), (2, 7)])

    def test_error_cases(self, rng):
        q = rng.random((6, 6))
        some = fixation_map([(1, 2), (4, 4)], 6, 6)
        everywhere = fixation_map([(x, y) for x in range(6) for y in range(6)], 6, 6)
        cases = [
            (np.ones((6, 6)), np.full((6, 6), 2.0), some),  # both maps constant
            (np.ones((6, 6)), q, some),                      # constant prediction
            (rng.random((6, 6)), q, fixation_map([], 6, 6)),  # no fixation
            (rng.random((6, 6)), q, everywhere),             # every pixel fixated
            (np.zeros((6, 6)), q, some),                     # zero prediction mass
            (rng.random((6, 6)), np.zeros((6, 6)), some),    # zero ground-truth mass
        ]
        for p, gt, fmap in cases:
            got = self.check(p, gt, fmap)
            assert any(isinstance(v, CinegazeError) for v in got.values())
        got = self.check(rng.random((6, 6)), q, some, splits=0)
        assert isinstance(got["AUC_B"], InputError)

    def check_distributions(self, p, q, got):
        assert got["SIM"] == pytest.approx(sim_oracle(p, q), abs=1e-6)
        assert got["KLD"] == pytest.approx(kld_oracle(p, q, KLD_EPSILON), abs=1e-6)

    def test_ground_truth_zero_on_part_of_the_grid(self, rng):
        fmap = fixation_map([(2, 3), (9, 9)], 12, 12)
        blur = blur_fixations(fixation_map([(3, 3), (4, 9)], 12, 12), make_kernel(1.0))
        holes = rng.random((12, 12))
        holes[holes < 0.5] = 0.0
        for q in (blur.values, holes):
            assert 0 < np.count_nonzero(q) < q.size
            p = rng.random((12, 12))
            got = self.check(p, q, fmap)
            assert got["CC"] == pytest.approx(cc_oracle(p, q), abs=1e-6)
            self.check_distributions(p, q, got)

    def test_ground_truth_zero_on_none_of_the_grid(self, rng):
        p, q = rng.random((12, 12)), rng.random((12, 12)) + 1e-3
        got = self.check(p, q, fixation_map([(2, 3)], 12, 12))
        assert got["CC"] == pytest.approx(cc_oracle(p, q), abs=1e-6)
        self.check_distributions(p, q, got)

    def test_ground_truth_zero_on_all_of_the_grid(self, rng):
        p = rng.random((12, 12))
        got = self.check(p, np.zeros((12, 12)), fixation_map([(2, 3)], 12, 12))
        assert got["CC"] == 0.0
        assert isinstance(got["SIM"], InputError) and isinstance(got["KLD"], InputError)
        got = self.check(np.ones((12, 12)), np.zeros((12, 12)), fixation_map([(2, 3)], 12, 12))
        assert isinstance(got["CC"], UndefinedValueError)

    def test_prediction_zero_on_part_of_the_support(self, rng):
        # KLD's epsilon keeps the log finite where p is 0 and q is not
        p, q = rng.random((12, 12)), rng.random((12, 12))
        q[:, :4] = 0.0
        p[2:6, 5:9] = 0.0
        got = self.check(p, q, fixation_map([(6, 3), (10, 10)], 12, 12))
        assert got["CC"] == pytest.approx(cc_oracle(p, q), abs=1e-6)
        self.check_distributions(p, q, got)
        assert math.isfinite(got["KLD"]) and got["KLD"] > 1.0

    def test_constant_maps(self, rng):
        fmap = fixation_map([(2, 3), (9, 9)], 12, 12)
        q = blur_fixations(fixation_map([(3, 3)], 12, 12), make_kernel(1.0)).values
        flat = np.full((12, 12), 0.5)
        got = self.check(flat, q, fmap)
        assert got["CC"] == 0.0 and got["AUC_J"] == 0.5
        assert isinstance(got["NSS"], UndefinedValueError)
        self.check_distributions(flat, q, got)
        p = rng.random((12, 12))
        got = self.check(p, np.full((12, 12), 2.0), fmap)
        assert got["CC"] == 0.0
        self.check_distributions(p, np.full((12, 12), 2.0), got)

    def test_only_requested_metrics(self, rng):
        s, q = rng.random((8, 8)), rng.random((8, 8))
        got = score_frame(s, q, fixation_map([(1, 1)], 8, 8), ("KLD", "AUC_J"), seed=0)
        assert set(got) == {"KLD", "AUC_J"}

    def test_fixed_key_order_whatever_the_helper_takes(self, rng, monkeypatch):
        s, q = rng.random((8, 8)), rng.random((8, 8))
        fmap = fixation_map([(1, 1), (5, 2)], 8, 8)
        fast = score_frame(s, q, fmap, ALL_METRICS, seed=0)
        real = metrics._auc_judd

        def slow(*args):
            time.sleep(0.05)
            return real(*args)
        monkeypatch.setattr(metrics, "_auc_judd", slow)
        assert list(score_frame(s, q, fmap, ALL_METRICS, seed=0)) == list(fast)
        assert list(fast) == ["NSS", "CC", "SIM", "KLD", "AUC_J", "AUC_B"]

    def test_helper_reads_the_prediction_only(self, rng):
        s, q = rng.random((8, 8)), rng.random((8, 8))
        fmap = fixation_map([(1, 1), (5, 2)], 8, 8)
        want = score_frame(s, q, fmap, ALL_METRICS, seed=0)
        s.flags.writeable = False  # a write on either lane would raise
        assert score_frame(s, q, fmap, ALL_METRICS, seed=0) == want

    def test_other_error_on_the_helper_reaches_the_caller(self, rng, monkeypatch):
        def broken(*args):
            raise RuntimeError("kernel broke")
        monkeypatch.setattr(metrics, "_auc_judd", broken)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel broke"):
            score_frame(rng.random((8, 8)), rng.random((8, 8)),
                        fixation_map([(1, 1)], 8, 8), ALL_METRICS, seed=0)
        assert threading.active_count() == threads

    def test_helper_joined_when_another_metric_raises(self, rng, monkeypatch):
        done = []
        real = metrics._auc_judd

        def slow(*args):
            time.sleep(0.05)
            done.append(real(*args))
            return done[-1]

        def broken(*args):
            raise RuntimeError("cc broke")
        monkeypatch.setattr(metrics, "_auc_judd", slow)
        monkeypatch.setattr(metrics, "_cc", broken)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="cc broke"):
            score_frame(rng.random((8, 8)), rng.random((8, 8)),
                        fixation_map([(1, 1)], 8, 8), ALL_METRICS, seed=0)
        assert len(done) == 1 and threading.active_count() == threads

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(InputError):
            score_frame(rng.random((8, 8)), rng.random((8, 9)),
                        fixation_map([(1, 1)], 8, 8), ALL_METRICS, seed=0)
        with pytest.raises(InputError):
            score_frame(rng.random((8, 8)), rng.random((8, 8)),
                        fixation_map([(1, 1)], 9, 8), ALL_METRICS, seed=0)
