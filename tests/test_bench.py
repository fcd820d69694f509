import json
import tracemalloc

import numpy as np
import pytest

from cinegaze import bench
from cinegaze.annotations import parse_annotations
from cinegaze.bench import (DirectoryPredictions, ReportFormat, ScoreRow,
                            aggregate_by_annotation, benchmark_model,
                            bias_report, dataset_means, emit_report,
                            per_clip_means)
from cinegaze.errors import InputError
from cinegaze.fixtures import ScanpathFixture, generate_scanpaths
from cinegaze.gridio import write_float_grid, write_map
from cinegaze.ingest import fixation_map_for_frame
from cinegaze.metrics import auc_borji, auc_judd, cc, kld, nss, sim
from cinegaze.saliency import blur_fixations, center_prior, make_kernel, resize_bilinear


@pytest.fixture
def clip():
    fx = ScanpathFixture(seed=21, n_observers=4, frame_count=10, width=48,
                         height=32, congruency=0.8, cluster_sigma=2.0)
    return generate_scanpaths(fx)


@pytest.fixture
def kernel():
    return make_kernel(2.0)


def annotation_for(clip):
    return parse_annotations({
        "schema_version": 1,
        "clip_id": clip.clip_id,
        "frame_count": clip.frame_count,
        "frame_width": clip.width,
        "frame_height": clip.height,
        "shots": [
            {"start": 0, "end": 6, "motions": ["Static"], "angle": "Eye", "size": "CU"},
            {"start": 6, "end": 10, "motions": ["Pan", "Track"],
             "motion_direction": "Left", "angle": "High", "size": "LS"},
        ],
    })


class TestBenchmarkModel:
    def test_oracle_prediction_scores_perfectly(self, clip, kernel):
        predictions = {f: blur_fixations(fixation_map_for_frame(clip, f), kernel).values
                       for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5)
        assert not result.errors
        by_metric = {}
        for row in result.rows:
            by_metric.setdefault(row.metric, []).append(row.value)
        assert min(by_metric["CC"]) > 0.999999
        assert max(map(abs, by_metric["KLD"])) < 1e-4
        assert min(by_metric["AUC_J"]) > 0.97

    def test_rows_match_direct_metric_calls(self, clip, kernel, rng):
        predictions = {f: rng.random((32, 48)) + 0.05 for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, aucb_seed=11)
        assert not result.errors
        values = {(r.frame_index, r.metric): r.value for r in result.rows}
        for f in range(10):
            fmap = fixation_map_for_frame(clip, f)
            gt = blur_fixations(fmap, kernel)
            pred = predictions[f]
            assert values[(f, "CC")] == cc(pred, gt)
            assert values[(f, "SIM")] == sim(pred, gt)
            assert values[(f, "NSS")] == nss(pred, fmap)
            assert values[(f, "AUC_J")] == auc_judd(pred, fmap)
            assert values[(f, "AUC_B")] == auc_borji(pred, fmap, 1, 100, seed=11 + f)
            assert values[(f, "KLD")] == kld(pred, gt)

    def test_missing_prediction_reported_and_skipped(self, clip, kernel, rng):
        predictions = {f: rng.random((32, 48)) for f in range(9)}  # frame 9 missing
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5)
        assert any(f == 9 for f, _ in result.errors)
        assert not any(r.frame_index == 9 for r in result.rows)
        assert any(r.frame_index == 8 for r in result.rows)

    def test_unreadable_file_reported_run_continues(self, clip, kernel, tmp_path, rng):
        for f in range(10):
            write_float_grid(tmp_path / f"{f:06d}.f32", rng.random((32, 48)))
        (tmp_path / "000004.f32").write_bytes(b"corrupted")
        result = benchmark_model(DirectoryPredictions(tmp_path), clip, kernel,
                                 aucb_seed=5)
        assert any(f == 4 for f, _ in result.errors)
        assert sum(1 for r in result.rows if r.metric == "CC") == 9

    def test_bad_pgm_sidecar_is_a_frame_error(self, clip, kernel, tmp_path, rng):
        for f in range(10):
            write_map(tmp_path / f"{f:06d}.pgm", rng.random((16, 24)))
        (tmp_path / "000002.pgm.json").write_text("{}")
        (tmp_path / "000007.pgm.json").write_text('{"scale": null}')
        result = benchmark_model(DirectoryPredictions(tmp_path), clip, kernel,
                                 aucb_seed=5, metric_set=("CC",))
        assert [f for f, _ in result.errors] == [2, 7]
        assert all("sidecar" in reason for _, reason in result.errors)
        assert {r.frame_index for r in result.rows} == set(range(10)) - {2, 7}

    def test_prediction_resampled_to_ground_truth_grid(self, clip, kernel):
        # a low-resolution center prior still scores: resampling happened
        predictions = {f: center_prior(24, 16).values for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5,
                                 metric_set=("CC",))
        assert not result.errors
        assert len(result.rows) == 10

    def test_constant_prediction_metric_error_entries(self, clip, kernel):
        predictions = {f: np.ones((32, 48)) for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5,
                                 metric_set=("CC", "AUC_J"))
        assert all("CC" in reason for _, reason in result.errors)
        # AUC on a constant map is chance, not an error
        assert all(r.value == 0.5 for r in result.rows if r.metric == "AUC_J")

    def test_bad_native_prediction_is_a_frame_error(self, clip, kernel, rng):
        predictions = {f: rng.random((16, 24)) for f in range(10)}  # resampled
        predictions[3][5, 7] = np.nan
        predictions[6] = rng.random((32, 48))  # on the ground-truth grid
        predictions[6][0, 0] = np.inf
        predictions[8] = rng.random(24)
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5)
        assert sorted(result.errors) == [
            (3, "prediction unusable: saliency map values must be finite"),
            (6, "prediction unusable: saliency map values must be finite"),
            (8, "prediction unusable: a saliency map must be a non-empty 2-D grid")]
        assert {r.frame_index for r in result.rows} == set(range(10)) - {3, 6, 8}

    def test_negative_prediction_scores_like_its_clamp(self, clip, kernel, rng):
        signed = {f: rng.random((16, 24) if f % 2 else (32, 48)) - 0.5 for f in range(10)}
        clamped = {f: np.maximum(v if v.shape == (32, 48) else resize_bilinear(v, 48, 32), 0.0)
                   for f, v in signed.items()}
        got = benchmark_model(signed, clip, kernel, aucb_seed=5)
        want = benchmark_model(clamped, clip, kernel, aucb_seed=5)
        assert got.rows == want.rows and got.errors == want.errors
        assert len(got.rows) == 60

    def test_one_blur_per_scored_frame_one_resize_per_resampled_frame(
            self, clip, kernel, rng, monkeypatch):
        calls = {"blur_fixations": 0, "resize_bilinear": 0}

        def counted(name):
            real = getattr(bench, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call
        for name in calls:
            monkeypatch.setattr(bench, name, counted(name))
        predictions = {f: rng.random((16, 24) if f % 3 else (32, 48)) for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, aucb_seed=5)
        scored = {r.frame_index for r in result.rows}
        assert not result.errors and len(scored) == 10
        assert calls == {"blur_fixations": 10, "resize_bilinear": 6}

    def test_peak_memory_within_the_two_pass_scorer_s(self, monkeypatch):
        # a frame's temporaries are dropped as soon as the metrics that
        # share them are scored. The ceiling is the tracemalloc peak of the
        # earlier scorer, which kept the whole prediction's deviations for
        # CC and NSS and gathered it on the support twice, measured once on
        # these frames inside the test suite: 1,839,282 bytes. With one
        # shared sum and gather it read 1,622,583 bytes
        fx = ScanpathFixture(seed=4, n_observers=14, frame_count=6, width=320,
                             height=200, congruency=0.8, cluster_sigma=6.0)
        clip = generate_scanpaths(fx)
        rng = np.random.default_rng(8)
        predictions = {f: rng.random((50, 80)) for f in range(6)}
        # its one untouched 32 MiB block would be the whole peak
        monkeypatch.setattr(bench, "_keep_freed_heap", lambda: None)
        tracemalloc.start()
        try:
            result = benchmark_model(predictions, clip, make_kernel(8.0), aucb_seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.errors and len(result.rows) == 6 * 6
        assert peak <= 1_839_282, peak

    def test_labels_joined_from_annotation(self, clip, kernel, rng):
        ann = annotation_for(clip)
        predictions = {f: rng.random((32, 48)) for f in range(10)}
        result = benchmark_model(predictions, clip, kernel, annotation=ann,
                                 aucb_seed=5, metric_set=("NSS",))
        for row in result.rows:
            if row.frame_index < 6:
                assert row.motions == ("Static",) and row.size == "CU"
            else:
                assert row.motions == ("Pan", "Track") and row.angle == "High"


class TestAggregation:
    def rows_for(self, spec):
        # spec: list of (frame, metric, value, motions, angle, size)
        return [ScoreRow("c", f, m, v, mo, an, si) for f, m, v, mo, an, si in spec]

    def test_single_label_aggregate_equals_global_mean(self):
        rows = self.rows_for([
            (0, "NSS", 1.0, ("Static",), "Eye", "CU"),
            (1, "NSS", 3.0, ("Static",), "Eye", "CU"),
        ])
        agg = aggregate_by_annotation(rows, "Size")
        assert agg == {"CU": {"NSS": 2.0}}
        assert dataset_means(rows) == {"NSS": 2.0}

    def test_two_disjoint_labels_hand_means(self):
        rows = self.rows_for([
            (0, "CC", 0.2, ("Static",), "Eye", "CU"),
            (1, "CC", 0.4, ("Static",), "Eye", "CU"),
            (2, "CC", 0.9, ("Pan",), "Eye", "LS"),
        ])
        agg = aggregate_by_annotation(rows, "Size")
        assert agg["CU"]["CC"] == pytest.approx(0.3)
        assert agg["LS"]["CC"] == pytest.approx(0.9)

    def test_multi_label_motion_counts_twice(self):
        rows = self.rows_for([
            (0, "NSS", 2.0, ("Pan", "Dolly"), "Eye", "CU"),
            (1, "NSS", 4.0, ("Pan",), "Eye", "CU"),
        ])
        agg = aggregate_by_annotation(rows, "Motion")
        assert agg["Pan"]["NSS"] == pytest.approx(3.0)
        assert agg["Dolly"]["NSS"] == pytest.approx(2.0)

    def test_empty_bucket_absent_not_zero(self):
        rows = self.rows_for([(0, "NSS", 2.0, ("Static",), "Eye", "CU")])
        agg = aggregate_by_annotation(rows, "Motion")
        assert "Pan" not in agg

    def test_disjoint_partition_recomposes_global_mean(self, rng):
        sizes = ["CU", "MS", "LS"]
        rows = []
        for f in range(60):
            size = sizes[int(rng.integers(3))]
            rows.append(ScoreRow("c", f, "NSS", float(rng.normal()), ("Static",),
                                 "Eye", size))
        agg = aggregate_by_annotation(rows, "Size")
        counts = {s: sum(1 for r in rows if r.size == s) for s in sizes}
        recomposed = sum(agg[s]["NSS"] * counts[s] for s in sizes if s in agg) / 60
        assert recomposed == pytest.approx(dataset_means(rows)["NSS"], abs=1e-9)

    def test_per_clip_means(self):
        rows = [ScoreRow("a", 0, "CC", 0.2), ScoreRow("a", 1, "CC", 0.4),
                ScoreRow("b", 0, "CC", 1.0)]
        means = per_clip_means(rows)
        assert means["a"]["CC"] == pytest.approx(0.3)
        assert means["b"]["CC"] == pytest.approx(1.0)


class TestBiasReport:
    def test_identical_maps(self):
        prior = center_prior(64, 40)
        record = bias_report(prior.values, prior.values)
        assert record.cc_with_prior == pytest.approx(1.0, abs=1e-12)
        # even dims: argmax ties at the 4 center pixels, first row-major wins
        assert record.peak_offset_px == (-0.5, -0.5)

    def test_shift_up_reads_as_negative_y(self):
        prior = center_prior(63, 41)  # odd dims: unique center pixel
        shifted = np.roll(prior.values, -20, axis=0)
        record = bias_report(shifted, prior.values)
        assert record.peak_offset_px == (0.0, -20.0)


class TestEmitReport:
    def test_byte_identical_reruns(self, tmp_path):
        rows = [ScoreRow("c", 1, "CC", 0.25, ("Static",), "Eye", "CU"),
                ScoreRow("c", 0, "NSS", 1.5, ("Pan",), "High", "LS")]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rows, a, meta={"sigma_px": 45.0}, aucb_seed=7)
        emit_report(rows, b, meta={"sigma_px": 45.0}, aucb_seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(InputError):
            emit_report([], tmp_path / "x.csv")
        with pytest.raises(InputError):
            emit_report({}, tmp_path / "x.csv")

    def test_aggregate_shape_one_row_per_label(self, tmp_path):
        agg = {"Static": {"CC": 0.5, "NSS": 2.0}, "Pan": {"CC": 0.4, "NSS": 1.5}}
        path = tmp_path / "table.csv"
        emit_report(agg, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "label,CC,NSS"
        assert len(lines) == 3  # header + 2 labels
        assert lines[1].startswith("Pan,") and lines[2].startswith("Static,")

    def test_metadata_header_contents(self, tmp_path):
        rows = [ScoreRow("c", 0, "CC", 0.25)]
        path = tmp_path / "r.csv"
        emit_report(rows, path, meta={"window": 20}, aucb_seed=3)
        text = path.read_text()
        assert "# tool_version=" in text
        assert "# kld_epsilon=1e-07" in text
        assert "# aucb_seed=3" in text
        assert "# config_hash=" in text
        assert "# window=20" in text

    def test_json_format(self, tmp_path):
        rows = [ScoreRow("c", 0, "CC", 0.25)]
        path = tmp_path / "r.json"
        emit_report(rows, path, fmt=ReportFormat.STRUCTURED)
        doc = json.loads(path.read_text())
        assert doc["rows"][0]["metric"] == "CC"
        assert "config_hash" in doc["meta"]

    def test_rows_sorted_deterministically(self, tmp_path):
        rows = [ScoreRow("c", 1, "CC", 0.1), ScoreRow("a", 5, "NSS", 0.2),
                ScoreRow("a", 5, "CC", 0.3)]
        path = tmp_path / "r.csv"
        emit_report(rows, path)
        data_lines = [l for l in path.read_text().splitlines()
                      if not l.startswith("#")][1:]
        assert [l.split(",")[0] for l in data_lines] == ["a", "a", "c"]
        assert data_lines[0].split(",")[2] == "CC"
