"""Annotation format, statistics, file round-trips, and the synthetic generator."""

import json
import re

import numpy as np
import pytest

from vsorank.dataset import (
    AnnotationError,
    RankAnnotation,
    SynthConfig,
    compute_stats,
    compute_video_stats,
    load_annotation,
    load_annotations,
    load_sequence,
    read_tensor_file,
    save_annotation,
    save_annotations,
    save_sequence,
    synth_generate,
    write_tensor_file,
)
from vsorank.metrics import mae, render_rank_map
from vsorank.pgm import PgmError, read_pgm16, write_pgm16


def simple_annotation(counts=(1, 2), shape=(2, 2)):
    instance_map = np.zeros(shape, dtype=np.uint16)
    instance_map[0, 1] = 1
    instance_map[1, 1] = 2
    return RankAnnotation(instance_map=instance_map, ranks={1: counts[0], 2: counts[1]})


class TestPgm:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 65536, size=(11, 7)).astype(np.uint16)
        path = tmp_path / "map.pgm"
        write_pgm16(path, values)
        assert np.array_equal(read_pgm16(path), values)

    def test_header_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = np.arange(4, dtype=">u2").tobytes()
        path.write_bytes(b"P5\n# a comment\n2 2\n65535\n" + payload)
        assert read_pgm16(path).shape == (2, 2)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n65535\n")
        with pytest.raises(PgmError, match="magic"):
            read_pgm16(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(PgmError, match="maxval"):
            read_pgm16(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n\x00\x00")
        with pytest.raises(PgmError, match="truncated"):
            read_pgm16(path)


class TestRankAnnotation:
    def test_valid_two_instance_map(self):
        annotation = simple_annotation()
        assert annotation.instance_count == 2
        assert annotation.object_ids() == [1, 2]

    def test_map_id_missing_from_table(self):
        instance_map = np.array([[0, 1], [0, 3]], dtype=np.uint16)
        with pytest.raises(AnnotationError, match="do not match"):
            RankAnnotation(instance_map=instance_map, ranks={1: 1})

    def test_non_permutation_ranks(self):
        instance_map = np.array([[0, 1], [0, 2]], dtype=np.uint16)
        with pytest.raises(AnnotationError, match="permutation"):
            RankAnnotation(instance_map=instance_map, ranks={1: 1, 2: 3})

    @pytest.mark.parametrize("value", [1.5, 0.25, np.nan, -0.5])
    def test_fractional_ids_rejected(self, value):
        instance_map = np.array([[0.0, 1.0], [0.0, value]])
        with pytest.raises(AnnotationError, match="whole numbers"):
            RankAnnotation(instance_map=instance_map, ranks={1: 1})

    @pytest.mark.parametrize("value", [np.inf, -np.inf, -1.0, 65536.0])
    def test_out_of_range_float_ids_rejected(self, value):
        instance_map = np.array([[0.0, 1.0], [0.0, value]])
        with pytest.raises(AnnotationError, match="fit in uint16"):
            RankAnnotation(instance_map=instance_map, ranks={1: 1})

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int8, np.bool_])
    def test_whole_ids_of_any_dtype_accepted(self, dtype):
        annotation = RankAnnotation(instance_map=np.array([[0, 1], [1, 0]], dtype=dtype),
                                    ranks={1: 1})
        assert annotation.instance_map.dtype == np.uint16
        assert annotation.instance_map.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_map_rejected(self, shape):
        with pytest.raises(AnnotationError, match=re.escape(f"got shape {shape}")):
            RankAnnotation(instance_map=np.zeros(shape, dtype=np.uint16), ranks={})

    def test_save_load_round_trip(self, tmp_path):
        annotation = simple_annotation()
        save_annotation(annotation, tmp_path / "f.pgm", tmp_path / "f.json")
        loaded = load_annotation(tmp_path / "f.pgm", tmp_path / "f.json")
        assert np.array_equal(loaded.instance_map, annotation.instance_map)
        assert loaded.ranks == annotation.ranks

    def test_malformed_json_rejected(self, tmp_path):
        save_annotation(simple_annotation(), tmp_path / "f.pgm", tmp_path / "f.json")
        (tmp_path / "f.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(AnnotationError, match="JSON"):
            load_annotation(tmp_path / "f.pgm", tmp_path / "f.json")


def annotation_rank_map(annotation):
    return render_rank_map(annotation.masks(), annotation.ranks_in_id_order())


class TestRankMapRendering:
    """The rank-map painter fed with masks and ranks taken from annotations."""

    def test_single_instance_is_all_one(self):
        instance_map = np.array([[1, 1], [0, 0]], dtype=np.uint16)
        annotation = RankAnnotation(instance_map=instance_map, ranks={1: 1})
        rank_map = annotation_rank_map(annotation)
        assert np.array_equal(rank_map, [[1.0, 1.0], [0.0, 0.0]])

    def test_two_instances_hand_values(self):
        annotation = simple_annotation()
        rank_map = annotation_rank_map(annotation)
        assert rank_map[0, 1] == 1.0 and rank_map[1, 1] == 0.5
        assert rank_map[0, 0] == 0.0

    def test_consistency_under_mae(self):
        annotation = simple_annotation()
        assert mae(annotation_rank_map(annotation), annotation_rank_map(annotation)) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_values_in_unit_interval_and_distinct(self, seed):
        sample = synth_generate(SynthConfig(K_range=(2, 5), frame_resolution=(40, 40)), seed)
        for annotation in sample.annotations:
            rank_map = annotation_rank_map(annotation)
            assert np.all((rank_map >= 0.0) & (rank_map <= 1.0))
            values = {rank_map[annotation.instance_map == i][0] for i in annotation.object_ids()}
            assert len(values) == annotation.instance_count


class TestStats:
    @staticmethod
    def annotation_with_count(k):
        instance_map = np.arange(k + 1, dtype=np.uint16).reshape(1, k + 1)
        return RankAnnotation(instance_map=instance_map, ranks={i: i for i in range(1, k + 1)})

    def test_hand_counts(self):
        stats = compute_stats([self.annotation_with_count(k) for k in (2, 2, 3, 1)])
        assert stats.frame_count == 4
        assert stats.invalid_rate == 0.25
        assert stats.count_histogram == (0.25, 0.5, 0.25, 0.0, 0.0)

    def test_all_pairs(self):
        stats = compute_stats([self.annotation_with_count(2)] * 5)
        assert stats.invalid_rate == 0.0
        assert stats.count_histogram[1] == 1.0

    def test_histogram_partitions(self):
        rng = np.random.default_rng(4)
        frames = [self.annotation_with_count(int(k)) for k in rng.integers(1, 8, size=50)]
        stats = compute_stats(frames)
        assert sum(stats.count_histogram) == pytest.approx(1.0, abs=1e-9)
        assert stats.invalid_rate == stats.count_histogram[0]

    def test_balanced_benchmark_proportions(self):
        # 1000 frames split 578/188/125/109 across counts 2/3/4/5.
        frames = (
            [self.annotation_with_count(2)] * 578
            + [self.annotation_with_count(3)] * 188
            + [self.annotation_with_count(4)] * 125
            + [self.annotation_with_count(5)] * 109
        )
        stats = compute_stats(frames)
        assert stats.invalid_rate == 0.0
        expected = (0.0, 0.578, 0.188, 0.125, 0.109)
        assert stats.count_histogram == pytest.approx(expected, abs=1e-9)

    def test_per_video_uses_max_count(self):
        videos = [
            [self.annotation_with_count(1), self.annotation_with_count(3)],
            [self.annotation_with_count(1)],
        ]
        stats = compute_video_stats(videos)
        assert stats.frame_count == 2
        assert stats.invalid_rate == 0.5
        assert stats.count_histogram == (0.5, 0.0, 0.5, 0.0, 0.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no annotations"):
            compute_stats([])


class TestSynthGenerate:
    def test_same_seed_is_identical(self):
        config = SynthConfig()
        a = synth_generate(config, 11)
        b = synth_generate(config, 11)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.features, fb.features)
            assert np.array_equal(fa.masks, fb.masks)
        for aa, ab in zip(a.annotations, b.annotations):
            assert np.array_equal(aa.instance_map, ab.instance_map)
            assert aa.ranks == ab.ranks

    def test_different_seeds_differ(self):
        config = SynthConfig()
        a = synth_generate(config, 1)
        b = synth_generate(config, 2)
        assert not np.array_equal(a.frames[0].features, b.frames[0].features)

    @pytest.mark.parametrize("seed", range(20))
    def test_noise_free_rank_order_from_channel_zero(self, seed):
        config = SynthConfig(noise_level=0.0, rank_swap_prob=0.0, K_range=(2, 4),
                             frame_resolution=(40, 40))
        sample = synth_generate(config, seed)
        for frame, annotation in zip(sample.frames, sample.annotations):
            channel_means = frame.features[:, 0].mean(axis=(1, 2))
            order = np.argsort(-channel_means)
            expected = np.empty(len(order), dtype=int)
            expected[order] = np.arange(1, len(order) + 1)
            assert annotation.ranks_in_id_order() == expected.tolist()

    def test_swap_frequency_monte_carlo(self):
        config = SynthConfig(T=1001, rank_swap_prob=0.1, noise_level=0.0)
        sample = synth_generate(config, 123)
        orders = [tuple(a.ranks_in_id_order()) for a in sample.annotations]
        changes = sum(1 for a, b in zip(orders, orders[1:]) if a != b)
        assert abs(changes / 1000 - 0.1) <= 0.03

    def test_masks_match_instance_maps_and_stay_disjoint(self):
        config = SynthConfig(K_range=(2, 5), frame_resolution=(50, 64))
        for seed in range(10):
            sample = synth_generate(config, seed)
            for frame, annotation in zip(sample.frames, sample.annotations):
                assert frame.masks.sum(axis=0).max() == 1  # disjoint lanes
                np.testing.assert_array_equal(frame.masks, annotation.masks())

    def test_constant_velocity_motion(self):
        config = SynthConfig(T=5, rank_swap_prob=0.0, noise_level=0.0)
        sample = synth_generate(config, 3)
        for i in range(sample.annotations[0].instance_count):
            xs = [np.nonzero(f.masks[i].any(axis=0))[0][0] for f in sample.frames]
            steps = np.diff(xs)
            assert np.ptp(steps) <= 1  # integer rounding of a constant velocity

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="K_range"):
            SynthConfig(K_range=(1, 3))
        with pytest.raises(ValueError, match="rank_swap_prob"):
            SynthConfig(rank_swap_prob=1.5)
        with pytest.raises(ValueError, match="resolution"):
            SynthConfig(K_range=(2, 8), frame_resolution=(16, 16))

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("T", 2.5, "T must be an integer, got 2.5", id="T-float"),
        pytest.param("C", "4", "C must be an integer, got '4'", id="C-str"),
        pytest.param("H", True, "H must be an integer, got True", id="H-bool"),
        pytest.param("W", 7.0, "W must be an integer, got 7.0", id="W-float"),
        pytest.param("K_range", (3.5, 4), "K_range[0] must be an integer, got 3.5", id="K-min-float"),
        pytest.param("K_range", (3, True), "K_range[1] must be an integer, got True", id="K-max-bool"),
        pytest.param("K_range", 5, "K_range must be a pair of integers, got 5", id="K-int"),
        pytest.param("K_range", (3, 4, 5), "K_range must be a pair of integers, got (3, 4, 5)",
                     id="K-triple"),
        pytest.param("K_range", "34", "K_range must be a pair of integers, got '34'", id="K-str"),
        pytest.param("frame_resolution", 64,
                     "frame_resolution must be a pair of integers, got 64", id="resolution-int"),
        pytest.param("frame_resolution", [64],
                     "frame_resolution must be a pair of integers, got [64]", id="resolution-one"),
        pytest.param("frame_resolution", (64.0, 64),
                     "frame_resolution[0] must be an integer, got 64.0", id="height-float"),
        pytest.param("frame_resolution", (64, "64"),
                     "frame_resolution[1] must be an integer, got '64'", id="width-str"),
        pytest.param("noise_level", True, "noise_level must be a number, got True", id="noise-bool"),
        pytest.param("noise_level", "0.5", "noise_level must be a number, got '0.5'", id="noise-str"),
        pytest.param("rank_swap_prob", False, "rank_swap_prob must be a number, got False",
                     id="swap-bool"),
        pytest.param("rank_swap_prob", None, "rank_swap_prob must be a number, got None",
                     id="swap-none"),
        pytest.param("noise_level", float("nan"), "noise_level must be finite, got nan",
                     id="noise-nan"),
        pytest.param("noise_level", float("inf"), "noise_level must be finite, got inf",
                     id="noise-inf"),
        pytest.param("rank_swap_prob", float("nan"), "rank_swap_prob must be finite, got nan",
                     id="swap-nan"),
        pytest.param("rank_swap_prob", float("-inf"), "rank_swap_prob must be finite, got -inf",
                     id="swap-minus-inf"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SynthConfig(**{field: value})

    def test_numpy_integers_and_numbers_accepted(self):
        config = SynthConfig(T=np.int64(2), C=np.int32(4), K_range=(np.int64(3), np.int16(4)),
                             frame_resolution=(np.int64(32), 40), noise_level=np.float32(0.25),
                             rank_swap_prob=0)
        assert type(config.noise_level) is float and config.noise_level == 0.25
        assert type(config.rank_swap_prob) is float and config.rank_swap_prob == 0.0
        sample = synth_generate(config, 0)
        assert len(sample.frames) == 2 and sample.frames[0].features.shape[1:] == (4, 7, 7)

    def test_inseparable_saliency_levels_rejected(self):
        # Seven levels fit between the latent bounds at the minimum gap; eight do not.
        sample = synth_generate(SynthConfig(K_range=(7, 7), frame_resolution=(128, 128)), 0)
        assert sample.annotations[0].instance_count == 7
        with pytest.raises(ValueError, match="cannot separate 8 saliency levels"):
            SynthConfig(K_range=(8, 8), frame_resolution=(128, 128))
        with pytest.raises(ValueError, match="cannot separate 9 saliency levels"):
            SynthConfig(K_range=(2, 9), frame_resolution=(128, 128))


class TestTensorFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        array = rng.standard_normal((3, 4, 2))
        path = tmp_path / "t.bin"
        write_tensor_file(path, array)
        restored = read_tensor_file(path)
        assert restored.shape == array.shape
        assert np.array_equal(restored, array)

    def test_zero_dim_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_file(path, np.array(2.5))
        restored = read_tensor_file(path)
        assert restored.shape == () and restored == 2.5

    def test_header_is_json_line(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_file(path, np.zeros((2, 2)))
        with open(path, "rb") as f:
            header = json.loads(f.readline())
        assert header == {"dtype": "<f8", "shape": [2, 2]}

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_file(path, np.zeros((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_tensor_file(path)


class TestSequenceIo:
    def test_full_round_trip_bit_exact(self, tmp_path):
        sample = synth_generate(SynthConfig(), 21)
        save_sequence(tmp_path / "seq", sample)
        restored = load_sequence(tmp_path / "seq")
        assert restored.seed == sample.seed
        for fa, fb in zip(restored.frames, sample.frames):
            assert np.array_equal(fa.features, fb.features)
            assert np.array_equal(fa.masks, fb.masks)
        for aa, ab in zip(restored.annotations, sample.annotations):
            assert np.array_equal(aa.instance_map, ab.instance_map)
            assert aa.ranks == ab.ranks

    def test_annotations_only_round_trip(self, tmp_path):
        sample = synth_generate(SynthConfig(), 22)
        save_annotations(tmp_path / "seq", sample.annotations, seed=22)
        loaded = load_annotations(tmp_path / "seq")
        assert [idx for idx, _ in loaded] == list(range(len(sample.annotations)))
        for (_, a), b in zip(loaded, sample.annotations):
            assert a.ranks == b.ranks

    def test_feature_count_mismatch_rejected(self, tmp_path):
        sample = synth_generate(SynthConfig(), 23)
        save_sequence(tmp_path / "seq", sample)
        write_tensor_file(
            tmp_path / "seq" / "features" / "0.bin",
            sample.frames[0].features[:1],
        )
        with pytest.raises(AnnotationError, match="feature blocks"):
            load_sequence(tmp_path / "seq")
