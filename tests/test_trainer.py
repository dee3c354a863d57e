"""Variant wiring, optimizer behavior, and the training/evaluation loop."""

import json
import re
import warnings

import numpy as np
import pytest

from vsorank.dataset import SynthConfig, synth_generate, write_tensor_file
from vsorank.model import (
    VARIANTS,
    init_model_params,
    load_model_params,
    model_forward,
    model_scores,
    named_params,
    save_model_params,
)
from vsorank.spatial import Projection
from vsorank.temporal import ScoringParams
from vsorank.trainer import (
    ModelConfig,
    TrainingDiverged,
    build_dataset,
    evaluate,
    train,
)

NOISE_FREE = SynthConfig(noise_level=0.0)


@pytest.fixture(scope="module")
def trained_full():
    """A quick noise-free training run shared by several tests."""
    train_set = build_dataset(NOISE_FREE, 60, seed=0)
    eval_set = build_dataset(NOISE_FREE, 10, seed=77)
    config = ModelConfig(variant="full", iterations=600, seed=0)
    params, report = train(config, train_set, eval_set)
    return config, params, report, eval_set


class TestVariantWiring:
    def test_all_variants_produce_valid_ranked_frames(self):
        sample = synth_generate(SynthConfig(), 5)
        params = init_model_params(16, 7, 7, seed=1)
        for variant in VARIANTS:
            ranked = model_forward(sample.frames, params, variant)
            assert len(ranked) == len(sample.frames)
            for frame, ranks in zip(sample.frames, ranked):
                n = frame.features.shape[0]
                assert sorted(ranks.tolist()) == list(range(1, n + 1))

    def test_unknown_variant_rejected(self):
        sample = synth_generate(SynthConfig(), 5)
        params = init_model_params(16, 7, 7, seed=1)
        with pytest.raises(ValueError, match="variant"):
            model_scores(sample.frames, params, "everything")

    @staticmethod
    def params_with_live_head(seed):
        params = init_model_params(16, 7, 7, seed=seed)
        rng = np.random.default_rng(seed)
        params.scoring.score_head.weight.data[...] = rng.standard_normal((1, 32))
        return params

    @pytest.mark.parametrize("variant", ["basic", "spatial"])
    def test_without_temporal_stage_scores_are_frame_local(self, variant):
        sample = synth_generate(SynthConfig(noise_level=0.3), 6)
        params = self.params_with_live_head(2)
        base = [s.data.copy() for s in model_scores(sample.frames, params, variant)]
        perturbed_frames = list(sample.frames)
        changed = type(sample.frames[1])(
            features=sample.frames[1].features + 3.0,
            masks=sample.frames[1].masks,
        )
        perturbed_frames[1] = changed
        got = [s.data for s in model_scores(perturbed_frames, params, variant)]
        np.testing.assert_array_equal(got[0], base[0])
        np.testing.assert_array_equal(got[2], base[2])

    @pytest.mark.parametrize("variant", ["temporal", "full"])
    def test_with_temporal_stage_scores_mix_frames(self, variant):
        sample = synth_generate(SynthConfig(noise_level=0.3), 6)
        params = self.params_with_live_head(2)
        base = [s.data.copy() for s in model_scores(sample.frames, params, variant)]
        perturbed_frames = list(sample.frames)
        changed = type(sample.frames[1])(
            features=sample.frames[1].features + 3.0,
            masks=sample.frames[1].masks,
        )
        perturbed_frames[1] = changed
        got = [s.data for s in model_scores(perturbed_frames, params, variant)]
        assert not np.array_equal(got[0], base[0])

    def test_untrained_scores_are_zero_from_zero_head(self):
        sample = synth_generate(SynthConfig(), 7)
        params = init_model_params(16, 7, 7, seed=3)
        for variant in VARIANTS:
            for scores in model_scores(sample.frames, params, variant):
                assert np.array_equal(scores.data, np.zeros_like(scores.data))


class TestOptimizer:
    def test_decay_shrinks_norms_at_zero_learning_rate(self):
        train_set = build_dataset(NOISE_FREE, 4, seed=0)
        eval_set = build_dataset(NOISE_FREE, 2, seed=1)
        config = ModelConfig(variant="full", iterations=5, learning_rate=0.0,
                             weight_decay=0.01, seed=0)
        params, _ = train(config, train_set, eval_set)
        fresh = init_model_params(config.C, config.H, config.W, config.seed)
        trained_norm = np.sqrt(sum((p.data ** 2).sum() for _, p in named_params(params)))
        fresh_norm = np.sqrt(sum((p.data ** 2).sum() for _, p in named_params(fresh)))
        assert trained_norm == pytest.approx(fresh_norm * (1 - 0.01) ** 5, rel=1e-12)
        assert trained_norm < fresh_norm

    def test_zero_iterations_keeps_initialization(self):
        train_set = build_dataset(NOISE_FREE, 4, seed=0)
        eval_set = build_dataset(NOISE_FREE, 2, seed=1)
        config = ModelConfig(variant="full", iterations=0, seed=4)
        params, report = train(config, train_set, eval_set)
        fresh = init_model_params(config.C, config.H, config.W, config.seed)
        for (_, a), (_, b) in zip(named_params(params), named_params(fresh)):
            assert np.array_equal(a.data, b.data)
        assert report.loss_curve == []

    def test_same_seed_same_loss_curve(self):
        train_set = build_dataset(NOISE_FREE, 10, seed=0)
        eval_set = build_dataset(NOISE_FREE, 2, seed=1)
        config = ModelConfig(variant="full", iterations=40, seed=5)
        _, report_a = train(config, train_set, eval_set)
        _, report_b = train(config, train_set, eval_set)
        assert report_a.loss_curve == report_b.loss_curve

    def test_plain_sgd_runs(self):
        train_set = build_dataset(NOISE_FREE, 4, seed=0)
        eval_set = build_dataset(NOISE_FREE, 2, seed=1)
        config = ModelConfig(variant="full", iterations=10, momentum=0.0, seed=6)
        _, report = train(config, train_set, eval_set)
        assert len(report.loss_curve) == 10

    def test_divergence_aborts_with_diagnostic(self):
        train_set = build_dataset(SynthConfig(noise_level=0.5), 10, seed=0)
        eval_set = build_dataset(SynthConfig(noise_level=0.5), 2, seed=1)
        config = ModelConfig(variant="full", iterations=300, learning_rate=50.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDiverged, match="iteration"):
                train(config, train_set, eval_set)


class TestTrainingRun:
    def test_loss_decreases_on_noise_free_task(self, trained_full):
        _, _, report, _ = trained_full
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_learned_predictions_match_ground_truth(self, trained_full):
        _, _, report, _ = trained_full
        assert report.eval_sa_sor == 1.0
        assert report.eval_mae == 0.0
        assert report.eval_undefined_count == 0

    def test_reversed_scores_give_reversed_correlation(self, trained_full):
        config, params, _, eval_set = trained_full
        head = params.scoring.score_head
        negated = type(params)(
            spatial=params.spatial,
            temporal=params.temporal,
            scoring=ScoringParams(
                mask_embed=params.scoring.mask_embed,
                score_head=Projection(
                    weight=type(head.weight)(-head.weight.data),
                    bias=type(head.bias)(-head.bias.data),
                ),
            ),
        )
        result = evaluate(negated, config, eval_set)
        assert result.sa_sor == -1.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(variant="mega")
        with pytest.raises(ValueError, match="margin"):
            ModelConfig(margin=0.0)
        with pytest.raises(ValueError, match="momentum"):
            ModelConfig(momentum=1.0)

    @pytest.mark.parametrize("field", ["C", "H", "W", "iterations", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModelConfig(**{field: value})

    def test_integer_fields_accept_numpy_integers(self):
        config = ModelConfig(C=np.int64(8), iterations=np.int32(3), seed=np.uint8(1))
        assert (config.C, config.iterations, config.seed) == (8, 3, 1)

    @pytest.mark.parametrize("field", ["margin", "learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_float_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            ModelConfig(**{field: value})

    def test_float_fields_accept_ints_and_numpy_floats(self):
        config = ModelConfig(margin=1, learning_rate=np.float64(0.1), momentum=np.float32(0.5),
                             weight_decay=0)
        assert (config.margin, config.learning_rate, config.momentum,
                config.weight_decay) == (1, 0.1, 0.5, 0)


class TestModelParamsIo:
    def test_save_load_round_trip(self, tmp_path):
        params = init_model_params(8, 7, 7, seed=9)
        for _, tensor in named_params(params):
            tensor.data += np.random.default_rng(0).standard_normal(tensor.shape)
        config = ModelConfig(C=8)
        save_model_params(tmp_path / "params", params, config)
        restored = load_model_params(tmp_path / "params")
        for (name_a, a), (name_b, b) in zip(named_params(params), named_params(restored)):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)

    def test_missing_tensor_names_directory_and_tensor(self, tmp_path):
        path = tmp_path / "params"
        save_model_params(path, init_model_params(8, 7, 7, seed=9), ModelConfig(C=8))
        manifest = json.loads((path / "params.json").read_text(encoding="utf-8"))
        dropped = manifest["params"].pop()
        (path / "params.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            load_model_params(path)
        assert dropped in str(info.value)

    @pytest.mark.parametrize("content", [
        pytest.param("[]", id="a-list"),
        pytest.param('{"names": []}', id="no-params-key"),
        pytest.param('{"params": "spatial.kq_proj.weight"}', id="params-not-a-list"),
        pytest.param('{"params": [3]}', id="name-not-a-string"),
        pytest.param("{not json", id="invalid-json"),
    ])
    def test_malformed_manifest_names_params_json(self, tmp_path, content):
        path = tmp_path / "params"
        save_model_params(path, init_model_params(8, 7, 7, seed=9), ModelConfig(C=8))
        (path / "params.json").write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(str(path / "params.json"))):
            load_model_params(path)

    def test_wrong_tensor_shape_names_directory_and_tensor(self, tmp_path):
        path = tmp_path / "params"
        save_model_params(path, init_model_params(8, 7, 7, seed=9), ModelConfig(C=8))
        write_tensor_file(path / "scoring.score_head.weight.bin", np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape(str(path))) as info:
            load_model_params(path)
        assert "scoring.score_head.weight" in str(info.value)


class TestBuildDataset:
    def test_deterministic(self):
        a = build_dataset(NOISE_FREE, 5, seed=3)
        b = build_dataset(NOISE_FREE, 5, seed=3)
        for sa, sb in zip(a, b):
            assert sa.seed == sb.seed
            assert np.array_equal(sa.frames[0].features, sb.frames[0].features)

    def test_count(self):
        assert len(build_dataset(NOISE_FREE, 7, seed=0)) == 7
