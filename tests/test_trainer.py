"""Variant wiring, optimizer behavior, and the training/evaluation loop."""

import gc
import json
import re
import sys
import tracemalloc
from itertools import count

import numpy as np
import pytest

from vsorank import autodiff, trainer
from vsorank.dataset import (
    FrameSample,
    RankAnnotation,
    SequenceSample,
    SynthConfig,
    read_tensor_file,
    synth_generate,
)
from vsorank.losses import RankPairs, RankTarget, rank_loss
from vsorank.model import (
    VARIANTS,
    init_model_params,
    model_forward,
    model_scores,
    named_params,
    save_model_params,
)
from vsorank.spatial import Projection
from vsorank.temporal import ScoringParams, rank_assign
from vsorank.trainer import (
    ModelConfig,
    TrainingDiverged,
    _sequence_loss,
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


def _frame_scores(frames, params, variant):
    """``model_scores`` split into one score array per frame."""
    scores = model_scores(frames, params, variant).data
    return np.split(scores, np.cumsum([len(frame.features) for frame in frames])[:-1])


def _params_with_live_head(seed):
    params = init_model_params(16, 7, 7, seed=seed)
    rng = np.random.default_rng(seed)
    params.scoring.score_head.weight.data[...] = rng.standard_normal((1, 32))
    return params


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

    @pytest.mark.parametrize("variant", ["basic", "spatial"])
    def test_without_temporal_stage_scores_are_frame_local(self, variant):
        sample = synth_generate(SynthConfig(noise_level=0.3), 6)
        params = _params_with_live_head(2)
        base = _frame_scores(sample.frames, params, variant)
        perturbed_frames = list(sample.frames)
        changed = type(sample.frames[1])(
            features=sample.frames[1].features + 3.0,
            masks=sample.frames[1].masks,
        )
        perturbed_frames[1] = changed
        got = _frame_scores(perturbed_frames, params, variant)
        np.testing.assert_array_equal(got[0], base[0])
        np.testing.assert_array_equal(got[2], base[2])

    @pytest.mark.parametrize("variant", ["temporal", "full"])
    def test_with_temporal_stage_scores_mix_frames(self, variant):
        sample = synth_generate(SynthConfig(noise_level=0.3), 6)
        params = _params_with_live_head(2)
        base = _frame_scores(sample.frames, params, variant)
        perturbed_frames = list(sample.frames)
        changed = type(sample.frames[1])(
            features=sample.frames[1].features + 3.0,
            masks=sample.frames[1].masks,
        )
        perturbed_frames[1] = changed
        got = _frame_scores(perturbed_frames, params, variant)
        assert not np.array_equal(got[0], base[0])

    def test_untrained_scores_are_zero_from_zero_head(self):
        sample = synth_generate(SynthConfig(), 7)
        params = init_model_params(16, 7, 7, seed=3)
        for variant in VARIANTS:
            scores = model_scores(sample.frames, params, variant).data
            assert np.array_equal(scores, np.zeros_like(scores))


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

    def test_empty_sets_rejected(self):
        data = build_dataset(NOISE_FREE, 1, seed=0)
        config = ModelConfig(iterations=1)
        for train_set, eval_set in (([], data), (data, [])):
            with pytest.raises(ValueError, match="^train_set and eval_set must be non-empty$"):
                train(config, train_set, eval_set)
        with pytest.raises(ValueError, match="^eval_set must be non-empty$"):
            evaluate(init_model_params(config.C, config.H, config.W, seed=0), config, [])

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
        with pytest.raises(TrainingDiverged, match="iteration"):
            train(config, train_set, eval_set)


def _oracle_train(config, train_set, sequence_loss=_sequence_loss):
    """Training as a plain loop: a backward pass on every step, then one SGD
    update per tensor.  Returns the parameters and the loss curve."""
    params = init_model_params(config.C, config.H, config.W, config.seed)
    named = named_params(params)
    velocity = [np.zeros_like(p.data) for _, p in named]
    picker = np.random.default_rng(config.seed)
    curve = []
    for _ in range(config.iterations):
        loss = sequence_loss(train_set[int(picker.integers(len(train_set)))], params, config)
        if loss is None:
            continue
        loss.backward()
        for (_, p), v in zip(named, velocity):
            v *= config.momentum
            v += p.grad if p.grad is not None else 0.0
            p.data -= config.learning_rate * v + config.weight_decay * p.data
        curve.append(loss.item())
    return params, curve


def _param_bytes(params):
    return [p.data.tobytes() for _, p in named_params(params)]


@pytest.fixture()
def backward_calls(monkeypatch):
    """The number of ``Tensor.backward`` calls made so far, in a one-item list."""
    calls = [0]
    inner = autodiff.Tensor.backward

    def backward(self):
        calls[0] += 1
        return inner(self)

    monkeypatch.setattr(autodiff.Tensor, "backward", backward)
    return calls


def _zeroed_on(steps):
    """``_sequence_loss`` with the loss of the given steps (counted from 0)
    multiplied by 0.0: a zero loss on the live graph, whose gradients are 0."""
    step = count()

    def sequence_loss(sample, params, config):
        loss = _sequence_loss(sample, params, config)
        return loss * 0.0 if next(step) in steps else loss

    return sequence_loss


class TestPassiveSteps:
    """A step whose loss is 0.0 runs no backward pass; momentum and decay still
    act, and no gradient from an earlier step is applied."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_curve_and_parameters_equal_the_plain_loop(self, variant, backward_calls):
        config = ModelConfig(variant=variant, iterations=120, seed=1)
        train_set = build_dataset(SynthConfig(), 12, seed=3)
        params, report = train(config, train_set, train_set[:1])
        steps_run = backward_calls[0]
        oracle_params, oracle_curve = _oracle_train(config, train_set)
        assert np.asarray(report.loss_curve).tobytes() == np.asarray(oracle_curve).tobytes()
        assert _param_bytes(params) == _param_bytes(oracle_params)
        assert steps_run == sum(1 for value in report.loss_curve if value > 0.0) > 0
        if variant != "basic":  # ``basic`` seldom ranks a whole sequence by the margin
            assert steps_run < len(report.loss_curve)

    def test_zero_loss_step_runs_no_backward_yet_decays(self, monkeypatch, backward_calls):
        config = ModelConfig(iterations=3, weight_decay=0.01, seed=2)
        train_set = build_dataset(SynthConfig(), 2, seed=4)
        sequence_loss = _zeroed_on({0, 1, 2})
        monkeypatch.setattr(trainer, "_sequence_loss", sequence_loss)
        params, report = train(config, train_set, train_set)
        assert backward_calls[0] == 0 and report.loss_curve == [0.0] * 3

        expected = init_model_params(config.C, config.H, config.W, config.seed)
        for _ in range(3):
            for _, p in named_params(expected):
                p.data -= config.weight_decay * p.data
        assert _param_bytes(params) == _param_bytes(expected)
        fresh = init_model_params(config.C, config.H, config.W, config.seed)
        assert _param_bytes(params) != _param_bytes(fresh)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_no_stale_gradient_after_a_positive_step(self, monkeypatch, momentum, backward_calls):
        config = ModelConfig(iterations=2, momentum=momentum, seed=2)
        train_set = build_dataset(SynthConfig(), 2, seed=4)
        monkeypatch.setattr(trainer, "_sequence_loss", _zeroed_on({1}))
        params, report = train(config, train_set, train_set)
        assert backward_calls[0] == 1
        assert report.loss_curve[0] > 0.0 and report.loss_curve[1] == 0.0
        oracle_params, oracle_curve = _oracle_train(config, train_set, _zeroed_on({1}))
        assert report.loss_curve == oracle_curve
        assert _param_bytes(params) == _param_bytes(oracle_params)


def _hand_sequence(counts, seed):
    """Frame t holds ``counts[t]`` objects, one per lane of a 32x32 frame, with
    random features and ranks; ``SynthConfig`` cannot make one-object frames."""
    rng = np.random.default_rng(seed)
    frames, annotations = [], []
    for k in counts:
        instance_map = np.zeros((32, 32), dtype=np.uint16)
        for i in range(k):
            instance_map[6 * i:6 * i + 4, 3:20] = i + 1
        ids = np.arange(1, k + 1)
        frames.append(FrameSample(features=rng.standard_normal((k, 16, 7, 7)),
                                  masks=instance_map == ids[:, None, None]))
        ranks = rng.permutation(k) + 1
        annotations.append(RankAnnotation(instance_map=instance_map,
                                          ranks={i + 1: int(ranks[i]) for i in range(k)}))
    return SequenceSample(frames=frames, annotations=annotations, seed=seed)


class TestSkippedWork:
    """Frames with fewer than two objects have nothing to rank: training skips
    them, and so does the SA-SOR mean."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sequence_loss_skips_single_object_frames(self, variant):
        sample = _hand_sequence([1, 3, 1, 2], seed=1)
        params = _params_with_live_head(3)
        config = ModelConfig(variant=variant)
        scores = _frame_scores(sample.frames, params, variant)
        expected = 0.0
        for t in (1, 3):
            pairs = RankPairs([RankTarget(tuple(sample.annotations[t].ranks_in_id_order()))])
            expected += rank_loss(autodiff.Tensor(scores[t]), pairs, config.margin).item()
        loss = _sequence_loss(sample, params, config)
        assert expected > 0.0 and loss.item() == expected

    def test_sequence_without_rankable_frame_has_no_loss(self):
        sample = _hand_sequence([1, 1, 1], seed=2)
        assert _sequence_loss(sample, _params_with_live_head(3), ModelConfig()) is None

    def test_skipped_iterations_take_no_step(self):
        # With decay, any optimizer step would move the parameters, even at
        # learning rate zero.
        config = ModelConfig(iterations=6, learning_rate=0.0, weight_decay=0.01, seed=4)
        params, report = train(config, [_hand_sequence([1, 1], seed=3)],
                               [_hand_sequence([1, 2], seed=5)])
        fresh = init_model_params(config.C, config.H, config.W, config.seed)
        for (_, a), (_, b) in zip(named_params(params), named_params(fresh)):
            assert np.array_equal(a.data, b.data)
        assert report.loss_curve == []

    def test_loss_curve_counts_only_the_steps_taken(self):
        config = ModelConfig(iterations=12, seed=4)
        train_set = [_hand_sequence([1, 1], seed=3), _hand_sequence([3, 2], seed=6)]
        _, report = train(config, train_set, [_hand_sequence([1, 2], seed=5)])
        picker = np.random.default_rng(config.seed)
        rankable = sum(int(picker.integers(2)) for _ in range(config.iterations))
        assert 0 < len(report.loss_curve) == rankable < config.iterations

    def test_evaluate_counts_undefined_frames(self):
        eval_set = [_hand_sequence([1, 3, 1], seed=7), _hand_sequence([2, 1], seed=8)]
        result = evaluate(_params_with_live_head(3), ModelConfig(), eval_set)
        assert result.undefined_count == 3
        assert result.frame_count == 5
        assert result.sa_sor is not None


def _cyclic_garbage(run) -> int:
    """Objects only the cyclic GC can free after ``run()``, with it switched off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestGraphsFreed:
    """A graph holds no reference cycle, so it is freed when its output is dropped."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_step_leaves_no_cyclic_garbage(self, variant):
        config = ModelConfig(variant=variant, seed=0)
        sample = build_dataset(SynthConfig(), 1, seed=0)[0]
        params = init_model_params(config.C, config.H, config.W, config.seed)

        assert _cyclic_garbage(lambda: _sequence_loss(sample, params, config).backward()) == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate_leaves_no_cyclic_garbage(self, variant):
        config = ModelConfig(variant=variant, seed=0)
        eval_set = build_dataset(SynthConfig(), 2, seed=1)
        params = init_model_params(config.C, config.H, config.W, config.seed)
        assert _cyclic_garbage(lambda: evaluate(params, config, eval_set)) == 0


CROWDED = SynthConfig(K_range=(2, 7), frame_resolution=(128, 128))


class TestInferenceBuildsNoGraph:
    """``model_forward`` scores on a detached view of the parameters."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_inference_records_no_edge(self, variant, monkeypatch):
        results = []
        op = autodiff.op

        def record(*args):
            out = op(*args)
            results.append(out)
            return out

        # ``op`` wherever a module binds it, under any name.
        for name, module in list(sys.modules.items()):
            if name == "vsorank" or name.startswith("vsorank."):
                for attr, value in list(vars(module).items()):
                    if value is op:
                        monkeypatch.setattr(module, attr, record)
        config = ModelConfig(variant=variant, seed=0)
        sample = build_dataset(SynthConfig(), 1, seed=1)[0]
        params = init_model_params(config.C, config.H, config.W, config.seed)
        evaluate(params, config, [sample])
        model_forward(sample.frames, params, variant)
        # Per pass: the object means; conv1x1 when the variant has spatial
        # attention; the mix when it has cross-frame attention; and one op
        # scoring every frame, with the relation attention inside.
        per_pass = ((variant in ("spatial", "full")) + (variant in ("temporal", "full")) + 2)
        assert per_pass == {"basic": 2, "temporal": 3, "spatial": 3, "full": 4}[variant]
        assert len(results) == 2 * per_pass
        assert not any(out.requires_grad or out._node is not None for out in results)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ranks_equal_those_of_the_live_parameters(self, variant):
        params = _params_with_live_head(5)
        for sample in build_dataset(CROWDED, 6, seed=2):
            live = [rank_assign(s) for s in _frame_scores(sample.frames, params, variant)]
            ranked = model_forward(sample.frames, params, variant)
            assert len(ranked) == len(live)
            for got, want in zip(ranked, live):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluate_leaves_parameters_and_gradients_alone(self, variant):
        config = ModelConfig(variant=variant, seed=0)
        train_set = build_dataset(CROWDED, 1, seed=3)
        params = _params_with_live_head(6)
        _sequence_loss(train_set[0], params, config).backward()
        # Parameters the variant does not use get no gradient.
        before = [(p.data.copy(), None if p.grad is None else p.grad.copy())
                  for _, p in named_params(params)]
        assert any(grad is not None for _, grad in before)
        evaluate(params, config, build_dataset(CROWDED, 2, seed=4))
        for (_, p), (data, grad) in zip(named_params(params), before):
            assert np.array_equal(p.data, data)
            assert (p.grad is None) == (grad is None)
            assert grad is None or np.array_equal(p.grad, grad)

    def test_peak_memory_grows_by_less_than_an_attention_block_per_frame(self):
        sample = synth_generate(SynthConfig(T=6, K_range=(7, 7), frame_resolution=(128, 128)), 0)
        params = init_model_params(16, 7, 7, seed=0)

        def traced_peak(frames):
            tracemalloc.start()
            try:
                model_forward(frames, params, "full")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Fills the mask-resize grid cache and each frame's mask inputs.
        model_forward(sample.frames, params, "full")
        attention_block = 7 * 49 * 49 * np.dtype(np.float64).itemsize
        growth_per_frame = (traced_peak(sample.frames) - traced_peak(sample.frames[:1])) / 5
        assert growth_per_frame < attention_block


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
                score_head=Projection(weight=type(head.weight)(-head.weight.data), bias=None),
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

    @pytest.mark.parametrize("field", ["margin", "learning_rate", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_float_fields_reject_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {value!r}")):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"C": 0}, "C, H, W must all be positive", id="C"),
        pytest.param({"H": 0}, "C, H, W must all be positive", id="H"),
        pytest.param({"W": -2}, "C, H, W must all be positive", id="W"),
        pytest.param({"learning_rate": -0.01}, "learning_rate and iterations must be non-negative",
                     id="learning_rate"),
        pytest.param({"iterations": -1}, "learning_rate and iterations must be non-negative",
                     id="iterations"),
        pytest.param({"weight_decay": -1e-4}, "weight_decay must be >= 0, got -0.0001",
                     id="weight_decay"),
        pytest.param({"seed": -1}, "seed must be non-negative, got -1", id="seed"),
    ])
    def test_out_of_range_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**kwargs)

    def test_float_fields_accept_ints_and_numpy_floats(self):
        config = ModelConfig(margin=1, learning_rate=np.float64(0.1), momentum=np.float32(0.5),
                             weight_decay=0)
        assert (config.margin, config.learning_rate, config.momentum,
                config.weight_decay) == (1, 0.1, 0.5, 0)


class TestModelParamsIo:
    def test_saved_files_hold_every_tensor_and_the_config(self, tmp_path):
        params = init_model_params(8, 7, 7, seed=9)
        for _, tensor in named_params(params):
            tensor.data += np.random.default_rng(0).standard_normal(tensor.shape)
        path = tmp_path / "params"
        save_model_params(path, params, ModelConfig(variant="spatial", C=8))
        names = [name for name, _ in named_params(params)]
        assert sorted(entry.name for entry in path.iterdir()) == sorted(
            [f"{name}.bin" for name in names] + ["params.json"])
        manifest = {"params": names, "config": {"variant": "spatial", "C": 8, "H": 7, "W": 7}}
        assert (path / "params.json").read_text(encoding="utf-8") == json.dumps(manifest) + "\n"
        for name, tensor in named_params(params):
            saved = read_tensor_file(path / f"{name}.bin")
            assert saved.shape == tensor.shape
            assert saved.tobytes() == tensor.data.tobytes()


class TestBuildDataset:
    def test_deterministic(self):
        a = build_dataset(NOISE_FREE, 5, seed=3)
        b = build_dataset(NOISE_FREE, 5, seed=3)
        for sa, sb in zip(a, b):
            assert sa.seed == sb.seed
            assert np.array_equal(sa.frames[0].features, sb.frames[0].features)

    def test_count(self):
        assert len(build_dataset(NOISE_FREE, 7, seed=0)) == 7
