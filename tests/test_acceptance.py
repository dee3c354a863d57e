"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  The training criteria use the pinned desk-scale tasks: the
noise-free task for the headline run and the standard noisy task for the
ablation ordering.
"""

import math
import time

import numpy as np
import pytest

from test_metrics import frame_score, mae_oracle, overlapping_scene, random_scene, sa_sor_oracle
from test_spatial import (
    random_params,
    random_scoring_inputs,
    reference_spatial_scores,
    spatial_scores,
)
from test_temporal import frame_score_list, random_setup, reference_scores

from vsorank.autodiff import Tensor, softmax_rows
from vsorank.dataset import (
    RankAnnotation,
    SynthConfig,
    compute_stats,
    load_annotation,
    load_sequence,
    save_annotation,
    save_sequence,
    synth_generate,
)
from vsorank.gradcheck import run_suite
from vsorank.metrics import render_rank_map
from vsorank.model import init_model_params
from vsorank.spatial import spatial_params_init
from vsorank.temporal import temporal_mix, temporal_params_init
from vsorank.trainer import ModelConfig, build_dataset, evaluate, train

NOISE_FREE_TASK = SynthConfig(noise_level=0.0)
STANDARD_TASK = SynthConfig()  # K=3, T=3, C=16, noisy features


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - started
    for row in results:
        assert row.max_rel_err < row.tolerance, (
            f"{row.name}: {row.max_rel_err} >= {row.tolerance}"
        )
    assert any(r.name == "spatial_module" for r in results)
    assert any(r.name == "temporal_module" for r in results)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_rel_err for r in results)
    report(1, f"all {len(results)} gradient checks under tolerance "
              f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_attention_invariants():
    rng = np.random.default_rng(0)
    # The softmax kernel of both modules is row-stochastic at their shapes,
    # and its in-place form, which both run, gives the same bits.
    for shape, scale in (((3, 49, 49), 16), ((3, 3), 16 * 49), ((2, 5), 4)):
        logits = rng.standard_normal(shape) * 20.0
        out = softmax_rows(logits, math.sqrt(scale))
        assert np.all(out >= 0.0)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert softmax_rows(logits, math.sqrt(scale), out=logits) is logits
        assert np.array_equal(logits.view(np.uint64), out.view(np.uint64))

    # Object-permutation equivariance of the per-frame stage, read through
    # the scores of the op that runs it.
    params = spatial_params_init(4, 3)
    x = rng.standard_normal((3, 4, 2, 2))
    contexts, mask_inputs, scoring = random_scoring_inputs(rng, [x])
    base_scores, base_maps = spatial_scores([x], params, contexts, mask_inputs, scoring)
    for _ in range(5):
        perm = rng.permutation(3)
        scores, maps = spatial_scores([x[perm]], params, contexts, [mask_inputs[0][perm]],
                                      scoring)
        assert np.abs(scores - base_scores[perm]).max() < 1e-12
        assert np.abs(maps - base_maps).max() < 1e-12

    # Single-frame temporal case is an exact identity mix.
    values = Tensor(rng.standard_normal((1, 3, 2, 2)))
    temporal = temporal_params_init(3, 1)
    mixed = temporal_mix(values, temporal)
    w, b = temporal.v_proj.weight.data, temporal.v_proj.bias.data
    expected = np.matmul(w, values.data.reshape(1, 3, 4)) + b[None, :, None]
    assert np.array_equal(mixed.data, expected.reshape(values.shape))
    report(2, "softmax rows stochastic (1e-12), object-permutation equivariance "
              "(1e-12), single-frame identity exact")


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(1)
    for _ in range(100):
        shape = (int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        gt_masks, gt_ranks, pred_masks, pred_ranks = scene = overlapping_scene(rng, shape)
        expected = mae_oracle(render_rank_map(pred_masks, pred_ranks),
                              render_rank_map(gt_masks, gt_ranks))
        assert abs(frame_score(*scene)[1] - expected) < 1e-12

    agreements = 0
    for seed in range(200):
        scene_rng = np.random.default_rng((900, seed))
        scene = random_scene(scene_rng)
        got = frame_score(*scene)[0]
        expected = sa_sor_oracle(*scene)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)
        agreements += 1

    # Frozen hand examples.
    shape = (12, 12)

    def band(i):
        pixels = np.zeros(shape, dtype=bool)
        pixels[4 * i:4 * i + 4] = True
        return pixels

    masks = np.stack([band(i) for i in range(3)])
    assert frame_score(masks, [1, 2, 3], masks.copy(), [3, 2, 1])[0] == -1.0
    from vsorank.metrics import pearson
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 0.0]) == -0.5
    report(3, f"mae matches double-loop on 100 scenes; rank correlation matches "
              f"the exhaustive oracle on {agreements} scenes; hand values exact")


def test_criterion_4_module_oracles():
    for seed in range(50):
        rng = np.random.default_rng((910, seed))
        n, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        x = rng.standard_normal((n, c, h, w))
        params = random_params(rng, c)
        inputs = random_scoring_inputs(rng, [x])
        scores, maps = spatial_scores([x], params, *inputs)
        expected_scores, expected_maps = reference_spatial_scores([x], params, *inputs)
        assert np.abs(scores - expected_scores).max() < 1e-10
        assert np.abs(maps - expected_maps).max() < 1e-10

    for seed in range(50):
        rng = np.random.default_rng((920, seed))
        t_count = int(rng.integers(1, 4))
        counts = [int(rng.integers(1, 4)) for _ in range(t_count)]
        c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        relations, values, masks, temporal, scoring = random_setup(rng, counts, c, h, w)
        got = frame_score_list(relations, values, masks, temporal, scoring)
        expected = reference_scores(
            [r.data for r in relations],
            [v.data for v in values],
            masks,
            temporal.k_proj.weight.data, temporal.k_proj.bias.data,
            temporal.q_proj.weight.data,
            temporal.v_proj.weight.data, temporal.v_proj.bias.data,
            scoring.mask_embed.weight.data, scoring.score_head.weight.data,
        )
        for got_t, exp_t in zip(got, expected):
            assert np.abs(got_t - exp_t).max() < 1e-10
    report(4, "both stages match straight-line references on 50+50 random "
              "instances within 1e-10")


def test_criterion_5_training_acceptance():
    train_set = build_dataset(NOISE_FREE_TASK, 200, seed=0)
    eval_set = build_dataset(NOISE_FREE_TASK, 50, seed=1_000_003)
    config = ModelConfig(variant="full", iterations=2000, seed=0)

    baseline = evaluate(init_model_params(config.C, config.H, config.W, config.seed),
                        config, eval_set)
    assert baseline.sa_sor is not None
    assert -0.3 <= baseline.sa_sor <= 0.3, f"untrained baseline {baseline.sa_sor}"

    params, train_report = train(config, train_set, eval_set)
    assert train_report.loss_curve[-1] < train_report.loss_curve[0]
    assert train_report.eval_sa_sor is not None
    assert train_report.eval_sa_sor >= 0.85, f"sa_sor {train_report.eval_sa_sor}"
    assert train_report.eval_mae <= 0.10, f"mae {train_report.eval_mae}"
    assert train_report.wall_clock_s < 600.0, f"took {train_report.wall_clock_s:.0f}s"
    report(5, f"noise-free task: untrained {baseline.sa_sor:+.3f} in [-0.3, 0.3]; "
              f"trained sa_sor {train_report.eval_sa_sor:.3f} >= 0.85, "
              f"mae {train_report.eval_mae:.3f} <= 0.10, "
              f"{train_report.wall_clock_s:.0f}s < 600s")


def test_criterion_6_ablation_ordering():
    train_set = build_dataset(STANDARD_TASK, 200, seed=0)
    eval_set = build_dataset(STANDARD_TASK, 50, seed=1_000_003)
    medians = {}
    for variant in ("full", "spatial", "basic"):
        scores = []
        for seed in range(5):
            config = ModelConfig(variant=variant, iterations=800, seed=seed)
            _, run_report = train(config, train_set, eval_set)
            assert run_report.eval_sa_sor is not None
            scores.append(run_report.eval_sa_sor)
        medians[variant] = float(np.median(scores))
    assert medians["full"] >= medians["spatial"] >= medians["basic"], medians
    assert medians["full"] - medians["basic"] >= 0.1, medians
    report(6, "median sa_sor over 5 seeds: "
              f"full {medians['full']:.3f} >= spatial {medians['spatial']:.3f} "
              f">= basic {medians['basic']:.3f}, gap "
              f"{medians['full'] - medians['basic']:.3f} >= 0.1")


def test_criterion_7_format_round_trip(tmp_path):
    sample = synth_generate(STANDARD_TASK, 31)
    annotation = sample.annotations[0]
    save_annotation(annotation, tmp_path / "f.pgm", tmp_path / "f.json")
    loaded = load_annotation(tmp_path / "f.pgm", tmp_path / "f.json")
    assert np.array_equal(loaded.instance_map, annotation.instance_map)
    assert loaded.ranks == annotation.ranks

    save_sequence(tmp_path / "seq", sample)
    restored = load_sequence(tmp_path / "seq")
    for a, b in zip(restored.frames, sample.frames):
        assert a.features.tobytes() == b.features.tobytes()

    def with_count(k):
        instance_map = np.arange(k + 1, dtype=np.uint16).reshape(1, k + 1)
        return RankAnnotation(instance_map=instance_map,
                              ranks={i: i for i in range(1, k + 1)})

    frames = ([with_count(2)] * 578 + [with_count(3)] * 188
              + [with_count(4)] * 125 + [with_count(5)] * 109)
    stats = compute_stats(frames)
    assert stats.invalid_rate == 0.0
    expected = (0.0, 0.578, 0.188, 0.125, 0.109)
    assert np.abs(np.array(stats.count_histogram) - expected).max() < 1e-9
    report(7, "annotation and feature files round-trip bit-exactly; balanced "
              "fixture bins (0, .578, .188, .125, .109) within 1e-9")
