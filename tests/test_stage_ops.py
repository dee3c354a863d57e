"""The stage ops against the composed form they replaced.

Each model stage is one autodiff op with a hand-derived vjp; scoring, with
the spatial relation attention inside, and the rank loss each take a whole
sequence.  ``composed`` keeps the stages as they were built before, one
frame at a time, from matrix products, softmax, means and the shape ops
``transpose_last2``, ``stack``, ``take`` and ``concat``, and builds every
relation block that the package's scoring op reads only through its
product with the context.  The property tests here ask both forms for the
same forward values and the same gradient of every operand, each within a
relative 1e-12 of the largest element, on frames whose object counts vary,
on one-frame sequences, on one-object frames and on sequences with no pair
to rank.  The forms are not bit-identical: a composed op copies each
transposed operand to C order before its product, and BLAS rounds a
product by operand layout.  The shape ops, which live on
only in the oracle, keep their own tests here.
"""

import atexit
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import composed
from composed import relu
from vsorank.autodiff import ShapeError, Tensor, _reached, conv1x1, grad_check
from vsorank.dataset import (
    FrameSample,
    RankAnnotation,
    SequenceSample,
    SynthConfig,
    synth_generate,
)
from vsorank.losses import RankPairs, RankTarget, rank_loss
from vsorank.model import VARIANTS, ModelParams, init_model_params, named_params
from vsorank.spatial import Projection, SpatialParams, object_means
from vsorank.temporal import (
    ScoringParams,
    TemporalParams,
    _spatial_attention_vjp as attention_vjp,
    downsample_mask,
    frame_scores,
    temporal_mix,
)
from vsorank.trainer import ModelConfig, _sequence_loss

# Hypothesis caches constants read from the source while collecting tests,
# even with no example database; keep that cache out of the working tree.
_STORAGE = tempfile.TemporaryDirectory()
atexit.register(_STORAGE.cleanup)
set_hypothesis_home_dir(_STORAGE.name)

pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)
RTOL = 1e-12


def assert_close(got, want, name):
    assert got.shape == want.shape, name
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max(), name


def _projection(rng, out_features, in_features, bias=True):
    return Projection(Tensor(rng.standard_normal((out_features, in_features)), requires_grad=True),
                      Tensor(rng.standard_normal(out_features), requires_grad=True) if bias
                      else None)


def _model_params(rng, c, h, w):
    return ModelParams(
        spatial=SpatialParams(*(_projection(rng, c, c) for _ in range(2))),
        temporal=TemporalParams(_projection(rng, c, c), _projection(rng, c, c, bias=False),
                                _projection(rng, c, c)),
        scoring=ScoringParams(_projection(rng, c, h * w, bias=False),
                              _projection(rng, 1, 2 * c, bias=False)),
    )


def _gradients(loss, tensors):
    for tensor in tensors:
        tensor.grad = None
    loss.backward()
    return [tensor.grad for tensor in tensors]


# counts: objects per frame, so len(counts) is T
SEQUENCES = st.fixed_dictionaries({
    "counts": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "c": st.integers(1, 4),
    "h": st.integers(1, 3),
    "w": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})
ONE_FRAME_ONE_OBJECT = {"counts": [1], "c": 3, "h": 2, "w": 2, "seed": 1}
VARYING_COUNTS = {"counts": [1, 4, 2], "c": 2, "h": 3, "w": 1, "seed": 2}


def _sequence(case):
    """Per-frame (N_t, C, H, W) relation tensors and their (T, C, H, W) value
    maps, all needing a gradient, masks, model parameters and a cotangent
    per frame."""
    rng = np.random.default_rng(case["seed"])
    c, h, w = case["c"], case["h"], case["w"]
    params = _model_params(rng, c, h, w)
    relations, masks, cotangents = [], [], []
    for n in case["counts"]:
        relations.append(Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True))
        frame_masks = rng.random((n, 5, 4)) > 0.5
        frame_masks[:, 0, 0] = True
        masks.append(frame_masks)
        cotangents.append(Tensor(rng.standard_normal(n)))
    values = Tensor(rng.standard_normal((len(relations), c, h, w)), requires_grad=True)
    return params, relations, values, masks, cotangents


@FUZZ
@given(SEQUENCES)
@example(ONE_FRAME_ONE_OBJECT)
@example(VARYING_COUNTS)
def test_value_maps_match_composed(case):
    """The value projection of every frame's object means, and the gradients
    of every block and of the projection, against the composed form's mean
    of every object's projection, frame by frame, under random weights."""
    params, blocks, _, _, _ = _sequence(case)
    rng = np.random.default_rng(case["seed"] + 1)
    weights = Tensor(rng.standard_normal((len(blocks), *blocks[0].shape[1:])))
    v_proj = params.spatial.v_proj
    leaves = [*blocks, v_proj.weight, v_proj.bias]
    maps = conv1x1(object_means(blocks), v_proj.weight, v_proj.bias)
    fused = _gradients((maps * weights).sum(), leaves)
    want_maps = composed.stack([composed.value_map(x, v_proj) for x in blocks])
    want = _gradients((want_maps * weights).sum(), leaves)
    assert_close(maps.data, want_maps.data, "value maps")
    for name, got, expect in zip(range(len(leaves)), fused, want):
        assert_close(got, expect, name)


def _on_grid(masks, blocks):
    h, w = blocks[0].shape[2:]
    return [downsample_mask(frame_masks, h, w) for frame_masks in masks]


def sequence_scores(blocks, values, mask_inputs, kq_proj, temporal, scoring):
    """The stage ops wired as ``model.model_scores`` wires them, from given
    value maps: ``temporal_mix`` makes the contexts unless ``temporal`` is
    None, and ``frame_scores`` runs the spatial attention unless ``kq_proj``
    is None."""
    contexts = values if temporal is None else temporal_mix(values, temporal)
    return frame_scores(blocks, values, contexts, mask_inputs, kq_proj, scoring)


@FUZZ
@given(st.sampled_from(VARIANTS), SEQUENCES)
@example("full", ONE_FRAME_ONE_OBJECT)
@example("full", VARYING_COUNTS)
@example("spatial", VARYING_COUNTS)
@example("temporal", VARYING_COUNTS)
@example("basic", VARYING_COUNTS)
def test_sequence_scores_match_composed(variant, case):
    """The stacked scores, which never build a relation block, against the
    composed form's per-frame scores, read from the (N, C, C) product of
    each relation block with its context: the forward values and the
    gradient of every block, of the value maps and of every parameter."""
    params, blocks, values, masks, cotangents = _sequence(case)
    kq_proj = params.spatial.kq_proj if variant in ("spatial", "full") else None
    temporal = params.temporal if variant in ("temporal", "full") else None
    leaves = [*blocks, values, *(t for _, t in named_params(params))]
    scores = sequence_scores(blocks, values, _on_grid(masks, blocks), kq_proj, temporal,
                             params.scoring)
    cotangent = Tensor(np.concatenate([u.data for u in cotangents]))
    fused = _gradients((scores * cotangent).sum(), leaves)
    relations = blocks
    if kq_proj is not None:
        relations = [composed.relation(x, composed.take(values, t), kq_proj)
                     for t, x in enumerate(blocks)]
    frame_scores = composed.sequence_scores(relations, values, masks, temporal, params.scoring)
    loss = sum(((s * u).sum() for s, u in zip(frame_scores[1:], cotangents[1:])),
               (frame_scores[0] * cotangents[0]).sum())
    want = _gradients(loss, leaves)
    assert_close(scores.data, np.concatenate([s.data for s in frame_scores]), "forward")
    for name, got, expect in zip(range(len(leaves)), fused, want):
        if expect is None:
            # A parameter of a stage that the variant does not run.
            assert got is None, name
        else:
            assert_close(got, expect, name)


FRAME_RANKS = st.lists(st.integers(1, 6), min_size=1, max_size=4).flatmap(
    lambda counts: st.tuples(*(st.permutations(range(1, n + 1)) for n in counts)))


@FUZZ
@given(FRAME_RANKS, st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 0.01]))
@example(([2, 1],), 0, 0.5)
@example(([1], [3, 1, 2], [1], [1, 2]), 1, 0.5)
@example(([1], [1]), 2, 0.5)
def test_rank_loss_matches_composed(frame_ranks, seed, margin):
    """The segmented loss against the composed loss of each frame with pairs,
    added in frame order; a sequence without pairs is rejected.  The loss
    sees a frame's scores only relative to each other: its gradient sums to
    0 over every frame, and a constant added to a frame's scores leaves it
    unchanged, so a score bias would be inert."""
    pairs = RankPairs([RankTarget(tuple(ranks)) for ranks in frame_ranks])
    scores = Tensor(np.random.default_rng(seed).standard_normal(pairs.size), requires_grad=True)
    if not pairs.ends:
        with pytest.raises(ValueError, match="two objects"):
            rank_loss(scores, pairs, margin)
        return
    fused = rank_loss(scores, pairs, margin)
    [fused_grad] = _gradients(fused, [scores])
    ends = np.cumsum([len(ranks) for ranks in frame_ranks])
    frame_scores = [Tensor(s, requires_grad=True) for s in np.split(scores.data, ends[:-1])]
    terms = [composed.rank_loss(s, RankTarget(tuple(ranks)), margin)
             for s, ranks in zip(frame_scores, frame_ranks) if len(ranks) > 1]
    want = sum(terms[1:], terms[0])
    want_grad = np.concatenate([np.zeros(s.shape) if g is None else g
                                for s, g in zip(frame_scores, _gradients(want, frame_scores))])
    assert fused.shape == want.shape
    assert fused.item() == want.item()
    assert_close(fused_grad, want_grad, "scores")
    frame_sums = np.add.reduceat(fused_grad, np.concatenate([[0], ends[:-1]]))
    assert np.abs(frame_sums).max() <= RTOL * np.abs(fused_grad).max()
    shifts = np.repeat(10 * np.random.default_rng(seed + 1).standard_normal(len(ends)),
                       [len(ranks) for ranks in frame_ranks])
    assert abs(rank_loss(Tensor(scores.data + shifts), pairs, margin).item()
               - fused.item()) <= 1e-12


def _sample(counts, c, h, w, seed):
    """A sequence whose frame t holds ``counts[t]`` objects, one per lane,
    with random features and ranks; ``SynthConfig`` cannot make frames of
    one object."""
    rng = np.random.default_rng(seed)
    frames, annotations = [], []
    for n in counts:
        instance_map = np.zeros((16, 5), dtype=np.uint16)
        for i in range(n):
            instance_map[4 * i:4 * i + 3, 1:1 + int(rng.integers(1, 5))] = i + 1
        ids = np.arange(1, n + 1, dtype=np.uint16)
        frames.append(FrameSample(features=rng.standard_normal((n, c, h, w)),
                                  masks=instance_map == ids[:, None, None]))
        ranks = rng.permutation(n) + 1
        annotations.append(RankAnnotation(instance_map=instance_map,
                                          ranks={i + 1: int(ranks[i]) for i in range(n)}))
    return SequenceSample(frames=frames, annotations=annotations, seed=seed)


@FUZZ
@given(st.sampled_from(VARIANTS), SEQUENCES)
@example("full", {"counts": [3, 1, 2], "c": 3, "h": 2, "w": 3, "seed": 0})
@example("spatial", {"counts": [4], "c": 2, "h": 2, "w": 2, "seed": 1})
@example("full", {"counts": [1, 1], "c": 2, "h": 1, "w": 2, "seed": 2})
def test_training_step_gradients_match_composed(variant, case):
    """One sequence's loss, and every parameter's gradient, against the
    composed stages and per-frame losses; a sequence without pairs has no
    loss."""
    c, h, w = case["c"], case["h"], case["w"]
    params = _model_params(np.random.default_rng(case["seed"]), c, h, w)
    sample = _sample(case["counts"], c, h, w, case["seed"] + 1)
    config = ModelConfig(variant=variant, C=c, H=h, W=w)
    loss = _sequence_loss(sample, params, config)
    if all(n < 2 for n in case["counts"]):
        assert loss is None
        return
    leaves = [t for _, t in named_params(params)]
    fused = _gradients(loss, leaves)

    features = [Tensor(frame.features) for frame in sample.frames]
    if variant in ("spatial", "full"):
        maps = [composed.value_map(x, params.spatial.v_proj) for x in features]
        relations = [composed.relation(x, value_map, params.spatial.kq_proj)
                     for x, value_map in zip(features, maps)]
    else:
        relations, maps = features, [composed.mean_axis(x, 0) for x in features]
    temporal = params.temporal if variant in ("temporal", "full") else None
    scores = composed.sequence_scores(relations, composed.stack(maps),
                                      [frame.masks for frame in sample.frames],
                                      temporal, params.scoring)
    terms = [composed.rank_loss(s, RankTarget(tuple(a.ranks_in_id_order())), config.margin)
             for s, a in zip(scores, sample.annotations) if a.instance_count > 1]
    want_loss = sum(terms[1:], terms[0])
    want = _gradients(want_loss, leaves)
    assert abs(loss.item() - want_loss.item()) <= RTOL * abs(want_loss.item())
    for (name, _), got, expect in zip(named_params(params), fused, want):
        if expect is None:
            assert got is None, name
        else:
            assert_close(got, expect, name)


def _nodes(loss):
    return sum(1 for tensor in _reached(loss) if tensor._node is not None)


def test_sequence_loss_uses_the_stage_ops():
    """A ``full`` step records one node per stage, whatever the number of
    frames: the value projection of the object means, which need no
    gradient, the mix, the scores with the relation attention inside, then
    the loss."""
    sample = synth_generate(SynthConfig(), 0)
    config = ModelConfig(variant="full")
    params = init_model_params(config.C, config.H, config.W, config.seed)
    loss = _sequence_loss(sample, params, config)
    assert len(sample.frames) == 3
    assert _nodes(loss) == 4


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_node_count_per_variant(variant):
    sample = _sample([3, 1, 2, 4], 2, 2, 2, seed=5)
    config = ModelConfig(variant=variant, C=2, H=2, W=2)
    params = init_model_params(config.C, config.H, config.W, config.seed)
    loss = _sequence_loss(sample, params, config)
    # The value projection; the mix; the scores; the loss.  The object means
    # of the input features record no node, and the relation attention runs
    # inside the scores.
    spatial_nodes = variant in ("spatial", "full")
    mix_nodes = variant in ("temporal", "full")
    assert _nodes(loss) == spatial_nodes + mix_nodes + 2
    assert _nodes(loss) == {"basic": 2, "temporal": 3, "spatial": 3, "full": 4}[variant]


def test_unranked_frame_runs_no_attention_backward(monkeypatch):
    """A one-object frame is in no pair, so no gradient reaches its scores:
    the scores' vjp skips it, with no (N, HW, HW) attention backward.  The
    margin is wide enough that every pair of the ranked frames is active,
    whatever the scores."""
    calls = []

    def counted(kq, *args):
        calls.append(kq.shape[0])
        return attention_vjp(kq, *args)

    monkeypatch.setattr("vsorank.temporal._spatial_attention_vjp", counted)
    sample = _sample([1, 3, 1, 2], 2, 2, 2, seed=6)
    params = _model_params(np.random.default_rng(6), 2, 2, 2)
    loss = _sequence_loss(sample, params,
                          ModelConfig(variant="full", C=2, H=2, W=2, margin=1e3))
    assert loss.item() > 0.0
    loss.backward()
    assert sorted(calls) == [2, 3]  # the frames of 3 and 2 objects


def test_sample_memo_is_read_only_and_fresh():
    """Each frame resizes its masks once and each sequence pairs its ranks
    once; the arrays they come from cannot change under them."""
    sample = synth_generate(SynthConfig(K_range=(2, 5), T=4), 3)
    for frame in sample.frames:
        for array in (frame.features, frame.masks, frame.mask_inputs):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert frame.mask_inputs is frame.mask_inputs
        fresh = downsample_mask(np.array(frame.masks), *frame.features.shape[2:])
        assert frame.mask_inputs.tobytes() == fresh.tobytes()
        assert frame.mask_inputs.shape == fresh.shape
    pairs = sample.rank_pairs
    assert pairs is sample.rank_pairs
    fresh = RankPairs([RankTarget(tuple(a.ranks_in_id_order())) for a in sample.annotations])
    for name in ("above", "below", "pair_counts"):
        assert np.array_equal(getattr(pairs, name), getattr(fresh, name))
        assert not getattr(pairs, name).flags.writeable
    assert (pairs.ends, pairs.size) == (fresh.ends, fresh.size)


def test_frame_without_four_axes_features_rejected():
    frame = FrameSample(features=np.zeros((2, 3)), masks=np.zeros((2, 4, 4), bool))
    with pytest.raises(ShapeError, match=re.escape("must be (N, C, H, W), got (2, 3)")):
        frame.mask_inputs


# -- the shape ops of the composed form ----------------------------------------


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_transpose_stack_take_concat_gradients():
    rng = np.random.default_rng(13)
    x = _rand(rng, 2, 3, 4)
    u = Tensor(rng.standard_normal((2, 4, 3)))

    def f(t):
        y = composed.transpose_last2(t)
        y = composed.concat(y, y * u)
        y = composed.stack([composed.take(y, 1), composed.take(y, 0)])
        return relu(y).sum()

    assert grad_check(f, x) < 1e-5


GRAPHS = {
    "transpose_last2": ([(2, 3, 4)], composed.transpose_last2),
    "stack": ([(3, 4), (3, 4)], lambda a, b: composed.stack([a, b, a])),
    "take": ([(3, 4)], lambda x: composed.take(x, 1)),
    "concat": ([(2, 3), (2, 4)], composed.concat),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_reached_grads_have_full_shape_and_c_order(name):
    shapes, op = GRAPHS[name]
    rng = np.random.default_rng(31)
    operands = [_rand(rng, *shape) for shape in shapes]
    y = op(*operands)
    out = (y * Tensor(rng.standard_normal(y.shape))).sum()
    out.backward()
    for t in [*operands, y]:
        assert t.grad.shape == t.shape, t
        assert t.grad.flags.c_contiguous, t


def _zeros(*shape):
    return Tensor(np.zeros(shape))


ERRORS = {
    "transpose-1d": (lambda: composed.transpose_last2(_zeros(3)), "needs >= 2 axes"),
    "stack-nothing": (lambda: composed.stack([]), "stack: empty input"),
    "stack-unequal-shapes": (lambda: composed.stack([_zeros(2), _zeros(3)]),
                             "stack: shapes (2,) and (3,) differ"),
    "take-out-of-range": (lambda: composed.take(_zeros(3, 2), 3), "take: index 3 out of range"),
    "take-negative": (lambda: composed.take(_zeros(3, 2), -1), "take: index -1 out of range"),
    "concat-leading-shapes": (lambda: composed.concat(_zeros(2, 3), _zeros(3, 3)),
                              "concat: leading shapes differ"),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_bad_input_raises(name):
    call, fragment = ERRORS[name]
    with pytest.raises(ShapeError, match=re.escape(fragment)) as raised:
        call()
    assert type(raised.value) is ShapeError
