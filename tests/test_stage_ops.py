"""The stage ops against the composed form they replaced.

Each model stage is one autodiff op with a hand-derived vjp.  ``composed``
keeps the stages as they were built before, from matrix products, softmax,
means and the shape ops ``transpose_last2``, ``stack``, ``take`` and
``concat``.  The property tests here ask both forms for the same forward
values and the same gradient of every operand, each within a relative 1e-12
of the largest element, on frames whose object counts vary, on one-frame
sequences and on one-object frames.  The forms are not bit-identical: a
composed op copies each transposed operand to C order before its product,
and BLAS rounds a product by operand layout.  The shape ops, which live on
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
from vsorank.autodiff import ShapeError, Tensor, _reached, grad_check, relu
from vsorank.dataset import FrameSample, SynthConfig, synth_generate
from vsorank.losses import RankTarget, rank_loss
from vsorank.model import VARIANTS, ModelParams, init_model_params, model_scores, named_params
from vsorank.spatial import Projection, SpatialParams, spatial_forward
from vsorank.temporal import ScoringParams, TemporalParams, sequence_scores
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


def _projection(rng, out_features, in_features):
    return Projection(Tensor(rng.standard_normal((out_features, in_features)), requires_grad=True),
                      Tensor(rng.standard_normal(out_features), requires_grad=True))


def _model_params(rng, c, h, w):
    return ModelParams(
        spatial=SpatialParams(*(_projection(rng, c, c) for _ in range(2))),
        temporal=TemporalParams(*(_projection(rng, c, c) for _ in range(3))),
        scoring=ScoringParams(_projection(rng, c, h * w), _projection(rng, 1, 2 * c)),
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
    """Per-frame (N_t, C, H, W) relation and value tensors that need a
    gradient, masks, model parameters and a cotangent per frame."""
    rng = np.random.default_rng(case["seed"])
    c, h, w = case["c"], case["h"], case["w"]
    params = _model_params(rng, c, h, w)
    relations, values, masks, cotangents = [], [], [], []
    for n in case["counts"]:
        relations.append(Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True))
        values.append(Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True))
        frame_masks = rng.random((n, 5, 4)) > 0.5
        frame_masks[:, 0, 0] = True
        masks.append(frame_masks)
        cotangents.append(Tensor(rng.standard_normal(n)))
    return params, relations, values, masks, cotangents


@FUZZ
@given(SEQUENCES)
@example(ONE_FRAME_ONE_OBJECT)
@example(VARYING_COUNTS)
def test_spatial_forward_matches_composed(case):
    params, relations, _, _, _ = _sequence(case)
    rng = np.random.default_rng(case["seed"] + 1)
    for x in relations:
        u = Tensor(rng.standard_normal(x.shape))
        v = Tensor(rng.standard_normal(x.shape))
        leaves = [x, *(t for _, t in named_params(params)[:4])]
        results = []
        for stage in (spatial_forward, composed.spatial_forward):
            out = stage(x, params.spatial)
            loss = (out.relation * u + out.value * v).sum()
            results.append(((out.relation.data, out.value.data), _gradients(loss, leaves)))
        (fused_out, fused), (want_out, want) = results
        for got_array, want_array in zip(fused_out, want_out):
            assert_close(got_array, want_array, "forward")
        for name, got, expect in zip(range(len(leaves)), fused, want):
            assert_close(got, expect, name)


@FUZZ
@given(SEQUENCES, st.booleans())
@example(ONE_FRAME_ONE_OBJECT, True)
@example(VARYING_COUNTS, True)
@example(VARYING_COUNTS, False)
def test_sequence_scores_match_composed(case, mix):
    params, relations, values, masks, cotangents = _sequence(case)
    temporal = params.temporal if mix else None
    leaves = [*relations, *values, *(t for _, t in named_params(params)[4:])]
    results = []
    for scorer in (sequence_scores, composed.sequence_scores):
        scores = scorer(relations, values, masks, temporal, params.scoring)
        loss = sum(((s * u).sum() for s, u in zip(scores[1:], cotangents[1:])),
                   (scores[0] * cotangents[0]).sum())
        results.append(([s.data for s in scores], _gradients(loss, leaves)))
    (fused_scores, fused), (want_scores, want) = results
    for got_array, want_array in zip(fused_scores, want_scores):
        assert_close(got_array, want_array, "forward")
    for name, leaf, got, expect in zip(range(len(leaves)), leaves, fused, want):
        if expect is None:
            # A parameter of the temporal stage when it does not run.
            assert got is None and not mix, name
        elif leaf is params.temporal.q_proj.bias:
            # The bias shifts whole softmax rows, so its true gradient is 0.
            assert np.abs(got).max() < 1e-12 and np.abs(expect).max() < 1e-12
        else:
            assert_close(got, expect, name)


@FUZZ
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 0.01]))
def test_rank_loss_matches_composed(n, seed, margin):
    rng = np.random.default_rng(seed)
    target = RankTarget(tuple(int(r) for r in rng.permutation(n) + 1))
    scores = Tensor(rng.standard_normal(n), requires_grad=True)
    fused = rank_loss(scores, target, margin)
    [fused_grad] = _gradients(fused, [scores])
    want = composed.rank_loss(scores, target, margin)
    [want_grad] = _gradients(want, [scores])
    assert fused.shape == want.shape
    assert fused.item() == want.item()
    assert_close(fused_grad, want_grad, "scores")


@FUZZ
@given(st.sampled_from(VARIANTS), st.integers(0, 2**32 - 1))
def test_training_step_gradients_match_composed(variant, seed):
    """Every parameter's gradient of one sequence's summed rank loss."""
    case = {"counts": [3, 2, 3], "c": 3, "h": 2, "w": 3, "seed": seed}
    params, relations, _, masks, _ = _sequence(case)
    rng = np.random.default_rng(seed + 1)
    ranks = [RankTarget(tuple(int(r) for r in rng.permutation(len(m)) + 1)) for m in masks]
    leaves = [t for _, t in named_params(params)]

    def composed_scores():
        if variant in ("spatial", "full"):
            outputs = [composed.spatial_forward(x, params.spatial) for x in relations]
            rel, val = [o.relation for o in outputs], [o.value for o in outputs]
        else:
            rel, val = relations, relations
        temporal = params.temporal if variant in ("temporal", "full") else None
        return composed.sequence_scores(rel, val, masks, temporal, params.scoring)

    frames = [FrameSample(features=x.data, masks=m) for x, m in zip(relations, masks)]
    results = []
    for scores, loss in ((model_scores(frames, params, variant), rank_loss),
                         (composed_scores(), composed.rank_loss)):
        total = sum((loss(s, r, 0.5) for s, r in zip(scores[1:], ranks[1:])),
                    loss(scores[0], ranks[0], 0.5))
        results.append((total.item(), _gradients(total, leaves)))
    (fused_loss, fused), (want_loss, want) = results
    assert abs(fused_loss - want_loss) <= RTOL * abs(want_loss)
    for (name, leaf), got, expect in zip(named_params(params), fused, want):
        if expect is None or name == "temporal.q_proj.bias":
            assert got is None or np.abs(got).max() < 1e-12, name
        else:
            assert_close(got, expect, name)


def test_sequence_loss_uses_the_stage_ops():
    """``_sequence_loss`` of a full-variant step records one node per stage."""
    sample = synth_generate(SynthConfig(), 0)
    config = ModelConfig(variant="full")
    params = init_model_params(config.C, config.H, config.W, config.seed)
    loss = _sequence_loss(sample, params, config)
    frames = len(sample.frames)
    ops = sum(1 for tensor in _reached(loss) if tensor._node is not None)
    # per frame: value projection, relation, scores and loss; the mix; the sum
    assert ops == 4 * frames + 1 + (frames - 1)


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
