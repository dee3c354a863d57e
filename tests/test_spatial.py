"""The spatial relation attention, which ``frame_scores`` runs inside the
scoring op, and the value maps it reads: oracle match, invariants,
initialization."""

import re

import numpy as np
import pytest

from vsorank.autodiff import ShapeError, Tensor, conv1x1, grad_check
from vsorank.spatial import (
    EmptyFrameError,
    Projection,
    SpatialParams,
    object_means,
    spatial_params_init,
)
from vsorank.temporal import ScoringParams, frame_scores


def reference_forward(x, kq_w, kq_b, v_w, v_b):
    """Straight-line per-element reimplementation of the attention stage on
    one frame's (N, C, H, W) block.

    Written independently of the module: explicit loops, no shared helpers,
    and the value projection applied to every object before the mean.
    Returns the relation, (N, C, H, W), and the frame's value map, (C, H, W).
    """
    n, c, h, w = x.shape
    hw = h * w

    def conv(block_input, weight, bias):
        out = np.zeros((n, weight.shape[0], h, w))
        for i in range(n):
            for yy in range(h):
                for xx in range(w):
                    out[i, :, yy, xx] = weight @ block_input[i, :, yy, xx] + bias
        return out

    kq = conv(x, kq_w, kq_b)
    value = conv(x, v_w, v_b)

    # Frame-global value map: mean over objects, laid out position-major.
    global_value = np.zeros((hw, c))
    for p in range(hw):
        for ch in range(c):
            total = 0.0
            for i in range(n):
                total += value[i, ch, p // w, p % w]
            global_value[p, ch] = total / n

    relation = np.array(x, copy=True)
    for i in range(n):
        flat = np.zeros((c, hw))
        for ch in range(c):
            for p in range(hw):
                flat[ch, p] = kq[i, ch, p // w, p % w]
        logits = np.zeros((hw, hw))
        for p in range(hw):
            for q in range(hw):
                s = 0.0
                for ch in range(c):
                    s += flat[ch, p] * flat[ch, q]
                logits[p, q] = s / np.sqrt(c)
        attention = np.zeros((hw, hw))
        for p in range(hw):
            row = logits[p] - logits[p].max()
            e = np.exp(row)
            attention[p] = e / e.sum()
        for p in range(hw):
            for ch in range(c):
                s = 0.0
                for q in range(hw):
                    s += attention[p, q] * global_value[q, ch]
                relation[i, ch, p // w, p % w] += s
    return relation, global_value.T.reshape(c, h, w)


def random_params(rng, c):
    return SpatialParams(
        kq_proj=type(spatial_params_init(c, 0).kq_proj)(
            weight=Tensor(rng.standard_normal((c, c)), requires_grad=True),
            bias=Tensor(rng.standard_normal(c), requires_grad=True),
        ),
        v_proj=type(spatial_params_init(c, 0).v_proj)(
            weight=Tensor(rng.standard_normal((c, c)), requires_grad=True),
            bias=Tensor(rng.standard_normal(c), requires_grad=True),
        ),
    )


def random_scoring_inputs(rng, blocks):
    """Random (T, C, H, W) contexts, masks on the blocks' grid and scoring
    parameters for frames with the given (N_t, C, H, W) blocks."""
    _, c, h, w = blocks[0].shape
    contexts = Tensor(rng.standard_normal((len(blocks), c, h, w)))
    mask_inputs = [rng.random((len(x), h, w)) for x in blocks]
    scoring = ScoringParams(Projection(Tensor(rng.standard_normal((c, h * w))), None),
                            Projection(Tensor(rng.standard_normal((1, 2 * c))), None))
    return contexts, mask_inputs, scoring


def spatial_scores(blocks, params, contexts, mask_inputs, scoring):
    """``frame_scores`` with the relation attention, over the value maps
    projected from the object means of the blocks: (ΣN,) scores and the
    (T, C, H, W) value maps."""
    tensors = [Tensor(x) for x in blocks]
    maps = conv1x1(object_means(tensors), params.v_proj.weight, params.v_proj.bias)
    scores = frame_scores(tensors, maps, contexts, mask_inputs, params.kq_proj, scoring)
    return scores.data, maps.data


def reference_spatial_scores(blocks, params, contexts, mask_inputs, scoring):
    """``spatial_scores`` from the relation blocks of ``reference_forward``:
    each object's score is ``w_r·(R_n s)/C + w_m·(E m_n)``, with ``s`` its
    frame's context summed over channels."""
    scores, maps = [], []
    head, embed = scoring.score_head.weight.data[0], scoring.mask_embed.weight.data
    for x, context, masks in zip(blocks, contexts.data, mask_inputs):
        n, c, h, w = x.shape
        relation, value_map = reference_forward(
            x, params.kq_proj.weight.data, params.kq_proj.bias.data,
            params.v_proj.weight.data, params.v_proj.bias.data,
        )
        pooled = relation.reshape(n, c, h * w) @ context.reshape(c, h * w).sum(axis=0) / c
        scores.append(pooled @ head[:c] + masks.reshape(n, h * w) @ embed.T @ head[c:])
        maps.append(value_map)
    return np.concatenate(scores), np.stack(maps)


def assert_matches_reference(rng, blocks, params, atol):
    """``spatial_scores`` on a sequence of frame blocks against the scores
    read from ``reference_forward`` on each frame alone."""
    inputs = random_scoring_inputs(rng, blocks)
    scores, maps = spatial_scores(blocks, params, *inputs)
    expected_scores, expected_maps = reference_spatial_scores(blocks, params, *inputs)
    assert scores.shape == (sum(len(x) for x in blocks),)
    assert maps.shape == (len(blocks), *blocks[0].shape[1:])
    np.testing.assert_allclose(maps, expected_maps, atol=atol)
    np.testing.assert_allclose(scores, expected_scores, atol=atol)


class TestOracle:
    def test_hand_sized_case_matches_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 1, 1))
        assert_matches_reference(rng, [x], random_params(rng, 2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_tiny_instances_match_reference(self, seed):
        rng = np.random.default_rng((100, seed))
        counts = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        blocks = [rng.standard_normal((n, c, h, w)) for n in counts]
        assert_matches_reference(rng, blocks, random_params(rng, c), atol=1e-10)


class TestContracts:
    def test_default_scale_shapes(self):
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((n, 256, 7, 7)) for n in (3, 5)]
        scores, maps = spatial_scores(blocks, spatial_params_init(256, 0),
                                      *random_scoring_inputs(rng, blocks))
        assert scores.shape == (8,)
        assert maps.shape == (2, 256, 7, 7)

    def test_zero_value_projection_gives_the_input_blocks(self):
        """With all-zero value maps the relation blocks are the input blocks,
        so the scores are those without the attention, bit for bit."""
        rng = np.random.default_rng(2)
        blocks = [Tensor(rng.standard_normal((3, 4, 2, 2)))]
        contexts, mask_inputs, scoring = random_scoring_inputs(rng, [blocks[0].data])
        zero = Tensor(np.zeros((1, 4, 2, 2)))
        kq_proj = spatial_params_init(4, 0).kq_proj
        attended = frame_scores(blocks, zero, contexts, mask_inputs, kq_proj, scoring)
        plain = frame_scores(blocks, zero, contexts, mask_inputs, None, scoring)
        assert np.array_equal(attended.data, plain.data)

    def test_empty_frame_rejected(self):
        blocks = [Tensor(np.ones((2, 4, 2, 2))), Tensor(np.zeros((0, 4, 2, 2)))]
        with pytest.raises(EmptyFrameError, match="^frame 1 has zero objects$"):
            object_means(blocks)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        blocks = [rng.standard_normal((2, 3, 2, 2))]
        with pytest.raises(ShapeError, match="channel"):
            spatial_scores(blocks, spatial_params_init(4, 0), *random_scoring_inputs(rng, blocks))
        contexts, mask_inputs, scoring = random_scoring_inputs(rng, blocks)
        message = "kq_proj: shapes (4, 4), (4,) do not map 3 to 3 features"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            frame_scores([Tensor(blocks[0])], contexts, contexts, mask_inputs,
                         spatial_params_init(4, 0).kq_proj, scoring)

    def test_value_maps_of_another_shape_rejected(self):
        rng = np.random.default_rng(4)
        blocks = [rng.standard_normal((2, 3, 2, 2))]
        contexts, mask_inputs, scoring = random_scoring_inputs(rng, blocks)
        maps = Tensor(np.zeros((2, 3, 2, 2)))
        message = "value maps of shape (2, 3, 2, 2) do not match the contexts' (1, 3, 2, 2)"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            frame_scores([Tensor(blocks[0])], maps, contexts, mask_inputs,
                         spatial_params_init(3, 0).kq_proj, scoring)

    def test_non_4d_features_rejected(self):
        x = Tensor(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError, match=r"\(N, C, H, W\)"):
            object_means([x])


class TestObjectMeans:
    def test_means_of_each_frame(self):
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((n, 2, 3, 1)) for n in (3, 1, 2)]
        means = object_means([Tensor(x) for x in blocks])
        for got, x in zip(means.data, blocks):
            np.testing.assert_allclose(got, sum(x) / len(x), atol=1e-15)

    def test_features_record_no_node(self):
        means = object_means([Tensor(np.ones((2, 1, 1, 1)))])
        assert not means.requires_grad and means._node is None

    @pytest.mark.parametrize("frame", [0, 1])
    def test_gradient_spreads_over_each_frames_objects(self, frame):
        rng = np.random.default_rng((7, frame))
        blocks = [Tensor(rng.standard_normal((n, 2, 2, 2))) for n in (2, 3)]
        weights = Tensor(rng.standard_normal((2, 2, 2, 2)))

        def f(t):
            return (object_means(blocks) * weights).sum()

        assert grad_check(f, blocks[frame]) < 1e-8

    def test_malformed_blocks_rejected(self):
        for blocks in ([], [Tensor(np.ones((2, 2, 2, 2))), Tensor(np.ones((1, 3, 2, 2)))],
                       [Tensor(np.ones((2, 2, 4)))]):
            message = (f"need one (N, C, H, W) block per frame, all of one (C, H, W), "
                       f"got {[block.shape for block in blocks]}")
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                object_means(blocks)


class TestInvariants:
    def test_object_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 2, 2))
        params = spatial_params_init(4, 9)
        contexts, mask_inputs, scoring = random_scoring_inputs(rng, [x])
        scores, maps = spatial_scores([x], params, contexts, mask_inputs, scoring)
        perm = rng.permutation(3)
        scores_perm, maps_perm = spatial_scores([x[perm]], params, contexts,
                                                [mask_inputs[0][perm]], scoring)
        np.testing.assert_allclose(scores_perm, scores[perm], atol=1e-12)
        np.testing.assert_allclose(maps_perm, maps, atol=1e-12)

    def test_single_object_global_map_is_own_value(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 2, 2))
        params = spatial_params_init(3, 5)
        _, maps = spatial_scores([x], params, *random_scoring_inputs(rng, [x]))
        # With one object the frame-global map is that object's value map, so
        # the stage reduces to plain per-object spatial self-attention.
        w, b = params.v_proj.weight.data, params.v_proj.bias.data
        own_value = np.einsum("oc,chw->ohw", w, x[0]) + b[:, None, None]
        np.testing.assert_allclose(maps[0], own_value, atol=1e-12)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        params = spatial_params_init(3, 11)
        x = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)
        contexts, mask_inputs, scoring = random_scoring_inputs(rng, [x.data])
        weights = Tensor(rng.standard_normal(2))

        def f(t):
            maps = conv1x1(object_means([t]), params.v_proj.weight, params.v_proj.bias)
            scores = frame_scores([t], maps, contexts, mask_inputs, params.kq_proj, scoring)
            return (scores * weights).sum()

        assert grad_check(f, x) < 1e-5


class TestParamsInit:
    def test_same_seed_is_bit_identical(self):
        a = spatial_params_init(8, 42)
        b = spatial_params_init(8, 42)
        assert np.array_equal(a.kq_proj.weight.data, b.kq_proj.weight.data)
        assert np.array_equal(a.v_proj.weight.data, b.v_proj.weight.data)

    def test_different_seeds_differ(self):
        a = spatial_params_init(8, 1)
        b = spatial_params_init(8, 2)
        assert not np.array_equal(a.kq_proj.weight.data, b.kq_proj.weight.data)

    @pytest.mark.parametrize("channels", [0, -1])
    def test_non_positive_channels_rejected(self, channels):
        with pytest.raises(ValueError, match=f"^channels must be positive, got {channels}$"):
            spatial_params_init(channels, 0)

    def test_extents_and_bounds(self):
        params = spatial_params_init(256, 0)
        for proj in (params.kq_proj, params.v_proj):
            assert proj.weight.shape == (256, 256)
            assert proj.bias.shape == (256,)
            assert np.all(np.abs(proj.weight.data) <= 1.0 / np.sqrt(256))
            assert np.all(proj.bias.data == 0.0)
