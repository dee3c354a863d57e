"""Per-frame relation attention: oracle match, invariants, initialization."""

import re

import numpy as np
import pytest

from vsorank.autodiff import ShapeError, Tensor, grad_check
from vsorank.spatial import (
    EmptyFrameError,
    SpatialParams,
    object_means,
    spatial_forward,
    spatial_params_init,
)


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


def assert_matches_reference(blocks, params, atol):
    """``spatial_forward`` on a sequence of frame blocks against
    ``reference_forward`` on each frame alone."""
    out = spatial_forward([Tensor(x) for x in blocks], params)
    assert len(out.relations) == len(blocks)
    assert out.values.shape == (len(blocks), *blocks[0].shape[1:])
    for x, relation, value in zip(blocks, out.relations, out.values.data):
        expected_relation, expected_value = reference_forward(
            x, params.kq_proj.weight.data, params.kq_proj.bias.data,
            params.v_proj.weight.data, params.v_proj.bias.data,
        )
        np.testing.assert_allclose(relation.data, expected_relation, atol=atol)
        np.testing.assert_allclose(value, expected_value, atol=atol)


class TestOracle:
    def test_hand_sized_case_matches_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 1, 1))
        assert_matches_reference([x], random_params(rng, 2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_tiny_instances_match_reference(self, seed):
        rng = np.random.default_rng((100, seed))
        counts = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        blocks = [rng.standard_normal((n, c, h, w)) for n in counts]
        assert_matches_reference(blocks, random_params(rng, c), atol=1e-10)


class TestContracts:
    def test_default_scale_shapes(self):
        rng = np.random.default_rng(1)
        blocks = [Tensor(rng.standard_normal((n, 256, 7, 7))) for n in (3, 5)]
        out = spatial_forward(blocks, spatial_params_init(256, 0))
        assert [relation.shape for relation in out.relations] == [(3, 256, 7, 7), (5, 256, 7, 7)]
        assert out.values.shape == (2, 256, 7, 7)

    def test_zero_value_projection_gives_identity_relation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 2, 2))
        params = spatial_params_init(4, 0)
        zeroed = SpatialParams(
            kq_proj=params.kq_proj,
            v_proj=type(params.v_proj)(
                weight=Tensor(np.zeros((4, 4))), bias=Tensor(np.zeros(4))
            ),
        )
        out = spatial_forward([Tensor(x)], zeroed)
        assert np.array_equal(out.relations[0].data, x)

    def test_empty_frame_rejected(self):
        blocks = [Tensor(np.ones((2, 4, 2, 2))), Tensor(np.zeros((0, 4, 2, 2)))]
        with pytest.raises(EmptyFrameError, match="^frame 1 has zero objects$"):
            spatial_forward(blocks, spatial_params_init(4, 0))

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((2, 3, 2, 2)))
        with pytest.raises(ShapeError, match="channel"):
            spatial_forward([x], spatial_params_init(4, 0))

    def test_non_4d_features_rejected(self):
        x = Tensor(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError, match=r"\(N, C, H, W\)"):
            spatial_forward([x], spatial_params_init(4, 0))


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
        out = spatial_forward([Tensor(x)], params)
        perm = rng.permutation(3)
        out_perm = spatial_forward([Tensor(x[perm])], params)
        np.testing.assert_allclose(out_perm.relations[0].data, out.relations[0].data[perm],
                                   atol=1e-12)
        np.testing.assert_allclose(out_perm.values.data, out.values.data, atol=1e-12)

    def test_single_object_global_map_is_own_value(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 2, 2))
        params = spatial_params_init(3, 5)
        out = spatial_forward([Tensor(x)], params)
        # With one object the frame-global map is that object's value map, so
        # the stage reduces to plain per-object spatial self-attention.
        w, b = params.v_proj.weight.data, params.v_proj.bias.data
        own_value = np.einsum("oc,chw->ohw", w, x[0]) + b[:, None, None]
        np.testing.assert_allclose(out.values.data[0], own_value, atol=1e-12)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        params = spatial_params_init(3, 11)
        x = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)

        def f(t):
            return spatial_forward([t], params).relations[0].sum()

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
