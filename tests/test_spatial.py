"""Per-frame relation attention: oracle match, invariants, initialization."""

import numpy as np
import pytest

from vsorank.autodiff import ShapeError, Tensor, grad_check
from vsorank.spatial import (
    EmptyFrameError,
    SpatialParams,
    spatial_forward,
    spatial_params_init,
)


def reference_forward(x, kq_w, kq_b, v_w, v_b):
    """Straight-line per-element reimplementation of the attention stage.

    Written independently of the module: explicit loops, no shared helpers.
    Returns (relation, value) arrays.
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
    return relation, value


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


class TestOracle:
    def test_hand_sized_case_matches_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 1, 1))
        params = random_params(rng, 2)
        out = spatial_forward(Tensor(x), params)
        expected_relation, expected_value = reference_forward(
            x, params.kq_proj.weight.data, params.kq_proj.bias.data,
            params.v_proj.weight.data, params.v_proj.bias.data,
        )
        np.testing.assert_allclose(out.relation.data, expected_relation, atol=1e-12)
        np.testing.assert_allclose(out.value.data, expected_value, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_tiny_instances_match_reference(self, seed):
        rng = np.random.default_rng((100, seed))
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        x = rng.standard_normal((n, c, h, w))
        params = random_params(rng, c)
        out = spatial_forward(Tensor(x), params)
        expected_relation, expected_value = reference_forward(
            x, params.kq_proj.weight.data, params.kq_proj.bias.data,
            params.v_proj.weight.data, params.v_proj.bias.data,
        )
        np.testing.assert_allclose(out.relation.data, expected_relation, atol=1e-10)
        np.testing.assert_allclose(out.value.data, expected_value, atol=1e-10)


class TestContracts:
    def test_default_scale_shapes(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((3, 256, 7, 7)))
        out = spatial_forward(x, spatial_params_init(256, 0))
        assert out.relation.shape == (3, 256, 7, 7)
        assert out.value.shape == (3, 256, 7, 7)

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
        out = spatial_forward(Tensor(x), zeroed)
        assert np.array_equal(out.relation.data, x)

    def test_empty_frame_rejected(self):
        x = Tensor(np.zeros((0, 4, 2, 2)))
        with pytest.raises(EmptyFrameError):
            spatial_forward(x, spatial_params_init(4, 0))

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((2, 3, 2, 2)))
        with pytest.raises(ShapeError, match="channel"):
            spatial_forward(x, spatial_params_init(4, 0))

    def test_non_4d_features_rejected(self):
        x = Tensor(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError, match=r"\(N, C, H, W\)"):
            spatial_forward(x, spatial_params_init(4, 0))


class TestInvariants:
    def test_object_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 2, 2))
        params = spatial_params_init(4, 9)
        out = spatial_forward(Tensor(x), params)
        perm = rng.permutation(3)
        out_perm = spatial_forward(Tensor(x[perm]), params)
        np.testing.assert_allclose(out_perm.relation.data, out.relation.data[perm], atol=1e-12)
        np.testing.assert_allclose(out_perm.value.data, out.value.data[perm], atol=1e-12)

    def test_single_object_global_map_is_own_value(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 2, 2))
        params = spatial_params_init(3, 5)
        out = spatial_forward(Tensor(x), params)
        # With one object the frame-global map is that object's value map, so
        # the stage reduces to plain per-object spatial self-attention.
        w, b = params.v_proj.weight.data, params.v_proj.bias.data
        own_value = np.einsum("oc,chw->ohw", w, x[0]) + b[:, None, None]
        np.testing.assert_allclose(out.value.data[0], own_value, atol=1e-12)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(5)
        params = spatial_params_init(3, 11)
        x = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)

        def f(t):
            return spatial_forward(t, params).relation.sum()

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
