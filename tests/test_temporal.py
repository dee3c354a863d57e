"""Cross-frame attention and scoring: oracle match, ranking heads, invariants."""

import numpy as np
import pytest

from vsorank.autodiff import ShapeError, Tensor, grad_check
from vsorank.dataset import FrameSample
from vsorank.metrics import render_rank_map
from vsorank.model import VARIANTS, init_model_params, model_forward, model_scores
from vsorank.spatial import EmptyFrameError, Projection
from vsorank.temporal import (
    ScoringParams,
    TemporalParams,
    _resize_grid,
    downsample_mask,
    rank_assign,
    sequence_scores,
    temporal_mix,
    temporal_params_init,
)


def reference_bilinear(mask, out_h, out_w):
    """Loop bilinear resize, half-pixel centers, clamped edges."""
    src = np.asarray(mask, dtype=np.float64)
    in_h, in_w = src.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                src[y0, x0] * (1 - fy) * (1 - fx)
                + src[y0, x1] * (1 - fy) * fx
                + src[y1, x0] * fy * (1 - fx)
                + src[y1, x1] * fy * fx
            )
    return out


def resize_converting_first(mask, out_h, out_w):
    """``downsample_mask``'s arithmetic, vectorized the same way, on the whole
    stack converted to float64 up front."""
    src = np.asarray(mask, dtype=np.float64)
    in_h, in_w = src.shape[-2:]
    sy = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)[:, None]
    sx = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    y0, x0 = np.floor(sy).astype(np.int64), np.floor(sx).astype(np.int64)
    y1, x1 = np.minimum(y0 + 1, in_h - 1), np.minimum(x0 + 1, in_w - 1)
    fy, fx = sy - y0, sx - x0
    top = src[..., y0, x0] * (1 - fx) + src[..., y0, x1] * fx
    bottom = src[..., y1, x0] * (1 - fx) + src[..., y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def reference_scores(relations, values, masks, kw, kb, qw, qb, vw, vb, mw, mb, sw, sb):
    """Straight-line loop reimplementation of the scoring stage.

    ``relations``/``values`` are lists of (N_t, C, H, W) arrays; ``masks`` a
    list of (N_t, Hm, Wm) arrays.  Returns a list of per-frame score vectors.
    """
    t_count = len(values)
    _, c, h, w = values[0].shape
    hw, chw = h * w, c * h * w

    stacked = np.zeros((t_count, c, h, w))
    for t in range(t_count):
        for ch in range(c):
            for yy in range(h):
                for xx in range(w):
                    stacked[t, ch, yy, xx] = values[t][:, ch, yy, xx].mean()

    def conv(weight, bias):
        out = np.zeros((t_count, c, h, w))
        for t in range(t_count):
            for yy in range(h):
                for xx in range(w):
                    out[t, :, yy, xx] = weight @ stacked[t, :, yy, xx] + bias
        return out

    keys = conv(kw, kb).reshape(t_count, chw)
    queries = conv(qw, qb).reshape(t_count, chw)
    mixed = conv(vw, vb).reshape(t_count, chw)

    logits = np.zeros((t_count, t_count))
    for a in range(t_count):
        for b in range(t_count):
            logits[a, b] = float(keys[a] @ queries[b]) / np.sqrt(chw)
    attention = np.zeros_like(logits)
    for a in range(t_count):
        row = np.exp(logits[a] - logits[a].max())
        attention[a] = row / row.sum()

    context = (attention @ mixed).reshape(t_count, c, h, w)

    all_scores = []
    for t in range(t_count):
        n = relations[t].shape[0]
        scores = np.zeros(n)
        for i in range(n):
            rel = relations[t][i].reshape(c, hw)
            ctx = np.zeros((hw, c))
            for p in range(hw):
                for ch in range(c):
                    ctx[p, ch] = context[t, ch, p // w, p % w]
            fused = np.zeros((c, c))
            for a in range(c):
                for b in range(c):
                    fused[a, b] = float(rel[a] @ ctx[:, b])
            pooled = fused.mean(axis=1)
            mask_vec = mw @ reference_bilinear(masks[t][i], h, w).reshape(hw) + mb
            joint = np.concatenate([pooled, mask_vec])
            scores[i] = float(sw[0] @ joint) + sb[0]
        all_scores.append(scores)
    return all_scores


def random_setup(rng, counts, c, h, w, mask_hw=(6, 6)):
    """Per-frame relation and value tensors, masks, and both parameter sets."""
    temporal = TemporalParams(
        k_proj=Projection(Tensor(rng.standard_normal((c, c)), requires_grad=True),
                          Tensor(rng.standard_normal(c), requires_grad=True)),
        q_proj=Projection(Tensor(rng.standard_normal((c, c)), requires_grad=True),
                          Tensor(rng.standard_normal(c), requires_grad=True)),
        v_proj=Projection(Tensor(rng.standard_normal((c, c)), requires_grad=True),
                          Tensor(rng.standard_normal(c), requires_grad=True)),
    )
    scoring = ScoringParams(
        mask_embed=Projection(Tensor(rng.standard_normal((c, h * w)), requires_grad=True),
                              Tensor(rng.standard_normal(c), requires_grad=True)),
        score_head=Projection(Tensor(rng.standard_normal((1, 2 * c)), requires_grad=True),
                              Tensor(rng.standard_normal(1), requires_grad=True)),
    )
    relations, values, masks = [], [], []
    for n in counts:
        frame_masks = rng.random((n, *mask_hw)) > 0.5
        frame_masks[:, 0, 0] = True
        masks.append(frame_masks)
        relations.append(Tensor(rng.standard_normal((n, c, h, w))))
        values.append(Tensor(rng.standard_normal((n, c, h, w))))
    return relations, values, masks, temporal, scoring


class TestOracle:
    def test_three_frames_match_reference(self):
        rng = np.random.default_rng(0)
        relations, values, masks, temporal, scoring = random_setup(rng, (2, 2, 2), 2, 1, 1)
        got = [s.data for s in sequence_scores(relations, values, masks, temporal, scoring)]
        expected = reference_scores(
            [r.data for r in relations],
            [v.data for v in values],
            masks,
            temporal.k_proj.weight.data, temporal.k_proj.bias.data,
            temporal.q_proj.weight.data, temporal.q_proj.bias.data,
            temporal.v_proj.weight.data, temporal.v_proj.bias.data,
            scoring.mask_embed.weight.data, scoring.mask_embed.bias.data,
            scoring.score_head.weight.data, scoring.score_head.bias.data,
        )
        for got_t, exp_t in zip(got, expected):
            np.testing.assert_allclose(got_t, exp_t, atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_tiny_instances_match_reference(self, seed):
        rng = np.random.default_rng((200, seed))
        t_count = int(rng.integers(1, 4))
        counts = [int(rng.integers(1, 4)) for _ in range(t_count)]
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        relations, values, masks, temporal, scoring = random_setup(rng, counts, c, h, w)
        got = [s.data for s in sequence_scores(relations, values, masks, temporal, scoring)]
        expected = reference_scores(
            [r.data for r in relations],
            [v.data for v in values],
            masks,
            temporal.k_proj.weight.data, temporal.k_proj.bias.data,
            temporal.q_proj.weight.data, temporal.q_proj.bias.data,
            temporal.v_proj.weight.data, temporal.v_proj.bias.data,
            scoring.mask_embed.weight.data, scoring.mask_embed.bias.data,
            scoring.score_head.weight.data, scoring.score_head.bias.data,
        )
        for got_t, exp_t in zip(got, expected):
            np.testing.assert_allclose(got_t, exp_t, atol=1e-10)


class TestTemporalMix:
    def test_single_frame_is_identity_mix(self):
        rng = np.random.default_rng(1)
        values = Tensor(rng.standard_normal((1, 3, 2, 2)))
        params = temporal_params_init(3, 0)
        mixed = temporal_mix([values], params)
        # A 1x1 softmax is exactly [[1]], so mixing passes the projected
        # value map (the mean of one object is that object) through unchanged.
        w, b = params.v_proj.weight.data, params.v_proj.bias.data
        expected = np.matmul(w, values.data.reshape(1, 3, 4)) + b[None, :, None]
        assert np.array_equal(mixed.data, expected.reshape(values.shape))

    def test_row_stochastic_mixing_passes_constants_through(self):
        # With a zero value projection the mixed maps equal the bias
        # everywhere regardless of the attention, because rows sum to 1.
        rng = np.random.default_rng(2)
        values = [Tensor(rng.standard_normal((n, 2, 2, 2))) for n in (1, 3, 2)]
        params = TemporalParams(
            k_proj=temporal_params_init(2, 3).k_proj,
            q_proj=temporal_params_init(2, 4).q_proj,
            v_proj=Projection(Tensor(np.zeros((2, 2))), Tensor(np.array([2.0, -1.0]))),
        )
        mixed = temporal_mix(values, params)
        expected = np.broadcast_to(
            np.array([2.0, -1.0])[None, :, None, None], (3, 2, 2, 2)
        )
        np.testing.assert_allclose(mixed.data, expected, atol=1e-12)

    def test_frame_permutation_covariance(self):
        rng = np.random.default_rng(3)
        _, values, _, temporal, _ = random_setup(rng, (2, 3, 1), 2, 2, 2)
        mixed = temporal_mix(values, temporal).data
        for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [2, 1, 0]):
            permuted_values = [values[i] for i in perm]
            mixed_perm = temporal_mix(permuted_values, temporal).data
            np.testing.assert_allclose(mixed_perm, mixed[perm], atol=1e-12)


class TestScoring:
    def test_sequence_length_contract(self):
        rng = np.random.default_rng(4)
        _, values, masks, _, _ = random_setup(rng, (2, 2, 2), 2, 2, 2)
        samples = [FrameSample(features=v.data, masks=m) for v, m in zip(values, masks)]
        ranked = model_forward(samples, init_model_params(2, 2, 2, seed=4), "temporal")
        assert [ranks.size for ranks in ranked] == [2, 2, 2]

    def test_object_permutation_permutes_scores(self):
        rng = np.random.default_rng(5)
        relations, values, masks, temporal, scoring = random_setup(rng, (3, 2), 2, 2, 2)
        base = [s.data for s in sequence_scores(relations, values, masks, temporal, scoring)]
        perm = np.array([2, 0, 1])
        got = [s.data for s in sequence_scores(
            [Tensor(relations[0].data[perm]), relations[1]],
            [Tensor(values[0].data[perm]), values[1]],
            [masks[0][perm], masks[1]],
            temporal, scoring)]
        np.testing.assert_allclose(got[0], base[0][perm], atol=1e-12)
        np.testing.assert_allclose(got[1], base[1], atol=1e-12)

    def test_mean_score_gradient(self):
        rng = np.random.default_rng(6)
        relations, values, masks, temporal, scoring = random_setup(rng, (2, 2), 2, 2, 2)
        target = Tensor(values[0].data.copy(), requires_grad=True)

        def f(t):
            scores = sequence_scores(relations, [t, values[1]], masks, temporal, scoring)
            total = scores[0].sum() + scores[1].sum()
            return total * (1.0 / sum(s.size for s in scores))

        assert grad_check(f, target) < 1e-5

    def test_inconsistent_blocks_rejected(self):
        rng = np.random.default_rng(7)
        relations, values, masks, temporal, scoring = random_setup(rng, (2, 2), 2, 2, 2)
        odd_relation = Tensor(rng.standard_normal((2, 3, 2, 2)))
        odd_value = Tensor(rng.standard_normal((2, 3, 2, 2)))
        with pytest.raises(ShapeError, match="block shape"):
            sequence_scores([relations[0], odd_relation], [values[0], odd_value], masks,
                            temporal, scoring)

    def test_empty_frame_rejected(self):
        rng = np.random.default_rng(8)
        relations, values, masks, temporal, scoring = random_setup(rng, (2,), 2, 2, 2)
        empty = Tensor(np.zeros((0, 2, 2, 2)))
        with pytest.raises(EmptyFrameError, match="frame 1"):
            sequence_scores([relations[0], empty], [values[0], empty],
                            [masks[0], np.zeros((0, 6, 6), dtype=bool)], temporal, scoring)

    @pytest.mark.parametrize("temporal_on", [True, False])
    def test_malformed_frames_rejected(self, temporal_on):
        rng = np.random.default_rng(9)
        relations, values, masks, temporal, scoring = random_setup(rng, (2, 2), 2, 2, 2)
        temporal = temporal if temporal_on else None
        with pytest.raises(ValueError, match="at least one frame"):
            sequence_scores([], [], [], temporal, scoring)
        with pytest.raises(ShapeError, match="must be equal"):
            sequence_scores(relations, [values[0], Tensor(values[1].data[:1])], masks,
                            temporal, scoring)
        with pytest.raises(ShapeError, match="must be equal"):
            sequence_scores([relations[0], relations[1].reshape(2, 2, 4)], values, masks,
                            temporal, scoring)
        with pytest.raises(ShapeError, match="one mask per object"):
            sequence_scores(relations, values, [masks[0], masks[1][:1]], temporal, scoring)
        with pytest.raises(ShapeError, match="one mask per object"):
            sequence_scores(relations, values, [masks[0], masks[1][0]], temporal, scoring)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_checks_its_frames(self, variant):
        rng = np.random.default_rng(10)
        _, values, masks, _, _ = random_setup(rng, (2, 2), 2, 2, 2)
        params = init_model_params(2, 2, 2, seed=10)
        good = FrameSample(features=values[0].data, masks=masks[0])
        empty = FrameSample(features=np.zeros((0, 2, 2, 2)), masks=np.zeros((0, 6, 6), bool))
        with pytest.raises(EmptyFrameError):
            model_scores([good, empty], params, variant)
        extra_mask = FrameSample(features=values[1].data,
                                 masks=np.concatenate([masks[1], masks[1][:1]]))
        with pytest.raises(ShapeError, match="one mask per object"):
            model_scores([good, extra_mask], params, variant)


class TestRankAssign:
    def test_sorts_descending(self):
        assert rank_assign([0.9, 0.1, 0.5]).tolist() == [1, 3, 2]

    def test_tie_break_by_index(self):
        assert rank_assign([0.5, 0.5]).tolist() == [1, 2]

    def test_single_object(self):
        assert rank_assign([3.25]).tolist() == [1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rank_assign([0.5, np.nan])

    @pytest.mark.parametrize("seed", range(10))
    def test_always_a_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        ranks = rank_assign(rng.standard_normal(n))
        assert sorted(ranks.tolist()) == list(range(1, n + 1))


class TestRenderRankMap:
    def test_single_full_frame_mask(self):
        mask = np.ones((1, 4, 4), dtype=bool)
        out = render_rank_map(mask, np.array([1]))
        assert np.array_equal(out, np.ones((4, 4)))

    def test_two_disjoint_masks(self):
        masks = np.zeros((2, 2, 4), dtype=bool)
        masks[0, :, :2] = True
        masks[1, :, 2:] = True
        out = render_rank_map(masks, np.array([1, 2]))
        assert np.all(out[:, :2] == 1.0)
        assert np.all(out[:, 2:] == 0.5)

    def test_overlap_resolved_by_saliency(self):
        masks = np.ones((2, 3, 3), dtype=bool)
        out = render_rank_map(masks, np.array([1, 2]))
        assert np.all(out == 1.0)
        out = render_rank_map(masks, np.array([2, 1]))
        assert np.all(out == 1.0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(9)
        masks = rng.random((4, 5, 5)) > 0.5
        out = render_rank_map(masks, rank_assign(rng.standard_normal(4)))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_shape_mismatch_rejected(self):
        masks = np.ones((1, 2, 2), dtype=bool)
        with pytest.raises(ShapeError, match="1 masks for 2 ranks"):
            render_rank_map(masks, np.array([1, 2]))
        with pytest.raises(ShapeError, match=r"\(N, H, W\) stack"):
            render_rank_map(masks[0], np.array([1, 2]))

    def test_frame_shape_taken_from_the_stack(self):
        masks = np.zeros((2, 3, 5), dtype=bool)
        masks[1, 2, 4] = True
        out = render_rank_map(masks, np.array([2, 1]))
        assert out.shape == (3, 5)
        assert out[2, 4] == 1.0 and np.count_nonzero(out) == 1
        empty = render_rank_map(np.zeros((0, 3, 5), dtype=bool), [])
        assert np.array_equal(empty, np.zeros((3, 5)))


class TestDownsample:
    def test_constant_mask_stays_constant(self):
        out = downsample_mask(np.ones((12, 12)), 5, 5)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_bilinear(self, seed):
        rng = np.random.default_rng((300, seed))
        mask = (rng.random((11, 9)) > 0.5).astype(float)
        got = downsample_mask(mask, 4, 3)
        np.testing.assert_allclose(got, reference_bilinear(mask, 4, 3), atol=1e-12)

    @pytest.mark.parametrize("n, in_hw, out_hw, dtype", [
        pytest.param(1, (11, 9), (4, 3), bool, id="one-mask"),
        pytest.param(3, (64, 48), (7, 5), bool, id="non-square"),
        pytest.param(7, (128, 128), (7, 7), float, id="crowded"),
        pytest.param(4, (5, 6), (12, 9), float, id="upsample"),
        pytest.param(2, (9, 13), (9, 13), np.float32, id="same-size"),
    ])
    def test_stack_matches_each_mask(self, n, in_hw, out_hw, dtype):
        rng = np.random.default_rng((301, n))
        masks = rng.random((n, *in_hw))
        masks = (masks > 0.5).astype(dtype) if dtype is bool else masks.astype(dtype)
        got = downsample_mask(masks, *out_hw)
        assert got.shape == (n, *out_hw) and got.dtype == np.float64
        assert np.array_equal(got, np.stack([downsample_mask(m, *out_hw) for m in masks]))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.float32, np.float64])
    def test_any_dtype_equals_converting_first(self, dtype):
        rng = np.random.default_rng(302)
        if dtype is bool:
            masks = rng.random((5, 40, 33)) > 0.5
        elif dtype is np.uint8:
            masks = rng.integers(0, 256, (5, 40, 33), dtype=np.uint8)
        else:
            masks = rng.standard_normal((5, 40, 33)).astype(dtype)
        for out_hw in ((7, 6), (40, 33), (50, 70)):
            got = downsample_mask(masks, *out_hw)
            assert got.dtype == np.float64
            assert np.array_equal(got, resize_converting_first(masks, *out_hw))

    def test_cached_grid_is_read_only(self):
        downsample_mask(np.ones((3, 12, 10)), 5, 4)
        grid = _resize_grid(12, 10, 5, 4)
        assert grid is _resize_grid(12, 10, 5, 4)
        for array in grid:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
