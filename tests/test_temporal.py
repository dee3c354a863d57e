"""Cross-frame attention and scoring: oracle match, ranking heads, invariants."""

import numpy as np
import pytest

from vsorank.autodiff import ShapeError, Tensor, grad_check
from vsorank.dataset import FrameSample
from vsorank.metrics import render_rank_map
from vsorank.model import init_model_params, model_forward
from vsorank.spatial import EmptyFrameError, Projection
from vsorank.temporal import (
    FrameObjects,
    ScoringParams,
    TemporalParams,
    downsample_mask,
    pooled_frame_values,
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
    frames = []
    for n in counts:
        masks = rng.random((n, *mask_hw)) > 0.5
        masks[:, 0, 0] = True
        frames.append(FrameObjects(
            relation=Tensor(rng.standard_normal((n, c, h, w))),
            value=Tensor(rng.standard_normal((n, c, h, w))),
            masks=masks,
        ))
    return frames, temporal, scoring


class TestOracle:
    def test_three_frames_match_reference(self):
        rng = np.random.default_rng(0)
        frames, temporal, scoring = random_setup(rng, (2, 2, 2), 2, 1, 1)
        got = [s.data for s in sequence_scores(frames, temporal, scoring)]
        expected = reference_scores(
            [f.relation.data for f in frames],
            [f.value.data for f in frames],
            [f.masks for f in frames],
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
        frames, temporal, scoring = random_setup(rng, counts, c, h, w)
        got = [s.data for s in sequence_scores(frames, temporal, scoring)]
        expected = reference_scores(
            [f.relation.data for f in frames],
            [f.value.data for f in frames],
            [f.masks for f in frames],
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
        mixed = temporal_mix(values, params)
        # A 1x1 softmax is exactly [[1]], so mixing passes the projected
        # value map through unchanged.
        w, b = params.v_proj.weight.data, params.v_proj.bias.data
        expected = np.einsum("oc,tchw->tohw", w, values.data) + b[None, :, None, None]
        assert np.array_equal(mixed.data, expected)

    def test_row_stochastic_mixing_passes_constants_through(self):
        # With a zero value projection the mixed maps equal the bias
        # everywhere regardless of the attention, because rows sum to 1.
        rng = np.random.default_rng(2)
        values = Tensor(rng.standard_normal((3, 2, 2, 2)))
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
        frames, temporal, scoring = random_setup(rng, (2, 3, 1), 2, 2, 2)
        pooled = pooled_frame_values(frames)
        mixed = temporal_mix(pooled, temporal).data
        for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [2, 1, 0]):
            permuted_frames = [frames[i] for i in perm]
            mixed_perm = temporal_mix(pooled_frame_values(permuted_frames), temporal).data
            np.testing.assert_allclose(mixed_perm, mixed[perm], atol=1e-12)


class TestScoring:
    def test_sequence_length_contract(self):
        rng = np.random.default_rng(4)
        frames, _, _ = random_setup(rng, (2, 2, 2), 2, 2, 2)
        samples = [FrameSample(features=f.value.data, masks=f.masks) for f in frames]
        ranked = model_forward(samples, init_model_params(2, 2, 2, seed=4), "temporal")
        assert [r.ranks.size for r in ranked] == [2, 2, 2]
        assert pooled_frame_values(frames).shape == (3, 2, 2, 2)

    def test_object_permutation_permutes_scores(self):
        rng = np.random.default_rng(5)
        frames, temporal, scoring = random_setup(rng, (3, 2), 2, 2, 2)
        base = [s.data for s in sequence_scores(frames, temporal, scoring)]
        perm = np.array([2, 0, 1])
        shuffled = FrameObjects(
            relation=Tensor(frames[0].relation.data[perm]),
            value=Tensor(frames[0].value.data[perm]),
            masks=frames[0].masks[perm],
        )
        got = [s.data for s in sequence_scores([shuffled, frames[1]], temporal, scoring)]
        np.testing.assert_allclose(got[0], base[0][perm], atol=1e-12)
        np.testing.assert_allclose(got[1], base[1], atol=1e-12)

    def test_mean_score_gradient(self):
        rng = np.random.default_rng(6)
        frames, temporal, scoring = random_setup(rng, (2, 2), 2, 2, 2)
        target = Tensor(frames[0].value.data.copy(), requires_grad=True)

        def f(t):
            rebuilt = [
                FrameObjects(relation=frames[0].relation, value=t, masks=frames[0].masks),
                frames[1],
            ]
            scores = sequence_scores(rebuilt, temporal, scoring)
            total = scores[0].sum() + scores[1].sum()
            return total * (1.0 / sum(s.size for s in scores))

        assert grad_check(f, target) < 1e-5

    def test_inconsistent_blocks_rejected(self):
        rng = np.random.default_rng(7)
        frames, temporal, scoring = random_setup(rng, (2, 2), 2, 2, 2)
        odd = FrameObjects(
            relation=Tensor(rng.standard_normal((2, 3, 2, 2))),
            value=Tensor(rng.standard_normal((2, 3, 2, 2))),
            masks=frames[1].masks,
        )
        with pytest.raises(ShapeError):
            sequence_scores([frames[0], odd], temporal, scoring)

    def test_empty_frame_rejected(self):
        rng = np.random.default_rng(8)
        frames, temporal, scoring = random_setup(rng, (2,), 2, 2, 2)
        empty = FrameObjects(
            relation=Tensor(np.zeros((0, 2, 2, 2))),
            value=Tensor(np.zeros((0, 2, 2, 2))),
            masks=np.zeros((0, 6, 6), dtype=bool),
        )
        with pytest.raises(EmptyFrameError):
            sequence_scores([frames[0], empty], temporal, scoring)


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
