"""Cross-frame attention and the object scoring / ranking heads.

Per frame, the object-mean of the value features gives one context map.  With
cross-frame attention, the T stacked maps attend over each other (a T x T
attention), producing a mixed context map per frame; without it, each frame
keeps its own.  Fusing each object's relation block with its frame's context
map, embedding the object's initial mask, and applying a fully connected head
yields a saliency score per object.  Scores are differentiable; rank
assignment operates on their detached values.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import ShapeError, Tensor, softmax_rows, softmax_rows_vjp, stage_op
from .spatial import EmptyFrameError, Projection, projection_init

__all__ = [
    "TemporalParams",
    "ScoringParams",
    "temporal_params_init",
    "scoring_params_init",
    "object_means",
    "temporal_mix",
    "frame_scores",
    "sequence_scores",
    "rank_assign",
    "downsample_mask",
]


@dataclass(frozen=True)
class TemporalParams:
    """Three C->C projections applied to the stacked per-frame value maps."""

    k_proj: Projection
    q_proj: Projection
    v_proj: Projection


@dataclass(frozen=True)
class ScoringParams:
    """Mask embedding (H*W -> C) and the score head (2C -> 1)."""

    mask_embed: Projection
    score_head: Projection


def temporal_params_init(channels: int, rng_seed: int) -> TemporalParams:
    rng = np.random.default_rng(rng_seed)
    return TemporalParams(
        k_proj=projection_init(channels, channels, rng),
        q_proj=projection_init(channels, channels, rng),
        v_proj=projection_init(channels, channels, rng),
    )


def scoring_params_init(channels: int, height: int, width: int, rng_seed: int) -> ScoringParams:
    # Score head starts at zero so an untrained model carries no systematic
    # rank preference; it picks up gradient from the first step on.
    rng = np.random.default_rng(rng_seed)
    return ScoringParams(
        mask_embed=projection_init(channels, height * width, rng),
        score_head=projection_init(1, 2 * channels, rng, zero=True),
    )


def _check_projection(name: str, proj: Projection, out_features: int, in_features: int):
    if proj.weight.shape != (out_features, in_features) or proj.bias.shape != (out_features,):
        raise ShapeError(f"{name}: shapes {proj.weight.shape}, {proj.bias.shape} do not map "
                         f"{in_features} to {out_features} features")


def _object_means(values: list[Tensor]) -> np.ndarray:
    """Each frame's object-mean value map, stacked to (T, C, H, W)."""
    return np.stack([value.data.mean(axis=0) for value in values])


def _spread_means(values: list[Tensor], d_means: np.ndarray, needed) -> list:
    """The gradients of the frames' value blocks, given that of their means."""
    return [np.broadcast_to(d_means[t][None] / value.shape[0], value.shape) if need else None
            for t, (value, need) in enumerate(zip(values, needed))]


def object_means(values: list[Tensor]) -> Tensor:
    """Each frame's object-mean value map, stacked to (T, C, H, W), as one op.

    The frame contexts when no cross-frame attention runs.
    """
    return stage_op(_object_means(values), values,
                    lambda g, needed: _spread_means(values, g, needed))


def temporal_mix(values: list[Tensor], params: TemporalParams) -> Tensor:
    """T x T attention over the frames' object-mean maps; returns mixed maps (T, C, H, W).

    ``values[t]`` is frame t's (N_t, C, H, W) value block.  One op with a
    closed-form vjp.  Forward, with the means ``m`` as (T, C, HW) and each
    projection ``P m = W m + b`` flattened to (T, CHW):
    ``A = softmax(K Q^T / sqrt(CHW))`` and ``out = A V``.  Backward, from
    ``g`` as (T, CHW): ``dA = g V^T``, ``dV = A^T g``,
    ``dL = softmax_rows_vjp(dA)``, ``dK = dL Q`` and ``dQ = dL^T K``; each
    projection gives ``dW = sum_t dP m^T``, ``db = sum dP`` and its share
    ``W^T dP`` of ``dm``, which spreads evenly over each frame's objects.
    """
    if not values or any(value.ndim != 4 or value.shape[1:] != values[0].shape[1:]
                         for value in values):
        raise ShapeError(f"values must be (N, C, H, W) blocks of one (C, H, W), got "
                         f"{[value.shape for value in values]}")
    means = _object_means(values)
    t, c, h, w = means.shape
    hw, chw = h * w, c * h * w
    projections = (params.k_proj, params.q_proj, params.v_proj)
    for name, proj in zip(("k_proj", "q_proj", "v_proj"), projections):
        _check_projection(name, proj, c, c)
    scale = math.sqrt(chw)

    m3 = means.reshape(t, c, hw)

    def project(proj):
        out = np.matmul(proj.weight.data, m3)
        out += proj.bias.data[None, :, None]
        return out.reshape(t, chw)

    keys, queries, mixed_values = map(project, projections)
    logits = np.matmul(keys, queries.T)
    attention = softmax_rows(logits, scale, out=logits)  # (T, T)
    data = np.matmul(attention, mixed_values).reshape(t, c, h, w)

    def vjp(g, needed):
        g2 = g.reshape(t, chw)
        d_attention = np.matmul(g2, mixed_values.T)
        d_logits = softmax_rows_vjp(d_attention, attention, scale, out=d_attention)
        d_projected = (np.matmul(d_logits, queries), np.matmul(d_logits.T, keys),
                       np.matmul(attention.T, g2))
        need_means = any(needed[:t])
        d_m3 = np.zeros((t, c, hw)) if need_means else None
        d_params = []
        for proj, d_p in zip(projections, d_projected):
            d_p3 = d_p.reshape(t, c, hw)
            d_params.append(np.matmul(d_p3, np.swapaxes(m3, 1, 2)).sum(axis=0))
            d_params.append(d_p3.sum(axis=(0, 2)))
            if need_means:
                d_m3 += np.matmul(proj.weight.data.T, d_p3)
        d_values = (_spread_means(values, d_m3.reshape(t, c, h, w), needed) if need_means
                    else [None] * t)
        return d_values + d_params

    operands = list(values)
    for proj in projections:
        operands += [proj.weight, proj.bias]
    return stage_op(data, operands, vjp)


def frame_scores(relation: Tensor, contexts: Tensor, frame: int, masks: np.ndarray,
                 scoring: ScoringParams) -> Tensor:
    """Saliency score per object of frame ``frame``, shape (N,).

    ``contexts`` holds every frame's (C, H, W) context map, (T, C, H, W).
    Each object's (C, HW) relation block is multiplied with the frame's
    context viewed as (HW, C); the row means of the resulting C x C map,
    concatenated with the embedded initial mask, feed the score head.

    One op with a closed-form vjp.  Every row of the C x C map's gradient is
    the same, so with ``p`` the pooled means and ``s`` the context summed
    over channels, ``dR[n, a, :] = dp[n, a] s / C`` and the context's
    gradient is ``sum_{n,a} dp[n, a] R[n, a, :] / C`` on every channel.
    """
    n, c, h, w = relation.shape
    hw = h * w
    if contexts.ndim != 4 or contexts.shape[1:] != (c, h, w):
        raise ShapeError(f"context shape {contexts.shape[1:]} does not match blocks {(c, h, w)}")
    if not 0 <= frame < contexts.shape[0]:
        raise ShapeError(f"frame {frame} out of range for {contexts.shape[0]} contexts")
    mask_embed, score_head = scoring.mask_embed, scoring.score_head
    _check_projection("mask_embed", mask_embed, c, hw)
    _check_projection("score_head", score_head, 1, 2 * c)

    relation3 = relation.data.reshape(n, c, hw)
    context = contexts.data[frame].reshape(c, hw)
    pooled = np.matmul(relation3, context.T).mean(axis=2)  # (N, C)
    # C order, as BLAS rounds the product by layout.
    mask_inputs = np.ascontiguousarray(downsample_mask(masks, h, w).reshape(n, hw))
    mask_vec = mask_inputs @ mask_embed.weight.data.T  # (N, C)
    mask_vec += mask_embed.bias.data
    joint = np.concatenate([pooled, mask_vec], axis=-1)  # (N, 2C)
    data = joint @ score_head.weight.data.T
    data += score_head.bias.data

    def vjp(g, needed):
        g_col = g.reshape(n, 1)
        d_joint = g_col @ score_head.weight.data  # (N, 2C)
        d_pooled, d_mask_vec = d_joint[:, :c] / c, d_joint[:, c:]
        d_relation = d_contexts = None
        if needed[0]:
            d_relation = (d_pooled[:, :, None] * context.sum(axis=0)).reshape(relation.shape)
        if needed[1]:
            d_contexts = np.zeros(contexts.shape)
            d_contexts[frame] = (d_pooled.reshape(1, n * c)
                                 @ relation3.reshape(n * c, hw)).reshape(1, h, w)
        return (d_relation, d_contexts, d_mask_vec.T @ mask_inputs, d_mask_vec.sum(axis=0),
                g_col.T @ joint, g_col.sum(axis=0))

    operands = (relation, contexts, mask_embed.weight, mask_embed.bias,
                score_head.weight, score_head.bias)
    return stage_op(data.reshape(n), operands, vjp)


def sequence_scores(relations: list[Tensor], values: list[Tensor], masks: list[np.ndarray],
                    temporal: TemporalParams | None, scoring: ScoringParams) -> list[Tensor]:
    """Differentiable per-frame score vectors for a whole sequence.

    Frame t has (N_t, C, H, W) ``relations[t]`` and ``values[t]`` and one
    mask per object in ``masks[t]``.  Each frame's context is the object-mean
    of its values, mixed across frames by ``temporal`` unless that is None.
    """
    if not relations:
        raise ValueError("need at least one frame")
    block = relations[0].shape[1:]
    for t, (relation, value, frame_masks) in enumerate(zip(relations, values, masks,
                                                            strict=True)):
        if relation.ndim != 4 or relation.shape != value.shape:
            raise ShapeError(f"frame {t}: relation {relation.shape} and value {value.shape} "
                             f"must be equal (N, C, H, W)")
        if relation.shape[0] == 0:
            raise EmptyFrameError(f"frame {t} has zero objects")
        if np.ndim(frame_masks) != 3 or len(frame_masks) != relation.shape[0]:
            raise ShapeError(f"frame {t}: need one mask per object, got masks of shape "
                             f"{np.shape(frame_masks)} for {relation.shape[0]} objects")
        if relation.shape[1:] != block:
            raise ShapeError(f"frame {t} block shape {relation.shape[1:]} differs from {block}")

    contexts = object_means(values) if temporal is None else temporal_mix(values, temporal)
    return [frame_scores(relation, contexts, t, frame_masks, scoring)
            for t, (relation, frame_masks) in enumerate(zip(relations, masks))]


def rank_assign(scores) -> np.ndarray:
    """Rank objects by score, 1 for the highest; ties broken by lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"scores must be a non-empty vector, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    order = np.lexsort((np.arange(scores.size), -scores))
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return ranks


@lru_cache(maxsize=8)
def _resize_grid(in_h: int, in_w: int, out_h: int, out_w: int):
    """Source rows ``y0, y1`` (a column), columns ``x0, x1`` and the weights
    ``fy, fx`` of the far sample, for a bilinear resize from (in_h, in_w) to
    (out_h, out_w).  The arrays are shared between calls, so read-only."""
    sy = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    sy = np.clip(sy, 0.0, in_h - 1.0)[:, None]  # a column: rows index the second-last axis
    sx = np.clip(sx, 0.0, in_w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    grid = (y0, y1, x0, x1, sy - y0, sx - x0)
    for array in grid:
        array.flags.writeable = False
    return grid


def downsample_mask(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize over the last two axes, half-pixel centers, clamped edges.

    ``mask`` is one (H, W) mask or a stack of them, e.g. a frame's (N, H, W)
    instance masks, of any real dtype; the result is float64 of shape
    ``mask.shape[:-2] + (out_h, out_w)``.  Only the four gathered corner
    samples are converted to float64, which gives the same values as
    converting the whole stack first.  Every output element goes through the
    same arithmetic whether its mask is resized alone or in a stack, so both
    give the same bits.
    """
    src = np.asarray(mask)
    in_h, in_w = src.shape[-2:]
    y0, y1, x0, x1, fy, fx = _resize_grid(in_h, in_w, out_h, out_w)

    f64 = np.float64
    top = src[..., y0, x0].astype(f64) * (1 - fx) + src[..., y0, x1].astype(f64) * fx
    bottom = src[..., y1, x0].astype(f64) * (1 - fx) + src[..., y1, x1].astype(f64) * fx
    return top * (1 - fy) + bottom * fy
