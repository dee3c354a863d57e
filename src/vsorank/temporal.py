"""Cross-frame attention and the object scoring / ranking heads.

Per frame, the object-mean of the value features gives one context map.  With
cross-frame attention, the T stacked maps attend over each other (a T x T
attention), producing a mixed context map per frame; without it, each frame
keeps its own.  Fusing each object's relation block with its frame's context
map, embedding the object's initial mask, and applying a fully connected head
yields a saliency score per object.  Scores are differentiable; rank
assignment operates on their detached values.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    concat,
    conv1x1,
    linear,
    matmul,
    mean_axis,
    scaled_softmax,
    stack,
    take,
    transpose_last2,
)
from .spatial import EmptyFrameError, Projection, projection_init

__all__ = [
    "TemporalParams",
    "ScoringParams",
    "temporal_params_init",
    "scoring_params_init",
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


def temporal_mix(values: Tensor, params: TemporalParams) -> Tensor:
    """T x T attention over stacked frame maps; returns mixed maps (T, C, H, W)."""
    if values.ndim != 4:
        raise ShapeError(f"stacked values must be (T, C, H, W), got {values.shape}")
    t, c, h, w = values.shape
    chw = c * h * w

    keys = conv1x1(values, params.k_proj.weight, params.k_proj.bias).reshape(t, chw)
    queries = conv1x1(values, params.q_proj.weight, params.q_proj.bias).reshape(t, chw)
    mixed_values = conv1x1(values, params.v_proj.weight, params.v_proj.bias).reshape(t, chw)

    attention = scaled_softmax(matmul(keys, transpose_last2(queries)), chw)  # (T, T)
    return matmul(attention, mixed_values).reshape(t, c, h, w)


def frame_scores(relation: Tensor, context: Tensor, masks: np.ndarray,
                 scoring: ScoringParams) -> Tensor:
    """Saliency score per object of one frame, shape (N,).

    Each object's (C, HW) relation block is multiplied with the frame context
    viewed as (HW, C); the row means of the resulting C x C map, concatenated
    with the embedded initial mask, feed the score head.
    """
    n, c, h, w = relation.shape
    hw = h * w
    if context.shape != (c, h, w):
        raise ShapeError(f"context shape {context.shape} does not match blocks {(c, h, w)}")

    context_flat = transpose_last2(context.reshape(c, hw))  # (HW, C)
    fused = matmul(relation.reshape(n, c, hw), context_flat)  # (N, C, C)
    pooled = mean_axis(fused, 2)  # (N, C)

    mask_inputs = downsample_mask(masks, h, w).reshape(n, hw)
    mask_vec = linear(Tensor(mask_inputs), scoring.mask_embed.weight, scoring.mask_embed.bias)

    joint = concat(pooled, mask_vec)  # (N, 2C)
    return linear(joint, scoring.score_head.weight, scoring.score_head.bias).reshape(n)


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

    contexts = [mean_axis(value, 0) for value in values]
    if temporal is not None:
        mixed = temporal_mix(stack(contexts), temporal)
        contexts = [take(mixed, t) for t in range(len(contexts))]
    return [frame_scores(relation, context, frame_masks, scoring)
            for relation, context, frame_masks in zip(relations, contexts, masks)]


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
