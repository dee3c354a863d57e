"""Cross-frame attention and the object scoring / ranking heads.

Each frame has one value map, and the T maps come as one (T, C, H, W)
tensor.  With cross-frame attention, they attend over each other (a T x T
attention), producing a mixed context map per frame; without it, each
frame's value map is its context.  Pooling each object's relation block
against its frame's context map, embedding the object's initial mask, and
applying a fully connected head yields a saliency score per object.  Scores
are differentiable; rank assignment operates on their detached values.

In closed form, with ``s`` a frame's context summed over channels, ``R_n``
object n's (C, HW) relation block, ``m_n`` its resized mask, ``E`` the mask
embedding and ``[w_r, w_m]`` the score head,
``score_n = w_r·(R_n s)/C + w_m·(E m_n)``.  With the spatial stage,
``R_n s = x_n s + v (A_nᵀ s)`` (``x_n`` the input block, ``v`` the frame's
value map, ``A_n`` the object's attention); without it ``R_n = x_n``.  A
frame's value map is the object mean of its input blocks, put through the
spatial stage's value projection when that stage runs.
The loss compares scores within a frame only, so neither the head nor the
embedding has a bias: it would shift a whole frame's scores alike.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .autodiff import ShapeError, Tensor, op, softmax_rows, softmax_rows_vjp
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
    """Three C->C projections of the stacked per-frame value maps; the query
    map has no bias, as it would shift each softmax row by ``k_i·b``."""

    k_proj: Projection
    q_proj: Projection
    v_proj: Projection


@dataclass(frozen=True)
class ScoringParams:
    """Mask embedding (H*W -> C) and the score head (2C -> 1), both weight-only."""

    mask_embed: Projection
    score_head: Projection


def temporal_params_init(channels: int, rng_seed: int) -> TemporalParams:
    rng = np.random.default_rng(rng_seed)
    return TemporalParams(
        k_proj=projection_init(channels, channels, rng),
        q_proj=projection_init(channels, channels, rng, bias=False),
        v_proj=projection_init(channels, channels, rng),
    )


def scoring_params_init(channels: int, height: int, width: int, rng_seed: int) -> ScoringParams:
    # Score head starts at zero so an untrained model carries no systematic
    # rank preference; it picks up gradient from the first step on.
    rng = np.random.default_rng(rng_seed)
    return ScoringParams(
        mask_embed=projection_init(channels, height * width, rng, bias=False),
        score_head=projection_init(1, 2 * channels, rng, zero=True, bias=False),
    )


def _check_projection(name: str, proj: Projection, out_features: int, in_features: int,
                      biased: bool = True):
    """An (out, in) weight, and an (out,) bias if ``biased``, else none."""
    shapes = (proj.weight.shape, None if proj.bias is None else proj.bias.shape)
    if shapes != ((out_features, in_features), (out_features,) if biased else None):
        raise ShapeError(f"{name}: shapes {shapes[0]}, {shapes[1]} do not map "
                         f"{in_features} to {out_features} features")


def temporal_mix(values: Tensor, params: TemporalParams) -> Tensor:
    """T x T attention over the frames' value maps; returns mixed maps (T, C, H, W).

    ``values`` holds each frame's (C, H, W) value map, (T, C, H, W).  One op
    with a closed-form vjp.  Forward, with the maps ``m`` as (T, C, HW) and
    each projection ``P m = W m + b`` flattened to (T, CHW), where the query
    map has no ``b``:
    ``A = softmax(K Q^T / sqrt(CHW))`` and ``out = A V``.  Backward, from
    ``g`` as (T, CHW): ``dA = g V^T``, ``dV = A^T g``,
    ``dL = softmax_rows_vjp(dA)``, ``dK = dL Q`` and ``dQ = dL^T K``; each
    projection gives ``dW = sum_t dP m^T``, ``db = sum dP`` and its share
    ``W^T dP`` of ``dm``.
    """
    if values.ndim != 4 or values.shape[0] == 0:
        raise ShapeError(f"value maps must be (T, C, H, W) with T >= 1, got {values.shape}")
    t, c, h, w = values.shape
    hw, chw = h * w, c * h * w
    projections = (params.k_proj, params.q_proj, params.v_proj)
    for name, proj in zip(("k_proj", "q_proj", "v_proj"), projections):
        _check_projection(name, proj, c, c, biased=proj is not params.q_proj)
    scale = math.sqrt(chw)

    m3 = values.data.reshape(t, c, hw)

    def project(proj):
        out = np.matmul(proj.weight.data, m3)
        if proj.bias is not None:
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
        d_m3 = np.zeros((t, c, hw)) if needed[0] else None
        d_params = []
        for proj, d_p in zip(projections, d_projected):
            d_p3 = d_p.reshape(t, c, hw)
            d_params.append(np.matmul(d_p3, np.swapaxes(m3, 1, 2)).sum(axis=0))
            if proj.bias is not None:
                d_params.append(d_p3.sum(axis=(0, 2)))
            if d_m3 is not None:
                d_m3 += np.matmul(proj.weight.data.T, d_p3)
        return [None if d_m3 is None else d_m3.reshape(values.shape), *d_params]

    operands = [values, *(tensor for proj in projections for tensor in (proj.weight, proj.bias)
                          if tensor is not None)]
    return op(data, operands, vjp)


def frame_scores(relations: list[Tensor], contexts: Tensor, mask_inputs: list[np.ndarray],
                 scoring: ScoringParams) -> Tensor:
    """Saliency score per object of every frame, stacked in frame order, (ΣN,).

    ``relations[t]`` is frame t's (N_t, C, H, W) relation block,
    ``contexts`` holds every frame's (C, H, W) context map, (T, C, H, W),
    and ``mask_inputs[t]`` is frame t's (N_t, H, W) masks on the same grid.
    Each object's (C, HW) relation block ``R_n`` is pooled against its
    frame's context summed over channels, ``s``, as ``R_n s / C``; that,
    concatenated with the embedded mask, feeds the score head.

    One op with a closed-form vjp.  With ``dp`` the gradient of the pooled
    rows, ``dR[n, a, :] = dp[n, a] s / C``, and each frame's context
    gradient is ``sum_{n,a} dp[n, a] R[n, a, :] / C`` on every channel over
    that frame's objects.  The mask embedding, the score head and their
    gradients are single products over the stacked (ΣN, ·) rows.
    """
    if not relations or contexts.ndim != 4 or len(relations) != contexts.shape[0]:
        raise ShapeError(f"need one (C, H, W) context per frame, got contexts of shape "
                         f"{contexts.shape} for {len(relations)} frames")
    c, h, w = contexts.shape[1:]
    hw = h * w
    embed, head = scoring.mask_embed.weight, scoring.score_head.weight
    _check_projection("mask_embed", scoring.mask_embed, c, hw, biased=False)
    _check_projection("score_head", scoring.score_head, 1, 2 * c, biased=False)

    ends = list(accumulate(relation.shape[0] for relation in relations))
    rows = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]
    sums = contexts.data.reshape(-1, c, hw).sum(axis=1)  # (T, HW)
    masks = np.concatenate(mask_inputs).reshape(-1, hw)
    joint = np.empty((ends[-1], 2 * c))  # pooled relations, then embedded masks
    for relation, s, frame in zip(relations, sums, rows):
        joint[frame, :c] = relation.data.reshape(-1, c, hw) @ s
    joint[:, :c] /= c
    joint[:, c:] = masks @ embed.data.T
    data = joint @ head.data.T

    def vjp(g, needed):
        g_col = g.reshape(-1, 1)
        d_joint = g_col @ head.data  # (ΣN, 2C)
        d_pooled = d_joint[:, :c] / c
        d_relations = [(d_pooled[frame, :, None] * s).reshape(relation.shape) if need else None
                       for relation, s, frame, need in zip(relations, sums, rows, needed)]
        d_contexts = None
        if needed[len(relations)]:
            d_sums = np.stack([d_pooled[frame].reshape(-1) @ relation.data.reshape(-1, hw)
                               for relation, frame in zip(relations, rows)])
            d_contexts = np.broadcast_to(d_sums.reshape(-1, 1, h, w), contexts.shape)
        return d_relations + [d_contexts, d_joint[:, c:].T @ masks, g_col.T @ joint]

    return op(data.reshape(-1), [*relations, contexts, embed, head], vjp)


def sequence_scores(relations: list[Tensor], values: Tensor, mask_inputs: list[np.ndarray],
                    temporal: TemporalParams | None, scoring: ScoringParams) -> Tensor:
    """Differentiable scores of a whole sequence's objects, stacked in frame order, (ΣN,).

    Frame t has its (N_t, C, H, W) ``relations[t]``, its (C, H, W) value
    map ``values[t]`` and its masks resized to the (H, W) grid in
    ``mask_inputs[t]``, (N_t, H, W) (see ``FrameSample.mask_inputs``).
    Each frame's context is its value map, mixed across frames by
    ``temporal`` unless that is None.
    """
    if not relations:
        raise ValueError("need at least one frame")
    if values.ndim != 4 or values.shape[0] != len(relations):
        raise ShapeError(f"need one (C, H, W) value map per frame, got value maps of shape "
                         f"{values.shape} for {len(relations)} frames")
    block = values.shape[1:]
    for t, (relation, frame_masks) in enumerate(zip(relations, mask_inputs, strict=True)):
        if relation.ndim != 4 or relation.shape[1:] != block:
            raise ShapeError(f"frame {t}: relation {relation.shape} is not (N, C, H, W) "
                             f"over the value maps' block shape {block}")
        if relation.shape[0] == 0:
            raise EmptyFrameError(f"frame {t} has zero objects")
        mask_shape = np.shape(frame_masks)
        if len(mask_shape) != 3 or mask_shape[0] != relation.shape[0]:
            raise ShapeError(f"frame {t}: need one mask per object, got masks of shape "
                             f"{mask_shape} for {relation.shape[0]} objects")
        if mask_shape[1:] != block[1:]:
            raise ShapeError(f"frame {t}: masks of shape {mask_shape} are not on the "
                             f"{block[1:]} feature grid")

    contexts = values if temporal is None else temporal_mix(values, temporal)
    return frame_scores(relations, contexts, mask_inputs, scoring)


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
    """For a bilinear resize from (in_h, in_w) to (out_h, out_w): the flat
    source indices ``corners`` of shape (4, out_h, out_w), of the samples at
    rows ``y0, y0, y1, y1`` and columns ``x0, x1, x0, x1``, and the weights
    ``fy`` (a column) and ``fx`` of the far row and column.  The arrays are
    shared between calls, so read-only."""
    sy = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    sx = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    sy = np.clip(sy, 0.0, in_h - 1.0)[:, None]  # a column: rows index the second-last axis
    sx = np.clip(sx, 0.0, in_w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    corners = np.stack(np.broadcast_arrays(y0 * in_w + x0, y0 * in_w + x1,
                                           y1 * in_w + x0, y1 * in_w + x1))
    grid = (corners, sy - y0, sx - x0)
    for array in grid:
        array.flags.writeable = False
    return grid


def downsample_mask(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize over the last two axes, half-pixel centers, clamped edges.

    ``mask`` is one (H, W) mask or a stack of them, e.g. a frame's (N, H, W)
    instance masks, of any real dtype; the result is float64 of shape
    ``mask.shape[:-2] + (out_h, out_w)``.  The four corner samples are
    gathered with one ``np.take`` on the flattened masks, and only they are
    converted to float64, which gives the same values as converting the
    whole stack first.  Every output element goes through the same
    arithmetic whether its mask is resized alone or in a stack, so both
    give the same bits.
    """
    src = np.asarray(mask)
    in_h, in_w = src.shape[-2:]
    corners, fy, fx = _resize_grid(in_h, in_w, out_h, out_w)

    flat = src.reshape(src.shape[:-2] + (in_h * in_w,))
    samples = np.take(flat, corners, axis=-1).astype(np.float64)  # (..., 4, out_h, out_w)
    rows = samples[..., 0::2, :, :] * (1 - fx) + samples[..., 1::2, :, :] * fx  # top, bottom
    return rows[..., 0, :, :] * (1 - fy) + rows[..., 1, :, :] * fy
