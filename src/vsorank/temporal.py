"""Cross-frame attention, the scoring op and the ranking heads.

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
``R_n = x_n + v A_nᵀ`` (``x_n`` the input block, ``v`` the frame's value
map, ``A_n`` the object's attention over its own positions); without it
``R_n = x_n``.  Only ``R_n s = x_n s + v (A_nᵀ s)`` reaches the score, so
``frame_scores`` runs the spatial attention inside and never builds
``R_n``.  A frame's value map is the object mean of its input blocks, put
through the spatial stage's value projection when that stage runs.
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


def frame_scores(blocks: list[Tensor], values: Tensor, contexts: Tensor,
                 mask_inputs: list[np.ndarray], kq_proj: Projection | None,
                 scoring: ScoringParams) -> Tensor:
    """Saliency score per object of every frame, stacked in frame order, (ΣN,).

    ``blocks[t]`` is frame t's (N_t, C, H, W) input block, ``values`` and
    ``contexts`` hold every frame's (C, H, W) value and context maps,
    (T, C, H, W), and ``mask_inputs[t]`` is frame t's (N_t, H, W) masks on
    the same grid.  With ``kq_proj`` the spatial attention runs, with
    ``kq_n = W x_n + b`` per position and ``A_n = softmax(kq_nᵀ kq_n / sqrt(C))``,
    and object n's pooled vector is ``(x_n s + v u_n) / C``, where
    ``u_n = A_nᵀ s`` is computed as ``s A_n``; without it, the pooled vector
    is ``x_n s / C`` and ``values`` is not read.  The pooled vector,
    concatenated with the embedded mask, feeds the score head.

    One op with a closed-form vjp.  With ``p_n`` object n's pooled gradient,
    ``dx_n = p_n sᵀ`` and ``ds = sum_n x_nᵀ p_n``, on every channel of the
    context; with the attention, ``w_n = vᵀ p_n``, ``dv = sum_n p_n u_nᵀ``,
    ``ds += sum_n A_n w_n``, ``dL_n = softmax_rows_vjp(s w_nᵀ)`` and
    ``dkq_n = kq_n (dL_n + dL_nᵀ)``, so ``dx_n += Wᵀ dkq_n``,
    ``dW = sum_n dkq_n x_nᵀ`` and ``db = sum dkq_n``.  A frame whose pooled
    gradient is zero, such as one that no ranked pair reaches, is skipped.
    """
    if not blocks or contexts.ndim != 4 or len(blocks) != contexts.shape[0]:
        raise ShapeError(f"need one (C, H, W) context per frame, got contexts of shape "
                         f"{contexts.shape} for {len(blocks)} frames")
    c, h, w = contexts.shape[1:]
    hw = h * w
    embed, head = scoring.mask_embed.weight, scoring.score_head.weight
    _check_projection("mask_embed", scoring.mask_embed, c, hw, biased=False)
    _check_projection("score_head", scoring.score_head, 1, 2 * c, biased=False)
    operands = [*blocks, contexts, embed, head]
    attend = kq_proj is not None
    if attend:
        _check_projection("kq_proj", kq_proj, c, c)
        if values.shape != contexts.shape:
            raise ShapeError(f"value maps of shape {values.shape} do not match the "
                             f"contexts' {contexts.shape}")
        weight, bias, scale = kq_proj.weight, kq_proj.bias, math.sqrt(c)
        maps = values.data.reshape(-1, c, hw)
        operands += [values, weight, bias]
    # Only a pass that records a node keeps each frame's attention.
    keep = any(operand.requires_grad for operand in operands)

    ends = list(accumulate(block.shape[0] for block in blocks))
    rows = [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]
    sums = contexts.data.reshape(-1, c, hw).sum(axis=1)  # (T, HW)
    masks = np.concatenate(mask_inputs).reshape(-1, hw)
    joint = np.empty((ends[-1], 2 * c))  # pooled relations, then embedded masks
    saved = []  # per frame: kq, the attention and u, for the vjp
    for t, (block, s, frame) in enumerate(zip(blocks, sums, rows)):
        x3 = block.data.reshape(-1, c, hw)
        joint[frame, :c] = x3 @ s
        if attend:
            kq = np.matmul(weight.data, x3)  # (N, C, HW)
            kq += bias.data[None, :, None]
            # One (N, HW, HW) buffer per frame: the logits, then the attention.
            logits = np.matmul(np.swapaxes(kq, 1, 2), kq)
            attention = softmax_rows(logits, scale, out=logits)
            u = s @ attention  # (N, HW)
            joint[frame, :c] += u @ maps[t].T
            if keep:
                saved.append((kq, attention, u))
    joint[:, :c] /= c
    joint[:, c:] = masks @ embed.data.T
    data = joint @ head.data.T

    def vjp(g, needed):
        g_col = g.reshape(-1, 1)
        d_joint = g_col @ head.data  # (ΣN, 2C)
        d_pooled = d_joint[:, :c] / c
        d_blocks = [np.zeros(block.shape) if need else None
                    for block, need in zip(blocks, needed)]
        d_sums, need_contexts = np.zeros((len(blocks), hw)), needed[len(blocks)]
        if attend:
            d_maps, d_weight, d_bias = np.zeros(maps.shape), np.zeros((c, c)), np.zeros(c)
        for t, (block, s, frame, need) in enumerate(zip(blocks, sums, rows, needed)):
            p = d_pooled[frame]  # (N, C)
            if not p.any() or not (need or need_contexts or attend):
                continue
            x3 = block.data.reshape(-1, c, hw)
            d_x3 = p[:, :, None] * s if need else None
            d_sums[t] = p.reshape(-1) @ x3.reshape(-1, hw)
            if attend:
                kq, attention, u = saved[t]
                d_maps[t] = p.T @ u
                w_p = p @ maps[t]  # (N, HW): each object's vᵀ p_n
                d_sums[t] += np.matmul(attention, w_p[:, :, None]).sum(axis=0)[:, 0]
                d_attention = s[:, None] * w_p[:, None, :]  # (N, HW, HW)
                d_logits = softmax_rows_vjp(d_attention, attention, scale, out=d_attention)
                d_kq = np.matmul(kq, d_logits)
                d_kq += np.matmul(kq, np.swapaxes(d_logits, 1, 2))
                d_weight += np.matmul(d_kq, np.swapaxes(x3, 1, 2)).sum(axis=0)
                d_bias += d_kq.sum(axis=(0, 2))
                if need:
                    d_x3 += np.matmul(weight.data.T, d_kq)
            if need:
                d_blocks[t] = d_x3.reshape(block.shape)
        d_contexts = np.broadcast_to(d_sums.reshape(-1, 1, h, w), contexts.shape)
        shares = [*d_blocks, d_contexts, d_joint[:, c:].T @ masks, g_col.T @ joint]
        if attend:
            shares += [d_maps.reshape(values.shape), d_weight, d_bias]
        return shares

    return op(data.reshape(-1), operands, vjp)


def sequence_scores(blocks: list[Tensor], values: Tensor, mask_inputs: list[np.ndarray],
                    kq_proj: Projection | None, temporal: TemporalParams | None,
                    scoring: ScoringParams) -> Tensor:
    """Differentiable scores of a whole sequence's objects, stacked in frame order, (ΣN,).

    Frame t has its (N_t, C, H, W) input ``blocks[t]``, its (C, H, W) value
    map ``values[t]`` and its masks resized to the (H, W) grid in
    ``mask_inputs[t]``, (N_t, H, W) (see ``FrameSample.mask_inputs``).
    The spatial relation attention runs with the key/query projection
    ``kq_proj`` unless that is None, and each frame's context is its value
    map, mixed across frames by ``temporal`` unless that is None.
    """
    if not blocks:
        raise ValueError("need at least one frame")
    if values.ndim != 4 or values.shape[0] != len(blocks):
        raise ShapeError(f"need one (C, H, W) value map per frame, got value maps of shape "
                         f"{values.shape} for {len(blocks)} frames")
    if len(mask_inputs) != len(blocks):
        raise ShapeError(f"need one mask stack per frame, got {len(mask_inputs)} mask "
                         f"stacks for {len(blocks)} frames")
    block_shape = values.shape[1:]
    for t, (block, frame_masks) in enumerate(zip(blocks, mask_inputs)):
        if block.ndim != 4 or block.shape[1:] != block_shape:
            raise ShapeError(f"frame {t}: block {block.shape} is not (N, C, H, W) "
                             f"over the value maps' block shape {block_shape}")
        if block.shape[0] == 0:
            raise EmptyFrameError(f"frame {t} has zero objects")
        mask_shape = np.shape(frame_masks)
        if len(mask_shape) != 3 or mask_shape[0] != block.shape[0]:
            raise ShapeError(f"frame {t}: need one mask per object, got masks of shape "
                             f"{mask_shape} for {block.shape[0]} objects")
        if mask_shape[1:] != block_shape[1:]:
            raise ShapeError(f"frame {t}: masks of shape {mask_shape} are not on the "
                             f"{block_shape[1:]} feature grid")

    contexts = values if temporal is None else temporal_mix(values, temporal)
    return frame_scores(blocks, values, contexts, mask_inputs, kq_proj, scoring)


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
