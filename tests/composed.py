"""The model stages as compositions of small autodiff ops: a test oracle.

``vsorank`` runs each stage as one op with a hand-derived vjp
(``spatial._relation``, ``temporal.object_means``, ``temporal.temporal_mix``,
``temporal.frame_scores`` and ``losses.rank_loss``).  This module keeps the
form those ops replaced, built from matrix products, softmax, means and four
shape ops that the package no longer needs (``transpose_last2``, ``stack``,
``take`` and ``concat``), so that the tests can ask both forms for the same
values and gradients.  The stage functions here return what their fused
counterparts return; ``temporal_mix`` takes the stacked object means,
(T, C, H, W), as the composed form did.
"""

import numpy as np

from vsorank.autodiff import (
    ShapeError,
    Tensor,
    _op,
    conv1x1,
    linear,
    matmul,
    mean_axis,
    relu,
    scaled_softmax,
)
from vsorank.spatial import SpatialOutput
from vsorank.temporal import downsample_mask

# -- shape ops -----------------------------------------------------------------


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2: needs >= 2 axes, got shape {x.shape}")
    return _op(np.swapaxes(x.data, -1, -2), (x, lambda g: np.swapaxes(g, -1, -2)))


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("stack: empty input")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack: shapes {shape} and {t.shape} differ")
    return _op(np.stack([t.data for t in tensors]),
               *((t, lambda g, i=i: g[i]) for i, t in enumerate(tensors)))


def take(x: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis."""
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"take: index {index} out of range for shape {x.shape}")

    def grad_x(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return gx

    return _op(x.data[index], (x, grad_x))


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading extents must match."""
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat: leading shapes differ, {a.shape} vs {b.shape}")
    split = a.shape[-1]
    return _op(np.concatenate([a.data, b.data], axis=-1),
               (a, lambda g: g[..., :split]), (b, lambda g: g[..., split:]))


# -- stages --------------------------------------------------------------------


def spatial_forward(x: Tensor, params) -> SpatialOutput:
    n, c, h, w = x.shape
    hw = h * w

    kq = conv1x1(x, params.kq_proj.weight, params.kq_proj.bias)  # (N, C, H, W)
    queries = kq.reshape(n, c, hw)  # (N, C, HW)
    keys = transpose_last2(queries)  # (N, HW, C)
    attention = scaled_softmax(matmul(keys, queries), c)  # (N, HW, HW)

    value = conv1x1(x, params.v_proj.weight, params.v_proj.bias)  # (N, C, H, W)
    global_value = mean_axis(value, 0)  # (C, H, W)
    global_value = transpose_last2(global_value.reshape(c, hw))  # (HW, C)

    aggregated = matmul(attention, global_value)  # (N, HW, C)
    aggregated = transpose_last2(aggregated).reshape(n, c, h, w)

    return SpatialOutput(relation=x + aggregated, value=value)


def temporal_mix(stacked: Tensor, params) -> Tensor:
    """T x T attention over the stacked (T, C, H, W) frame maps."""
    t, c, h, w = stacked.shape
    chw = c * h * w

    keys = conv1x1(stacked, params.k_proj.weight, params.k_proj.bias).reshape(t, chw)
    queries = conv1x1(stacked, params.q_proj.weight, params.q_proj.bias).reshape(t, chw)
    mixed_values = conv1x1(stacked, params.v_proj.weight, params.v_proj.bias).reshape(t, chw)

    attention = scaled_softmax(matmul(keys, transpose_last2(queries)), chw)  # (T, T)
    return matmul(attention, mixed_values).reshape(t, c, h, w)


def frame_scores(relation: Tensor, context: Tensor, masks: np.ndarray, scoring) -> Tensor:
    """Scores of one frame's objects against its (C, H, W) context."""
    n, c, h, w = relation.shape
    hw = h * w

    context_flat = transpose_last2(context.reshape(c, hw))  # (HW, C)
    fused = matmul(relation.reshape(n, c, hw), context_flat)  # (N, C, C)
    pooled = mean_axis(fused, 2)  # (N, C)

    mask_inputs = downsample_mask(masks, h, w).reshape(n, hw)
    mask_vec = linear(Tensor(mask_inputs), scoring.mask_embed.weight, scoring.mask_embed.bias)

    joint = concat(pooled, mask_vec)  # (N, 2C)
    return linear(joint, scoring.score_head.weight, scoring.score_head.bias).reshape(n)


def sequence_scores(relations, values, masks, temporal, scoring) -> list[Tensor]:
    contexts = [mean_axis(value, 0) for value in values]
    if temporal is not None:
        mixed = temporal_mix(stack(contexts), temporal)
        contexts = [take(mixed, t) for t in range(len(contexts))]
    return [frame_scores(relation, context, frame_masks, scoring)
            for relation, context, frame_masks in zip(relations, contexts, masks)]


def rank_loss(scores: Tensor, target, margin: float) -> Tensor:
    n = scores.size
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if target.gt_ranks[i] < target.gt_ranks[j]
    ]
    selector = np.zeros((len(pairs), n))
    for row, (i, j) in enumerate(pairs):
        selector[row, i] = 1.0
        selector[row, j] = -1.0

    diffs = matmul(Tensor(selector), scores.reshape(n, 1)).reshape(len(pairs))
    return relu(margin - diffs).mean()
