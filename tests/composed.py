"""The model stages as compositions of small autodiff ops: a test oracle.

``vsorank`` runs each stage as one op with a hand-derived vjp
(``spatial.object_means``, ``temporal.temporal_mix``,
``temporal.frame_scores``, which runs the spatial relation attention
inside, and ``losses.rank_loss``).  This module keeps the form those ops
replaced, so that the tests can ask both forms for the same values and
gradients.  It holds the small ops that the package no longer needs: the
matrix product ``matmul`` (plain, batched and with a shared right operand),
the affine map ``linear`` (a linear map when given no bias),
``scaled_softmax`` (over the package's ``softmax_rows`` kernel),
``mean_axis``, ``mean``, ``relu``, ``neg`` and ``sub``, and the shape ops
``reshape``, ``transpose_last2``, ``stack``, ``take`` and ``concat``
(``vsorank``'s ``Tensor`` has only ``+``, ``*`` and ``sum``).  The stage
functions here take one frame, where the package's ops take a sequence.
The package projects each frame's object-mean features once, as one value
map per frame; ``value_map`` here projects every object and takes the mean
of the projections (``mean_axis``), so the two stay independent routes.
``relation`` builds each object's (C, H, W) relation block, which the
package never builds, and ``frame_scores`` keeps the (N, C, C) product of
those blocks with the context whose row means the package's op computes
directly as ``(x_n s + v A_nᵀ s) / C``, for the same reason.
``sequence_scores`` here mixes the value maps, stacked to (T, C, H, W), by
``temporal_mix`` and scores each frame against its row, as
``model.model_scores`` composes the package's ``temporal_mix`` and
``frame_scores``.
"""

import math

import numpy as np

from vsorank.autodiff import ShapeError, Tensor, conv1x1, op, softmax_rows, softmax_rows_vjp
from vsorank.temporal import downsample_mask

# -- ops -----------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Accepts (M,K)x(K,P), batched (N,M,K)x(N,K,P), and (N,M,K)x(K,P) where the
    right operand is shared across the batch.
    """
    shared_rhs = a.ndim == 3 and b.ndim == 2
    if (a.ndim == 2 and b.ndim == 2) or shared_rhs:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"matmul: batch shapes incompatible, {a.shape} x {b.shape}")
    else:
        raise ShapeError(f"matmul: unsupported ranks, {a.shape} x {b.shape}")

    def vjp(g, needed):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return np.matmul(g, np.swapaxes(b.data, -1, -2)), gb.sum(axis=0) if shared_rhs else gb

    return op(np.matmul(a.data, b.data), (a, b), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: ``out[..., :] = weight @ x[..., :] + bias``;
    without a bias, the linear map ``weight @ x[..., :]``."""
    if weight.ndim != 2 or bias is not None and (bias.ndim != 1
                                                 or weight.shape[0] != bias.shape[0]):
        raise ShapeError(f"linear: bad parameter shapes {weight.shape}, "
                         f"{None if bias is None else bias.shape}")
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(f"linear: feature mismatch, input {x.shape} vs weight {weight.shape}")

    def vjp(g, needed):
        g2 = g.reshape(-1, weight.shape[0])
        shares = g @ weight.data, g2.T @ x.data.reshape(-1, weight.shape[1])
        return shares if bias is None else (*shares, g2.sum(axis=0))

    data = x.data @ weight.data.T
    if bias is None:
        return op(data, (x, weight), vjp)
    return op(data + bias.data, (x, weight, bias), vjp)


def scaled_softmax(x: Tensor, scale_dim: int) -> Tensor:
    """Softmax over the last axis of ``x / sqrt(scale_dim)``, through the
    package's kernel ``softmax_rows``."""
    if scale_dim < 1:
        raise ValueError(f"scaled_softmax: scale_dim must be positive, got {scale_dim}")
    scale = math.sqrt(scale_dim)
    y = softmax_rows(x.data, scale)
    return op(y, (x,), lambda g, needed: (softmax_rows_vjp(g, y, scale),))


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"mean_axis: axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    return op(x.data.mean(axis=axis), (x,),
              lambda g, needed: (np.broadcast_to(np.expand_dims(g, axis) / n, x.shape),))


def mean(x: Tensor) -> Tensor:
    """Mean of every entry, as a 0-d tensor."""
    n = x.size
    return op(x.data.mean(), (x,), lambda g, needed: (np.broadcast_to(g / n, x.shape),))


def relu(x: Tensor) -> Tensor:
    return op(np.maximum(x.data, 0.0), (x,), lambda g, needed: ((x.data > 0.0) * g,))


def neg(x: Tensor) -> Tensor:
    return op(-x.data, (x,), lambda g, needed: (-g,))


def sub(a, b: Tensor) -> Tensor:
    """``a - b`` as ``a + neg(b)``, or ``neg(b) + a`` when ``a`` is a float."""
    if isinstance(a, Tensor):
        return a + neg(b)
    return neg(b) + float(a)


# -- shape ops -----------------------------------------------------------------


def reshape(x: Tensor, *shape: int) -> Tensor:
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: {x.shape} has {x.size} elements, target {shape}")
    return op(x.data.reshape(shape), (x,), lambda g, needed: (g.reshape(x.shape),))


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2: needs >= 2 axes, got shape {x.shape}")
    return op(np.swapaxes(x.data, -1, -2), (x,), lambda g, needed: (np.swapaxes(g, -1, -2),))


def stack(tensors: list[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("stack: empty input")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack: shapes {shape} and {t.shape} differ")
    return op(np.stack([t.data for t in tensors]), tensors, lambda g, needed: list(g))


def take(x: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis."""
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"take: index {index} out of range for shape {x.shape}")

    def vjp(g, needed):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return op(x.data[index], (x,), vjp)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading extents must match."""
    if a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat: leading shapes differ, {a.shape} vs {b.shape}")
    split = a.shape[-1]
    return op(np.concatenate([a.data, b.data], axis=-1), (a, b),
              lambda g, needed: (g[..., :split], g[..., split:]))


# -- stages --------------------------------------------------------------------


def value_map(x: Tensor, v_proj) -> Tensor:
    """One frame's (C, H, W) value map: the object mean of every object's
    value projection."""
    return mean_axis(conv1x1(x, v_proj.weight, v_proj.bias), 0)


def relation(x: Tensor, frame_value: Tensor, kq_proj) -> Tensor:
    """One frame's (N, C, H, W) relation blocks: each object's Gram attention
    over its own positions applied to the frame's (C, H, W) value map, added
    to the object's block."""
    n, c, h, w = x.shape
    hw = h * w

    kq = conv1x1(x, kq_proj.weight, kq_proj.bias)  # (N, C, H, W)
    queries = reshape(kq, n, c, hw)  # (N, C, HW)
    keys = transpose_last2(queries)  # (N, HW, C)
    attention = scaled_softmax(matmul(keys, queries), c)  # (N, HW, HW)

    global_value = transpose_last2(reshape(frame_value, c, hw))  # (HW, C)
    aggregated = matmul(attention, global_value)  # (N, HW, C)
    return x + reshape(transpose_last2(aggregated), n, c, h, w)


def temporal_mix(stacked: Tensor, params) -> Tensor:
    """T x T attention over the stacked (T, C, H, W) frame maps."""
    t, c, h, w = stacked.shape
    chw = c * h * w

    keys = reshape(conv1x1(stacked, params.k_proj.weight, params.k_proj.bias), t, chw)
    # The query map has no bias: over each position's channels, then back.
    positions = transpose_last2(reshape(stacked, t, c, h * w))  # (T, HW, C)
    queries = reshape(transpose_last2(linear(positions, params.q_proj.weight)), t, chw)
    mixed_values = reshape(conv1x1(stacked, params.v_proj.weight, params.v_proj.bias),
                           t, chw)

    attention = scaled_softmax(matmul(keys, transpose_last2(queries)), chw)  # (T, T)
    return reshape(matmul(attention, mixed_values), t, c, h, w)


def frame_scores(relation: Tensor, context: Tensor, masks: np.ndarray, scoring) -> Tensor:
    """Scores of one frame's objects against its (C, H, W) context."""
    n, c, h, w = relation.shape
    hw = h * w

    context_flat = transpose_last2(reshape(context, c, hw))  # (HW, C)
    fused = matmul(reshape(relation, n, c, hw), context_flat)  # (N, C, C)
    pooled = mean_axis(fused, 2)  # (N, C)

    mask_inputs = downsample_mask(masks, h, w).reshape(n, hw)
    mask_vec = linear(Tensor(mask_inputs), scoring.mask_embed.weight)

    joint = concat(pooled, mask_vec)  # (N, 2C)
    return reshape(linear(joint, scoring.score_head.weight), n)


def sequence_scores(relations, values: Tensor, masks, temporal, scoring) -> list[Tensor]:
    """Each frame's scores against its row of the (T, C, H, W) value maps,
    mixed across frames by ``temporal`` unless that is None."""
    contexts = values if temporal is None else temporal_mix(values, temporal)
    return [frame_scores(relation, take(contexts, t), frame_masks, scoring)
            for t, (relation, frame_masks) in enumerate(zip(relations, masks))]


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

    diffs = reshape(matmul(Tensor(selector), reshape(scores, n, 1)), len(pairs))
    return mean(relu(sub(margin, diffs)))
