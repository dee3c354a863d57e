"""Per-frame spatial relation attention over detected-object features.

Each object block of shape (C, H, W) attends over its own spatial positions,
but the attended values come from one value map per frame: the learned
value projection of the frame's object-mean features.  Adding the aggregate
back onto the input yields "relation" features that mix local structure
with frame-global context; the (T, C, H, W) value maps are the second
output and feed the cross-frame stage.  ``object_means`` takes the object
means, for this stage and for the variants without it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, conv1x1, op, softmax_rows, softmax_rows_vjp

__all__ = [
    "EmptyFrameError",
    "Projection",
    "projection_init",
    "SpatialParams",
    "SpatialOutput",
    "spatial_params_init",
    "object_means",
    "spatial_forward",
]


class EmptyFrameError(ValueError):
    """A frame with no detected objects reached the attention stage."""


@dataclass(frozen=True)
class Projection:
    """Weight and optional bias of a 1x1 convolution or a fully connected layer."""

    weight: Tensor  # (out, in)
    bias: Tensor | None  # (out,), or None for a weight-only map


def projection_init(out_features: int, in_features: int, rng: np.random.Generator,
                    zero: bool = False, bias: bool = True) -> Projection:
    """Uniform(-1/sqrt(in), 1/sqrt(in)) weights, all-zero if asked; a zero
    bias, or none."""
    if zero:
        weight = np.zeros((out_features, in_features))
    else:
        bound = 1.0 / np.sqrt(in_features)
        weight = rng.uniform(-bound, bound, size=(out_features, in_features))
    return Projection(
        weight=Tensor(weight, requires_grad=True),
        bias=Tensor(np.zeros(out_features), requires_grad=True) if bias else None,
    )


@dataclass(frozen=True)
class SpatialParams:
    """Learnable projections: one shared key/query map, one value map (both C->C)."""

    kq_proj: Projection
    v_proj: Projection


@dataclass(frozen=True)
class SpatialOutput:
    relations: list[Tensor]  # per frame (N_t, C, H, W), input plus attended global context
    values: Tensor  # (T, C, H, W), each frame's value map


def spatial_params_init(channels: int, rng_seed: int) -> SpatialParams:
    """Deterministic parameter initialization for a given channel width."""
    if channels < 1:
        raise ValueError(f"channels must be positive, got {channels}")
    rng = np.random.default_rng(rng_seed)
    return SpatialParams(
        kq_proj=projection_init(channels, channels, rng),
        v_proj=projection_init(channels, channels, rng),
    )


def object_means(blocks: list[Tensor]) -> Tensor:
    """Each frame's object-mean map, stacked to (T, C, H, W), as one op.

    ``blocks[t]`` is frame t's (N_t, C, H, W) block.  The only code that
    takes an object mean or spreads its gradient, evenly over the frame's
    objects.  Blocks that need no gradient, such as the model's input
    features, give a result with no node.
    """
    if not blocks or any(block.ndim != 4 or block.shape[1:] != blocks[0].shape[1:]
                         for block in blocks):
        raise ShapeError(f"need one (N, C, H, W) block per frame, all of one (C, H, W), "
                         f"got {[block.shape for block in blocks]}")
    for t, block in enumerate(blocks):
        if block.shape[0] == 0:
            raise EmptyFrameError(f"frame {t} has zero objects")
    means = np.stack([np.add.reduce(block.data, axis=0) / block.shape[0] for block in blocks])

    def vjp(g, needed):
        return [np.broadcast_to(g[t][None] / block.shape[0], block.shape) if need else None
                for t, (block, need) in enumerate(zip(blocks, needed))]

    return op(means, blocks, vjp)


def spatial_forward(blocks: list[Tensor], params: SpatialParams) -> SpatialOutput:
    """Run the spatial relation attention over a sequence's (N_t, C, H, W) object blocks.

    A 1x1 projection is affine, so the mean of the objects' value projections
    is the projection of their mean: one ``conv1x1`` of the (T, C, H, W)
    ``object_means`` gives every frame's value map.  Per object, keys and
    queries are two views of one projected block, so the pre-softmax
    attention is the Gram matrix of per-position channel vectors; each of
    its rows mixes the frame's value map, added back onto the input by one
    ``_relation`` op per frame.
    """
    values = conv1x1(object_means(blocks), params.v_proj.weight, params.v_proj.bias)
    relations = [_relation(x, values, t, params.kq_proj) for t, x in enumerate(blocks)]
    return SpatialOutput(relations=relations, values=values)


def _relation(x: Tensor, values: Tensor, t: int, kq_proj: Projection) -> Tensor:
    """``x`` plus, per object, the Gram attention of its key/query projection
    applied to row ``t`` of the value maps: one op with a closed-form vjp.

    Forward, with ``kq = W x + b`` per position as (N, C, HW) and the frame's
    value map ``v = values[t]`` as (C, HW):
    ``A = softmax(kq^T kq / sqrt(C))`` and ``out = x + (A v^T)^T``.
    Backward, from ``g`` as (N, C, HW): ``dA = g^T v``, ``dv = sum_n g A``
    in row ``t`` of the value maps' gradient, ``dL = softmax_rows_vjp(dA)``
    and ``dkq = kq (dL + dL^T)``, which gives ``dx = g + W^T dkq``,
    ``dW = sum_n dkq x^T`` and ``db = sum dkq``.
    """
    n, c, h, w = x.shape
    hw = h * w
    weight, bias = kq_proj.weight, kq_proj.bias
    scale = math.sqrt(c)

    x3 = x.data.reshape(n, c, hw)
    kq = np.matmul(weight.data, x3)  # (N, C, HW)
    kq += bias.data[None, :, None]
    # One (N, HW, HW) buffer: the logits, then the attention in place.
    logits = np.matmul(np.swapaxes(kq, 1, 2), kq)
    attention = softmax_rows(logits, scale, out=logits)
    value = values.data[t].reshape(c, hw)
    aggregated = np.matmul(attention, value.T)  # (N, HW, C)
    data = np.swapaxes(aggregated, 1, 2).reshape(n, c, h, w)
    data += x.data

    def vjp(g, needed):
        if not g.any():
            # A frame whose scores no ranked pair reaches, e.g. one of one
            # object: every share is zero, so skip the (N, HW, HW) products.
            return [np.zeros(operand.shape) if need else None
                    for operand, need in zip((x, values, weight, bias), needed)]
        need_x, need_values, need_weight, _ = needed
        g3 = g.reshape(n, c, hw)
        d_values = None
        if need_values:
            d_values = np.zeros(values.shape)
            d_values[t] = np.matmul(g3, attention).sum(axis=0).reshape(c, h, w)
        d_attention = np.matmul(np.swapaxes(g3, 1, 2), value)  # (N, HW, HW)
        d_logits = softmax_rows_vjp(d_attention, attention, scale, out=d_attention)
        d_kq = np.matmul(kq, d_logits)
        d_kq += np.matmul(kq, np.swapaxes(d_logits, 1, 2))
        d_x = (g3 + np.matmul(weight.data.T, d_kq)).reshape(x.shape) if need_x else None
        d_weight = np.matmul(d_kq, np.swapaxes(x3, 1, 2)).sum(axis=0) if need_weight else None
        return d_x, d_values, d_weight, d_kq.sum(axis=(0, 2))

    return op(data, (x, values, weight, bias), vjp)
