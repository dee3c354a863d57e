"""Per-frame spatial relation attention over detected-object features.

Each object block of shape (C, H, W) attends over its own spatial positions,
but the attended values come from a single frame-global map: the object-mean
of a learned value projection.  Adding the aggregate back onto the input
yields "relation" features that mix local structure with frame-global
context; the value projection itself is the second output and feeds the
cross-frame stage.
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
    relation: Tensor  # (N, C, H, W), input plus attended global context
    value: Tensor  # (N, C, H, W), value projection of the input


def spatial_params_init(channels: int, rng_seed: int) -> SpatialParams:
    """Deterministic parameter initialization for a given channel width."""
    if channels < 1:
        raise ValueError(f"channels must be positive, got {channels}")
    rng = np.random.default_rng(rng_seed)
    return SpatialParams(
        kq_proj=projection_init(channels, channels, rng),
        v_proj=projection_init(channels, channels, rng),
    )


def spatial_forward(x: Tensor, params: SpatialParams) -> SpatialOutput:
    """Run the spatial relation attention over one frame's (N, C, H, W) object blocks.

    Per object, keys and queries are two views of the same projected block,
    so the pre-softmax attention is the Gram matrix of per-position channel
    vectors.  Each attention row then mixes the frame-global value map (the
    object-mean of the value projection), and the result is added back onto
    the input.  The value projection is one op and the rest of the stage
    another (``_relation``).
    """
    if x.ndim != 4:
        raise ShapeError(f"object features must be (N, C, H, W), got {x.shape}")
    if x.shape[0] == 0:
        raise EmptyFrameError("cannot attend over a frame with zero objects")
    value = conv1x1(x, params.v_proj.weight, params.v_proj.bias)  # (N, C, H, W)
    return SpatialOutput(relation=_relation(x, value, params.kq_proj), value=value)


def _relation(x: Tensor, value: Tensor, kq_proj: Projection) -> Tensor:
    """``x`` plus, per object, the Gram attention of its key/query projection
    applied to the object-mean of ``value``: one op with a closed-form vjp.

    Forward, with ``kq = W x + b`` per position as (N, C, HW) and the global
    map ``v`` = mean over objects of ``value`` as (C, HW):
    ``A = softmax(kq^T kq / sqrt(C))`` and ``out = x + (A v^T)^T``.
    Backward, from ``g`` as (N, C, HW): ``dA = g^T v``, ``dv = mean-spread of
    sum_n g A``, ``dL = softmax_rows_vjp(dA)`` and ``dkq = kq (dL + dL^T)``,
    which gives ``dx = g + W^T dkq``, ``dW = sum_n dkq x^T`` and
    ``db = sum dkq``.
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
    global_value = (np.add.reduce(value.data, axis=0) / n).reshape(c, hw)  # (C, HW)
    aggregated = np.matmul(attention, global_value.T)  # (N, HW, C)
    data = np.swapaxes(aggregated, 1, 2).reshape(n, c, h, w)
    data += x.data

    def vjp(g, needed):
        if not g.any():
            # A frame whose scores no ranked pair reaches, e.g. one of one
            # object: every share is zero, so skip the (N, HW, HW) products.
            return [np.zeros(t.shape) if need else None
                    for t, need in zip((x, value, weight, bias), needed)]
        need_x, need_value, need_weight, _ = needed
        g3 = g.reshape(n, c, hw)
        d_value = None
        if need_value:
            d_global = np.matmul(g3, attention).sum(axis=0)  # (C, HW)
            d_value = np.broadcast_to((d_global / n).reshape(1, c, h, w), value.shape)
        d_attention = np.matmul(np.swapaxes(g3, 1, 2), global_value)  # (N, HW, HW)
        d_logits = softmax_rows_vjp(d_attention, attention, scale, out=d_attention)
        d_kq = np.matmul(kq, d_logits)
        d_kq += np.matmul(kq, np.swapaxes(d_logits, 1, 2))
        d_x = (g3 + np.matmul(weight.data.T, d_kq)).reshape(x.shape) if need_x else None
        d_weight = np.matmul(d_kq, np.swapaxes(x3, 1, 2)).sum(axis=0) if need_weight else None
        return d_x, d_value, d_weight, d_kq.sum(axis=(0, 2))

    return op(data, (x, value, weight, bias), vjp)
