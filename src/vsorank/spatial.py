"""Per-frame spatial relation attention over detected-object features.

Each object block of shape (C, H, W) attends over its own spatial positions,
but the attended values come from a single frame-global map: the object-mean
of a learned value projection.  Adding the aggregate back onto the input
yields "relation" features that mix local structure with frame-global
context; the value projection itself is the second output and feeds the
cross-frame stage.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    conv1x1,
    matmul,
    mean_axis,
    scaled_softmax,
    transpose_last2,
)

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
    """Weight/bias pair for a 1x1 convolution or a fully connected layer."""

    weight: Tensor  # (out, in)
    bias: Tensor  # (out,)


def projection_init(out_features: int, in_features: int, rng: np.random.Generator,
                    zero: bool = False) -> Projection:
    """Uniform(-1/sqrt(in), 1/sqrt(in)) weights, zero bias; all-zero if asked."""
    if zero:
        weight = np.zeros((out_features, in_features))
    else:
        bound = 1.0 / np.sqrt(in_features)
        weight = rng.uniform(-bound, bound, size=(out_features, in_features))
    return Projection(
        weight=Tensor(weight, requires_grad=True),
        bias=Tensor(np.zeros(out_features), requires_grad=True),
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
    the input.
    """
    if x.ndim != 4:
        raise ShapeError(f"object features must be (N, C, H, W), got {x.shape}")
    n, c, h, w = x.shape
    if n == 0:
        raise EmptyFrameError("cannot attend over a frame with zero objects")
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
