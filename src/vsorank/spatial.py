"""The spatial stage's parameters and the object means every variant reads.

In the spatial relation attention, each object block of shape (C, H, W)
attends over its own spatial positions, and the attended values come from
one value map per frame: the value projection (``v_proj``) of the frame's
object-mean features, as one ``conv1x1`` of ``object_means``.  The
attention itself, with the key/query projection ``kq_proj``, runs inside
``temporal.frame_scores``, since the score reads each relation block only
through its product with the frame's context.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, op

__all__ = [
    "EmptyFrameError",
    "Projection",
    "projection_init",
    "SpatialParams",
    "spatial_params_init",
    "object_means",
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
    if out_features < 1 or in_features < 1:
        raise ValueError(f"projection sizes must be positive, got {out_features} out "
                         f"and {in_features} in features")
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


def spatial_params_init(channels: int, rng_seed: int) -> SpatialParams:
    """Deterministic parameter initialization for a given channel width."""
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
