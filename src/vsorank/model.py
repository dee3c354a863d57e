"""Variant wiring from raw object features to scored, ranked frames.

Four configurations mirror the ablation grid:

* ``basic``    -- raw features are the relation blocks, and each frame is
                  scored against its object-mean features as its value map.
* ``spatial``  -- the per-frame relation attention is enabled, over value
                  maps projected from the object means; still no
                  cross-frame mixing.
* ``temporal`` -- raw features feed the cross-frame attention directly.
* ``full``     -- both attention stages enabled.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, conv1x1
from .dataset import FrameSample, write_tensor_file
from .spatial import Projection, SpatialParams, object_means, spatial_params_init
from .temporal import (
    ScoringParams,
    TemporalParams,
    rank_assign,
    scoring_params_init,
    sequence_scores,
    temporal_params_init,
)

__all__ = [
    "VARIANTS",
    "ModelParams",
    "init_model_params",
    "named_params",
    "model_scores",
    "model_forward",
    "save_model_params",
]

VARIANTS = ("basic", "spatial", "temporal", "full")


@dataclass(frozen=True)
class ModelParams:
    spatial: SpatialParams
    temporal: TemporalParams
    scoring: ScoringParams


def init_model_params(channels: int, height: int, width: int, seed: int) -> ModelParams:
    """All learnable projections, deterministically derived from one seed."""
    return ModelParams(
        spatial=spatial_params_init(channels, seed),
        temporal=temporal_params_init(channels, seed + 1),
        scoring=scoring_params_init(channels, height, width, seed + 2),
    )


def named_params(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Every learnable tensor by dotted name; a weight-only projection has no bias."""
    out = []
    for stage_name, stage in (("spatial", params.spatial), ("temporal", params.temporal),
                              ("scoring", params.scoring)):
        for proj_name, proj in vars(stage).items():
            out.append((f"{stage_name}.{proj_name}.weight", proj.weight))
            if proj.bias is not None:
                out.append((f"{stage_name}.{proj_name}.bias", proj.bias))
    return out


def model_scores(frames: list[FrameSample], params: ModelParams, variant: str) -> Tensor:
    """Differentiable scores of every frame's objects under the chosen variant,
    stacked in frame order, (ΣN,)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    features = [Tensor(frame.features) for frame in frames]
    values, kq_proj = object_means(features), None
    if variant in ("spatial", "full"):
        # A 1x1 projection is affine, so projecting the object means gives the
        # mean of the objects' value projections.
        v_proj, kq_proj = params.spatial.v_proj, params.spatial.kq_proj
        values = conv1x1(values, v_proj.weight, v_proj.bias)
    temporal = params.temporal if variant in ("temporal", "full") else None
    return sequence_scores(features, values, [frame.mask_inputs for frame in frames],
                           kq_proj, temporal, params.scoring)


def model_forward(frames: list[FrameSample], params: ModelParams,
                  variant: str) -> list[np.ndarray]:
    """Score and rank every frame of a sequence: one rank array per frame.

    Scores on a detached view of ``params``, the same weight and bias arrays
    in tensors that need no gradient, so no op records a node and no graph
    is built: each intermediate is freed as soon as the pass moves past it.
    """
    detached = ModelParams(*(
        type(stage)(*(Projection(*(None if t is None else Tensor(t.data)
                                   for t in (proj.weight, proj.bias)))
                      for proj in vars(stage).values()))
        for stage in (params.spatial, params.temporal, params.scoring)))
    scores = model_scores(frames, detached, variant).data
    ends = np.cumsum([len(frame.features) for frame in frames[:-1]], dtype=np.intp)
    return [rank_assign(frame_scores) for frame_scores in np.split(scores, ends)]


def save_model_params(path, params: ModelParams, config) -> None:
    """One raw tensor file per projection, plus a manifest of names."""
    os.makedirs(path, exist_ok=True)
    names = []
    for name, tensor in named_params(params):
        write_tensor_file(os.path.join(path, f"{name}.bin"), tensor.data)
        names.append(name)
    manifest = {"params": names, "config": {
        "variant": config.variant, "C": config.C, "H": config.H, "W": config.W,
    }}
    with open(os.path.join(path, "params.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f)
        f.write("\n")
