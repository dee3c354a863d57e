"""Variant wiring from raw object features to scored, ranked frames.

Four configurations mirror the ablation grid:

* ``basic``    -- raw features serve as both relation and value inputs; each
                  frame is scored against its own object-mean value map.
* ``spatial``  -- the per-frame relation attention is enabled; still no
                  cross-frame mixing.
* ``temporal`` -- raw features feed the cross-frame attention directly.
* ``full``     -- both attention stages enabled.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .dataset import FrameSample, read_tensor_file, read_text, write_tensor_file
from .spatial import SpatialParams, spatial_forward, spatial_params_init
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
    "load_model_params",
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
    out = []
    for stage_name, stage in (("spatial", params.spatial), ("temporal", params.temporal),
                              ("scoring", params.scoring)):
        for proj_name in stage.__dataclass_fields__:
            proj = getattr(stage, proj_name)
            out.append((f"{stage_name}.{proj_name}.weight", proj.weight))
            out.append((f"{stage_name}.{proj_name}.bias", proj.bias))
    return out


def model_scores(frames: list[FrameSample], params: ModelParams,
                 variant: str) -> list[Tensor]:
    """Differentiable per-frame score vectors under the chosen variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    relations, values = [], []
    for frame in frames:
        features = Tensor(frame.features)
        if variant in ("spatial", "full"):
            attended = spatial_forward(features, params.spatial)
            relations.append(attended.relation)
            values.append(attended.value)
        else:
            relations.append(features)
            values.append(features)
    temporal = params.temporal if variant in ("temporal", "full") else None
    return sequence_scores(relations, values, [frame.masks for frame in frames],
                           temporal, params.scoring)


def model_forward(frames: list[FrameSample], params: ModelParams,
                  variant: str) -> list[np.ndarray]:
    """Score and rank every frame of a sequence: one rank array per frame."""
    return [rank_assign(scores.data) for scores in model_scores(frames, params, variant)]


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


def load_model_params(path) -> ModelParams:
    manifest_path = os.path.join(path, "params.json")
    manifest = read_text(manifest_path, json.loads)
    names = manifest.get("params") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f'{manifest_path}: expected an object with a "params" list of names')
    arrays = {name: read_tensor_file(os.path.join(path, f"{name}.bin")) for name in names}

    def array(name):
        if name not in arrays:
            raise ValueError(f"{path}: params.json lists no tensor {name!r}")
        return arrays[name]

    channels = array("spatial.kq_proj.weight").shape[0]
    height_width = array("scoring.mask_embed.weight").shape[1]
    # Rebuild with the right structure, then overwrite every tensor.
    params = init_model_params(channels, 1, height_width, seed=0)
    for name, tensor in named_params(params):
        data = array(name)
        if data.shape != tensor.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {data.shape}, "
                             f"expected {tensor.shape}")
        tensor.data[...] = data
    return params
