"""Desk-scale training loop: synthetic sequences -> scores -> ranking loss.

One optimizer step consumes one whole sequence (the scoring stage needs all
T frames).  Parameters are updated by stochastic gradient descent with
momentum and a decoupled weight decay, so a nonzero decay shrinks parameters
even at learning rate zero.  Everything is deterministic given the config
seed.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .dataset import SequenceSample, SynthConfig, synth_generate
from .losses import DEFAULT_MARGIN, RankTarget, rank_loss
from .metrics import score_frame
from .model import VARIANTS, ModelParams, init_model_params, model_forward, model_scores, named_params

__all__ = [
    "ModelConfig",
    "TrainReport",
    "EvalResult",
    "TrainingDiverged",
    "build_dataset",
    "train",
    "evaluate",
]


class TrainingDiverged(RuntimeError):
    """The loss became non-finite during optimization."""


@dataclass
class ModelConfig:
    variant: str = "full"
    C: int = 16
    H: int = 7
    W: int = 7
    margin: float = DEFAULT_MARGIN
    learning_rate: float = 0.02
    iterations: int = 2000
    seed: int = 0
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        for name in ("C", "H", "W", "iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.C, self.H, self.W) < 1:
            raise ValueError("C, H, W must all be positive")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.learning_rate < 0 or self.iterations < 0:
            raise ValueError("learning_rate and iterations must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class EvalResult:
    sa_sor: float | None  # mean over frames where the metric is defined
    mae: float
    undefined_count: int
    frame_count: int


@dataclass(frozen=True)
class TrainReport:
    loss_curve: list[float]
    eval_sa_sor: float | None
    eval_mae: float
    eval_undefined_count: int
    wall_clock_s: float


def build_dataset(synth: SynthConfig, count: int, seed: int) -> list[SequenceSample]:
    """Generate ``count`` sequences with seeds derived deterministically."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=count)
    return [synth_generate(synth, int(s)) for s in seeds]


class _SgdMomentum:
    """SGD with momentum and learning-rate-decoupled weight decay."""

    def __init__(self, params, learning_rate: float, momentum: float, weight_decay: float):
        self.params = params  # list of (name, Tensor)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in params}

    def step(self) -> None:
        for name, p in self.params:
            grad = p.grad if p.grad is not None else 0.0
            v = self.velocity[name]
            v *= self.momentum
            v += grad
            p.data -= self.learning_rate * v + self.weight_decay * p.data


def _sequence_loss(sample: SequenceSample, params: ModelParams, config: ModelConfig):
    """Rank loss summed over the frames of one sequence (None if no frame has pairs)."""
    scores = model_scores(sample.frames, params, config.variant)
    total = None
    for frame_scores_t, annotation in zip(scores, sample.annotations):
        if annotation.instance_count < 2:
            continue
        target = RankTarget(tuple(annotation.ranks_in_id_order()))
        term = rank_loss(frame_scores_t, target, config.margin)
        total = term if total is None else total + term
    return total


def train(config: ModelConfig, train_set: list[SequenceSample],
          eval_set: list[SequenceSample]) -> tuple[ModelParams, TrainReport]:
    """Optimize all projections on the rank loss; returns params and a report."""
    if not train_set or not eval_set:
        raise ValueError("train_set and eval_set must be non-empty")

    started = time.perf_counter()
    params = init_model_params(config.C, config.H, config.W, config.seed)
    optimizer = _SgdMomentum(named_params(params), config.learning_rate,
                             config.momentum, config.weight_decay)
    picker = np.random.default_rng(config.seed)

    curve: list[float] = []
    for iteration in range(config.iterations):
        sample = train_set[int(picker.integers(len(train_set)))]
        loss = _sequence_loss(sample, params, config)
        if loss is None:
            continue
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss {value} at iteration {iteration} "
                f"(variant={config.variant}, lr={config.learning_rate})"
            )
        loss.backward()
        optimizer.step()
        curve.append(value)

    result = evaluate(params, config, eval_set)
    report = TrainReport(
        loss_curve=curve,
        eval_sa_sor=result.sa_sor,
        eval_mae=result.mae,
        eval_undefined_count=result.undefined_count,
        wall_clock_s=time.perf_counter() - started,
    )
    return params, report


def evaluate(params: ModelParams, config: ModelConfig,
             eval_set: list[SequenceSample]) -> EvalResult:
    """Run the configured pipeline and average the metrics over all frames.

    Frames where the rank correlation is undefined are excluded from its mean
    and counted separately.
    """
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    correlations: list[float] = []
    errors: list[float] = []
    undefined = 0
    for sample in eval_set:
        ranked = model_forward(sample.frames, params, config.variant)
        for frame, annotation, prediction in zip(sample.frames, sample.annotations, ranked):
            correlation, error = score_frame(annotation.masks(), annotation.ranks_in_id_order(),
                                             frame.masks, prediction.ranks)
            if correlation is None:
                undefined += 1
            else:
                correlations.append(correlation)
            errors.append(error)
    return EvalResult(
        sa_sor=float(np.mean(correlations)) if correlations else None,
        mae=float(np.mean(errors)),
        undefined_count=undefined,
        frame_count=len(errors),
    )
