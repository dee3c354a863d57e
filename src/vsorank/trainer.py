"""Desk-scale training loop: synthetic sequences -> scores -> ranking loss.

One optimizer step consumes one whole sequence (the scoring stage needs all
T frames).  Parameters are updated by stochastic gradient descent with
momentum and a decoupled weight decay, so a nonzero decay shrinks parameters
even at learning rate zero.  A step whose loss is 0.0 (every pair ranked by
the margin) has a zero gradient, so it runs no backward pass: momentum and
decay alone move the parameters.  Everything is deterministic given the
config seed.
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .dataset import SequenceSample, SynthConfig, synth_generate
from .losses import DEFAULT_MARGIN, rank_loss
from .model import VARIANTS, ModelParams, init_model_params, model_forward, model_scores, named_params

__all__ = [
    "ModelConfig",
    "TrainReport",
    "EvalResult",
    "TrainingDiverged",
    "build_dataset",
    "train",
    "evaluate",
    "summarize",
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
        for name in ("margin", "learning_rate", "momentum", "weight_decay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.C, self.H, self.W) < 1:
            raise ValueError("C, H, W must all be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    mae: float | None  # None only when no frame was scored
    undefined_count: int
    frame_count: int


@dataclass(frozen=True)
class TrainReport:
    # One entry per step taken; the 0.0 entries are the steps that ran no
    # backward pass.
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
    """SGD with momentum and learning-rate-decoupled weight decay.

    The parameters live in one flat float64 buffer: each tensor's ``data``
    becomes a view of its slice, so a step is a few whole-buffer operations,
    with the same elementwise arithmetic as a step per tensor.
    """

    def __init__(self, params, learning_rate: float, momentum: float, weight_decay: float):
        self.tensors = [p for _, p in params]
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.flat = np.concatenate([p.data.ravel() for p in self.tensors])
        offset = 0
        for p in self.tensors:
            p.data = self.flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size
        self.velocity = np.zeros_like(self.flat)

    def step(self, with_gradients: bool) -> None:
        """One update.  Without gradients (a zero loss) only momentum and decay
        act, and any ``grad`` left from an earlier step is ignored."""
        v = self.velocity
        v *= self.momentum
        if with_gradients:
            v += np.concatenate([p.grad.ravel() if p.grad is not None else np.zeros(p.size)
                                 for p in self.tensors])
        self.flat -= self.learning_rate * v + self.weight_decay * self.flat


def _sequence_loss(sample: SequenceSample, params: ModelParams, config: ModelConfig):
    """Rank loss summed over the frames of one sequence (None if no frame has pairs)."""
    pairs = sample.rank_pairs
    if not pairs.ends:
        return None
    return rank_loss(model_scores(sample.frames, params, config.variant), pairs, config.margin)


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
    # Overflow on the way to a non-finite loss is reported as TrainingDiverged.
    with np.errstate(over="ignore", invalid="ignore"):
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
            # A sum of hinge means is 0.0 only when no pair is active, and then
            # every gradient is zero: the step applies momentum and decay alone.
            with_gradients = value > 0.0
            if with_gradients:
                loss.backward()
            optimizer.step(with_gradients)
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


def summarize(scores) -> EvalResult:
    """Average per-frame ``(sa_sor, mae)`` pairs over the frames.

    Frames where the rank correlation is undefined (``None``) are excluded
    from its mean and counted separately; with no frames both means are
    ``None``.
    """
    scores = list(scores)
    correlations = [correlation for correlation, _ in scores if correlation is not None]
    return EvalResult(
        sa_sor=float(np.mean(correlations)) if correlations else None,
        mae=float(np.mean([error for _, error in scores])) if scores else None,
        undefined_count=len(scores) - len(correlations),
        frame_count=len(scores),
    )


def evaluate(params: ModelParams, config: ModelConfig,
             eval_set: list[SequenceSample]) -> EvalResult:
    """Run the configured pipeline and ``summarize`` the metrics of all frames.

    Each frame is scored by ``FrameMatch.score`` on its sample's
    ``frame_matches``, so only the ranks are scored anew on every call.
    """
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    scores = []
    for sample in eval_set:
        ranked = model_forward(sample.frames, params, config.variant)
        for match, annotation, ranks in zip(sample.frame_matches, sample.annotations, ranked):
            scores.append(match.score(annotation.ranks_in_id_order(), ranks))
    return summarize(scores)
