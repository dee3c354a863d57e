"""Finite-difference verification of every differentiable operation and of
both attention stages end to end.

Each check runs over several random seeds at small shapes and records the
worst relative error between analytic and central-difference gradients.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat,
    conv1x1,
    grad_check,
    linear,
    matmul,
    mean_axis,
    relu,
    scaled_softmax,
    stack,
    take,
    transpose_last2,
)
from .losses import RankTarget, rank_loss
from .spatial import Projection, SpatialParams, projection_init, spatial_forward
from .temporal import ScoringParams, TemporalParams, sequence_scores

__all__ = ["CheckResult", "run_suite", "DEFAULT_TOLERANCE"]

DEFAULT_TOLERANCE = 1e-5
RUNS_PER_CHECK = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float
    passed: bool


def _skewed(f):
    """``f`` with the same values but every gradient scaled by 1.001."""
    def g(x):
        y = f(x)
        return y * 1.001 + Tensor(y.data - (y * 1.001).data)

    return g


def _check_many(name, make_case, seed, tolerance, corrupt) -> CheckResult:
    """Worst ``grad_check`` error over ``RUNS_PER_CHECK`` random cases.

    ``make_case(rng)`` returns a list of (function, input tensor) pairs; the
    gradient of each function w.r.t. its input is verified, skewed first when
    ``corrupt`` is set.
    """
    worst = 0.0
    for run in range(RUNS_PER_CHECK):
        rng = np.random.default_rng((seed, run))
        for f, x in make_case(rng):
            worst = max(worst, grad_check(_skewed(f) if corrupt else f, x))
    return CheckResult(name=name, max_rel_err=worst, tolerance=tolerance,
                       passed=worst < tolerance)


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _each_operand(op, *shapes):
    """Cases checking ``op(...).sum()`` against each operand in turn; one
    ``_rand`` operand is drawn per shape, in order."""
    def make_case(rng):
        operands = [_rand(rng, *shape) for shape in shapes]
        return [(lambda t, i=i: op(*operands[:i], t, *operands[i + 1:]).sum(), x)
                for i, x in enumerate(operands)]

    return make_case


def _scaled_softmax(rng):
    x = _rand(rng, 3, 4)
    u = Tensor(rng.standard_normal((3, 4)))
    return [(lambda t: (scaled_softmax(t, 7) * u).sum(), x)]


def _mean_axis(rng):
    x = _rand(rng, 3, 4, 2)
    axis = int(rng.integers(0, 3))
    u = Tensor(rng.standard_normal(np.delete((3, 4, 2), axis)))
    return [(lambda t: (mean_axis(t, axis) * u).sum(), x)]


def _elementwise(rng):
    x = _rand(rng, 2, 3, 4)
    u = Tensor(rng.standard_normal((2, 4, 3)))

    def f(t):
        y = transpose_last2(relu(t * 0.7 + 0.1) - t * t)
        y = concat(y, y * u)
        y = stack([take(y, 0), take(y, 1)])
        return y.reshape(2 * 2 * 4 * 3).mean()

    return [(f, x)]


def _spatial_module(rng):
    n, c, h, w = 2, 3, 2, 2
    params = SpatialParams(
        kq_proj=projection_init(c, c, rng),
        v_proj=projection_init(c, c, rng),
    )
    x = _rand(rng, n, c, h, w)

    def relation_sum(t):
        return spatial_forward(t, params).relation.sum()

    def full_output_sum(t):
        out = spatial_forward(Tensor(x.data), SpatialParams(
            kq_proj=Projection(t, params.kq_proj.bias), v_proj=params.v_proj))
        return out.relation.sum()

    def value_path_sum(t):
        out = spatial_forward(Tensor(x.data), SpatialParams(
            kq_proj=params.kq_proj, v_proj=Projection(t, params.v_proj.bias)))
        return (out.relation + out.value).sum()

    return [
        (relation_sum, x),
        (full_output_sum, params.kq_proj.weight),
        (value_path_sum, params.v_proj.weight),
    ]


def _temporal_module(rng):
    t_frames, n, c, h, w = 2, 2, 2, 2, 2
    temporal = TemporalParams(
        k_proj=projection_init(c, c, rng),
        q_proj=projection_init(c, c, rng),
        v_proj=projection_init(c, c, rng),
    )
    scoring = ScoringParams(
        mask_embed=projection_init(c, h * w, rng),
        score_head=projection_init(1, 2 * c, rng),
    )
    relations = [_rand(rng, n, c, h, w) for _ in range(t_frames)]
    values = [_rand(rng, n, c, h, w) for _ in range(t_frames)]
    masks = rng.random((t_frames, n, 6, 6)) > 0.4
    masks[:, :, 2, 2] = True  # keep every instance non-empty

    def mean_score_wrt(target):
        def f(_):
            scores = sequence_scores(relations, values, list(masks), temporal, scoring)
            total = sum((s.sum() for s in scores[1:]), scores[0].sum())
            return total * (1.0 / sum(s.size for s in scores))

        return f, target

    return [
        mean_score_wrt(values[0]),
        mean_score_wrt(relations[1]),
        mean_score_wrt(temporal.k_proj.weight),
        mean_score_wrt(temporal.v_proj.weight),
        mean_score_wrt(scoring.mask_embed.weight),
        mean_score_wrt(scoring.score_head.weight),
    ]


def _rank_loss(rng):
    n = 4
    ranks = tuple(int(r) for r in rng.permutation(n) + 1)
    target = RankTarget(ranks)
    pairs = [(i, j) for i in range(n) for j in range(n) if ranks[i] < ranks[j]]
    # Sample scores clear of hinge kinks and with a nonzero subgradient for
    # every element; a zero true partial would turn finite-difference noise
    # into a full relative error.
    while True:
        scores = rng.standard_normal(n)
        slack = [0.5 - (scores[i] - scores[j]) for i, j in pairs]
        if any(abs(s) < 1e-3 for s in slack):
            continue
        net = np.zeros(n)
        for (i, j), s in zip(pairs, slack):
            if s > 0:
                net[i] -= 1.0
                net[j] += 1.0
        if np.all(net != 0):
            break
    return [(lambda t: rank_loss(t, target, 0.5), Tensor(scores, requires_grad=True))]


_CHECKS = [
    ("matmul_2d", _each_operand(matmul, (3, 2), (2, 4)), DEFAULT_TOLERANCE),
    ("matmul_batched", _each_operand(matmul, (2, 3, 2), (2, 2, 3)), DEFAULT_TOLERANCE),
    ("matmul_shared_rhs", _each_operand(matmul, (2, 3, 2), (2, 4)), DEFAULT_TOLERANCE),
    ("conv1x1", _each_operand(conv1x1, (2, 3, 2, 2), (4, 3), (4,)), DEFAULT_TOLERANCE),
    ("linear", _each_operand(linear, (2, 5), (3, 5), (3,)), DEFAULT_TOLERANCE),
    ("scaled_softmax", _scaled_softmax, DEFAULT_TOLERANCE),
    ("mean_axis", _mean_axis, DEFAULT_TOLERANCE),
    ("elementwise_composite", _elementwise, DEFAULT_TOLERANCE),
    ("spatial_module", _spatial_module, DEFAULT_TOLERANCE),
    ("temporal_module", _temporal_module, DEFAULT_TOLERANCE),
    ("rank_loss", _rank_loss, 1e-6),
]


def run_suite(seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    """All gradient checks; ``corrupt`` skews every checked gradient as a negative control."""
    return [_check_many(name, make_case, seed, tolerance, corrupt)
            for name, make_case, tolerance in _CHECKS]
