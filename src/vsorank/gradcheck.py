"""Finite-difference verification of every node a training step records:
``conv1x1``, the spatial stage (the value maps that ``conv1x1`` projects
from the object means, read by ``frame_scores`` with the relation
attention), the temporal stage with ``frame_scores`` without it, and the
rank loss.

Each check runs over several random seeds at small shapes and records the
worst relative error between analytic and central-difference gradients.
The small ops of the composed test oracle are checked by the tests.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, conv1x1, grad_check
from .losses import RankPairs, RankTarget, rank_loss
from .spatial import object_means, projection_init
from .temporal import (
    ScoringParams,
    TemporalParams,
    downsample_mask,
    frame_scores,
    sequence_scores,
)

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
    ``corrupt`` is set.  ``grad_check`` perturbs the input's data in place,
    so a function may ignore its argument and read the tensor it is checked
    against where it already is.
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
        return [(lambda _: op(*operands).sum(), x) for x in operands]

    return make_case


def _frames(rng, c, h, w):
    """Two frames of 2 and 1 objects: their blocks, their masks on the
    (h, w) grid and random scoring parameters."""
    scoring = ScoringParams(projection_init(c, h * w, rng, bias=False),
                            projection_init(1, 2 * c, rng, bias=False))
    blocks, mask_inputs = [], []
    for n in (2, 1):
        blocks.append(_rand(rng, n, c, h, w))
        masks = rng.random((n, 6, 6)) > 0.4
        masks[:, 2, 2] = True  # keep every instance non-empty
        mask_inputs.append(downsample_mask(masks, h, w))
    return blocks, mask_inputs, scoring


def _spatial_module(rng):
    """Every operand of the value projection of the object means and of
    ``frame_scores`` with the relation attention, under random score
    weights: each block, both spatial projections, the mask embedding and
    the score head through the projected value maps, then the value maps
    and the contexts as operands of their own."""
    c, h, w = 3, 2, 2
    kq_proj, v_proj = projection_init(c, c, rng), projection_init(c, c, rng)
    blocks, mask_inputs, scoring = _frames(rng, c, h, w)
    values, contexts = (_rand(rng, len(blocks), c, h, w) for _ in range(2))
    weights = Tensor(rng.standard_normal(sum(len(x.data) for x in blocks)))

    def weighted(maps, frame_contexts):
        scores = frame_scores(blocks, maps, frame_contexts, mask_inputs, kq_proj, scoring)
        return (scores * weights).sum()

    def projected(_):
        maps = conv1x1(object_means(blocks), v_proj.weight, v_proj.bias)
        return weighted(maps, maps)

    checked = [*blocks, v_proj.weight, v_proj.bias, kq_proj.weight, kq_proj.bias,
               scoring.mask_embed.weight, scoring.score_head.weight]
    return ([(projected, x) for x in checked]
            + [(lambda _: weighted(values, contexts), x) for x in (values, contexts)])


def _temporal_module(rng):
    """Every operand of ``temporal_mix`` and ``frame_scores`` without the
    relation attention; the value maps are one (T, C, H, W) operand."""
    c, h, w = 2, 2, 2
    temporal = TemporalParams(*(projection_init(c, c, rng, bias=biased)
                                for biased in (True, False, True)))
    blocks, mask_inputs, scoring = _frames(rng, c, h, w)
    values = _rand(rng, len(blocks), c, h, w)

    def mean_score(mix):
        def f(_):
            scores = sequence_scores(blocks, values, mask_inputs, None, mix, scoring)
            return scores.sum() * (1.0 / scores.size)

        return f

    checked = [*blocks, values, temporal.k_proj.weight, temporal.k_proj.bias,
               temporal.q_proj.weight, temporal.v_proj.weight, temporal.v_proj.bias,
               scoring.mask_embed.weight, scoring.score_head.weight]
    return ([(mean_score(temporal), x) for x in checked]
            + [(mean_score(None), x) for x in (blocks[0], values)])


def _rank_loss(rng):
    """One sequence whose frames hold 4, 1 and 3 objects; the lone object is
    in no pair, so its partial is exactly 0."""
    pairs = RankPairs([RankTarget(tuple(int(r) for r in rng.permutation(n) + 1))
                       for n in (4, 1, 3)])
    ranked = np.zeros(pairs.size, dtype=bool)
    ranked[pairs.above] = ranked[pairs.below] = True
    # Sample scores clear of hinge kinks and with a nonzero subgradient for
    # every ranked element.
    while True:
        scores = rng.standard_normal(pairs.size)
        slack = 0.5 - (scores[pairs.above] - scores[pairs.below])
        if np.any(np.abs(slack) < 1e-3):
            continue
        active = (slack > 0).astype(np.float64)
        net = (np.bincount(pairs.below, active, minlength=pairs.size)
               - np.bincount(pairs.above, active, minlength=pairs.size))
        if np.all(net[ranked] != 0):
            break
    return [(lambda t: rank_loss(t, pairs, 0.5), Tensor(scores, requires_grad=True))]


_CHECKS = [
    ("conv1x1", _each_operand(conv1x1, (2, 3, 2, 2), (4, 3), (4,)), DEFAULT_TOLERANCE),
    ("spatial_module", _spatial_module, DEFAULT_TOLERANCE),
    ("temporal_module", _temporal_module, DEFAULT_TOLERANCE),
    ("rank_loss", _rank_loss, 1e-6),
]


def run_suite(seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    """All gradient checks; ``corrupt`` skews every checked gradient as a negative control."""
    return [_check_many(name, make_case, seed, tolerance, corrupt)
            for name, make_case, tolerance in _CHECKS]
