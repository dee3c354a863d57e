"""Training objective for saliency scores.

The ranking term is a pairwise hinge: every object ranked above another must
outscore it by at least a margin.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, op

__all__ = ["RankTarget", "rank_loss", "DEFAULT_MARGIN"]

DEFAULT_MARGIN = 0.5


@dataclass(frozen=True)
class RankTarget:
    """Ground-truth ranks aligned with a frame's object order (1 = most salient)."""

    gt_ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = sorted(self.gt_ranks)
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError(f"ranks {self.gt_ranks} are not a permutation of 1..{len(ranks)}")


def rank_loss(scores: Tensor, target: RankTarget, margin: float = DEFAULT_MARGIN) -> Tensor:
    """Mean hinge over all ordered pairs (more salient, less salient).

    Zero exactly when every more-salient object outscores every less-salient
    one by at least ``margin``.
    """
    n = scores.size
    if n < 2:
        raise ValueError(f"need at least two objects to rank, got {n}")
    if len(target.gt_ranks) != n:
        raise ValueError(f"{len(target.gt_ranks)} ranks for {n} scores")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")

    gt = np.asarray(target.gt_ranks)
    above, below = np.nonzero(gt[:, None] < gt[None, :])  # the pairs in row-major order
    flat = scores.data.reshape(n)
    hinge = margin - (flat[above] - flat[below])
    pair_count = len(above)

    def vjp(g, needed):
        # Each active pair pulls its more salient score up and the other down.
        weight = (hinge > 0.0) * (g / pair_count)
        grad = np.bincount(below, weight, minlength=n) - np.bincount(above, weight, minlength=n)
        return (grad.reshape(scores.shape),)

    return op(np.maximum(hinge, 0.0).mean(), (scores,), vjp)
