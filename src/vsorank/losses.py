"""Training objective for saliency scores.

The ranking term is a pairwise hinge: every object ranked above another in
the same frame must outscore it by at least a margin.  A sequence's loss is
the sum over its frames of each frame's mean hinge.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, op

__all__ = ["RankTarget", "RankPairs", "rank_loss", "DEFAULT_MARGIN"]

DEFAULT_MARGIN = 0.5


@dataclass(frozen=True)
class RankTarget:
    """Ground-truth ranks aligned with a frame's object order (1 = most salient)."""

    gt_ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = sorted(self.gt_ranks)
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError(f"ranks {self.gt_ranks} are not a permutation of 1..{len(ranks)}")


class RankPairs:
    """Every frame's (more salient, less salient) object pairs, as indices
    into the frames' scores stacked in frame order.

    ``targets[t]`` ranks frame t's objects.  Each frame with at least two
    objects gives one segment of pairs, in row-major order of its rank
    table; ``ends`` holds the end of each segment in ``above`` and ``below``,
    so a sequence with no pairs has no ends.  The arrays are read-only.
    """

    __slots__ = ("above", "below", "pair_counts", "ends", "size")

    def __init__(self, targets: list[RankTarget]):
        above, below = [], []
        offset = 0
        for target in targets:
            gt = np.asarray(target.gt_ranks)
            frame_above, frame_below = np.nonzero(gt[:, None] < gt[None, :])
            if frame_above.size:
                above.append(frame_above + offset)
                below.append(frame_below + offset)
            offset += gt.size
        counts = [len(segment) for segment in above]
        self.size = offset  # objects, over every frame
        self.ends = tuple(np.cumsum(counts).tolist())
        self.above = np.concatenate(above) if above else np.zeros(0, dtype=np.intp)
        self.below = np.concatenate(below) if below else np.zeros(0, dtype=np.intp)
        # Each pair's segment length: the divisor of its frame's mean.
        self.pair_counts = np.repeat(np.asarray(counts, dtype=np.float64), counts)
        for array in (self.above, self.below, self.pair_counts):
            array.flags.writeable = False


def rank_loss(scores: Tensor, pairs: RankPairs, margin: float = DEFAULT_MARGIN) -> Tensor:
    """Sum over frames of the mean hinge over the frame's pairs, as one op.

    ``scores`` holds every frame's object scores stacked in frame order.
    Zero exactly when, in every frame, every more-salient object outscores
    every less-salient one by at least ``margin``.  The frame means are
    taken one segment at a time and added in frame order, so each frame's
    term rounds as it would alone.
    """
    if scores.shape != (pairs.size,):
        raise ValueError(f"{pairs.size} ranks for scores of shape {scores.shape}")
    if not pairs.ends:
        raise ValueError("need a frame with at least two objects to rank")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")

    above, below, n = pairs.above, pairs.below, pairs.size
    hinge = margin - (scores.data[above] - scores.data[below])
    active = np.maximum(hinge, 0.0)
    starts = (0,) + pairs.ends[:-1]
    # Each mean as ``ndarray.mean`` takes it, without its Python-level wrapper.
    total = sum(np.add.reduce(active[start:end]) / (end - start)
                for start, end in zip(starts, pairs.ends))

    def vjp(g, needed):
        # Each active pair pulls its more salient score up and the other down.
        weight = (hinge > 0.0) * (g / pairs.pair_counts)
        return (np.bincount(below, weight, minlength=n) - np.bincount(above, weight, minlength=n),)

    return op(total, (scores,), vjp)
