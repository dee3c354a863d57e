"""Evaluation metrics for ranked instance predictions.

Two metrics are provided, and ``score_frame`` computes both for one frame:

* ``mae`` -- mean absolute pixel error between two normalized rank maps,
  ``(1 / (W * H)) * sum |P(i, j) - G(i, j)|``, as painted by
  ``render_rank_map``.
* ``sa_sor`` -- segmentation-aware rank correlation.  Predicted instances are
  matched one-to-one to ground-truth instances by IoU (greedy, descending,
  threshold 0.5 by default).  Each ground-truth object contributes its
  saliency level ``N_gt - rank + 1`` to x and its matched prediction's level
  (or 0 if unmatched) to y; the metric is the Pearson correlation of x and y,
  or undefined (``None``) when y is constant.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError

__all__ = [
    "ConstantVectorError",
    "InstanceMask",
    "Matching",
    "iou",
    "match_instances",
    "pearson",
    "render_rank_map",
    "mae",
    "sa_sor",
    "score_frame",
]


class ConstantVectorError(ValueError):
    """Pearson correlation is undefined for a constant input vector."""


@dataclass(frozen=True)
class InstanceMask:
    """Binary pixel mask of one object instance."""

    pixels: np.ndarray  # 2D bool
    identifier: int

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=bool))
        if self.pixels.ndim != 2:
            raise ValueError(f"mask must be 2D, got shape {self.pixels.shape}")
        if not self.pixels.any():
            raise ValueError(f"instance {self.identifier} has no foreground pixels")


@dataclass(frozen=True)
class Matching:
    """One-to-one assignment between ground-truth and predicted instances."""

    pairs: list[tuple[int, int]]  # (gt_index, pred_index)
    unmatched_gt: list[int]
    unmatched_pred: list[int]


def iou(a: InstanceMask, b: InstanceMask) -> float:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"mask shapes differ: {a.pixels.shape} vs {b.pixels.shape}")
    intersection = np.logical_and(a.pixels, b.pixels).sum()
    if intersection == 0:
        return 0.0
    union = np.logical_or(a.pixels, b.pixels).sum()
    return float(intersection / union)


def match_instances(gt: list[InstanceMask], pred: list[InstanceMask],
                    iou_threshold: float = 0.5) -> Matching:
    """Greedy one-to-one matching in descending IoU order.

    Only pairs with IoU >= ``iou_threshold`` are considered; exact IoU ties
    resolve by lower ground-truth index, then lower prediction index.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    candidates = []
    for gi, g in enumerate(gt):
        for pi, p in enumerate(pred):
            overlap = iou(g, p)
            if overlap >= iou_threshold:
                candidates.append((-overlap, gi, pi))
    candidates.sort()

    pairs: list[tuple[int, int]] = []
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    for _, gi, pi in candidates:
        if gi in used_gt or pi in used_pred:
            continue
        pairs.append((gi, pi))
        used_gt.add(gi)
        used_pred.add(pi)
    return Matching(
        pairs=pairs,
        unmatched_gt=[i for i in range(len(gt)) if i not in used_gt],
        unmatched_pred=[i for i in range(len(pred)) if i not in used_pred],
    )


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient of two equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError(f"need two equal-length vectors of >= 2 entries, got {x.shape}, {y.shape}")
    dx = x - x.mean()
    dy = y - y.mean()
    squared = (dx * dx).sum() * (dy * dy).sum()
    if squared == 0.0:
        raise ConstantVectorError("correlation undefined for a constant vector")
    return float((dx * dy).sum() / np.sqrt(squared))


def render_rank_map(masks: np.ndarray, ranks, out_shape: tuple[int, int]) -> np.ndarray:
    """Paint normalized rank values (N - r + 1) / N onto a zero background.

    Masks are painted from least to most salient, so where objects overlap
    the more salient one wins.
    """
    masks = np.asarray(masks, dtype=bool)
    ranks = np.asarray(ranks)
    n = len(ranks)
    if masks.shape[0] != n:
        raise ShapeError(f"{masks.shape[0]} masks for {n} ranks")
    out_shape = tuple(out_shape)
    for i, mask in enumerate(masks):
        if mask.shape != out_shape:
            raise ShapeError(f"mask {i} has shape {mask.shape}, expected {out_shape}")
    rank_map = np.zeros(out_shape, dtype=np.float64)
    for r in range(n, 0, -1):
        (idx,) = np.nonzero(ranks == r)
        for i in idx:
            rank_map[masks[i]] = (n - r + 1) / n
    return rank_map


def mae(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute per-pixel difference of two rank maps."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise ValueError(f"rank map shapes differ: {predicted.shape} vs {truth.shape}")
    return float(np.abs(predicted - truth).mean())


def sa_sor(gt: list[tuple[InstanceMask, int]], pred: list[tuple[InstanceMask, int]],
           iou_threshold: float = 0.5) -> float | None:
    """Segmentation-aware rank correlation; ``None`` when undefined.

    Undefined outcomes (fewer than two ground-truth objects, or a constant
    matched-level vector) are reported as ``None`` and should be excluded
    from averages by the caller.
    """
    n_gt = len(gt)
    gt_ranks = [rank for _, rank in gt]
    if sorted(gt_ranks) != list(range(1, n_gt + 1)):
        raise ValueError(f"ground-truth ranks {gt_ranks} are not a permutation of 1..{n_gt}")

    matching = match_instances([m for m, _ in gt], [m for m, _ in pred], iou_threshold)
    matched = dict(matching.pairs)

    n_pred = len(pred)
    x = np.array([n_gt - rank + 1 for _, rank in gt], dtype=np.float64)
    y = np.zeros(n_gt, dtype=np.float64)
    for gi in range(n_gt):
        if gi in matched:
            y[gi] = n_pred - pred[matched[gi]][1] + 1

    if n_gt < 2:
        return None
    try:
        return pearson(x, y)
    except ConstantVectorError:
        return None


def score_frame(gt_masks: np.ndarray, gt_ranks, pred_masks: np.ndarray, pred_ranks,
                iou_threshold: float = 0.5) -> tuple[float | None, float]:
    """SA-SOR and rank-map MAE of one frame's ranked instance masks.

    Masks are (N, H, W) stacks whose i-th entry carries the i-th rank; the
    ground-truth ranks must be a permutation of 1..N.
    """
    gt_masks = np.asarray(gt_masks)
    pred_masks = np.asarray(pred_masks)
    gt = [(InstanceMask(m, i), int(r)) for i, (m, r) in enumerate(zip(gt_masks, gt_ranks))]
    pred = [(InstanceMask(m, i), int(r)) for i, (m, r) in enumerate(zip(pred_masks, pred_ranks))]
    correlation = sa_sor(gt, pred, iou_threshold)
    error = mae(render_rank_map(pred_masks, pred_ranks, pred_masks.shape[1:]),
                render_rank_map(gt_masks, gt_ranks, gt_masks.shape[1:]))
    return correlation, error
