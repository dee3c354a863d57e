"""Evaluation metrics for ranked instance predictions.

A frame's ranked instances are an ``(N, H, W)`` bool mask stack plus N ranks,
the i-th rank belonging to the i-th mask; every function here takes them in
that form.  Two metrics are provided, and ``score_frame`` computes both for
one frame:

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

import numpy as np

from .autodiff import ShapeError

__all__ = [
    "ConstantVectorError",
    "match_instances",
    "pearson",
    "render_rank_map",
    "mae",
    "sa_sor",
    "score_frame",
]


class ConstantVectorError(ValueError):
    """Pearson correlation is undefined for a constant input vector."""


def _stack(masks) -> np.ndarray:
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ShapeError(f"masks must be an (N, H, W) stack, got shape {masks.shape}")
    return masks


def _ranked_stack(masks, ranks) -> tuple[np.ndarray, np.ndarray]:
    masks = _stack(masks)
    ranks = np.asarray(ranks)
    if ranks.shape != masks.shape[:1]:
        raise ShapeError(f"{masks.shape[0]} masks for {ranks.size} ranks")
    return masks, ranks


def _packed_rows(masks: np.ndarray, side: str) -> np.ndarray:
    """One row of packed pixel bits per instance; every instance needs a pixel."""
    n, height, width = masks.shape
    rows = np.packbits(masks.reshape(n, height * width), axis=1)
    empty = np.flatnonzero(~rows.any(axis=1))
    if empty.size:
        raise ValueError(f"{side} instance {empty[0]} has no foreground pixels")
    return rows


def match_instances(gt_masks: np.ndarray, pred_masks: np.ndarray,
                    iou_threshold: float = 0.5) -> list[tuple[int, int]]:
    """Greedy one-to-one ``(gt, pred)`` index pairs in descending IoU order.

    Only pairs with IoU >= ``iou_threshold`` are considered; exact IoU ties
    resolve by lower ground-truth index, then lower prediction index.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_masks, pred_masks = _stack(gt_masks), _stack(pred_masks)
    if gt_masks.shape[1:] != pred_masks.shape[1:]:
        raise ValueError(f"mask shapes differ: {gt_masks.shape[1:]} vs {pred_masks.shape[1:]}")
    gt = _packed_rows(gt_masks, "ground-truth")
    pred = _packed_rows(pred_masks, "predicted")
    # Pixel counts are exact int64 popcounts of the packed rows (the zero
    # padding bits count nothing), so each IoU is the float64 quotient of
    # two exact integers.
    intersection = np.bitwise_count(gt[:, None] & pred[None]).sum(axis=2, dtype=np.int64)
    gt_area = np.bitwise_count(gt).sum(axis=1, dtype=np.int64)
    pred_area = np.bitwise_count(pred).sum(axis=1, dtype=np.int64)
    union = gt_area[:, None] + pred_area[None, :] - intersection
    overlap = intersection / union

    gt_idx, pred_idx = np.nonzero(overlap >= iou_threshold)  # row-major: ties in index order
    order = np.argsort(-overlap[gt_idx, pred_idx], kind="stable")
    pairs: list[tuple[int, int]] = []
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    for gi, pi in zip(gt_idx[order].tolist(), pred_idx[order].tolist()):
        if gi in used_gt or pi in used_pred:
            continue
        pairs.append((gi, pi))
        used_gt.add(gi)
        used_pred.add(pi)
    return pairs


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


def render_rank_map(masks: np.ndarray, ranks) -> np.ndarray:
    """Paint normalized rank values (N - r + 1) / N onto a zero background.

    Masks are painted from least to most salient, so where objects overlap
    the more salient one wins.
    """
    masks, ranks = _ranked_stack(masks, ranks)
    n = len(ranks)
    rank_map = np.zeros(masks.shape[1:], dtype=np.float64)
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
    # One full-size temporary, not two: each one freed is heap that glibc
    # may hand back to the OS and fault in again on the next frame.
    diff = predicted - truth
    np.abs(diff, out=diff)
    return float(diff.mean())


def sa_sor(gt_masks: np.ndarray, gt_ranks, pred_masks: np.ndarray, pred_ranks,
           iou_threshold: float = 0.5) -> float | None:
    """Segmentation-aware rank correlation; ``None`` when undefined.

    Undefined outcomes (fewer than two ground-truth objects, or a constant
    matched-level vector) are reported as ``None`` and should be excluded
    from averages by the caller.
    """
    gt_masks, gt_ranks = _ranked_stack(gt_masks, gt_ranks)
    pred_masks, pred_ranks = _ranked_stack(pred_masks, pred_ranks)
    n_gt, n_pred = len(gt_ranks), len(pred_ranks)
    if sorted(gt_ranks.tolist()) != list(range(1, n_gt + 1)):
        raise ValueError(f"ground-truth ranks {gt_ranks.tolist()} are not a permutation "
                         f"of 1..{n_gt}")

    x = n_gt + 1.0 - gt_ranks
    y = np.zeros(n_gt, dtype=np.float64)
    for gi, pi in match_instances(gt_masks, pred_masks, iou_threshold):
        y[gi] = n_pred - int(pred_ranks[pi]) + 1

    if n_gt < 2:
        return None
    try:
        return pearson(x, y)
    except ConstantVectorError:
        return None


def score_frame(gt_masks: np.ndarray, gt_ranks, pred_masks: np.ndarray, pred_ranks,
                iou_threshold: float = 0.5) -> tuple[float | None, float]:
    """SA-SOR and rank-map MAE of one frame's ranked instance masks.

    The ground-truth ranks must be a permutation of 1..N.
    """
    correlation = sa_sor(gt_masks, gt_ranks, pred_masks, pred_ranks, iou_threshold)
    error = mae(render_rank_map(pred_masks, pred_ranks), render_rank_map(gt_masks, gt_ranks))
    return correlation, error
