"""Evaluation metrics for ranked instance predictions.

A frame's ranked instances are an ``(N, H, W)`` bool mask stack plus N ranks,
the i-th rank belonging to the i-th mask.  ``FrameMatch`` scores one frame on
two metrics:

* SA-SOR -- segmentation-aware rank correlation.  Predicted instances are
  matched one-to-one to ground-truth instances by IoU.  Each ground-truth
  object contributes its saliency level ``N_gt - rank + 1`` to x and its
  matched prediction's level (or 0 if unmatched) to y; the metric is the
  Pearson correlation of x and y, or undefined (``None``) when y is
  constant or there are fewer than two ground-truth objects.
* MAE -- mean absolute pixel error between the two normalized rank maps,
  ``(1 / (W * H)) * sum |P(i, j) - G(i, j)|``, as painted by
  ``render_rank_map``.

It does the work that depends on the masks alone once, the instance matching
and each foreground pixel's (ground-truth instance, predicted instance) pair,
so a model evaluated again on the same masks scores only its new ranks.
"""

import numpy as np

from .autodiff import ShapeError

__all__ = [
    "ConstantVectorError",
    "FrameMatch",
    "pearson",
    "render_rank_map",
]


class ConstantVectorError(ValueError):
    """Pearson correlation is undefined for a constant input vector."""


def _stack(masks) -> np.ndarray:
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3:
        raise ShapeError(f"masks must be an (N, H, W) stack, got shape {masks.shape}")
    return masks


def _packed_rows(masks: np.ndarray, side: str) -> np.ndarray:
    """One row of packed pixel bits per instance, as 64-bit words; every
    instance needs a pixel."""
    n, height, width = masks.shape
    packed = np.packbits(masks.reshape(n, height * width), axis=1)
    rows = np.zeros((n, -(-packed.shape[1] // 8)), dtype=np.uint64)
    rows.view(np.uint8)[:, :packed.shape[1]] = packed
    empty = np.flatnonzero(~rows.any(axis=1))
    if empty.size:
        raise ValueError(f"{side} instance {empty[0]} has no foreground pixels")
    return rows


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


def _levels(ranks: np.ndarray) -> np.ndarray:
    """0 for the background, then each instance's rank-map value
    (N - r + 1) / N, or 0 for a rank outside 1..N, which is not painted."""
    n = len(ranks)
    return np.array([0.0] + [(n - r + 1) / n if r in range(1, n + 1) else 0.0
                             for r in ranks.tolist()])


def render_rank_map(masks: np.ndarray, ranks) -> np.ndarray:
    """Paint normalized rank values (N - r + 1) / N onto a zero background.

    Masks are painted in ascending level, ties in index order, so where
    objects overlap the most salient one wins.  A mask whose rank is not one
    of 1..N has level 0 and is painted first, onto zeros: it changes nothing.
    """
    masks, ranks = _stack(masks), np.asarray(ranks)
    if ranks.shape != masks.shape[:1]:
        raise ShapeError(f"{masks.shape[0]} masks for {ranks.size} ranks")
    levels = _levels(ranks)
    rank_map = np.zeros(masks.shape[1:], dtype=np.float64)
    for i in np.argsort(levels[1:], kind="stable"):
        np.copyto(rank_map, levels[i + 1], where=masks[i])
    return rank_map


def _painted_mae(gt_masks, gt_ranks, pred_masks, pred_ranks) -> float:
    """MAE of the two rank maps, with the difference and its absolute value
    taken in the predicted map's buffer: two full-size maps per frame, not
    three."""
    diff = render_rank_map(pred_masks, pred_ranks)
    np.subtract(diff, render_rank_map(gt_masks, gt_ranks), out=diff)
    np.abs(diff, out=diff)
    return float(diff.mean())


def _disjoint(rows: np.ndarray) -> bool:
    """Whether no pixel is in two masks of a stack given as ``_packed_rows``."""
    return np.bitwise_count(np.bitwise_or.reduce(rows)).sum() == np.bitwise_count(rows).sum()


class FrameMatch:
    """The part of scoring one frame that depends on its masks alone.

    ``pairs`` is the greedy one-to-one matching, as ``(gt, pred)`` index
    pairs in descending IoU order: only pairs with IoU >= ``iou_threshold``
    are considered, and exact IoU ties resolve by lower ground-truth index,
    then lower prediction index.  Every instance needs a foreground pixel.

    When neither stack overlaps itself, it also keeps each foreground
    pixel's flat index and the code ``gt * (K_pred + 1) + pred`` of the
    instances covering it (each index plus one, 0 for none), in the smallest
    unsigned types that hold them.  A pixel's MAE term then depends only on
    its code.  A stack whose masks overlap paints its rank map instead, so
    the two stacks are kept.
    """

    def __init__(self, gt_masks: np.ndarray, pred_masks: np.ndarray,
                 iou_threshold: float = 0.5):
        gt_masks, pred_masks = _stack(gt_masks), _stack(pred_masks)
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
        if gt_masks.shape[1:] != pred_masks.shape[1:]:
            raise ValueError(f"mask shapes differ: {gt_masks.shape[1:]} vs {pred_masks.shape[1:]}")
        gt = _packed_rows(gt_masks, "ground-truth")
        pred = _packed_rows(pred_masks, "predicted")
        # Pixel counts are exact int64 popcounts of the packed words (the zero
        # padding bits count nothing), so each IoU is the float64 quotient of
        # two exact integers.  One ground-truth row at a time: a (K, K, words)
        # block would be another full-frame temporary per frame.
        intersection = np.empty((len(gt), len(pred)), dtype=np.int64)
        for row, counts in zip(gt, intersection):
            np.bitwise_count(row & pred).sum(axis=1, dtype=np.int64, out=counts)
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
        self.pairs = pairs
        self.gt_count, self.pred_count = len(gt_masks), len(pred_masks)
        self.shape = gt_masks.shape[1:]
        if not (_disjoint(gt) and _disjoint(pred)):
            self.masks = gt_masks, pred_masks
            return
        self.masks = None
        # Disjoint masks: a weighted sum of each stack gives every pixel the
        # weight of the one mask covering it, or 0.
        width = self.pred_count + 1
        dtype = np.min_scalar_type((self.gt_count + 1) * width - 1)
        codes = np.einsum("k,khw->hw", np.arange(width, (self.gt_count + 1) * width, width,
                                                 dtype=dtype), gt_masks.view(np.uint8))
        codes += np.einsum("k,khw->hw", np.arange(1, width, dtype=dtype),
                           pred_masks.view(np.uint8))
        codes = codes.reshape(-1)
        pixels = np.flatnonzero(codes != 0)
        self.pixels = pixels.astype(np.min_scalar_type(codes.size - 1))
        self.codes = codes[pixels]

    def score(self, gt_ranks, pred_ranks) -> tuple[float | None, float]:
        """SA-SOR and MAE of the kept masks with these ranks.

        The ground-truth ranks must be a permutation of 1..K_gt.  SA-SOR is
        ``None`` when undefined (fewer than two ground-truth objects, or a
        constant matched-level vector); averages should leave it out.  MAE
        is that of the two ``render_rank_map`` maps, bit for bit.
        """
        gt_ranks, pred_ranks = np.asarray(gt_ranks), np.asarray(pred_ranks)
        for count, ranks in ((self.gt_count, gt_ranks), (self.pred_count, pred_ranks)):
            if ranks.shape != (count,):
                raise ShapeError(f"{count} masks for {ranks.size} ranks")
        n_gt = self.gt_count
        if sorted(gt_ranks.tolist()) != list(range(1, n_gt + 1)):
            raise ValueError(f"ground-truth ranks {gt_ranks.tolist()} are not a permutation "
                             f"of 1..{n_gt}")
        # Saliency levels: each ground-truth object's, and its match's or 0.
        x = n_gt + 1.0 - gt_ranks
        y = np.zeros(n_gt, dtype=np.float64)
        for gi, pi in self.pairs:
            y[gi] = self.pred_count - int(pred_ranks[pi]) + 1
        correlation = None
        if n_gt >= 2:
            try:
                correlation = pearson(x, y)
            except ConstantVectorError:
                pass
        if self.masks is not None:
            gt_masks, pred_masks = self.masks
            return correlation, _painted_mae(gt_masks, gt_ranks, pred_masks, pred_ranks)
        # |P - G| of one pixel, for each code: the values that abs(P - G) of
        # the painted maps holds, summed by the same mean in the same order.
        table = np.abs(_levels(pred_ranks) - _levels(gt_ranks)[:, None])
        diff = np.zeros(self.shape, dtype=np.float64)
        diff.reshape(-1)[self.pixels] = np.take(table, self.codes)
        return correlation, float(diff.mean())
