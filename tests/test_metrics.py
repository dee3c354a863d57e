"""Metric correctness against independent oracles.

Oracles here deliberately take different routes from the library code:
``mae`` is checked against a per-pixel double loop, ``pearson`` against
``np.corrcoef``, greedy IoU matching against a greedy loop over per-pair
IoUs and against exhaustive optimal assignment, and ``sa_sor`` against a
from-scratch combination of exhaustive matching and ``np.corrcoef``.
"""

import itertools

import numpy as np
import pytest

from vsorank.autodiff import ShapeError
from vsorank.metrics import (
    ConstantVectorError,
    mae,
    match_instances,
    pearson,
    sa_sor,
    score_frame,
)


# -- oracles -------------------------------------------------------------------


def mae_oracle(p, g):
    h, w = p.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += abs(p[i, j] - g[i, j])
    return total / (w * h)


def iou_oracle(a, b):
    """IoU of two 2D masks from per-pair logical operations."""
    union = np.logical_or(a, b).sum()
    return np.logical_and(a, b).sum() / union if union else 0.0


def greedy_match_oracle(gt, pred, threshold):
    """Greedy matching from a sorted list of per-pair IoUs (the reference loop)."""
    candidates = sorted(
        (-iou_oracle(g, p), gi, pi)
        for gi, g in enumerate(gt)
        for pi, p in enumerate(pred)
        if iou_oracle(g, p) >= threshold
    )
    pairs = []
    for _, gi, pi in candidates:
        if all(gi != g and pi != p for g, p in pairs):
            pairs.append((gi, pi))
    return pairs


def exhaustive_match_oracle(gt, pred, threshold):
    """Max-total-IoU one-to-one assignment over pairs with IoU >= threshold."""
    ious = {}
    for gi, g in enumerate(gt):
        for pi, p in enumerate(pred):
            value = iou_oracle(g, p)
            if value >= threshold:
                ious[(gi, pi)] = value
    best_pairs, best_total = [], -1.0
    candidates = sorted(ious)
    for size in range(min(len(gt), len(pred)), -1, -1):
        for combo in itertools.combinations(candidates, size):
            gs = [g for g, _ in combo]
            ps = [p for _, p in combo]
            if len(set(gs)) != size or len(set(ps)) != size:
                continue
            total = sum(ious[pair] for pair in combo)
            if total > best_total:
                best_total, best_pairs = total, list(combo)
    return sorted(best_pairs)


def sa_sor_oracle(gt_masks, gt_ranks, pred_masks, pred_ranks, threshold=0.5):
    """Exhaustive matching plus np.corrcoef, fully independent of the library."""
    n_gt, n_pred = len(gt_ranks), len(pred_ranks)
    pairs = dict(exhaustive_match_oracle(gt_masks, pred_masks, threshold))
    x = [n_gt - rank + 1 for rank in gt_ranks]
    y = [
        (n_pred - pred_ranks[pairs[gi]] + 1) if gi in pairs else 0
        for gi in range(n_gt)
    ]
    if n_gt < 2 or len(set(y)) == 1:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def rect_mask(shape, y0, y1, x0, x1):
    pixels = np.zeros(shape, dtype=bool)
    pixels[y0:y1, x0:x1] = True
    return pixels


def random_scene(rng, shape=(24, 24)):
    """Disjoint lane-confined GT rectangles and jittered/dropped predictions.

    Returns ``(gt_masks, gt_ranks, pred_masks, pred_ranks)``: two (N, H, W)
    stacks, each with its N ranks.
    """
    n_gt = int(rng.integers(2, 5))
    lane_h = shape[0] // 4
    gt_masks, pred_masks = [], []
    for i in range(n_gt):
        top = i * lane_h + 1
        height = int(rng.integers(2, lane_h - 1))
        width = int(rng.integers(4, 9))
        x0 = int(rng.integers(3, shape[1] - width - 3))
        gt_masks.append(rect_mask(shape, top, top + height, x0, x0 + width))
        if rng.random() < 0.75:  # otherwise a missed detection
            dx = int(rng.integers(-3, 4))
            pred_masks.append(rect_mask(shape, top, top + height, x0 + dx, x0 + dx + width))
    if not pred_masks:
        top, height, width, x0 = 1, 2, 4, 3
        pred_masks.append(rect_mask(shape, top, top + height, x0, x0 + width))
    gt_ranks = [int(r) for r in rng.permutation(n_gt) + 1]
    pred_ranks = [int(r) for r in rng.permutation(len(pred_masks)) + 1]
    return np.stack(gt_masks), gt_ranks, np.stack(pred_masks), pred_ranks


# -- mae -------------------------------------------------------------------------


class TestMae:
    def test_identical_maps(self):
        rng = np.random.default_rng(0)
        p = rng.random((5, 7))
        assert mae(p, p) == 0.0

    def test_opposite_constants(self):
        assert mae(np.ones((3, 3)), np.zeros((3, 3))) == 1.0

    def test_hand_value(self):
        p = np.array([[0.5, 0.0], [0.0, 0.0]])
        assert mae(p, np.zeros((2, 2))) == 0.125

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng((500, seed))
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        p, g = rng.random(shape), rng.random(shape)
        assert mae(p, g) == pytest.approx(mae_oracle(p, g), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        p, g = rng.random((6, 6)), rng.random((6, 6))
        assert mae(p, g) == mae(g, p)
        assert 0.0 <= mae(p, g) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            mae(np.zeros((2, 2)), np.zeros((3, 2)))


# -- pearson ----------------------------------------------------------------------


class TestPearson:
    def test_affine_increasing_gives_one(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, 2 * x + 1) == 1.0

    def test_negation_gives_minus_one(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, -x) == -1.0

    def test_hand_value(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 0.0]) == -0.5

    def test_constant_vector_raises(self):
        with pytest.raises(ConstantVectorError):
            pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_corrcoef_oracle(self, seed):
        rng = np.random.default_rng((510, seed))
        n = int(rng.integers(2, 10))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_affine_invariance(self, seed):
        rng = np.random.default_rng((511, seed))
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        base = pearson(x, y)
        assert pearson(3.0 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y - 7.0) == pytest.approx(base, abs=1e-12)


# -- matching ----------------------------------------------------------------------


def three_squares(shape=(12, 12)):
    return np.stack([rect_mask(shape, 4 * i, 4 * i + 3, 4 * i, 4 * i + 3) for i in range(3)])


class TestMatchInstances:
    def test_identical_single_masks(self):
        m = rect_mask((8, 8), 1, 4, 1, 4)[None]
        assert match_instances(m, m.copy(), 0.5) == [(0, 0)]

    def test_disjoint_masks(self):
        a = rect_mask((8, 8), 0, 3, 0, 3)[None]
        b = rect_mask((8, 8), 5, 8, 5, 8)[None]
        assert match_instances(a, b, 0.5) == []

    def test_empty_lists_allowed(self):
        empty = np.zeros((0, 8, 8), dtype=bool)
        assert match_instances(empty, empty, 0.5) == []
        assert match_instances(empty, rect_mask((8, 8), 0, 3, 0, 3)[None], 0.5) == []

    def test_threshold_validation(self):
        empty = np.zeros((0, 8, 8), dtype=bool)
        with pytest.raises(ValueError, match="iou_threshold"):
            match_instances(empty, empty, 0.0)
        with pytest.raises(ValueError, match="iou_threshold"):
            match_instances(empty, empty, 1.5)

    def test_exact_ties_go_to_lower_gt_then_lower_pred(self):
        # The middle 4x4 block overlaps each side block by 8 of 24 pixels, so
        # both candidate pairs have IoU exactly 1/3.
        shape = (4, 8)
        left, middle, right = (rect_mask(shape, 0, 4, x, x + 4) for x in (0, 2, 4))
        assert match_instances(np.stack([left, right]), middle[None], 0.3) == [(0, 0)]
        assert match_instances(np.stack([right, left]), middle[None], 0.3) == [(0, 0)]
        assert match_instances(middle[None], np.stack([left, right]), 0.3) == [(0, 0)]
        assert match_instances(middle[None], np.stack([right, left]), 0.3) == [(0, 0)]
        # Four identical masks: every pair ties at IoU 1.
        same = np.stack([middle, middle])
        assert match_instances(same, same.copy(), 0.5) == [(0, 0), (1, 1)]

    def test_pairs_in_descending_iou_order(self):
        masks = three_squares()
        pred = masks.copy()
        pred[0, 0, :3] = False  # IoU 6/9 with the first square
        pred[2, 8, 8] = False   # IoU 8/9 with the third square
        assert match_instances(masks, pred, 0.5) == [(1, 1), (2, 2), (0, 0)]

    @pytest.mark.parametrize("seed", range(50))
    def test_equals_greedy_reference_at_any_threshold(self, seed):
        rng = np.random.default_rng((521, seed))
        gt_masks, _, pred_masks, _ = random_scene(rng)
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            assert match_instances(gt_masks, pred_masks, threshold) == greedy_match_oracle(
                gt_masks, pred_masks, threshold)

    @pytest.mark.parametrize("seed", range(200))
    def test_one_to_one_threshold_and_oracle_agreement(self, seed):
        rng = np.random.default_rng((520, seed))
        gt_masks, _, pred_masks, _ = random_scene(rng)
        pairs = match_instances(gt_masks, pred_masks, 0.5)

        gs = [g for g, _ in pairs]
        ps = [p for _, p in pairs]
        assert len(set(gs)) == len(gs) and len(set(ps)) == len(ps)
        assert set(gs) <= set(range(len(gt_masks)))
        assert set(ps) <= set(range(len(pred_masks)))
        for gi, pi in pairs:
            assert iou_oracle(gt_masks[gi], pred_masks[pi]) >= 0.5

        assert pairs == greedy_match_oracle(gt_masks, pred_masks, 0.5)
        oracle_pairs = exhaustive_match_oracle(gt_masks, pred_masks, 0.5)
        if sorted(pairs) != oracle_pairs:
            # Greedy and optimal can legitimately differ; log, don't fail.
            print(f"seed {seed}: greedy {sorted(pairs)} vs optimal {oracle_pairs}")


# -- sa_sor -----------------------------------------------------------------------


class TestSaSor:
    def test_perfect_prediction_is_exactly_one(self):
        rng = np.random.default_rng(2)
        gt_masks, gt_ranks, _, _ = random_scene(rng)
        assert sa_sor(gt_masks, gt_ranks, gt_masks.copy(), gt_ranks) == 1.0

    def test_reversed_ranks_is_exactly_minus_one(self):
        masks = three_squares()
        assert sa_sor(masks, [1, 2, 3], masks.copy(), [3, 2, 1]) == -1.0

    def test_unmatched_least_salient_hand_value(self):
        # x = (3, 2, 1), y = (3, 2, 0): the least-salient ground-truth object
        # has no overlapping prediction, its predicted counterpart sits
        # elsewhere, and the other two match with correct ranks.
        shape = (12, 12)
        masks = three_squares(shape)
        pred = masks.copy()
        pred[2] = rect_mask(shape, 8, 11, 0, 3)
        expected = np.corrcoef([3, 2, 1], [3, 2, 0])[0, 1]
        assert sa_sor(masks, [1, 2, 3], pred, [1, 2, 3]) == pytest.approx(expected, abs=1e-12)

    def test_undefined_when_nothing_matches(self):
        masks = three_squares()
        assert sa_sor(masks[:2], [1, 2], masks[2:], [1]) is None

    def test_invalid_gt_ranks_rejected(self):
        masks = three_squares()[:2]
        with pytest.raises(ValueError, match="permutation"):
            sa_sor(masks, [1, 3], masks, [1, 3])

    @pytest.mark.parametrize("gt_masks, gt_ranks, pred_masks, pred_ranks, error, message", [
        pytest.param(rect_mask((6, 6), 0, 2, 0, 2), [1], rect_mask((6, 6), 0, 2, 0, 2)[None], [1],
                     ShapeError, r"\(N, H, W\) stack", id="gt-stack-2d"),
        pytest.param(three_squares()[:2], [1, 2], three_squares(), [1, 2],
                     ShapeError, "3 masks for 2 ranks", id="pred-rank-count"),
        pytest.param(np.stack([rect_mask((6, 6), 0, 2, 0, 2), np.zeros((6, 6), bool)]), [1, 2],
                     rect_mask((6, 6), 0, 2, 0, 2)[None], [1],
                     ValueError, "ground-truth instance 1 has no foreground", id="gt-empty-mask"),
        pytest.param(rect_mask((6, 6), 0, 2, 0, 2)[None], [1],
                     np.zeros((1, 6, 6), bool), [1],
                     ValueError, "predicted instance 0 has no foreground", id="pred-empty-mask"),
        pytest.param(rect_mask((6, 6), 0, 2, 0, 2)[None], [1],
                     rect_mask((6, 8), 0, 2, 0, 2)[None], [1],
                     ValueError, r"mask shapes differ: \(6, 6\) vs \(6, 8\)", id="frame-shapes"),
    ])
    def test_malformed_stacks_rejected(self, gt_masks, gt_ranks, pred_masks, pred_ranks,
                                       error, message):
        with pytest.raises(error, match=message):
            sa_sor(gt_masks, gt_ranks, pred_masks, pred_ranks)
        with pytest.raises(error, match=message):
            score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_independent_oracle_on_random_scenes(self, seed):
        rng = np.random.default_rng((530, seed))
        scene = random_scene(rng)
        got = sa_sor(*scene)
        expected = sa_sor_oracle(*scene)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_defined_values_in_unit_range(self, seed):
        rng = np.random.default_rng((531, seed))
        value = sa_sor(*random_scene(rng))
        if value is not None:
            assert -1.0 <= value <= 1.0


class TestScoreFrame:
    def test_equals_sa_sor_and_mae_on_hand_built_masks(self):
        # Three full-width stripes of a 6x6 frame, ranked top to bottom.  The
        # prediction swaps the two upper ranks and covers only a third of the
        # lowest stripe (IoU 1/3), so it matches there only at threshold 0.3.
        shape = (6, 6)
        gt_masks = np.stack([rect_mask(shape, 2 * i, 2 * i + 2, 0, 6) for i in range(3)])
        pred_masks = gt_masks.copy()
        pred_masks[2] = rect_mask(shape, 4, 6, 0, 2)
        gt_ranks, pred_ranks = [1, 2, 3], [2, 1, 3]
        third = 1 / 3
        gt_map = np.repeat([1.0, 2 / 3, third], 12).reshape(shape)
        pred_map = np.repeat([2 / 3, 1.0, 0.0], 12).reshape(shape)
        pred_map[4:6, 0:2] = third
        expected_mae = mae(pred_map, gt_map)
        assert expected_mae == pytest.approx((12 + 12 + 8) / 3 / 36, abs=1e-12)

        for threshold in (0.5, 0.3):
            got = score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks, threshold)
            assert got == (sa_sor(gt_masks, gt_ranks, pred_masks, pred_ranks, threshold),
                           expected_mae)
        assert score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks)[0] == pytest.approx(
            np.corrcoef([3, 2, 1], [2, 3, 0])[0, 1], abs=1e-12)
        assert score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks, 0.3)[0] == pytest.approx(
            np.corrcoef([3, 2, 1], [2, 3, 1])[0, 1], abs=1e-12)
