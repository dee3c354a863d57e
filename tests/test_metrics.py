"""Metric correctness against independent oracles.

Oracles here deliberately take different routes from the library code:
``mae`` is checked against a per-pixel double loop, ``pearson`` against
``np.corrcoef``, greedy IoU matching against exhaustive optimal assignment,
and ``sa_sor`` against a from-scratch combination of the latter two.
"""

import itertools

import numpy as np
import pytest

from vsorank.metrics import (
    ConstantVectorError,
    InstanceMask,
    iou,
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


def exhaustive_match_oracle(gt, pred, threshold):
    """Max-total-IoU one-to-one assignment over pairs with IoU >= threshold."""
    ious = {}
    for gi, g in enumerate(gt):
        for pi, p in enumerate(pred):
            inter = np.logical_and(g.pixels, p.pixels).sum()
            union = np.logical_or(g.pixels, p.pixels).sum()
            value = inter / union if union else 0.0
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


def sa_sor_oracle(gt, pred, threshold=0.5):
    """Exhaustive matching plus np.corrcoef, fully independent of the library."""
    n_gt, n_pred = len(gt), len(pred)
    pairs = dict(exhaustive_match_oracle([m for m, _ in gt], [m for m, _ in pred], threshold))
    x = [n_gt - rank + 1 for _, rank in gt]
    y = [
        (n_pred - pred[pairs[gi]][1] + 1) if gi in pairs else 0
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
    """Disjoint lane-confined GT rectangles and jittered/dropped predictions."""
    n_gt = int(rng.integers(2, 5))
    lane_h = shape[0] // 4
    gt_masks, pred_masks = [], []
    for i in range(n_gt):
        top = i * lane_h + 1
        height = int(rng.integers(2, lane_h - 1))
        width = int(rng.integers(4, 9))
        x0 = int(rng.integers(3, shape[1] - width - 3))
        gt_masks.append(InstanceMask(rect_mask(shape, top, top + height, x0, x0 + width), i + 1))
        if rng.random() < 0.75:  # otherwise a missed detection
            dx = int(rng.integers(-3, 4))
            pred_masks.append(InstanceMask(
                rect_mask(shape, top, top + height, x0 + dx, x0 + dx + width), 100 + i
            ))
    if not pred_masks:
        top, height, width, x0 = 1, 2, 4, 3
        pred_masks.append(InstanceMask(rect_mask(shape, top, top + height, x0, x0 + width), 999))
    gt_ranks = [int(r) for r in rng.permutation(n_gt) + 1]
    pred_ranks = [int(r) for r in rng.permutation(len(pred_masks)) + 1]
    gt = list(zip(gt_masks, gt_ranks))
    pred = list(zip(pred_masks, pred_ranks))
    return gt, pred


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


class TestMatchInstances:
    def test_identical_single_masks(self):
        m = InstanceMask(rect_mask((8, 8), 1, 4, 1, 4), 1)
        result = match_instances([m], [InstanceMask(m.pixels.copy(), 2)], 0.5)
        assert result.pairs == [(0, 0)]
        assert result.unmatched_gt == [] and result.unmatched_pred == []

    def test_disjoint_masks(self):
        a = InstanceMask(rect_mask((8, 8), 0, 3, 0, 3), 1)
        b = InstanceMask(rect_mask((8, 8), 5, 8, 5, 8), 2)
        result = match_instances([a], [b], 0.5)
        assert result.pairs == []
        assert result.unmatched_gt == [0] and result.unmatched_pred == [0]

    def test_empty_lists_allowed(self):
        result = match_instances([], [], 0.5)
        assert result.pairs == [] and result.unmatched_gt == [] and result.unmatched_pred == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="iou_threshold"):
            match_instances([], [], 0.0)

    @pytest.mark.parametrize("seed", range(200))
    def test_one_to_one_threshold_and_oracle_agreement(self, seed):
        rng = np.random.default_rng((520, seed))
        gt, pred = random_scene(rng)
        gt_masks = [m for m, _ in gt]
        pred_masks = [m for m, _ in pred]
        result = match_instances(gt_masks, pred_masks, 0.5)

        gs = [g for g, _ in result.pairs]
        ps = [p for _, p in result.pairs]
        assert len(set(gs)) == len(gs) and len(set(ps)) == len(ps)
        for gi, pi in result.pairs:
            assert iou(gt_masks[gi], pred_masks[pi]) >= 0.5
        assert sorted(gs + result.unmatched_gt) == list(range(len(gt_masks)))
        assert sorted(ps + result.unmatched_pred) == list(range(len(pred_masks)))

        oracle_pairs = exhaustive_match_oracle(gt_masks, pred_masks, 0.5)
        if sorted(result.pairs) != oracle_pairs:
            # Greedy and optimal can legitimately differ; log, don't fail.
            print(f"seed {seed}: greedy {sorted(result.pairs)} vs optimal {oracle_pairs}")


# -- sa_sor -----------------------------------------------------------------------


class TestSaSor:
    def test_perfect_prediction_is_exactly_one(self):
        rng = np.random.default_rng(2)
        gt, _ = random_scene(rng)
        pred = [(InstanceMask(m.pixels.copy(), 50 + i), r) for i, (m, r) in enumerate(gt)]
        assert sa_sor(gt, pred) == 1.0

    def test_reversed_ranks_is_exactly_minus_one(self):
        shape = (12, 12)
        masks = [
            InstanceMask(rect_mask(shape, 0, 3, 0, 3), 1),
            InstanceMask(rect_mask(shape, 4, 7, 4, 7), 2),
            InstanceMask(rect_mask(shape, 8, 11, 8, 11), 3),
        ]
        gt = [(masks[i], i + 1) for i in range(3)]
        pred = [(InstanceMask(m.pixels.copy(), 10 + i), 3 - i) for i, m in enumerate(masks)]
        assert sa_sor(gt, pred) == -1.0

    def test_unmatched_least_salient_hand_value(self):
        # x = (3, 2, 1), y = (3, 2, 0): the least-salient ground-truth object
        # has no overlapping prediction, its predicted counterpart sits
        # elsewhere, and the other two match with correct ranks.
        shape = (12, 12)
        masks = [
            InstanceMask(rect_mask(shape, 0, 3, 0, 3), 1),
            InstanceMask(rect_mask(shape, 4, 7, 4, 7), 2),
            InstanceMask(rect_mask(shape, 8, 11, 8, 11), 3),
        ]
        gt = [(masks[i], i + 1) for i in range(3)]
        pred = [
            (InstanceMask(masks[0].pixels.copy(), 10), 1),
            (InstanceMask(masks[1].pixels.copy(), 11), 2),
            (InstanceMask(rect_mask(shape, 8, 11, 0, 3), 12), 3),
        ]
        expected = np.corrcoef([3, 2, 1], [3, 2, 0])[0, 1]
        assert sa_sor(gt, pred) == pytest.approx(expected, abs=1e-12)

    def test_undefined_when_nothing_matches(self):
        shape = (12, 12)
        gt = [
            (InstanceMask(rect_mask(shape, 0, 3, 0, 3), 1), 1),
            (InstanceMask(rect_mask(shape, 4, 7, 4, 7), 2), 2),
        ]
        pred = [(InstanceMask(rect_mask(shape, 8, 11, 8, 11), 3), 1)]
        assert sa_sor(gt, pred) is None

    def test_identifier_relabeling_is_irrelevant(self):
        rng = np.random.default_rng(3)
        gt, pred = random_scene(rng)
        relabeled_gt = [(InstanceMask(m.pixels, 1000 + i), r) for i, (m, r) in enumerate(gt)]
        relabeled_pred = [(InstanceMask(m.pixels, 2000 + i), r) for i, (m, r) in enumerate(pred)]
        assert sa_sor(gt, pred) == sa_sor(relabeled_gt, relabeled_pred)

    def test_invalid_gt_ranks_rejected(self):
        shape = (8, 8)
        gt = [
            (InstanceMask(rect_mask(shape, 0, 3, 0, 3), 1), 1),
            (InstanceMask(rect_mask(shape, 4, 7, 4, 7), 2), 3),
        ]
        with pytest.raises(ValueError, match="permutation"):
            sa_sor(gt, gt)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_independent_oracle_on_random_scenes(self, seed):
        rng = np.random.default_rng((530, seed))
        gt, pred = random_scene(rng)
        got = sa_sor(gt, pred)
        expected = sa_sor_oracle(gt, pred)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_defined_values_in_unit_range(self, seed):
        rng = np.random.default_rng((531, seed))
        gt, pred = random_scene(rng)
        value = sa_sor(gt, pred)
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
            gt = [(InstanceMask(m, i), r) for i, (m, r) in enumerate(zip(gt_masks, gt_ranks))]
            pred = [(InstanceMask(m, i), r)
                    for i, (m, r) in enumerate(zip(pred_masks, pred_ranks))]
            got = score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks, threshold)
            assert got == (sa_sor(gt, pred, threshold), expected_mae)
        assert score_frame(gt_masks, gt_ranks, pred_masks, pred_ranks)[0] == pytest.approx(
            np.corrcoef([3, 2, 1], [2, 3, 0])[0, 1], abs=1e-12)
