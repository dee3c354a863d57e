"""Metric correctness against independent oracles.

Oracles here deliberately take different routes from the library code.
``FrameMatch`` scores a frame, and each of its results has its own oracle:
its ``pairs`` are checked against a greedy loop over per-pair IoUs and
against exhaustive optimal assignment, its SA-SOR against a from-scratch
combination of oracle matching and ``np.corrcoef``, and its MAE against a
per-pixel double loop over the painted rank maps.  ``pearson`` is checked
against ``np.corrcoef``.
"""

import itertools
import re

import numpy as np
import pytest

from vsorank.autodiff import ShapeError
from vsorank.metrics import ConstantVectorError, FrameMatch, pearson, render_rank_map


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


def sa_sor_oracle(gt_masks, gt_ranks, pred_masks, pred_ranks, threshold=0.5,
                  match=exhaustive_match_oracle):
    """Oracle matching (exhaustive by default) plus np.corrcoef, fully
    independent of the library."""
    n_gt, n_pred = len(gt_ranks), len(pred_ranks)
    pairs = dict(match(gt_masks, pred_masks, threshold))
    x = [n_gt - rank + 1 for rank in gt_ranks]
    y = [
        (n_pred - pred_ranks[pairs[gi]] + 1) if gi in pairs else 0
        for gi in range(n_gt)
    ]
    if n_gt < 2 or len(set(y)) == 1:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def frame_score(gt_masks, gt_ranks, pred_masks, pred_ranks, iou_threshold=0.5):
    """``FrameMatch.score`` of a scene, ``(gt_masks, gt_ranks, pred_masks,
    pred_ranks)``: its SA-SOR and MAE."""
    return FrameMatch(gt_masks, pred_masks, iou_threshold).score(gt_ranks, pred_ranks)


def assert_matches_oracles(got, gt_masks, gt_ranks, pred_masks, pred_ranks,
                           iou_threshold=0.5, match=exhaustive_match_oracle):
    """A ``FrameMatch.score`` result against the scene's oracles: SA-SOR within
    1e-12 of ``sa_sor_oracle`` with ``match``, and MAE bit for bit that of the
    two rank maps as ``render_rank_map`` paints them."""
    correlation, error = got
    expected = sa_sor_oracle(gt_masks, gt_ranks, pred_masks, pred_ranks, iou_threshold, match)
    if expected is None:
        assert correlation is None
    else:
        assert correlation == pytest.approx(expected, abs=1e-12)
    painted = np.abs(render_rank_map(pred_masks, pred_ranks) - render_rank_map(gt_masks, gt_ranks))
    assert np.float64(error).tobytes() == painted.mean().tobytes()


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


def overlapping_scene(rng, shape):
    """Rectangles placed anywhere, so masks overlap within and across stacks.

    Each ground-truth rectangle is predicted with every edge jittered, or
    missed; a stray prediction may be added.  Same return value as
    ``random_scene``.
    """
    height, width = shape

    def box():
        y0, x0 = int(rng.integers(0, height - 1)), int(rng.integers(0, width - 1))
        return [y0, int(rng.integers(y0 + 1, height + 1)), x0, int(rng.integers(x0 + 1, width + 1))]

    def jittered(y0, y1, x0, x1):
        y0 = int(np.clip(y0 + rng.integers(-2, 3), 0, height - 1))
        x0 = int(np.clip(x0 + rng.integers(-2, 3), 0, width - 1))
        y1 = int(np.clip(y1 + rng.integers(-2, 3), y0 + 1, height))
        x1 = int(np.clip(x1 + rng.integers(-2, 3), x0 + 1, width))
        return y0, y1, x0, x1

    gt_boxes = [box() for _ in range(int(rng.integers(2, 6)))]
    pred_boxes = [jittered(*b) for b in gt_boxes if rng.random() < 0.75]
    if not pred_boxes or rng.random() < 0.3:
        pred_boxes.append(box())
    gt_masks = np.stack([rect_mask(shape, *b) for b in gt_boxes])
    pred_masks = np.stack([rect_mask(shape, *b) for b in pred_boxes])
    gt_ranks = [int(r) for r in rng.permutation(len(gt_boxes)) + 1]
    pred_ranks = [int(r) for r in rng.permutation(len(pred_boxes)) + 1]
    return gt_masks, gt_ranks, pred_masks, pred_ranks


def match_scenes(lane_seeds):
    """``(make_scene, shape, seed)`` cases: lane scenes at 24x24, whose ids
    are their seeds, then packed-bit edge cases at 23x21 (483 pixels, not a
    whole number of bytes), lane-confined and overlapping."""
    return ([pytest.param(random_scene, (24, 24), seed, id=str(seed))
             for seed in range(lane_seeds)]
            + [pytest.param(make, (23, 21), seed, id=f"{make.__name__}-23x21-{seed}")
               for make in (random_scene, overlapping_scene) for seed in range(25)])


# -- MAE -------------------------------------------------------------------------


class TestMae:
    """``FrameMatch``'s MAE: the mean |P - G| of the two painted rank maps."""

    def test_identical_maps(self):
        rng = np.random.default_rng(0)
        for gt_masks, gt_ranks, _, _ in (random_scene(rng), overlapping_scene(rng, (5, 7))):
            assert frame_score(gt_masks, gt_ranks, gt_masks.copy(), gt_ranks)[1] == 0.0

    def test_opposite_constants(self):
        full = np.ones((1, 3, 3), dtype=bool)
        # A predicted rank outside 1..N paints nothing.
        assert frame_score(full, [1], full.copy(), [0])[1] == 1.0

    def test_hand_value(self):
        # G = [[0.5, 0], [0, 1]] and P = [[0, 0], [0, 1]]: |P - G| sums to 0.5.
        corner, diagonal = rect_mask((2, 2), 0, 1, 0, 1), rect_mask((2, 2), 1, 2, 1, 2)
        assert frame_score(np.stack([corner, diagonal]), [2, 1], diagonal[None], [1])[1] == 0.125

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng((500, seed))
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        gt_masks, gt_ranks, pred_masks, pred_ranks = overlapping_scene(rng, shape)
        expected = mae_oracle(render_rank_map(pred_masks, pred_ranks),
                              render_rank_map(gt_masks, gt_ranks))
        got = frame_score(gt_masks, gt_ranks, pred_masks, pred_ranks)[1]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        for gt_masks, gt_ranks, pred_masks, pred_ranks in (random_scene(rng),
                                                           overlapping_scene(rng, (6, 6))):
            error = frame_score(gt_masks, gt_ranks, pred_masks, pred_ranks)[1]
            assert error == frame_score(pred_masks, pred_ranks, gt_masks, gt_ranks)[1]
            assert 0.0 <= error <= 1.0


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

    @pytest.mark.parametrize("x, y", [
        pytest.param([1.0], [2.0], id="one-entry"),
        pytest.param([1.0, 2.0], [1.0, 2.0, 3.0], id="lengths-differ"),
        pytest.param([[1.0, 2.0]], [[2.0, 1.0]], id="matrices"),
    ])
    def test_malformed_vectors_rejected(self, x, y):
        message = (f"need two equal-length vectors of >= 2 entries, "
                   f"got {np.shape(x)}, {np.shape(y)}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pearson(x, y)

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
    """``FrameMatch(...).pairs``: greedy one-to-one matching by IoU."""

    def test_identical_single_masks(self):
        m = rect_mask((8, 8), 1, 4, 1, 4)[None]
        assert FrameMatch(m, m.copy(), 0.5).pairs == [(0, 0)]

    def test_disjoint_masks(self):
        a = rect_mask((8, 8), 0, 3, 0, 3)[None]
        b = rect_mask((8, 8), 5, 8, 5, 8)[None]
        assert FrameMatch(a, b, 0.5).pairs == []

    def test_empty_lists_allowed(self):
        empty = np.zeros((0, 8, 8), dtype=bool)
        assert FrameMatch(empty, empty, 0.5).pairs == []
        assert FrameMatch(empty, rect_mask((8, 8), 0, 3, 0, 3)[None], 0.5).pairs == []

    def test_threshold_validation(self):
        empty = np.zeros((0, 8, 8), dtype=bool)
        with pytest.raises(ValueError, match="iou_threshold"):
            FrameMatch(empty, empty, 0.0)
        with pytest.raises(ValueError, match="iou_threshold"):
            FrameMatch(empty, empty, 1.5)

    def test_exact_ties_go_to_lower_gt_then_lower_pred(self):
        # The middle 4x4 block overlaps each side block by 8 of 24 pixels, so
        # both candidate pairs have IoU exactly 1/3.
        shape = (4, 8)
        left, middle, right = (rect_mask(shape, 0, 4, x, x + 4) for x in (0, 2, 4))
        assert FrameMatch(np.stack([left, right]), middle[None], 0.3).pairs == [(0, 0)]
        assert FrameMatch(np.stack([right, left]), middle[None], 0.3).pairs == [(0, 0)]
        assert FrameMatch(middle[None], np.stack([left, right]), 0.3).pairs == [(0, 0)]
        assert FrameMatch(middle[None], np.stack([right, left]), 0.3).pairs == [(0, 0)]
        # Four identical masks: every pair ties at IoU 1.
        same = np.stack([middle, middle])
        assert FrameMatch(same, same.copy(), 0.5).pairs == [(0, 0), (1, 1)]

    def test_pairs_in_descending_iou_order(self):
        masks = three_squares()
        pred = masks.copy()
        pred[0, 0, :3] = False  # IoU 6/9 with the first square
        pred[2, 8, 8] = False   # IoU 8/9 with the third square
        assert FrameMatch(masks, pred, 0.5).pairs == [(1, 1), (2, 2), (0, 0)]

    @pytest.mark.parametrize("make_scene, shape, seed", match_scenes(50))
    def test_equals_greedy_reference_at_any_threshold(self, make_scene, shape, seed):
        rng = np.random.default_rng((521, seed))
        gt_masks, _, pred_masks, _ = make_scene(rng, shape)
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            assert FrameMatch(gt_masks, pred_masks, threshold).pairs == greedy_match_oracle(
                gt_masks, pred_masks, threshold)

    @pytest.mark.parametrize("make_scene, shape, seed", match_scenes(200))
    def test_one_to_one_threshold_and_oracle_agreement(self, make_scene, shape, seed):
        rng = np.random.default_rng((520, seed))
        gt_masks, _, pred_masks, _ = make_scene(rng, shape)
        pairs = FrameMatch(gt_masks, pred_masks, 0.5).pairs

        gs = [g for g, _ in pairs]
        ps = [p for _, p in pairs]
        assert len(set(gs)) == len(gs) and len(set(ps)) == len(ps)
        assert set(gs) <= set(range(len(gt_masks)))
        assert set(ps) <= set(range(len(pred_masks)))
        for gi, pi in pairs:
            value = iou_oracle(gt_masks[gi], pred_masks[pi])
            assert value >= 0.5
            # The library's IoU == the oracle's: the pair passes a threshold
            # of exactly ``value`` and fails at the next float above it.
            one_gt, one_pred = gt_masks[gi:gi + 1], pred_masks[pi:pi + 1]
            assert FrameMatch(one_gt, one_pred, value).pairs == [(0, 0)]
            if value < 1.0:
                assert FrameMatch(one_gt, one_pred, np.nextafter(value, 2.0)).pairs == []

        assert pairs == greedy_match_oracle(gt_masks, pred_masks, 0.5)
        oracle_pairs = exhaustive_match_oracle(gt_masks, pred_masks, 0.5)
        if sorted(pairs) != oracle_pairs:
            # Greedy and optimal can legitimately differ; log, don't fail.
            print(f"seed {seed}: greedy {sorted(pairs)} vs optimal {oracle_pairs}")


# -- sa_sor -----------------------------------------------------------------------


class TestSaSor:
    """``FrameMatch``'s SA-SOR, the first half of its ``score``."""

    def test_perfect_prediction_is_exactly_one(self):
        rng = np.random.default_rng(2)
        gt_masks, gt_ranks, _, _ = random_scene(rng)
        assert frame_score(gt_masks, gt_ranks, gt_masks.copy(), gt_ranks)[0] == 1.0

    def test_reversed_ranks_is_exactly_minus_one(self):
        masks = three_squares()
        assert frame_score(masks, [1, 2, 3], masks.copy(), [3, 2, 1])[0] == -1.0

    def test_unmatched_least_salient_hand_value(self):
        # x = (3, 2, 1), y = (3, 2, 0): the least-salient ground-truth object
        # has no overlapping prediction, its predicted counterpart sits
        # elsewhere, and the other two match with correct ranks.
        shape = (12, 12)
        masks = three_squares(shape)
        pred = masks.copy()
        pred[2] = rect_mask(shape, 8, 11, 0, 3)
        expected = np.corrcoef([3, 2, 1], [3, 2, 0])[0, 1]
        got = frame_score(masks, [1, 2, 3], pred, [1, 2, 3])[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_undefined_when_nothing_matches(self):
        masks = three_squares()
        assert frame_score(masks[:2], [1, 2], masks[2:], [1])[0] is None

    def test_invalid_gt_ranks_rejected(self):
        masks = three_squares()[:2]
        with pytest.raises(ValueError, match="permutation"):
            frame_score(masks, [1, 3], masks, [1, 3])

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
            FrameMatch(gt_masks, pred_masks).score(gt_ranks, pred_ranks)

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_independent_oracle_on_random_scenes(self, seed):
        rng = np.random.default_rng((530, seed))
        scene = random_scene(rng)
        got = frame_score(*scene)[0]
        expected = sa_sor_oracle(*scene)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_defined_values_in_unit_range(self, seed):
        rng = np.random.default_rng((531, seed))
        value = frame_score(*random_scene(rng))[0]
        if value is not None:
            assert -1.0 <= value <= 1.0


class TestFrameMatch:
    def test_equals_oracles_on_hand_built_masks(self):
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
        expected_mae = float(np.abs(pred_map - gt_map).mean())
        assert expected_mae == pytest.approx((12 + 12 + 8) / 3 / 36, abs=1e-12)
        assert expected_mae == pytest.approx(mae_oracle(pred_map, gt_map), abs=1e-12)

        for threshold in (0.5, 0.3):
            got = FrameMatch(gt_masks, pred_masks, threshold).score(gt_ranks, pred_ranks)
            assert got[1] == expected_mae
            assert_matches_oracles(got, gt_masks, gt_ranks, pred_masks, pred_ranks, threshold)
        assert FrameMatch(gt_masks, pred_masks).score(gt_ranks, pred_ranks)[0] == pytest.approx(
            np.corrcoef([3, 2, 1], [2, 3, 0])[0, 1], abs=1e-12)
        assert FrameMatch(gt_masks, pred_masks, 0.3).score(gt_ranks, pred_ranks)[0] == (
            pytest.approx(np.corrcoef([3, 2, 1], [2, 3, 1])[0, 1], abs=1e-12))
