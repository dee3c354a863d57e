"""Pairwise margin ranking loss: frozen values, properties, gradients."""

import numpy as np
import pytest

from vsorank.autodiff import Tensor, grad_check
from vsorank.losses import RankPairs, RankTarget, rank_loss


def pairs_of(*frame_ranks):
    return RankPairs([RankTarget(tuple(ranks)) for ranks in frame_ranks])


def loss_value(scores, ranks, margin=0.5):
    return rank_loss(Tensor(scores), pairs_of(ranks), margin).item()


class TestRankLossValues:
    def test_fully_separated_scores_give_zero(self):
        assert loss_value([2.0, 1.0, 0.0], [1, 2, 3], 0.5) == 0.0

    def test_tied_pair_pays_the_margin(self):
        assert loss_value([0.0, 0.0], [1, 2], 0.5) == 0.5

    def test_inverted_pair_pays_margin_plus_gap(self):
        assert loss_value([0.0, 1.0], [1, 2], 0.5) == 1.5

    def test_mean_normalization_over_pairs(self):
        # Three pairs: (1,2) violated by 0.5, (1,3) and (2,3) satisfied.
        assert loss_value([1.0, 1.0, -2.0], [1, 2, 3], 0.5) == pytest.approx(0.5 / 3)


class TestRankLossValidation:
    def test_single_object_rejected(self):
        with pytest.raises(ValueError, match="two objects"):
            loss_value([1.0], [1])

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            RankTarget((1, 3))

    def test_non_positive_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            loss_value([1.0, 0.0], [1, 2], margin=0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ranks for"):
            rank_loss(Tensor([1.0, 0.0, 2.0]), pairs_of((1, 2)), 0.5)


class TestRankLossProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_non_negative_and_zero_iff_separated(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        ranks = [int(r) for r in rng.permutation(n) + 1]
        scores = rng.standard_normal(n)
        value = loss_value(scores, ranks)
        assert value >= 0.0
        separated = all(
            scores[i] - scores[j] >= 0.5
            for i in range(n)
            for j in range(n)
            if ranks[i] < ranks[j]
        )
        assert (value == 0.0) == separated

    @pytest.mark.parametrize("seed", range(10))
    def test_translation_invariance_exact_on_dyadic_scores(self, seed):
        # Dyadic scores and shift make every fp64 addition exact, so the
        # invariance (only pairwise differences matter) must hold bit-for-bit.
        rng = np.random.default_rng((40, seed))
        n = int(rng.integers(2, 6))
        ranks = [int(r) for r in rng.permutation(n) + 1]
        scores = rng.integers(-16, 17, size=n) / 8.0
        shifted = scores + 7.25
        assert loss_value(scores, ranks) == loss_value(shifted, ranks)

    @pytest.mark.parametrize("seed", range(10))
    def test_translation_invariance_general(self, seed):
        rng = np.random.default_rng((45, seed))
        n = int(rng.integers(2, 6))
        ranks = [int(r) for r in rng.permutation(n) + 1]
        scores = rng.standard_normal(n)
        assert loss_value(scores + 100.0, ranks) == pytest.approx(
            loss_value(scores, ranks), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_permutation_consistency(self, seed):
        rng = np.random.default_rng((41, seed))
        n = int(rng.integers(2, 6))
        ranks = np.array([int(r) for r in rng.permutation(n) + 1])
        scores = rng.standard_normal(n)
        perm = rng.permutation(n)
        assert loss_value(scores, ranks) == pytest.approx(
            loss_value(scores[perm], ranks[perm]), abs=1e-15
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_away_from_kinks(self, seed):
        # Points are sampled clear of hinge kinks and with every element in
        # at least one unbalanced active pair, so no true partial is zero.
        rng = np.random.default_rng((42, seed))
        n = 4
        ranks = tuple(int(r) for r in rng.permutation(n) + 1)
        pairs = [(i, j) for i in range(n) for j in range(n) if ranks[i] < ranks[j]]
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
        x = Tensor(scores, requires_grad=True)
        err = grad_check(lambda t: rank_loss(t, pairs_of(ranks), 0.5), x)
        assert err < 1e-6


class TestSequenceSegments:
    """One loss over a sequence's stacked scores: the frame means, added in
    frame order."""

    def test_pairs_index_the_stacked_scores(self):
        pairs = pairs_of((2, 1), (1,), (1, 3, 2))
        assert pairs.size == 6
        assert pairs.ends == (1, 4)
        assert pairs.above.tolist() == [1, 3, 3, 5]
        assert pairs.below.tolist() == [0, 4, 5, 4]
        assert pairs.pair_counts.tolist() == [1.0, 3.0, 3.0, 3.0]
        for array in (pairs.above, pairs.below, pairs.pair_counts):
            assert not array.flags.writeable

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_frame_losses_added_in_order(self, seed):
        rng = np.random.default_rng((43, seed))
        counts = [int(n) for n in rng.integers(1, 8, size=4)]
        counts[int(rng.integers(4))] = 5  # at least one frame with pairs
        frame_ranks = [[int(r) for r in rng.permutation(n) + 1] for n in counts]
        scores = rng.standard_normal(sum(counts))
        starts = np.cumsum([0] + counts[:-1])
        expected = 0
        for start, n, ranks in zip(starts, counts, frame_ranks):
            if n > 1:
                expected = expected + loss_value(scores[start:start + n], ranks)
        assert rank_loss(Tensor(scores), pairs_of(*frame_ranks), 0.5).item() == expected

    def test_sequence_without_pairs_rejected(self):
        with pytest.raises(ValueError, match="two objects"):
            rank_loss(Tensor([1.0, 2.0]), pairs_of((1,), (1,)), 0.5)
