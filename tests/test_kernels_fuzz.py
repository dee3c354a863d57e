"""Property tests of the per-frame eval kernels against their plain forms.

Each kernel on the ``vsorank eval`` path has a faster form than the obvious
one: the id set of an instance map comes from one sort, ``masks()`` compares
in the map's own dtype, IoU counts pixels on packed 64-bit words, the
rank-map painter writes with ``np.copyto`` in one pass over the levels.
``FrameMatch`` matches a frame's instances on packed rows once and then
scores ranks without painting, by a table lookup per foreground pixel, or,
on stacks that overlap themselves, paints and takes the MAE difference in one
of the two rank maps; either way its MAE must be that of the two
``render_rank_map`` maps, and its SA-SOR within 1e-12 of greedy oracle pairs
plus ``np.corrcoef``.  The mask resize
that every scored frame runs in training and inference gathers its corner
samples with one ``np.take`` and converts only them.  Every test here keeps
the plain form as an oracle and asks for the same result, bit for bit (SA-SOR
aside), on maps whose pixel counts are not a multiple of 8 or 64.
"""

import atexit
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra import numpy as hnp

from test_metrics import assert_matches_oracles
from test_temporal import resize_converting_first

from vsorank.autodiff import ShapeError
from vsorank.dataset import AnnotationError, RankAnnotation, SynthConfig
from vsorank.metrics import FrameMatch, render_rank_map
from vsorank.model import init_model_params
from vsorank.temporal import downsample_mask
from vsorank.trainer import ModelConfig, build_dataset, evaluate

# Hypothesis caches constants read from the source while collecting tests,
# even with no example database; keep that cache out of the working tree.
_STORAGE = tempfile.TemporaryDirectory()
atexit.register(_STORAGE.cleanup)
set_hypothesis_home_dir(_STORAGE.name)

pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# H*W of 1, 9, 63 and 65: none is a multiple of 8 or of 64, so the packed
# rows end in padding bits.
SHAPES = st.sampled_from([(1, 1), (3, 3), (7, 9), (5, 13)]) | hnp.array_shapes(
    min_dims=2, max_dims=2, max_side=12)


# -- oracles: the plain forms the kernels replaced -----------------------------


def oracle_ids(instance_map):
    return set(np.unique(instance_map).tolist()) - {0}


def oracle_masks(instance_map, ids):
    return instance_map == np.asarray(ids).astype(np.int64)[:, None, None]


def oracle_match(gt, pred, iou_threshold):
    intersection = (gt[:, None] & pred[None]).sum(axis=(2, 3))
    union = (gt[:, None] | pred[None]).sum(axis=(2, 3))
    overlap = intersection / union
    candidates = sorted((-overlap[g, p], g, p) for g in range(len(gt)) for p in range(len(pred))
                        if overlap[g, p] >= iou_threshold)
    pairs, used_gt, used_pred = [], set(), set()
    for _, g, p in candidates:
        if g not in used_gt and p not in used_pred:
            pairs.append((g, p))
            used_gt.add(g)
            used_pred.add(p)
    return pairs


def oracle_render(masks, ranks):
    n = len(ranks)
    rank_map = np.zeros(masks.shape[1:], dtype=np.float64)
    for r in range(n, 0, -1):
        for i in np.flatnonzero(ranks == r):
            rank_map[masks[i]] = (n - r + 1) / n
    return rank_map


# -- strategies ----------------------------------------------------------------


@st.composite
def instance_maps(draw, dtype=np.uint16):
    shape = draw(SHAPES)
    ids = draw(st.lists(st.integers(1, 65535), unique=True, max_size=8))
    return draw(hnp.arrays(dtype, shape, elements=st.sampled_from([0, *ids])))


@st.composite
def mask_stacks(draw, shape, min_count=0):
    """(K, H, W) bool masks, K in 0..8 (or ``min_count``..8), each with a pixel."""
    count = draw(st.integers(min_count, 8))
    masks = draw(hnp.arrays(np.bool_, (count, *shape)))
    for k in range(count):
        masks[k].flat[draw(st.integers(0, masks[k].size - 1))] = True
    return masks


@st.composite
def disjoint_stacks(draw, shape):
    """(K, H, W) bool masks with no pixel in two masks, K in 0..8 (at most
    H*W), each with a pixel."""
    count = draw(st.integers(0, min(8, shape[0] * shape[1])))
    labels = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, count)))
    own = draw(st.permutations(range(labels.size)))[:count]
    labels.flat[own] = np.arange(1, count + 1)
    return labels == np.arange(1, count + 1)[:, None, None]


@st.composite
def overlapping_stacks(draw, shape):
    """(K, H, W) bool masks, K in 2..8, the first two sharing a pixel."""
    masks = draw(mask_stacks(shape, min_count=2))
    shared = draw(st.integers(0, masks[0].size - 1))
    masks[0].flat[shared] = masks[1].flat[shared] = True
    return masks


# -- id set, masks() ---------------------------------------------------------


@FUZZ
@given(instance_maps(np.uint16) | instance_maps(np.int64),
       st.lists(st.integers(1, 65535), unique=True, max_size=8), st.booleans())
def test_id_set_matches_unique(instance_map, extra_ids, exact_table):
    present = oracle_ids(instance_map)
    table_ids = present if exact_table else set(extra_ids)
    ranks = {i: r for r, i in enumerate(sorted(table_ids), start=1)}
    if table_ids == present:
        annotation = RankAnnotation(instance_map=instance_map, ranks=ranks)
        assert annotation.instance_map.dtype == np.uint16
        assert np.array_equal(annotation.instance_map, instance_map)
    else:
        message = (f"instance map ids {sorted(present)} do not match "
                   f"rank table ids {sorted(table_ids)}")
        with pytest.raises(AnnotationError) as caught:
            RankAnnotation(instance_map=instance_map, ranks=ranks)
        assert str(caught.value) == message


@FUZZ
@given(hnp.arrays(np.float64, SHAPES))
def test_float_maps_load_exactly_or_fail_validation(instance_map):
    present = set(instance_map[np.isfinite(instance_map)].tolist()) - {0}
    ranks = {int(i): r for r, i in enumerate(sorted(present), start=1) if i == int(i)}
    try:
        annotation = RankAnnotation(instance_map=instance_map, ranks=ranks)
    except AnnotationError:
        return
    assert np.array_equal(annotation.instance_map, instance_map)


@FUZZ
@given(instance_maps(np.uint16))
def test_masks_match_int64_comparison(instance_map):
    ids = sorted(oracle_ids(instance_map))
    annotation = RankAnnotation(instance_map=instance_map,
                                ranks={i: r for r, i in enumerate(ids, start=1)})
    masks = annotation.masks()
    expected = oracle_masks(instance_map, ids)
    assert masks.dtype == np.bool_ and masks.shape == expected.shape
    assert np.array_equal(masks, expected)


# -- FrameMatch.pairs --------------------------------------------------------------


@FUZZ
@given(st.data(), st.sampled_from([0.1, 0.5, 0.75, 1.0]) | st.floats(0.01, 1.0))
def test_pairs_match_bool_iou(data, iou_threshold):
    shape = data.draw(SHAPES)
    gt = data.draw(mask_stacks(shape, min_count=1))
    pred = data.draw(mask_stacks(shape, min_count=1))
    assert FrameMatch(gt, pred, iou_threshold).pairs == oracle_match(gt, pred, iou_threshold)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (7, 9), (5, 13)])
def test_empty_instance_named_whatever_the_padding(shape):
    full = np.ones((1, *shape), dtype=bool)
    with_empty = np.concatenate([full, np.zeros((1, *shape), dtype=bool)])
    with pytest.raises(ValueError, match="predicted instance 1 has no foreground pixels"):
        FrameMatch(full, with_empty)
    with pytest.raises(ValueError, match="ground-truth instance 1 has no foreground pixels"):
        FrameMatch(with_empty, full)


# -- render_rank_map ---------------------------------------------------------------


@FUZZ
@given(st.data())
def test_render_matches_boolean_index_painter(data):
    masks = data.draw(mask_stacks(data.draw(SHAPES)))
    # Ranks repeat (ties paint in index order) and may fall outside 1..K,
    # where neither painter paints.
    ranks = np.array(data.draw(st.lists(st.integers(0, len(masks) + 1),
                                        min_size=len(masks), max_size=len(masks))),
                     dtype=np.int64)
    assert render_rank_map(masks, ranks).tobytes() == oracle_render(masks, ranks).tobytes()


@FUZZ
@given(st.data())
def test_painted_mae_matches_oracle_maps(data):
    shape = data.draw(SHAPES)
    gt = data.draw(mask_stacks(shape, min_count=1))
    pred = data.draw(mask_stacks(shape, min_count=1))
    gt_ranks = np.array(data.draw(st.permutations(range(1, len(gt) + 1))))
    pred_ranks = np.array(data.draw(st.lists(st.integers(1, len(pred)),
                                             min_size=len(pred), max_size=len(pred))))
    _, error = FrameMatch(gt, pred).score(gt_ranks, pred_ranks)
    painted = oracle_render(pred, pred_ranks), oracle_render(gt, gt_ranks)
    assert error == float(np.abs(painted[0] - painted[1]).mean())


# -- FrameMatch --------------------------------------------------------------------


def assert_scores_as_painted(data, gt, pred):
    gt_ranks = np.array(data.draw(st.permutations(range(1, len(gt) + 1))), dtype=np.int64)
    match = FrameMatch(gt, pred)
    # Two rankings of the same masks: the prepared match is not used up.
    for _ in range(2):
        # Predicted ranks may repeat and fall outside 1..K, where nothing is painted.
        pred_ranks = np.array(data.draw(st.lists(st.integers(0, len(pred) + 1),
                                                 min_size=len(pred), max_size=len(pred))),
                              dtype=np.int64)
        assert_matches_oracles(match.score(gt_ranks, pred_ranks), gt, gt_ranks, pred, pred_ranks,
                               match=oracle_match)
    return match


@FUZZ
@given(st.data())
def test_frame_match_scores_disjoint_stacks_as_painted(data):
    shape = data.draw(SHAPES)
    gt = data.draw(disjoint_stacks(shape))
    pred = data.draw(disjoint_stacks(shape) | st.just(gt))
    match = assert_scores_as_painted(data, gt, pred)
    assert match.masks is None  # the per-pixel code route


@FUZZ
@given(st.data())
def test_frame_match_scores_overlapping_stacks_as_painted(data):
    shape = data.draw(SHAPES)
    overlapping = overlapping_stacks(shape)
    either = disjoint_stacks(shape) | mask_stacks(shape)
    gt, pred = data.draw(st.sampled_from([(overlapping, either), (either, overlapping)]))
    match = assert_scores_as_painted(data, data.draw(gt), data.draw(pred))
    assert match.masks is not None  # the painting route


def test_frame_match_rejects_ranks_of_another_count():
    masks = np.eye(3, dtype=bool)[:, None, :]
    match = FrameMatch(masks, masks[:2])
    with pytest.raises(ShapeError, match="^2 masks for 3 ranks$"):
        match.score([1, 2, 3], [1, 2, 3])
    with pytest.raises(ShapeError, match="^3 masks for 2 ranks$"):
        match.score([1, 2], [1, 2])
    with pytest.raises(ValueError, match="not a permutation"):
        match.score([1, 1, 2], [1, 2])


def crowded_eval_set():
    return build_dataset(SynthConfig(K_range=(2, 7), frame_resolution=(56, 44)), 6, seed=31)


def test_evaluate_is_the_same_on_every_call_and_on_equal_samples():
    config = ModelConfig(variant="full")
    params = init_model_params(config.C, config.H, config.W, seed=3)
    head = params.scoring.score_head.weight
    head.data[...] = np.random.default_rng(4).standard_normal(head.shape)
    eval_set = crowded_eval_set()
    first = evaluate(params, config, eval_set)
    assert first.sa_sor is not None and first.mae > 0.0 and first.frame_count == 18
    assert evaluate(params, config, eval_set) == first
    assert evaluate(params, config, crowded_eval_set()) == first


# -- downsample_mask ----------------------------------------------------------------


MASK_DTYPES = st.sampled_from([np.bool_, np.uint8, np.uint16, np.int64, np.float32, np.float64])


@FUZZ
@given(st.data(), MASK_DTYPES)
def test_downsample_matches_converting_first(data, dtype):
    # Stacks of rank 2 to 4, including empty ones, resized down, up or to
    # their own size.
    lead = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    in_hw = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=20))
    out_h, out_w = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
    # Finite samples: a weight of 0 times inf raises an invalid-value warning.
    finite = {"allow_nan": False, "allow_infinity": False}
    mask = data.draw(hnp.arrays(dtype, lead + in_hw,
                                elements=finite if np.dtype(dtype).kind == "f" else None))
    got = downsample_mask(mask, out_h, out_w)
    expected = resize_converting_first(mask, out_h, out_w)
    assert got.dtype == np.float64 and got.shape == lead + (out_h, out_w)
    assert got.tobytes() == expected.tobytes()
