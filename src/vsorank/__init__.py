"""Video saliency ranking toolkit.

Scores and ranks the salient objects of short video sequences from per-object
features: a per-frame relation attention stage, a cross-frame attention stage,
a pairwise margin ranking loss, rank-correlation / pixel-error metrics, a
portable rank-annotation format, and a synthetic training harness.
"""

from .autodiff import ShapeError, Tensor, grad_check
from .dataset import (
    AnnotationError,
    DatasetStats,
    FrameSample,
    RankAnnotation,
    SequenceSample,
    SynthConfig,
    compute_stats,
    compute_video_stats,
    load_annotation,
    save_annotation,
    synth_generate,
)
from .losses import RankTarget, rank_loss
from .metrics import FrameMatch, pearson, render_rank_map
from .model import ModelParams, init_model_params, model_forward, model_scores
from .pgm import PgmError, read_pgm16, write_pgm16
from .spatial import EmptyFrameError, SpatialParams, spatial_params_init
from .temporal import ScoringParams, TemporalParams, rank_assign
from .trainer import EvalResult, ModelConfig, TrainReport, build_dataset, evaluate, train

__version__ = "0.1.0"
