"""Command-line interface: evaluation, statistics, synthesis, training,
gradient verification.

Reports go to stdout as JSON; diagnostics go to stderr.  Exit codes: 0 on
success, 1 on validation failure (malformed input, or an OS error such as a
missing file or a directory where a file belongs), 2 on unexpected runtime
errors.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .dataset import (
    SynthConfig,
    compute_stats,
    compute_video_stats,
    list_sequences,
    load_annotations,
    read_text,
    save_sequence,
    synth_generate,
)
from .gradcheck import run_suite
from .metrics import FrameMatch, render_rank_map
from .model import VARIANTS, save_model_params
from .pgm import write_pgm16
from .trainer import ModelConfig, build_dataset, summarize, train

__all__ = ["main"]


class CliError(Exception):
    """Input validation failure; maps to exit code 1."""


def _emit(payload) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


# -- config files -------------------------------------------------------------


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config_file(path) -> dict:
    """Read a config as JSON (leading '{') or line-based key=value pairs."""
    return read_text(path, lambda content: _parse_config(path, content))


def _parse_config(path, content: str) -> dict:
    if content.lstrip().startswith("{"):
        return json.loads(content)  # text that starts with "{" parses to an object or fails
    config = {}
    for line_no, line in enumerate(content.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        # A directory name is text even when it reads as a number.
        config[key] = value if key == "out_dir" else _parse_scalar(value)
    return config


# Generator keys: SynthConfig's fields with K_range and frame_resolution split in two.
_SYNTH_KEYS = ("T", "C", "H", "W", "K_min", "K_max", "frame_height", "frame_width",
               "rank_swap_prob", "noise_level")
_TRAIN_KEYS = ({f.name for f in fields(ModelConfig)} | set(_SYNTH_KEYS)
               | {"train_sequences", "eval_sequences", "out_dir"})


def _settings(args, keys) -> dict:
    """``--config`` contents checked against ``keys``, with every given flag on top."""
    settings = load_config_file(args.config) if args.config else {}
    if "rank_loss.margin" in settings and "margin" in keys:
        settings.setdefault("margin", settings.pop("rank_loss.margin"))
    unknown = sorted(set(settings) - set(keys))
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _integer(settings: dict, key, fallback) -> int:
    value = settings.get(key, fallback)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _synth_config(settings: dict) -> SynthConfig:
    """The generator config; keys absent from ``settings`` keep SynthConfig's defaults.

    SynthConfig checks its own field types; the split pair keys are checked
    here so that their messages name the key.
    """
    default = SynthConfig()
    try:
        return SynthConfig(
            **{f.name: settings[f.name] for f in fields(SynthConfig) if f.name in settings},
            K_range=(_integer(settings, "K_min", default.K_range[0]),
                     _integer(settings, "K_max", default.K_range[1])),
            frame_resolution=(_integer(settings, "frame_height", default.frame_resolution[0]),
                              _integer(settings, "frame_width", default.frame_resolution[1])),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad generator config: {exc}")


# -- subcommands ---------------------------------------------------------------


def _eval_frame(name, idx, gt_ann, pred_ann, iou_threshold):
    match = FrameMatch(gt_ann.masks(), pred_ann.masks(), iou_threshold)
    correlation, error = match.score(gt_ann.ranks_in_id_order(), pred_ann.ranks_in_id_order())
    return {
        "sequence": name,
        "frame": idx,
        "sa_sor": correlation,
        "mae": error,
    }


def cmd_eval(args) -> int:
    if not 0.0 < args.iou <= 1.0:  # also false for NaN
        raise CliError(f"--iou must be in (0, 1], got {args.iou}")
    sequences = list_sequences(args.gt)
    if not sequences:
        raise CliError(f"{args.gt}: no sequences found")
    tasks = []
    missing = []
    for name in sequences:
        gt_frames = load_annotations(os.path.join(args.gt, name))
        pred_dir = os.path.join(args.pred, name)
        pred_frames = (dict(load_annotations(pred_dir))
                       if os.path.isfile(os.path.join(pred_dir, "manifest.json")) else {})
        for idx, gt_ann in gt_frames:
            if idx not in pred_frames:
                missing.append((name, idx))
                continue
            pred_ann = pred_frames[idx]
            if pred_ann.instance_map.shape != gt_ann.instance_map.shape:
                pred_path = os.path.join(pred_dir, "frames", f"{idx}.pgm")
                raise CliError(f"{name}/{idx}: prediction {pred_path} has shape "
                               f"{pred_ann.instance_map.shape}, ground truth "
                               f"{gt_ann.instance_map.shape}")
            tasks.append((name, idx, gt_ann, pred_ann))
    if missing:
        listed = ", ".join(f"{name}/{idx}" for name, idx in sorted(missing))
        raise CliError(f"missing predictions for frames: {listed}")

    tasks.sort(key=lambda task: (task[0], task[1]))
    frames = [_eval_frame(*task, args.iou) for task in tasks]

    if args.dump_maps:
        os.makedirs(args.dump_maps, exist_ok=True)
        for name, idx, gt_ann, pred_ann in tasks:
            for tag, ann in (("gt", gt_ann), ("pred", pred_ann)):
                path = os.path.join(args.dump_maps, f"{name}_{idx}_{tag}.pgm")
                rank_map = render_rank_map(ann.masks(), ann.ranks_in_id_order())
                write_pgm16(path, np.round(rank_map * 65535).astype(np.uint16))

    result = summarize((f["sa_sor"], f["mae"]) for f in frames)
    aggregate = {
        "sa_sor": result.sa_sor,
        "sa_sor_undefined_count": result.undefined_count,
        "mae": result.mae,
        "frame_count": result.frame_count,
    }
    _emit({"frames": frames, "aggregate": aggregate})
    return 0


def cmd_stats(args) -> int:
    sequences = list_sequences(args.data)
    if not sequences:
        raise CliError(f"{args.data}: no sequences found")
    per_sequence = []
    for name in sequences:
        path = os.path.join(args.data, name)
        annotations = [ann for _, ann in load_annotations(path)]
        if args.per == "video" and not annotations:
            raise CliError(f"{os.path.join(path, 'manifest.json')}: the sequence lists no frames")
        per_sequence.append(annotations)
    if args.per == "video":
        stats = compute_video_stats(per_sequence)
    else:
        frames = [ann for seq in per_sequence for ann in seq]
        if not frames:
            raise CliError(f"{args.data}: no sequence lists a frame")
        stats = compute_stats(frames)
    payload = asdict(stats)
    payload["per"] = args.per
    _emit(payload)
    return 0


def cmd_synth(args) -> int:
    if args.sequences < 1:
        raise CliError(f"--sequences must be positive, got {args.sequences}")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    synth = _synth_config(_settings(args, _SYNTH_KEYS))

    os.makedirs(args.out, exist_ok=True)
    names = []
    for i in range(args.sequences):
        sample = synth_generate(synth, args.seed + i)
        name = f"seq_{i:04d}"
        save_sequence(os.path.join(args.out, name), sample)
        names.append(name)
    _emit({"out": args.out, "seed": args.seed, "sequences": names})
    return 0


def _check_out_dir(path: str) -> None:
    """Fail unless ``path`` is a directory or can be made one: the nearest
    existing path among it and its ancestors must be a directory."""
    probe = path
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe and not os.path.isdir(probe):
        raise CliError(f"out_dir {path!r}: {probe!r} exists and is not a directory")


def cmd_train(args) -> int:
    settings = _settings(args, _TRAIN_KEYS)
    try:
        model_config = ModelConfig(**{f.name: settings[f.name]
                                      for f in fields(ModelConfig) if f.name in settings})
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad model config: {exc}")
    synth_config = _synth_config({**settings, "C": model_config.C,
                                  "H": model_config.H, "W": model_config.W})
    train_sequences = _integer(settings, "train_sequences", 200)
    eval_sequences = _integer(settings, "eval_sequences", 50)
    if train_sequences < 1 or eval_sequences < 1:
        raise CliError("train_sequences and eval_sequences must be positive")
    params_dir = settings.get("out_dir")
    if params_dir is not None and not isinstance(params_dir, str):
        raise CliError(f"out_dir must be a string, got {params_dir!r}")
    if params_dir:
        _check_out_dir(params_dir)

    train_set = build_dataset(synth_config, train_sequences, seed=model_config.seed)
    eval_set = build_dataset(synth_config, eval_sequences,
                             seed=model_config.seed + 1_000_003)
    params, report = train(model_config, train_set, eval_set)

    params_dir = params_dir or None
    if params_dir:
        save_model_params(params_dir, params, model_config)

    _emit({
        "variant": model_config.variant,
        "iterations": model_config.iterations,
        "train_sequences": train_sequences,
        "eval_sequences": eval_sequences,
        "loss_curve": report.loss_curve,
        "eval_sa_sor": report.eval_sa_sor,
        "eval_mae": report.eval_mae,
        "eval_undefined_count": report.eval_undefined_count,
        "wall_clock_s": report.wall_clock_s,
        "params_dir": params_dir,
    })
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    results = run_suite(seed=args.seed, corrupt=args.corrupt)
    all_passed = all(r.passed for r in results)
    _emit({
        "checks": [asdict(r) for r in results],
        "all_passed": all_passed,
    })
    if not all_passed:
        print("gradient checks failed", file=sys.stderr)
        return 1
    return 0


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsorank",
        description="Video saliency ranking toolkit: evaluate, analyze, synthesize, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score predicted rank annotations against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth dataset directory")
    p.add_argument("--pred", required=True, help="predicted dataset directory")
    p.add_argument("--iou", type=float, default=0.5, help="instance matching IoU threshold")
    p.add_argument("--dump-maps", default=None, metavar="DIR",
                   help="also write rank maps as 16-bit PGM files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="object-count statistics of a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--per", choices=("frame", "video"), default="frame")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate synthetic sequences")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sequences", type=int, default=1, help="number of sequences")
    p.add_argument("--config", default=None, help="generator config file (JSON or key=value)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on synthetic sequences and report metrics")
    p.add_argument("--config", default=None, help="config file (JSON or key=value)")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--C", type=int, default=None)
    p.add_argument("--H", type=int, default=None)
    p.add_argument("--W", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--train-sequences", type=int, default=None)
    p.add_argument("--eval-sequences", type=int, default=None)
    p.add_argument("--noise-level", type=float, default=None)
    p.add_argument("--rank-swap-prob", type=float, default=None)
    p.add_argument("--out-dir", default=None, help="where to save trained parameters")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference checks of a training step's gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: skew every checked gradient by 0.1%%, so every check fails")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last-resort diagnostic; includes divergence
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
