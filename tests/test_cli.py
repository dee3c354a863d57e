"""Command-line behavior: JSON output, exit codes, determinism, golden values."""

import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from vsorank import cli
from vsorank.cli import main
from vsorank.dataset import (
    RankAnnotation,
    SynthConfig,
    read_tensor_file,
    save_annotations,
    synth_generate,
)
from vsorank.metrics import FrameMatch
from vsorank.model import init_model_params, model_forward
from vsorank.pgm import read_pgm16, write_pgm16
from vsorank.trainer import ModelConfig, TrainingDiverged, TrainReport, build_dataset, evaluate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def dataset_dir(tmp_path, capsys):
    out = tmp_path / "data"
    payload = run_json(capsys, "synth", "--out", str(out), "--sequences", "2", "--seed", "3")
    assert payload["sequences"] == ["seq_0000", "seq_0001"]
    return out


@pytest.fixture()
def no_training(monkeypatch):
    """Fails a ``vsorank train`` run that gets as far as training."""
    def train(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", train)


class TestSynth:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_json(capsys, "synth", "--out", str(a), "--sequences", "1", "--seed", "9")
        run_json(capsys, "synth", "--out", str(b), "--sequences", "1", "--seed", "9")
        map_a = read_pgm16(a / "seq_0000" / "frames" / "0.pgm")
        map_b = read_pgm16(b / "seq_0000" / "frames" / "0.pgm")
        assert np.array_equal(map_a, map_b)
        bin_a = (a / "seq_0000" / "features" / "0.bin").read_bytes()
        bin_b = (b / "seq_0000" / "features" / "0.bin").read_bytes()
        assert bin_a == bin_b

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("T=2\nK_min=2\nK_max=2\nnoise_level=0\n", encoding="utf-8")
        out = tmp_path / "d"
        run_json(capsys, "synth", "--out", str(out), "--sequences", "1",
                 "--config", str(cfg), "--seed", "0")
        stats = run_json(capsys, "stats", "--data", str(out), "--per", "frame")
        assert stats["frame_count"] == 2
        assert stats["count_histogram"][1] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("objects=3\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                               "--config", str(cfg))
        assert code == 1
        assert "objects" in err

    def test_inseparable_object_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("K_max=8\nframe_height=128\nframe_width=128\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                               "--config", str(cfg))
        assert code == 1
        assert "bad generator config" in err and "8 saliency levels" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_sequence_count_rejected(self, tmp_path, capsys, count):
        code, out, err = run_cli(capsys, "synth", "--out", str(tmp_path / "d"),
                                 "--sequences", count)
        assert code == 1 and out == ""
        assert "--sequences" in err

    def test_negative_seed_rejected_before_the_directory_is_made(self, tmp_path, capsys):
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, "synth", "--out", str(out_dir), "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")
        assert not out_dir.exists()


class TestStats:
    def test_frame_and_video_views(self, dataset_dir, capsys):
        frame_stats = run_json(capsys, "stats", "--data", str(dataset_dir))
        assert frame_stats["per"] == "frame"
        assert frame_stats["frame_count"] == 6
        assert sum(frame_stats["count_histogram"]) == pytest.approx(1.0)
        video_stats = run_json(capsys, "stats", "--data", str(dataset_dir), "--per", "video")
        assert video_stats["per"] == "video"
        assert video_stats["frame_count"] == 2

    def test_invalid_annotation_reports_path(self, tmp_path, capsys):
        sample = synth_generate(SynthConfig(), 0)
        save_annotations(tmp_path / "seq_0000", sample.annotations)
        ranks_path = tmp_path / "seq_0000" / "ranks" / "0.json"
        ranks_path.write_text('{"ranks": {"1": 1, "2": 2, "3": 5}}', encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", "--data", str(tmp_path))
        assert code == 1
        assert "permutation" in err and "0.json" in err

    def test_empty_directory_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "stats", "--data", str(tmp_path))
        assert code == 1
        assert "no sequences" in err

    @staticmethod
    def _list_no_frames(dataset_dir, name):
        manifest = dataset_dir / name / "manifest.json"
        manifest.write_text(json.dumps({"frames": [], "seed": 0}), encoding="utf-8")
        return manifest

    def test_sequence_without_frames_names_its_manifest(self, dataset_dir, capsys):
        manifest = self._list_no_frames(dataset_dir, "seq_0001")
        code, out, err = run_cli(capsys, "stats", "--data", str(dataset_dir), "--per", "video")
        assert code == 1 and out == ""
        assert f"error: {manifest}: the sequence lists no frames" in err
        # Per frame, the other sequence's frames are still counted.
        assert run_json(capsys, "stats", "--data", str(dataset_dir))["frame_count"] == 3

    def test_data_set_without_frames_names_its_directory(self, dataset_dir, capsys):
        for name in ("seq_0000", "seq_0001"):
            self._list_no_frames(dataset_dir, name)
        code, out, err = run_cli(capsys, "stats", "--data", str(dataset_dir))
        assert code == 1 and out == ""
        assert f"error: {dataset_dir}: no sequence lists a frame" in err


class TestEval:
    def test_self_evaluation_is_perfect(self, dataset_dir, capsys):
        payload = run_json(capsys, "eval", "--gt", str(dataset_dir),
                           "--pred", str(dataset_dir))
        assert payload["aggregate"]["sa_sor"] == 1.0
        assert payload["aggregate"]["mae"] == 0.0
        assert payload["aggregate"]["sa_sor_undefined_count"] == 0
        assert len(payload["frames"]) == 6

    def test_known_fixture_metrics(self, tmp_path, capsys):
        # Two 3-object frames: one predicted perfectly, one with fully
        # reversed ranks; transposed maps differ on 24 of 36 pixels by 0.5.
        instance_map = np.zeros((6, 6), dtype=np.uint16)
        instance_map[0:2, :] = 1
        instance_map[2:4, :] = 2
        instance_map[4:6, :] = 3
        gt = [
            RankAnnotation(instance_map=instance_map, ranks={1: 1, 2: 2, 3: 3}),
            RankAnnotation(instance_map=instance_map, ranks={1: 1, 2: 2, 3: 3}),
        ]
        pred = [
            RankAnnotation(instance_map=instance_map, ranks={1: 1, 2: 2, 3: 3}),
            RankAnnotation(instance_map=instance_map, ranks={1: 3, 2: 2, 3: 1}),
        ]
        save_annotations(tmp_path / "gt" / "seq_0000", gt)
        save_annotations(tmp_path / "pred" / "seq_0000", pred)
        payload = run_json(capsys, "eval", "--gt", str(tmp_path / "gt"),
                           "--pred", str(tmp_path / "pred"))
        by_frame = {f["frame"]: f for f in payload["frames"]}
        assert by_frame[0]["sa_sor"] == 1.0
        assert by_frame[0]["mae"] == 0.0
        assert by_frame[1]["sa_sor"] == -1.0
        expected_mae = (12 * (2 / 3) + 12 * 0.0 + 12 * (2 / 3)) / 36
        assert by_frame[1]["mae"] == pytest.approx(expected_mae, abs=1e-12)
        assert payload["aggregate"]["sa_sor"] == 0.0
        assert payload["aggregate"]["mae"] == pytest.approx(expected_mae / 2, abs=1e-12)

    def test_iou_threshold_reaches_the_matching(self, tmp_path, capsys):
        # Three stripes; the prediction swaps the two upper ranks and covers
        # a third of the lowest stripe (IoU 1/3), so it matches there only
        # at threshold 0.3.
        gt_map = np.repeat(np.arange(1, 4, dtype=np.uint16), 12).reshape(6, 6)
        pred_map = gt_map.copy()
        pred_map[4:6, 2:] = 0
        gt = RankAnnotation(instance_map=gt_map, ranks={1: 1, 2: 2, 3: 3})
        pred = RankAnnotation(instance_map=pred_map, ranks={1: 2, 2: 1, 3: 3})
        save_annotations(tmp_path / "gt" / "seq_0000", [gt])
        save_annotations(tmp_path / "pred" / "seq_0000", [pred])
        got = {}
        for iou in (0.3, 0.5):
            payload = run_json(capsys, "eval", "--gt", str(tmp_path / "gt"),
                               "--pred", str(tmp_path / "pred"), "--iou", str(iou))
            got[iou] = payload["frames"][0]["sa_sor"]
            match = FrameMatch(gt.masks(), pred.masks(), iou)
            assert got[iou] == match.score(gt.ranks_in_id_order(), pred.ranks_in_id_order())[0]
        assert got[0.3] != got[0.5]

    def test_missing_frames_listed(self, tmp_path, dataset_dir, capsys):
        pred = tmp_path / "pred"
        sample = synth_generate(SynthConfig(), 3)
        save_annotations(pred / "seq_0000", sample.annotations)
        code, _, err = run_cli(capsys, "eval", "--gt", str(dataset_dir),
                               "--pred", str(pred))
        assert code == 1
        assert "seq_0001" in err

    def test_missing_frame_and_missing_sequence_listed_together(self, tmp_path, capsys):
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        for out in (gt, pred):
            run_json(capsys, "synth", "--out", str(out), "--sequences", "3", "--seed", "5")
        manifest = pred / "seq_0002" / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["frames"].remove(1)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        shutil.rmtree(pred / "seq_0000")
        code, out, err = run_cli(capsys, "eval", "--gt", str(gt), "--pred", str(pred))
        assert code == 1 and out == ""
        assert err == ("error: missing predictions for frames: "
                       "seq_0000/0, seq_0000/1, seq_0000/2, seq_0002/1\n")

    def test_gt_without_sequences_fails(self, tmp_path, dataset_dir, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = run_cli(capsys, "eval", "--gt", str(empty), "--pred", str(dataset_dir))
        assert code == 1 and out == ""
        assert err == f"error: {empty}: no sequences found\n"

    def test_empty_pred_dir_fails(self, tmp_path, dataset_dir, capsys):
        pred = tmp_path / "empty"
        pred.mkdir()
        code, _, err = run_cli(capsys, "eval", "--gt", str(dataset_dir),
                               "--pred", str(pred))
        assert code == 1

    def test_output_order_is_canonical(self, tmp_path, capsys):
        sample = synth_generate(SynthConfig(), 4)
        save_annotations(tmp_path / "gt" / "seq_0000", sample.annotations)
        save_annotations(tmp_path / "pred" / "seq_0000", sample.annotations)
        manifest = tmp_path / "gt" / "seq_0000" / "manifest.json"
        manifest.write_text('{"frames": [2, 0, 1], "seed": 0}', encoding="utf-8")
        payload = run_json(capsys, "eval", "--gt", str(tmp_path / "gt"),
                           "--pred", str(tmp_path / "pred"))
        assert [f["frame"] for f in payload["frames"]] == [0, 1, 2]

    def test_dump_maps_written(self, tmp_path, dataset_dir, capsys):
        dump = tmp_path / "maps"
        run_json(capsys, "eval", "--gt", str(dataset_dir), "--pred", str(dataset_dir),
                 "--dump-maps", str(dump))
        names = sorted(os.listdir(dump))
        assert "seq_0000_0_gt.pgm" in names and "seq_0000_0_pred.pgm" in names
        assert read_pgm16(dump / "seq_0000_0_gt.pgm").max() == 65535

    def test_prediction_without_objects(self, tmp_path, dataset_dir, capsys):
        for name in ("seq_0000", "seq_0001"):
            empty = RankAnnotation(instance_map=np.zeros((64, 64), dtype=np.uint16), ranks={})
            save_annotations(tmp_path / "pred" / name, [empty] * 3)
        payload = run_json(capsys, "eval", "--gt", str(dataset_dir),
                           "--pred", str(tmp_path / "pred"))
        assert all(f["sa_sor"] is None and f["mae"] > 0.0 for f in payload["frames"])
        assert payload["aggregate"]["sa_sor_undefined_count"] == 6

    @pytest.mark.parametrize("side", ["gt", "pred"])
    def test_repeated_frame_in_a_manifest_fails(self, tmp_path, dataset_dir, capsys, side):
        copy = tmp_path / "copy"
        shutil.copytree(dataset_dir, copy)
        manifest = copy / "seq_0001" / "manifest.json"
        manifest.write_text('{"frames": [0, 0, 1, 2], "seed": 0}', encoding="utf-8")
        gt, pred = (copy, dataset_dir) if side == "gt" else (dataset_dir, copy)
        code, out, err = run_cli(capsys, "eval", "--gt", str(gt), "--pred", str(pred))
        assert code == 1 and out == ""
        assert err == f"error: {manifest}: frame 0 is listed more than once\n"

    @pytest.mark.parametrize("iou, shown", [("0", "0.0"), ("-0.5", "-0.5"), ("1.5", "1.5"),
                                            ("nan", "nan"), ("inf", "inf")])
    def test_iou_outside_unit_interval_fails_before_reading(self, tmp_path, capsys, iou, shown):
        # Neither directory exists, so any read would fail with another message.
        code, out, err = run_cli(capsys, "eval", "--gt", str(tmp_path / "gt"),
                                 "--pred", str(tmp_path / "pred"), "--iou", iou)
        assert code == 1 and out == ""
        assert err == f"error: --iou must be in (0, 1], got {shown}\n"

    @pytest.mark.parametrize("iou, code", [("0", 1), ("nan", 1), ("1", 0)])
    def test_iou_checked_when_no_frame_is_scored(self, tmp_path, capsys, iou, code):
        for side in ("gt", "pred"):
            save_annotations(tmp_path / side / "seq_0000", [])
        got, out, _ = run_cli(capsys, "eval", "--gt", str(tmp_path / "gt"),
                              "--pred", str(tmp_path / "pred"), "--iou", iou)
        assert got == code
        if code == 0:
            assert json.loads(out)["aggregate"]["frame_count"] == 0

    def test_prediction_shape_mismatch_names_the_frame(self, tmp_path, dataset_dir, capsys):
        pred = tmp_path / "pred"
        shutil.copytree(dataset_dir, pred)
        path = pred / "seq_0001" / "frames" / "2.pgm"
        write_pgm16(path, np.pad(read_pgm16(path), ((0, 2), (0, 0))))
        code, _, err = run_cli(capsys, "eval", "--gt", str(dataset_dir), "--pred", str(pred))
        assert code == 1
        assert "seq_0001/2" in err and str(path) in err


class TestEvalRoutesAgree:
    """In-process ``evaluate`` and ``vsorank eval`` on the same predictions."""

    def test_saved_predictions_reproduce_evaluate(self, tmp_path, capsys):
        eval_set = build_dataset(SynthConfig(K_range=(2, 6), frame_resolution=(48, 40)), 4,
                                 seed=12)
        config = ModelConfig(variant="full")
        params = init_model_params(config.C, config.H, config.W, seed=5)
        head = params.scoring.score_head.weight
        head.data[...] = np.random.default_rng(6).standard_normal(head.shape)
        expected = evaluate(params, config, eval_set)

        for number, sample in enumerate(eval_set):
            predictions = []
            for frame, ranks in zip(sample.frames, model_forward(sample.frames, params,
                                                                 config.variant)):
                # The generator's masks never overlap, so ids can be summed in.
                ids = np.arange(1, len(frame.masks) + 1)
                instance_map = (frame.masks * ids[:, None, None]).sum(axis=0)
                predictions.append(RankAnnotation(
                    instance_map=instance_map,
                    ranks={int(i): int(r) for i, r in zip(ids, ranks)},
                ))
            name = f"seq_{number:04d}"
            save_annotations(tmp_path / "gt" / name, sample.annotations)
            save_annotations(tmp_path / "pred" / name, predictions)

        payload = run_json(capsys, "eval", "--gt", str(tmp_path / "gt"),
                           "--pred", str(tmp_path / "pred"))
        aggregate = payload["aggregate"]
        assert expected.sa_sor is not None and expected.sa_sor != 1.0
        assert aggregate["sa_sor"] == expected.sa_sor
        assert aggregate["mae"] == expected.mae
        assert aggregate["sa_sor_undefined_count"] == expected.undefined_count
        assert aggregate["frame_count"] == expected.frame_count


class TestTrain:
    def test_report_and_saved_params(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "variant=full\niterations=40\ntrain_sequences=6\neval_sequences=2\n"
            "noise_level=0\nrank_loss.margin=0.5\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "run"
        payload = run_json(capsys, "train", "--config", str(cfg),
                           "--out-dir", str(out_dir))
        assert payload["variant"] == "full"
        assert len(payload["loss_curve"]) == 40
        assert (out_dir / "params.json").is_file()

    def test_json_config_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "variant": "basic", "iterations": 5, "train_sequences": 4,
            "eval_sequences": 2, "noise_level": 0.0,
        }), encoding="utf-8")
        payload = run_json(capsys, "train", "--config", str(cfg), "--variant", "spatial")
        assert payload["variant"] == "spatial"
        assert payload["iterations"] == 5

    def test_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "iterations=15\ntrain_sequences=4\neval_sequences=2\nnoise_level=0\nseed=2\n",
            encoding="utf-8",
        )
        a = run_json(capsys, "train", "--config", str(cfg))
        b = run_json(capsys, "train", "--config", str(cfg))
        assert a["loss_curve"] == b["loss_curve"]
        assert a["eval_sa_sor"] == b["eval_sa_sor"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("optimizer=adam\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1 and "optimizer" in err

    def test_numeric_out_dir_names_a_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("iterations=2\ntrain_sequences=2\neval_sequences=1\nout_dir=2024\n",
                       encoding="utf-8")
        payload = run_json(capsys, "train", "--config", str(cfg))
        assert payload["params_dir"] == "2024"
        assert (tmp_path / "2024" / "params.json").is_file()

    @pytest.mark.parametrize("value", [True, False, 2024, 0, 1.5, ["run"], {"dir": "run"}],
                             ids=["true", "false", "2024", "0", "1.5", "array", "object"])
    def test_non_string_out_dir_fails_before_training(self, tmp_path, capsys, no_training,
                                                      value):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train_sequences": 1, "eval_sequences": 1,
                                   "out_dir": value}), encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "out_dir must be a string" in err

    @pytest.mark.parametrize("out_dir", ["afile", "afile/run", "afile/"],
                             ids=["is-a-file", "parent-is-a-file", "trailing-slash"])
    def test_out_dir_blocked_by_a_file_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch, no_training, out_dir):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--train-sequences", "1",
                                 "--eval-sequences", "1", "--out-dir", out_dir)
        assert code == 1 and out == ""
        assert f"out_dir {out_dir!r}" in err and "'afile' exists and is not a directory" in err
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("flag", ["--train-sequences", "--eval-sequences"])
    def test_zero_sequences_fails_before_training(self, capsys, no_training, flag):
        code, out, err = run_cli(capsys, "train", flag, "0")
        assert code == 1 and out == ""
        assert "train_sequences and eval_sequences must be positive" in err

    def test_negative_seed_fails_before_training(self, capsys, no_training):
        code, out, err = run_cli(capsys, "train", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: bad model config: seed must be non-negative, got -1\n"

    def test_divergence_exits_2(self, capsys, monkeypatch):
        def train(*args):
            raise TrainingDiverged("non-finite loss nan at iteration 3")

        monkeypatch.setattr(cli, "train", train)
        code, out, err = run_cli(capsys, "train", "--train-sequences", "1",
                                 "--eval-sequences", "1")
        assert code == 2 and out == ""
        assert err == "unexpected error: TrainingDiverged: non-finite loss nan at iteration 3\n"

    def test_diverging_run_prints_one_line(self, capsys):
        """numpy's overflow on the way to a non-finite loss prints nothing."""
        code, out, err = run_cli(capsys, "train", "--learning-rate", "50",
                                 "--train-sequences", "4", "--eval-sequences", "1")
        assert code == 2 and out == ""
        assert re.fullmatch(r"unexpected error: TrainingDiverged: non-finite loss \S+ at "
                            r"iteration \d+ \(variant=full, lr=50\.0\)\n", err), err


# A run small enough to finish fast wherever a bad setting is not caught.
_SMALL_RUN = "iterations=5\ntrain_sequences=3\neval_sequences=2"


class TestSettings:
    """One reader for ``synth`` and ``train`` settings: file, alias, flags."""

    def test_empty_settings_give_generator_defaults(self):
        assert cli._synth_config({}) == SynthConfig()

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# a comment\n\nT = 4\n   \n  # indented\nnoise_level=0.5 # kept\n",
                       encoding="utf-8")
        assert cli.load_config_file(cfg) == {"T": 4, "noise_level": "0.5 # kept"}

    def test_readme_config_gives_the_defaults(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
        assert "\n\n" in block and "\n#" in block
        cfg = tmp_path / "train.cfg"
        cfg.write_text(block, encoding="utf-8")
        seen = {}

        def fake_build_dataset(synth_config, count, seed):
            seen.setdefault("synth", []).append((synth_config, count))
            return []

        def fake_train(config, train_set, eval_set):
            seen["model"] = config
            return None, TrainReport([], None, 0.0, 0, 0.0)

        monkeypatch.setattr(cli, "build_dataset", fake_build_dataset)
        monkeypatch.setattr(cli, "train", fake_train)
        payload = run_json(capsys, "train", "--config", str(cfg))
        assert seen == {"synth": [(SynthConfig(), 200), (SynthConfig(), 50)],
                        "model": ModelConfig()}
        assert payload["params_dir"] is None

    @pytest.mark.parametrize("content, line_no, line", [
        pytest.param("T=3\nno equals sign\n", 2, "no equals sign", id="plain-text"),
        pytest.param("[1, 2]\n", 1, "[1, 2]", id="json-array"),
    ])
    def test_line_without_equals_sign_rejected(self, tmp_path, capsys, content, line_no, line):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(content, encoding="utf-8")
        out_dir = tmp_path / "d"
        code, out, err = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:{line_no}: expected key=value, got {line!r}\n"
        assert not out_dir.exists()

    def test_flags_beat_file_and_file_margin_beats_alias(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "variant=basic\nlearning_rate=0.1\nT=2\nC=4\nmargin=0.3\nrank_loss.margin=0.9\n"
            "K_min=2\nK_max=5\nframe_height=48\nnoise_level=0\n",
            encoding="utf-8",
        )
        seen = {}

        def fake_build_dataset(synth_config, count, seed):
            seen["synth"] = synth_config
            return []

        def fake_train(config, train_set, eval_set):
            seen["model"] = config
            return None, TrainReport([], None, 0.0, 0, 0.0)

        monkeypatch.setattr(cli, "build_dataset", fake_build_dataset)
        monkeypatch.setattr(cli, "train", fake_train)
        run_json(capsys, "train", "--config", str(cfg),
                 "--learning-rate", "0.5", "--T", "4", "--C", "8")
        assert seen["model"] == ModelConfig(variant="basic", C=8, margin=0.3, learning_rate=0.5)
        assert seen["synth"] == SynthConfig(T=4, C=8, K_range=(2, 5),
                                            frame_resolution=(48, 64), noise_level=0.0)

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("line, key", [
        ("K_range=3,5", "K_range"),
        ("frame_resolution=64,64", "frame_resolution"),
        ("objects=3", "objects"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, line, key):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        extra = ["--out", str(tmp_path / "d")] if command == "synth" else []
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *extra)
        assert code == 1
        assert f"unknown config keys: {key}" in err

    @pytest.mark.parametrize("key", ["T", "C", "H", "W", "K_min", "K_max",
                                     "frame_height", "frame_width"])
    @pytest.mark.parametrize("content", [
        pytest.param("{key}=4.9\n", id="float"),
        pytest.param('{{"{key}": true}}', id="bool"),
    ])
    def test_non_integer_generator_value_rejected(self, tmp_path, capsys, key, content):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(content.format(key=key), encoding="utf-8")
        out = tmp_path / "d"
        code, _, err = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert f"bad generator config: {key} must be an integer" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        pytest.param("C=8.5", "bad model config: C must be an integer", id="C"),
        pytest.param("H=true", "bad model config: H must be an integer", id="H"),
        pytest.param("iterations=2.5", "bad model config: iterations must be an integer",
                     id="iterations"),
        pytest.param("seed=1.0", "bad model config: seed must be an integer", id="seed"),
        pytest.param("T=2.5", "bad generator config: T must be an integer", id="T"),
        pytest.param("train_sequences=2.5", "train_sequences must be an integer, got 2.5",
                     id="train_sequences"),
        pytest.param("eval_sequences=1.9", "eval_sequences must be an integer, got 1.9",
                     id="eval_sequences"),
        pytest.param('{"train_sequences": true}', "train_sequences must be an integer, got True",
                     id="train_sequences-bool"),
        pytest.param('{"eval_sequences": false}', "eval_sequences must be an integer, got False",
                     id="eval_sequences-bool"),
    ])
    def test_non_integer_train_value_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("command, content, message", [
        pytest.param("synth", '{"noise_level": true}',
                     "bad generator config: noise_level must be a number, got True",
                     id="noise_level-bool"),
        pytest.param("synth", '{"rank_swap_prob": "0.5"}',
                     "bad generator config: rank_swap_prob must be a number, got '0.5'",
                     id="rank_swap_prob-string"),
        pytest.param("train", "noise_level=abc",
                     "bad generator config: noise_level must be a number, got 'abc'",
                     id="train-noise_level-string"),
        pytest.param("train", '{"learning_rate": true, "momentum": false}',
                     "bad model config: learning_rate must be a number, got True",
                     id="learning_rate-bool"),
        pytest.param("train", '{"momentum": false}',
                     "bad model config: momentum must be a number, got False",
                     id="momentum-bool"),
        pytest.param("train", "margin=abc", "bad model config: margin must be a number, got 'abc'",
                     id="margin-string"),
        pytest.param("train", '{"weight_decay": "0"}',
                     "bad model config: weight_decay must be a number, got '0'",
                     id="weight_decay-string"),
        pytest.param("synth", '{"noise_level": NaN}',
                     "bad generator config: noise_level must be finite, got nan",
                     id="noise_level-json-nan"),
        pytest.param("synth", "rank_swap_prob=inf",
                     "bad generator config: rank_swap_prob must be finite, got inf",
                     id="rank_swap_prob-inf"),
        pytest.param("train", f"noise_level=nan\n{_SMALL_RUN}",
                     "bad generator config: noise_level must be finite, got nan",
                     id="train-noise_level-nan"),
        pytest.param("train", f"noise_level=inf\n{_SMALL_RUN}",
                     "bad generator config: noise_level must be finite, got inf",
                     id="train-noise_level-inf"),
        pytest.param("train", f"learning_rate=nan\n{_SMALL_RUN}",
                     "bad model config: learning_rate must be finite, got nan",
                     id="learning_rate-nan"),
        pytest.param("train", '{"learning_rate": Infinity, "iterations": 5, '
                     '"train_sequences": 3, "eval_sequences": 2}',
                     "bad model config: learning_rate must be finite, got inf",
                     id="learning_rate-json-inf"),
        pytest.param("train", f"margin=nan\n{_SMALL_RUN}",
                     "bad model config: margin must be finite, got nan", id="margin-nan"),
        pytest.param("train", '{"momentum": -Infinity}',
                     "bad model config: momentum must be finite, got -inf",
                     id="momentum-json-minus-inf"),
        pytest.param("train", '{"weight_decay": NaN, "iterations": 5, '
                     '"train_sequences": 3, "eval_sequences": 2}',
                     "bad model config: weight_decay must be finite, got nan",
                     id="weight_decay-json-nan"),
    ])
    def test_non_number_float_value_rejected(self, tmp_path, capsys, command, content, message):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(content + "\n", encoding="utf-8")
        out = tmp_path / "d"
        extra = ["--out", str(out)] if command == "synth" else []
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *extra)
        assert code == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--noise-level", "nan"],
                     "bad generator config: noise_level must be finite, got nan", id="noise-nan"),
        pytest.param(["--learning-rate", "inf"],
                     "bad model config: learning_rate must be finite, got inf", id="lr-inf"),
        pytest.param(["--weight-decay", "nan"],
                     "bad model config: weight_decay must be finite, got nan", id="decay-nan"),
    ])
    def test_non_finite_flag_fails_before_training(self, capsys, no_training, argv, message):
        code, out, err = run_cli(capsys, "train", *argv)
        assert code == 1 and out == ""
        assert message in err

    def test_int_and_numpy_float_values_accepted(self):
        synth = cli._synth_config({"noise_level": 0, "rank_swap_prob": np.float32(0.25)})
        assert synth == SynthConfig(noise_level=0.0, rank_swap_prob=0.25)
        assert isinstance(synth.noise_level, float)


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        payload = run_json(capsys, "gradcheck", "--seed", "0")
        assert payload["all_passed"] is True
        assert all(c["max_rel_err"] < c["tolerance"] for c in payload["checks"])

    def test_fixed_seed_is_reproducible(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "gradcheck", "--seed", "5")
        code_b, out_b, _ = run_cli(capsys, "gradcheck", "--seed", "5")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_corrupt_negative_control_fails(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "0", "--corrupt")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert len(payload["checks"]) == 4
        assert not any(c["passed"] for c in payload["checks"])


class TestMalformedInputs:
    @pytest.mark.parametrize("name, content", [
        pytest.param("manifest.json", b'{"seed": 0}', id="manifest-without-frames"),
        pytest.param("manifest.json", b"[0, 1, 2]", id="manifest-is-a-list"),
        pytest.param("manifest.json", b'{"frames": ["0"]}', id="manifest-frame-not-int"),
        pytest.param("manifest.json", b"{not json", id="manifest-garbage"),
        pytest.param("manifest.json", b'{"frames": [], "seed": "abc"}', id="manifest-seed-not-int"),
        pytest.param("0.bin", b"[1, 2]\n", id="tensor-header-is-a-list"),
        pytest.param("0.bin", b"garbage\n", id="tensor-header-garbage"),
        pytest.param("0.bin", b'{"shape": [2]}\n', id="tensor-without-dtype"),
        pytest.param("0.bin", b'{"dtype": "<f8", "shape": [-1]}\n', id="tensor-negative-shape"),
        pytest.param("0.bin", b'{"dtype": "<f8", "shape": 4}\n', id="tensor-shape-not-a-list"),
        pytest.param("manifest.json", b'{"frames": [0]}\xff', id="manifest-not-utf8"),
        pytest.param("manifest.json", b"[" * 100000, id="manifest-nested-too-deep"),
        pytest.param("0.bin", b"[" * 100000 + b"\n", id="tensor-header-nested-too-deep"),
        # 65 dimensions: more than numpy holds (32 before numpy 2.0, 64 since)
        pytest.param("0.bin", b'{"dtype": "<f8", "shape": [' + b"1, " * 64 + b"1]}\n" + bytes(8),
                     id="tensor-too-many-dimensions"),
        pytest.param("ranks/0.json", b'{"ranks": {"1": 1}}\xff', id="rank-table-not-utf8"),
        pytest.param("ranks/0.json", b'{"ranks": {"1": 1.7, "2": 2}}', id="rank-is-a-float"),
        pytest.param("ranks/0.json", b'{"ranks": {"1": true, "2": 2}}', id="rank-is-a-bool"),
        pytest.param("ranks/0.json", b'{"ranks": {"1": "2", "2": "1"}}', id="rank-is-a-string"),
        pytest.param("ranks/0.json", b'{"ranks": {" 1": 1, "2": 2}}', id="id-padded"),
        pytest.param("ranks/0.json", b'{"ranks": {"01": 1, "2": 2}}', id="id-leading-zero"),
        pytest.param("ranks/0.json", b"[" * 100000, id="rank-table-nested-too-deep"),
        # 2 * 10**22 pixel bytes: more than a read can ask for, so no read is tried
        pytest.param("frames/0.pgm", b"P5\n100000000000 100000000000\n65535\n",
                     id="pgm-size-overflows"),
        pytest.param("config.json", b'{"T": 3}\xff', id="json-config-not-utf8"),
        pytest.param("config.json", b"{T: 3}", id="json-config-invalid"),
        pytest.param("config.json", b'{"T": ' + b"[" * 100000, id="json-config-nested-too-deep"),
        pytest.param("config.cfg", b"T=3\n# \xff\n", id="key-value-config-not-utf8"),
    ])
    def test_validation_error_names_the_path(self, tmp_path, capsys, name, content):
        path = tmp_path / "seq_0000" / name
        if name.startswith(("ranks/", "frames/")):
            annotation = RankAnnotation(np.array([[0, 1, 2]], dtype=np.uint16), {1: 1, 2: 2})
            save_annotations(path.parents[1], [annotation])
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content)
        if name.endswith(".bin"):
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_tensor_file(path)
            return
        if name.startswith("config"):
            code, _, err = run_cli(capsys, "synth", "--config", str(path),
                                   "--out", str(tmp_path / "out"))
        else:
            code, _, err = run_cli(capsys, "stats", "--data", str(tmp_path))
        assert code == 1 and str(path) in err

    @pytest.mark.parametrize("name", ["frames/0.pgm", "ranks/0.json"])
    def test_directory_in_place_of_a_file(self, tmp_path, capsys, name):
        annotation = RankAnnotation(np.array([[0, 1, 2]], dtype=np.uint16), {1: 1, 2: 2})
        save_annotations(tmp_path / "seq_0000", [annotation])
        path = tmp_path / "seq_0000" / name
        path.unlink()
        path.mkdir()
        code, _, err = run_cli(capsys, "eval", "--gt", str(tmp_path), "--pred", str(tmp_path))
        assert code == 1 and str(path) in err

    def test_frame_index_too_long_for_a_file_name(self, tmp_path, capsys):
        (tmp_path / "seq_0000" / "frames").mkdir(parents=True)
        (tmp_path / "seq_0000" / "manifest.json").write_text(
            json.dumps({"frames": [10**300]}), encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--gt", str(tmp_path), "--pred", str(tmp_path))
        assert code == 1 and str(tmp_path / "seq_0000" / "frames" / f"{10**300}.pgm") in err
