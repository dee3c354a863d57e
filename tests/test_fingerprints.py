"""Regression fingerprints: the outputs of short seeded runs, pinned.

``fingerprints.json`` holds, per variant, the loss curve and final
parameters of a 50-iteration training run, the ``EvalResult`` of the trained
model and the ranks ``model_forward`` gives on one crowded sequence; the
SHA-256 of ``vsorank gradcheck --seed 0`` stdout; and the SHA-256 of a small
``vsorank synth`` tree and of ``vsorank eval`` stdout on it, scored against
itself and against a copy with every frame's ranks reversed.  The model is shrunk
(C=4, H=W=4) so the run stays cheap; every stage and the optimizer run the
same code as at the default size.

Integers and bytes compare exactly.  Floats compare at a relative ``RTOL``:
loss values and metrics element by element, a parameter tensor against its
largest magnitude (an element can be small next to the updates it sums).
Equal bits on one machine are the usual outcome; the tolerance leaves room
for a BLAS that sums in another order.

A change that means to move these values regenerates the file with
``PYTHONPATH=src python tests/test_fingerprints.py > tests/fingerprints.json``
and states in ``CHANGES.md`` the largest difference and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from vsorank import cli
from vsorank.dataset import RankAnnotation, SynthConfig, list_sequences, load_annotations, save_annotations
from vsorank.model import VARIANTS, model_forward, named_params
from vsorank.trainer import ModelConfig, build_dataset, evaluate, train

RTOL = 1e-12
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "fingerprints.json")
SMALL = {"C": 4, "H": 4, "W": 4}
CROWDED = SynthConfig(K_range=(5, 7), frame_resolution=(128, 128), **SMALL)


def model_fingerprints() -> dict:
    """Per variant: loss curve, final parameters, eval result, crowded ranks."""
    synth = SynthConfig(**SMALL)
    train_set = build_dataset(synth, 8, seed=0)
    eval_set = build_dataset(synth, 4, seed=1)
    crowded = build_dataset(CROWDED, 1, seed=2)[0]
    out = {}
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, iterations=50, seed=0, **SMALL)
        params, report = train(config, train_set, eval_set)
        out[variant] = {
            "loss_curve": report.loss_curve,
            "params": {name: p.data.ravel().tolist() for name, p in named_params(params)},
            "eval": asdict(evaluate(params, config, eval_set)),
            "crowded_ranks": [ranks.tolist()
                              for ranks in model_forward(crowded.frames, params, variant)],
        }
    return out


def _stdout_sha256(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def gradcheck_sha256() -> str:
    return _stdout_sha256(["gradcheck", "--seed", "0"])


def _tree_sha256(root) -> str:
    """One hash over every file's path, relative to ``root``, and bytes."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(root):
        subdirectories.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read() + b"\0")
    return digest.hexdigest()


def cli_fingerprints() -> dict:
    """A 4-sequence ``vsorank synth`` tree (K 2-5), and ``vsorank eval`` on it
    against itself and against its ranks reversed in every frame."""
    with tempfile.TemporaryDirectory() as work:
        truth, reversed_ranks = os.path.join(work, "gt"), os.path.join(work, "reversed")
        config = os.path.join(work, "synth.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write("K_min=2\nK_max=5\nframe_height=24\nframe_width=20\nC=4\nH=4\nW=4\n")
        _stdout_sha256(["synth", "--out", truth, "--sequences", "4", "--seed", "7",
                        "--config", config])
        for name in list_sequences(truth):
            annotations = [RankAnnotation(a.instance_map,
                                          {i: a.instance_count - r + 1 for i, r in a.ranks.items()})
                           for _, a in load_annotations(os.path.join(truth, name))]
            save_annotations(os.path.join(reversed_ranks, name), annotations)
        # Eval stdout names sequences, not directories, so it is free of ``work``.
        return {
            "synth_tree_sha256": _tree_sha256(truth),
            "eval_self_sha256": _stdout_sha256(["eval", "--gt", truth, "--pred", truth]),
            "eval_reversed_sha256": _stdout_sha256(["eval", "--gt", truth,
                                                    "--pred", reversed_ranks]),
        }


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def actual():
    return model_fingerprints()


def _assert_close(got, want, what):
    """Elementwise ``|got - want| <= RTOL * |want|``; None and exact zeros match exactly."""
    if want is None or got is None:
        assert got is want, what
        return
    assert abs(got - want) <= RTOL * abs(want), f"{what}: {got!r} != {want!r}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_curve(variant, actual, expected):
    got, want = actual[variant]["loss_curve"], expected["variants"][variant]["loss_curve"]
    assert len(got) == len(want)
    for step, (a, b) in enumerate(zip(got, want)):
        _assert_close(a, b, f"{variant} loss at step {step}")


@pytest.mark.parametrize("variant", VARIANTS)
def test_final_parameters(variant, actual, expected):
    got, want = actual[variant]["params"], expected["variants"][variant]["params"]
    assert list(got) == list(want)
    for name in want:
        a, b = np.array(got[name]), np.array(want[name])
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= RTOL * np.abs(b).max(), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_pinned_parameters_are_not_rounding_residue(variant, expected):
    """Every pinned tensor is exactly zero or has a magnitude far above
    rounding: a parameter whose true gradient is 0 would pin residue near
    1e-17, which another BLAS or a one-ulp change moves by 100%."""
    for name, values in expected["variants"][variant]["params"].items():
        largest = np.abs(np.array(values)).max()
        assert largest == 0.0 or largest >= 1e-10, f"{name}: max |value| {largest:.3g}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_eval_result(variant, actual, expected):
    got, want = actual[variant]["eval"], expected["variants"][variant]["eval"]
    assert got["undefined_count"] == want["undefined_count"]
    assert got["frame_count"] == want["frame_count"]
    _assert_close(got["sa_sor"], want["sa_sor"], f"{variant} sa_sor")
    _assert_close(got["mae"], want["mae"], f"{variant} mae")


@pytest.mark.parametrize("variant", VARIANTS)
def test_crowded_ranks(variant, actual, expected):
    assert actual[variant]["crowded_ranks"] == expected["variants"][variant]["crowded_ranks"]


def test_gradcheck_stdout(expected):
    assert gradcheck_sha256() == expected["gradcheck_seed0_sha256"]


def test_synth_tree_and_eval_stdout(expected):
    assert cli_fingerprints() == expected["cli"]


if __name__ == "__main__":
    json.dump({"variants": model_fingerprints(), "gradcheck_seed0_sha256": gradcheck_sha256(),
               "cli": cli_fingerprints()},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
