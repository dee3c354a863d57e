"""Regression fingerprints: the outputs of short seeded runs, pinned.

``fingerprints.json`` holds, per variant, the loss curve and final
parameters of a 50-iteration training run, the ``EvalResult`` of the trained
model and the ranks ``model_forward`` gives on one crowded sequence; and the
SHA-256 of ``vsorank gradcheck --seed 0`` stdout.  The model is shrunk
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
from dataclasses import asdict

import numpy as np
import pytest

from vsorank import cli
from vsorank.dataset import SynthConfig
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


def gradcheck_sha256() -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest()


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


if __name__ == "__main__":
    json.dump({"variants": model_fingerprints(), "gradcheck_seed0_sha256": gradcheck_sha256()},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
