"""One operation of every benchmark workload, with its output check, and
one traced operation.

The benchmark counts an operation whose output check fails (or that raises)
as a failed operation; this runs each workload once at the smallest set-up
so that such a break shows up here first.  The part checks guard how the
benchmark splits an operation into timed steps and frames, and the traced
run checks that its per-layer split still finds the functions it wraps.
"""

import importlib.util
import pathlib

import pytest

from vsorank import trainer

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


def _one_operation(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, str(tmp_path))
    with workload.hooks():
        outcome = workload.operation()
    return workload, outcome


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_succeeds(name, tmp_path, monkeypatch):
    # EvalDisk's set-up writes VSOR_THREADS; this puts back what was there.
    monkeypatch.setenv("VSOR_THREADS", "1")
    _, outcome = _one_operation(name, tmp_path)
    assert outcome.error is None
    assert outcome.failed == 0


def test_train_full_times_every_step(tmp_path):
    # The steps are split at each call of ``trainer.model_scores``; scoring
    # reached some other way would leave no step parts and a throughput of 0.
    workload, outcome = _one_operation("train_full", tmp_path)
    assert outcome.failed == 0
    steps = [part for part in outcome.parts if part.key != "call"]
    assert [part.key for part in steps] == [("step", i) for i in range(workload.ITERATIONS)]
    assert workload.ITERATIONS == 50
    for part in steps:
        assert part.units == 1 and part.took[1] > 0, part
    assert [part.key for part in outcome.parts].count("call") == 1


def test_infer_crowded_counts_every_frame(tmp_path):
    workload, outcome = _one_operation("infer_crowded", tmp_path)
    assert outcome.failed == 0
    [part] = outcome.parts
    assert part.units == len(workload.sequences[0].frames) > 0


def test_tracer_finds_the_autodiff_layers(tmp_path):
    workload = workloads.WORKLOADS["train_full"]()
    workload.setup(1, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with workload.hooks():
            outcome = workload.operation()
    finally:
        tracer.uninstall()
    assert outcome.failed == 0
    calls = {name: row[0] for name, row in tracing.layer_table(tracer.spans).items()}
    # A step with loss 0.0 runs no backward pass (16 of the 50 are positive
    # at seed 1).
    _, report = trainer.train(workload.config, workload.train_set, workload.eval_set)
    positive = sum(1 for value in report.loss_curve if value > 0.0)
    assert 0 < positive < workload.ITERATIONS == 50
    assert calls["autodiff.backward"] == positive
    # Each model stage is one op of its own; of the autodiff primitives, only
    # the value projection's ``conv1x1`` is left in a training step.
    for layer in ("autodiff.conv1x1", "temporal.temporal_mix", "temporal.frame_scores",
                  "losses.rank_loss"):
        assert calls.get(layer, 0) > 0, layer
    # Rows for functions the program no longer has: the four autodiff ops
    # moved to the test oracle, ``FrameMatch`` replaced the three one-shot
    # metric functions, and ``frame_scores`` runs the spatial relation.
    assert sorted(tracer.missing) == ["autodiff.linear", "autodiff.matmul",
                                      "autodiff.mean_axis", "autodiff.scaled_softmax",
                                      "dataset.annotation_to_rank_map", "metrics.iou",
                                      "metrics.mae", "metrics.match_instances",
                                      "metrics.sa_sor", "spatial.spatial_forward",
                                      "temporal.render_rank_map"]
