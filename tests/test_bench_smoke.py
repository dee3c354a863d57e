"""One operation of every benchmark workload, with its output check, and
one traced operation.

The benchmark counts an operation whose output check fails (or that raises)
as a failed operation; this runs each workload once at the smallest set-up
so that such a break shows up here first.  The traced run checks that the
benchmark's per-layer split still finds the functions it wraps.
"""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_succeeds(name, tmp_path, monkeypatch):
    # EvalDisk's set-up writes VSOR_THREADS; this puts back what was there.
    monkeypatch.setenv("VSOR_THREADS", "1")
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, str(tmp_path))
    with workload.hooks():
        outcome = workload.operation()
    assert outcome.error is None
    assert outcome.failed == 0


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
    assert calls["autodiff.backward"] == workload.ITERATIONS == 50
    for op in ("matmul", "conv1x1", "linear", "scaled_softmax", "mean_axis"):
        assert calls.get(f"autodiff.{op}", 0) > 0, op
    # Rows for functions the program no longer has; none of them is autodiff.
    assert sorted(tracer.missing) == ["dataset.annotation_to_rank_map", "metrics.iou",
                                      "temporal.render_rank_map"]
