"""One operation of every benchmark workload, with its output check.

The benchmark counts an operation whose output check fails (or that raises)
as a failed operation; this runs each workload once at the smallest set-up
so that such a break shows up here first.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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
