"""vsorank benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; vsorank is imported from ``src/``.  The
workloads are described in ``workloads.py``:

* ``train_full``    -- ``trainer.train`` on the default task, ``full`` variant;
* ``infer_crowded`` -- ``trainer.evaluate`` on crowded 128x128 sequences;
* ``eval_disk``     -- ``vsorank eval`` through ``cli.main`` on a dataset
  written during set-up.

The workload runs as a closed loop for ``--seconds`` of wall-clock time and
every output is checked.  Set-up (generating and writing inputs plus a
warm-up call) is repeated ``SETUP_REPEATS`` times, spread over the run, and
its median user-mode CPU time is ``setup_s`` (see ``_timed_setup``).

The machine is a few virtual CPUs of a shared host, and the host slows them
down in two ways: it takes a virtual CPU away for a while (steal time,
at times a third of the time or more for minutes on end), and other
tenants on the same cores slow it down by up to half for anything from a
few milliseconds to minutes.  Both only ever add time.  So:

* every timing is read on the process's CPU clock (user plus system time,
  summed over its threads), which leaves steal time out.  On
  ``train_full`` and ``infer_crowded`` vsorank runs on one thread and does
  no I/O, so on a quiet machine this equals the wall-clock time.  On
  ``eval_disk`` it is the CPU time of the command and its frame pool;
* on ``train_full`` and ``infer_crowded`` the process moves to the next CPU
  of its affinity set every ``PIN_SECONDS`` or so, so no run is stuck on
  a slowed CPU;
* an operation is made of parts (``workloads.Part``), and parts with the
  same key repeat the same computation on the same input: step ``i`` of
  the fixed training run, or one sequence.  On those two workloads each key
  counts with its fastest repeat in the run, as ``timeit`` does: the
  percentiles are over the keys' best times and the throughput is their
  units over the sum of those times.  A slower program is slower in its
  best repeat too; a cost that does not come back on every repeat, such as
  a full GC pass, shows in the per-layer ``gc.*`` metrics instead.  On
  ``eval_disk`` the time also depends on how the pool's threads happen to
  interleave, so its fastest commands are luck, not a floor: there every
  command counts.

The same figures on the wall clock go to the detailed report under
``wall_*`` names.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``throughput_per_s`` -- optimizer steps per second on ``train_full``
  (``train`` time minus its closing ``evaluate``), frames per second on
  the other two;
* ``latency_ms_p50``, ``latency_ms_p90`` -- one step on ``train_full``, one
  ``evaluate([sequence])`` call on ``infer_crowded``, one ``vsorank eval``
  command on ``eval_disk``;
* ``setup_s`` and ``peak_rss_mb``.

With ``--trace 1`` the run measures half of ``--seconds`` untraced and half
traced, and the last line holds the per-layer metrics: per public function
its calls and self time per unit of work (per step on ``train_full``, per
frame otherwise; per set-up for the set-up-only writers and generator),
plus GC, pool and tracing-overhead figures.  The line before the last holds
a detailed report: the environment, the metrics under workload-specific
names (``steps_per_s``, ``step_ms_p90``, ``failed_ratio``, ...), sample
counts, the loss-curve hash and, when traced, the full layer table.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from time import perf_counter

from tracing import TRACED, Tracer, layer_table, self_ns_on_thread

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

WORKLOAD_NAMES = ("train_full", "infer_crowded", "eval_disk")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
# A single-threaded workload moves to the next CPU after about this many
# seconds of operations, so no run is stuck on one slowed CPU.
PIN_SECONDS = 0.5
WALL, CPU = 0, 1  # indexes of the wall-clock and CPU readings in a timing pair
SELF_TIME_COVERAGE = 0.97  # share of traced wall time the spans must cover

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers that only set-up calls; reported per set-up instead of per unit.
SETUP_LAYERS = ("dataset.synth_generate", "dataset.save_sequence", "dataset.save_annotations")

# Span name -> the workloads that must call it; every other workload must not.
# A wrapper that misses an importing module's binding shows up here.
EXPECTED_CALLERS = {
    "autodiff.backward": ("train_full",),
    "losses.rank_loss": ("train_full",),
    "pgm.read_pgm16": ("eval_disk",),
}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for _, _, name in TRACED:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_ms", "ms", "lower"))
    spec += [
        ("gc.collections", "count", "lower"),
        ("gc.pause_ms", "ms", "lower"),
        ("trainer.useful_step_ratio", "ratio", "higher"),
        ("trainer.eval_sa_sor", "corr", "higher"),
        ("metrics.sa_sor.defined_ratio", "ratio", "higher"),
        ("pgm.read_pgm16.bytes", "B", "lower"),
        ("cli.eval_frame.busy_ms", "ms", "lower"),
        ("cli.eval_pool.parallelism", "ratio", "higher"),
        ("trace.op_ms", "ms", "lower"),
        ("trace.self_time_ratio", "ratio", "higher"),
        ("trace.self_check_failures", "count", "lower"),
    ]
    spec += [(f"trace_overhead.{name}", unit, better)
             for name, (unit, better) in END_TO_END.items()]
    return spec


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="vsorank benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment():
    import numpy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "VSOR_THREADS": os.environ.get("VSOR_THREADS"),
    }


def _timed_setup(workload, seed, work_dir):
    """(wall, user-mode CPU) seconds of one set-up.

    Set-up writes files on ``eval_disk``, and the kernel's share of the same
    writes took from 0.02 to 0.4 s on the test VM and crept up over
    consecutive runs; the user-mode CPU time leaves it out.
    """
    def user_s():
        return resource.getrusage(resource.RUSAGE_SELF).ru_utime

    wall, user = perf_counter(), user_s()
    workload.setup(seed, work_dir)
    return perf_counter() - wall, user_s() - user


def _measure(workload, seconds):
    """Closed loop: one operation after another until ``seconds`` have passed.

    A single-threaded workload runs pinned to one CPU of the affinity set for
    about ``PIN_SECONDS`` of operations, then to the next.
    """
    cpus = sorted(os.sched_getaffinity(0))
    outcomes = []
    try:
        with workload.hooks():
            deadline = perf_counter() + seconds
            for turn in itertools.count():
                if perf_counter() >= deadline:
                    return outcomes
                if workload.single_threaded:
                    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                pinned_s = 0.0
                while pinned_s < PIN_SECONDS and perf_counter() < deadline:
                    outcomes.append(workload.operation())
                    pinned_s += outcomes[-1].wall_s
    finally:
        os.sched_setaffinity(0, cpus)


def _set_up_and_measure(workload_class, seed, work_dir, seconds):
    """Set up ``SETUP_REPEATS`` times, measuring an equal share of ``seconds`` after each.

    Spreading the set-ups over the run makes their median reflect the whole
    run, not the host's state in its first second or two.  Every set-up
    builds the same inputs from ``seed`` in a new workload object, after the
    last one's inputs are dropped.  Returns the last workload, the set-ups'
    (wall, CPU) seconds and the operations' outcomes.
    """
    setups, outcomes, workload = [], [], None
    for _ in range(SETUP_REPEATS):
        workload = None
        workload = workload_class()
        setups.append(_timed_setup(workload, seed, work_dir))
        outcomes += _measure(workload, seconds / SETUP_REPEATS)
    return workload, setups, outcomes


def _figures(outcomes, clock, best_of_repeats):
    """Throughput, p50 and p90 latency and the latency sample count on one clock.

    With ``best_of_repeats`` each part key counts once, with its fastest
    repeat; otherwise every part counts.
    """
    import numpy as np

    parts = [part for o in outcomes for part in o.parts]
    if best_of_repeats:
        best = {}
        for part in parts:
            if part.key not in best or part.took[clock] < best[part.key].took[clock]:
                best[part.key] = part
        parts = list(best.values())
    latencies = [part.took[clock] * 1e3 for part in parts if part.units]
    p50, p90 = np.percentile(latencies, [50, 90]) if latencies else (0.0, 0.0)
    busy = sum(part.took[clock] for part in parts)
    throughput = sum(part.units for part in parts) / busy if busy else 0.0
    return throughput, float(p50), float(p90), len(latencies)


def _summary(workload, outcomes, setup):
    """The run's figures: the metrics on the CPU clock, ``wall_*`` on the wall clock."""
    best = workload.single_threaded
    throughput, p50, p90, samples = _figures(outcomes, CPU, best)
    wall_throughput, wall_p50, wall_p90, _ = _figures(outcomes, WALL, best)
    parts = [part for o in outcomes for part in o.parts]
    return {
        "setup_s": setup[CPU],
        "throughput_per_s": throughput,
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "peak_rss_mb": _peak_rss_mb(),
        "wall_setup_s": setup[WALL],
        "wall_throughput_per_s": wall_throughput,
        "wall_latency_ms_p50": wall_p50,
        "wall_latency_ms_p90": wall_p90,
        "units": sum(part.units for part in parts),
        "latency_samples": samples,
        "repeats": len(parts) / len({part.key for part in parts}) if parts else 0,
        "operations": len(outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "op_wall_s": sum(o.wall_s for o in outcomes),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
    }


def _named(workload, summary):
    """The summary under the workload's own metric names."""
    return {
        f"{workload.unit}s_per_s": summary["throughput_per_s"],
        f"{workload.latency}_ms_p50": summary["latency_ms_p50"],
        f"{workload.latency}_ms_p90": summary["latency_ms_p90"],
        f"{workload.latency}_samples": summary["latency_samples"],
        "repeats": summary["repeats"],
        "setup_s": summary["setup_s"],
        f"wall_{workload.unit}s_per_s": summary["wall_throughput_per_s"],
        f"wall_{workload.latency}_ms_p50": summary["wall_latency_ms_p50"],
        f"wall_{workload.latency}_ms_p90": summary["wall_latency_ms_p90"],
        "wall_setup_s": summary["wall_setup_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "failed_ratio": summary["failed"] / summary["attempted"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "errors": summary["errors"],
    }


def _pool_figures(spans):
    """Busy time of ``cli._eval_frame`` over the wall time of its pool, per eval."""
    commands = [(s, e) for name, _, _, _, s, e in spans if name == "cli.cmd_eval"]
    frames = [(s, e) for name, _, _, _, s, e in spans if name == "cli.eval_frame"]
    busy = sum(e - s for s, e in frames)
    pool_wall = 0
    for command_start, command_end in commands:
        inside = [(s, e) for s, e in frames if command_start <= s <= command_end]
        if inside:
            pool_wall += max(e for _, e in inside) - min(s for s, _ in inside)
    return busy, pool_wall


def _per_layer(workload, record, setup_record, summary, untraced, main_thread):
    spans = record["spans"]
    table = layer_table(spans)
    setup_table = layer_table(setup_record["spans"])
    units = summary["units"] or 1
    values = {}
    for _, _, name in TRACED:
        calls, _, self_ns = (setup_table if name in SETUP_LAYERS else table).get(name, (0, 0, 0))
        per = 1 if name in SETUP_LAYERS else units
        values[f"{name}.calls"] = calls / per
        values[f"{name}.self_ms"] = self_ns / 1e6 / per

    sa_sor_calls = table.get("metrics.sa_sor", (0,))[0]
    undefined = record["counters"].get("metrics.sa_sor.undefined", 0)
    busy_ns, pool_wall_ns = _pool_figures(spans)
    op_ns = summary["op_wall_s"] * 1e9
    self_ratio = self_ns_on_thread(spans, main_thread) / op_ns if op_ns else 0.0
    failures = [
        f"{name} called {table.get(name, (0,))[0]} times on {workload.name}"
        for name, callers in EXPECTED_CALLERS.items()
        if (table.get(name, (0,))[0] > 0) != (workload.name in callers)
    ]
    if not SELF_TIME_COVERAGE <= self_ratio <= 1.0:
        failures.append(f"spans cover {self_ratio:.4f} of the traced wall time")

    values.update({
        "gc.collections": record["gc_collections"] / units,
        "gc.pause_ms": record["gc_pause_ns"] / 1e6 / units,
        "trainer.useful_step_ratio": (summary["units"] / summary["attempted"]
                                      if workload.name == "train_full" else 0.0),
        "trainer.eval_sa_sor": workload.report().get("eval_sa_sor") or 0.0,
        "metrics.sa_sor.defined_ratio": 1 - undefined / sa_sor_calls if sa_sor_calls else 0.0,
        "pgm.read_pgm16.bytes": record["counters"].get("pgm.read_pgm16.bytes", 0) / units,
        "cli.eval_frame.busy_ms": busy_ns / 1e6 / units,
        "cli.eval_pool.parallelism": busy_ns / pool_wall_ns if pool_wall_ns else 0.0,
        "trace.op_ms": summary["op_wall_s"] * 1e3 / units,
        "trace.self_time_ratio": self_ratio,
        "trace.self_check_failures": len(failures),
    })
    for name in END_TO_END:
        values[f"trace_overhead.{name}"] = summary[name] - untraced[name]
    layer_rows = {name: {"calls": row[0], "total_ms": row[1] / 1e6, "self_ms": row[2] / 1e6}
                  for name, row in sorted(table.items())}
    return values, failures, layer_rows


def _run(args, work_dir):
    from workloads import WORKLOADS  # imports vsorank, so only once SRC is on the path

    seconds = args.seconds / 2 if args.trace else args.seconds
    workload, setups, outcomes = _set_up_and_measure(WORKLOADS[args.workload], args.seed,
                                                     work_dir, seconds)
    setup = tuple(statistics.median(s[clock] for s in setups) for clock in (WALL, CPU))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": [s[CPU] for s in setups],
              "wall_setup_samples_s": [s[WALL] for s in setups]}

    if not args.trace:
        summary = _summary(workload, outcomes, setup)
        report.update(_named(workload, summary), **workload.report())
        metrics = {name: summary[name] for name in END_TO_END}
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        correct = summary["failed"] == 0
        attempted, failed = summary["attempted"], summary["failed"]
    else:
        untraced = _summary(workload, outcomes, setup)
        untraced_results = workload.report()
        tracer = Tracer()
        tracer.install()
        try:
            mark = tracer.mark()
            traced_setup = _timed_setup(workload, args.seed, work_dir)
            setup_record = tracer.since(mark)
            mark = tracer.mark()
            outcomes = _measure(workload, seconds)
            record = tracer.since(mark)
        finally:
            tracer.uninstall()
        traced = _summary(workload, outcomes, traced_setup)
        metrics, failures, layer_rows = _per_layer(
            workload, record, setup_record, traced, untraced, threading.get_ident())
        if workload.report() != untraced_results:
            failures.append("tracing changed the workload's results")
        units = {name: unit for name, unit, _ in per_layer_spec()}
        report.update({
            "untraced": _named(workload, untraced),
            "traced": _named(workload, traced),
            "results": workload.report(),
            "self_check_failures": failures,
            "missing_functions": tracer.missing,
            "spans": len(record["spans"]),
            "layers": layer_rows,
        })
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        correct = failed == 0 and not failures

    report["environment"] = _environment()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def main(argv=None):
    args = _parse_args(argv)
    # Fixed before numpy loads: BLAS threads would add to the eval pool's.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "vsorank", "__init__.py")):
        print(f"bench: no vsorank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result, report = _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run is still using it
            pass
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
