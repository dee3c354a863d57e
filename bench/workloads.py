"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (generation,
writing and a warm-up call) and then performs one closed-loop operation per
``operation`` call: the next operation starts only when the previous one has
returned.  An operation returns an ``Outcome`` with its timed parts and the
result of its output check.  The workloads reach vsorank only through
``trainer.train``, ``trainer.evaluate``, ``cli.main`` and the ``dataset``
generator and writers.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from vsorank import cli, dataset, model, trainer


@dataclass(frozen=True)
class Part:
    """One timed piece of an operation.

    Parts with the same ``key`` do the same computation on the same input,
    so their times differ only by what the machine does to them.
    """

    key: object
    units: int  # optimizer steps or frames it completes; 0 for overhead
    took: tuple  # (wall, CPU) seconds, see ``clocks``


@dataclass
class Outcome:
    """What one operation did and how long its parts took."""

    wall_s: float  # the whole call into vsorank, wall clock
    attempted: int  # steps, sequences or commands attempted
    failed: int
    parts: list = field(default_factory=list)  # one per step, sequence or command
    error: str | None = None


def clocks():
    """Wall-clock and process CPU time now, in seconds.

    CPU time is summed over the process's threads and leaves out the time
    the host takes a virtual CPU away from the machine (steal time).
    """
    return perf_counter(), process_time()


def between(start, end):
    """(wall, CPU) seconds from one ``clocks()`` reading to another."""
    return tuple(b - a for a, b in zip(start, end))


def since(start):
    return between(start, clocks())


def _seeds(seed, stream, count):
    """``count`` independent generator seeds for one input stream of a run."""
    return np.random.SeedSequence([seed, stream]).generate_state(count, dtype=np.uint64).tolist()


def _balanced_sequences(seed, stream, k_values, per_k, **synth):
    """``per_k`` synthetic sequences for every object count in ``k_values``.

    Balancing the object counts lets the seed change the scenes but not the
    amount of work they carry.
    """
    seeds = iter(_seeds(seed, stream, len(k_values) * per_k))
    return [
        dataset.synth_generate(dataset.SynthConfig(K_range=(k, k), **synth), next(seeds))
        for _ in range(per_k) for k in k_values
    ]


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Defaults for a workload that needs no hooks and reports no results."""

    # vsorank runs on one thread here: the measured loop may pin it to one CPU
    # at a time, and each part's time has a floor that the host only adds to.
    single_threaded = True

    def hooks(self):
        """Context in which the measured operations run."""
        return contextlib.nullcontext()

    def report(self):
        """Deterministic results of the run, for the detailed report."""
        return {}


class TrainFull(Workload):
    """``trainer.train`` with the ``full`` variant on the default task.

    Every operation is one ``train`` call of ``ITERATIONS`` steps from the
    same initial parameters, so every call must return the same loss curve
    and step ``i`` of one call repeats step ``i`` of every other.  A step runs
    from one ``trainer.model_scores`` entry to the next; the last step of a
    call ends where its closing ``evaluate`` starts.  The rest of the call
    before that ``evaluate`` is one more part, of no steps.
    """

    name = "train_full"
    unit = "step"
    latency = "step"
    TRAIN_SEQUENCES = 64
    EVAL_SEQUENCES = 8
    ITERATIONS = 50
    WARMUP_ITERATIONS = 10

    def setup(self, seed, work_dir):
        synth = dataset.SynthConfig()
        self.train_set = [dataset.synth_generate(synth, s)
                          for s in _seeds(seed, 0, self.TRAIN_SEQUENCES)]
        self.eval_set = [dataset.synth_generate(synth, s)
                         for s in _seeds(seed, 1, self.EVAL_SEQUENCES)]
        self.config = trainer.ModelConfig(variant="full", iterations=self.ITERATIONS, seed=seed)
        self.curve_sha256 = None
        self.eval_sa_sor = None
        warmup = trainer.ModelConfig(variant="full", iterations=self.WARMUP_ITERATIONS, seed=seed)
        trainer.train(warmup, self.train_set, self.eval_set)

    @contextlib.contextmanager
    def hooks(self):
        """Timestamp ``trainer.model_scores`` entries and time ``trainer.evaluate``."""
        inner_scores = trainer.model_scores
        inner_evaluate = trainer.evaluate
        entries = self._entries = []
        evaluations = self._evaluations = []

        def model_scores(*args, **kwargs):
            entries.append(clocks())
            return inner_scores(*args, **kwargs)

        def evaluate(*args, **kwargs):
            start = clocks()
            try:
                return inner_evaluate(*args, **kwargs)
            finally:
                evaluations.append((start, clocks()))

        trainer.model_scores = model_scores
        trainer.evaluate = evaluate
        try:
            yield
        finally:
            trainer.model_scores = inner_scores
            trainer.evaluate = inner_evaluate

    def operation(self):
        self._entries.clear()
        self._evaluations.clear()
        iterations = self.config.iterations
        start = clocks()
        try:
            _, report = trainer.train(self.config, self.train_set, self.eval_set)
        except Exception as exc:  # a raised step fails the whole call
            return Outcome(since(start)[0], iterations, iterations, error=_failure(exc))
        took = since(start)

        eval_start, eval_end = self._evaluations[-1]
        marks = self._entries + [eval_start]
        steps = [Part(("step", i), 1, between(a, b)) for i, (a, b) in enumerate(zip(marks, marks[1:]))]
        busy = [t - e for t, e in zip(took, between(eval_start, eval_end))]
        rest = Part("call", 0, tuple(b - sum(p.took[c] for p in steps) for c, b in enumerate(busy)))
        error = self.check(report)
        return Outcome(took[0], iterations, iterations if error else 0,
                       parts=steps + [rest], error=error)

    def check(self, report):
        curve = report.loss_curve
        if len(curve) != self.config.iterations:
            return f"loss curve has {len(curve)} entries for {self.config.iterations} iterations"
        if not all(math.isfinite(v) for v in curve):
            return "loss curve holds a non-finite value"
        if report.eval_sa_sor is None or not -1.0 <= report.eval_sa_sor <= 1.0:
            return f"eval_sa_sor {report.eval_sa_sor} is not a correlation"
        if not 0.0 <= report.eval_mae <= 1.0:
            return f"eval_mae {report.eval_mae} is outside [0, 1]"
        sha = hashlib.sha256(np.asarray(curve, dtype="<f8").tobytes()).hexdigest()
        if self.curve_sha256 is None:
            self.curve_sha256 = sha
            self.eval_sa_sor = report.eval_sa_sor
        elif sha != self.curve_sha256 or report.eval_sa_sor != self.eval_sa_sor:
            return "the same config gave a different loss curve or eval SA-SOR"
        return None

    def report(self):
        return {"loss_curve_sha256": self.curve_sha256, "eval_sa_sor": self.eval_sa_sor}


class InferCrowded(Workload):
    """``trainer.evaluate`` on one crowded sequence per call, ``full`` variant.

    Parameters come from ``init_model_params`` with the zero score head
    replaced by a seeded draw, so ranks are not all ties.
    """

    name = "infer_crowded"
    unit = "frame"
    latency = "sequence"
    K_VALUES = (5, 6, 7)
    PER_K = 16
    RESOLUTION = (128, 128)

    def setup(self, seed, work_dir):
        self.sequences = _balanced_sequences(seed, 0, self.K_VALUES, self.PER_K,
                                             frame_resolution=self.RESOLUTION)
        self.config = trainer.ModelConfig(variant="full")
        self.params = model.init_model_params(self.config.C, self.config.H,
                                              self.config.W, seed)
        head = self.params.scoring.score_head.weight
        head.data[...] = np.random.default_rng([seed, 2]).standard_normal(head.shape)
        self.next_index = 0
        for sample in self.sequences[:len(self.K_VALUES)]:
            trainer.evaluate(self.params, self.config, [sample])

    def operation(self):
        index = self.next_index
        sample = self.sequences[index]
        self.next_index = (index + 1) % len(self.sequences)
        start = clocks()
        try:
            result = trainer.evaluate(self.params, self.config, [sample])
        except Exception as exc:
            return Outcome(since(start)[0], 1, 1, error=_failure(exc))
        took = since(start)
        error = self.check(result, len(sample.frames))
        return Outcome(took[0], 1, 1 if error else 0,
                       parts=[Part(index, len(sample.frames), took)], error=error)

    @staticmethod
    def check(result, frames):
        if result.frame_count != frames:
            return f"frame_count {result.frame_count} for {frames} frames"
        if not 0 <= result.undefined_count <= frames:
            return f"undefined_count {result.undefined_count} for {frames} frames"
        if result.sa_sor is not None and not -1.0 <= result.sa_sor <= 1.0:
            return f"sa_sor {result.sa_sor} is not a correlation"
        if (result.sa_sor is None) != (result.undefined_count == frames):
            return "sa_sor is undefined on a run with defined frames, or the reverse"
        if not 0.0 <= result.mae <= 1.0:
            return f"mae {result.mae} is outside [0, 1]"
        return None


def _paint(annotation):
    """(K - r + 1) / K on each instance's pixels, 0 on the background."""
    k = annotation.instance_count
    levels = np.zeros(int(annotation.instance_map.max()) + 1)
    for instance_id, rank in annotation.ranks.items():
        levels[instance_id] = (k - rank + 1) / k
    return levels[annotation.instance_map]


class EvalDisk(Workload):
    """``vsorank eval`` through ``cli.main`` on a dataset written in set-up.

    Predictions are the ground-truth instance maps with ranks kept on every
    other frame and reversed on the rest, so each frame's SA-SOR is exactly
    +1 or -1, the aggregate is exactly 0, and each frame's MAE is known.
    """

    name = "eval_disk"
    unit = "frame"
    latency = "command"
    # The command's frame pool uses every CPU, and its time also depends on
    # how the pool's threads happen to interleave.
    single_threaded = False
    K_VALUES = (3, 4, 5, 6, 7)
    PER_K = 4
    RESOLUTION = (128, 128)

    def setup(self, seed, work_dir):
        os.environ["VSOR_THREADS"] = str(len(os.sched_getaffinity(0)))
        # A fresh directory per set-up: deleting the last copy would time the
        # file system's clean-up, not vsorank.  The run removes ``work_dir``.
        root = tempfile.mkdtemp(prefix="eval_disk-", dir=work_dir)
        self.gt_dir = os.path.join(root, "gt")
        self.pred_dir = os.path.join(root, "pred")
        sequences = _balanced_sequences(seed, 0, self.K_VALUES, self.PER_K,
                                        frame_resolution=self.RESOLUTION)
        self.expected = []
        for number, sample in enumerate(sequences):
            name = f"seq_{number:04d}"
            predictions = []
            for idx, truth in enumerate(sample.annotations):
                keep = len(self.expected) % 2 == 0
                k = truth.instance_count
                ranks = truth.ranks if keep else {i: k - r + 1 for i, r in truth.ranks.items()}
                predicted = dataset.RankAnnotation(instance_map=truth.instance_map, ranks=ranks)
                predictions.append(predicted)
                mae = float(np.abs(_paint(predicted) - _paint(truth)).mean())
                self.expected.append((name, idx, 1.0 if keep else -1.0, mae))
            dataset.save_sequence(os.path.join(self.gt_dir, name), sample)
            dataset.save_annotations(os.path.join(self.pred_dir, name), predictions,
                                     seed=sample.seed)
        self.argv = ["eval", "--gt", self.gt_dir, "--pred", self.pred_dir]
        self._run_cli()

    def _run_cli(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def operation(self):
        frames = len(self.expected)
        start = clocks()
        try:
            code, stdout = self._run_cli()
        except Exception as exc:
            return Outcome(since(start)[0], 1, 1, error=_failure(exc))
        took = since(start)
        error = f"exit code {code}" if code != 0 else self.check(stdout)
        return Outcome(took[0], 1, 1 if error else 0,
                       parts=[Part("command", frames, took)], error=error)

    def check(self, stdout):
        try:
            doc = json.loads(stdout)
            got = [(f["sequence"], f["frame"], f["sa_sor"], f["mae"]) for f in doc["frames"]]
            aggregate = doc["aggregate"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {_failure(exc)}"
        for reported, expected in itertools.zip_longest(got, self.expected):
            if reported != expected:
                return f"frame report {reported} differs from expected {expected}"
        expected_mae = float(np.mean([mae for *_, mae in self.expected]))
        if aggregate != {"sa_sor": 0.0, "sa_sor_undefined_count": 0, "mae": expected_mae,
                         "frame_count": len(self.expected)}:
            return f"aggregate {aggregate} differs from expected"
        return None


WORKLOADS = {w.name: w for w in (TrainFull, InferCrowded, EvalDisk)}
