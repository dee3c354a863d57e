"""Span tracing of vsorank from outside the package.

Every traced function is replaced by a wrapper that records one span per
call: name, span id, parent span id, thread, start and end.  Each thread
keeps its own parent stack, because ``cli._eval_frame`` runs in pool
threads.  Spans stay in memory and are folded into a per-layer table only
when the run ends.

vsorank modules bind names with ``from .autodiff import matmul``, so a
wrapper has to replace the function in every module namespace that holds
it, under whatever name, not only in the defining module.
"""

import functools
import gc
import sys
import threading
from collections import defaultdict
from itertools import count
from time import perf_counter_ns

# (module, attribute, span name).  ``Tensor.backward`` is a method and is
# patched on the class.
TRACED = (
    ("vsorank.autodiff", "Tensor.backward", "autodiff.backward"),
    ("vsorank.autodiff", "matmul", "autodiff.matmul"),
    ("vsorank.autodiff", "conv1x1", "autodiff.conv1x1"),
    ("vsorank.autodiff", "linear", "autodiff.linear"),
    ("vsorank.autodiff", "scaled_softmax", "autodiff.scaled_softmax"),
    ("vsorank.autodiff", "mean_axis", "autodiff.mean_axis"),
    ("vsorank.spatial", "spatial_forward", "spatial.spatial_forward"),
    ("vsorank.temporal", "temporal_mix", "temporal.temporal_mix"),
    ("vsorank.temporal", "frame_scores", "temporal.frame_scores"),
    ("vsorank.temporal", "downsample_mask", "temporal.downsample_mask"),
    ("vsorank.temporal", "rank_assign", "temporal.rank_assign"),
    ("vsorank.temporal", "render_rank_map", "temporal.render_rank_map"),
    ("vsorank.losses", "rank_loss", "losses.rank_loss"),
    ("vsorank.model", "model_scores", "model.model_scores"),
    ("vsorank.model", "model_forward", "model.model_forward"),
    ("vsorank.trainer", "train", "trainer.train"),
    ("vsorank.trainer", "evaluate", "trainer.evaluate"),
    ("vsorank.metrics", "sa_sor", "metrics.sa_sor"),
    ("vsorank.metrics", "match_instances", "metrics.match_instances"),
    ("vsorank.metrics", "iou", "metrics.iou"),
    ("vsorank.metrics", "mae", "metrics.mae"),
    ("vsorank.pgm", "read_pgm16", "pgm.read_pgm16"),
    ("vsorank.dataset", "load_annotations", "dataset.load_annotations"),
    ("vsorank.dataset", "annotation_to_rank_map", "dataset.annotation_to_rank_map"),
    ("vsorank.dataset", "synth_generate", "dataset.synth_generate"),
    ("vsorank.dataset", "save_sequence", "dataset.save_sequence"),
    ("vsorank.dataset", "save_annotations", "dataset.save_annotations"),
    ("vsorank.cli", "main", "cli.main"),
    ("vsorank.cli", "cmd_eval", "cli.cmd_eval"),
    ("vsorank.cli", "_eval_frame", "cli.eval_frame"),
)


def _count_undefined(counters, result):
    if result is None:
        counters["metrics.sa_sor.undefined"] += 1


def _count_pgm_bytes(counters, result):
    counters["pgm.read_pgm16.bytes"] += result.nbytes


# Result observers: count what a call produced, not only that it happened.
OBSERVERS = {
    "metrics.sa_sor": _count_undefined,
    "pgm.read_pgm16": _count_pgm_bytes,
}


def _vsorank_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "vsorank" or name.startswith("vsorank.")]


class Tracer:
    """Records spans of the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans = []  # (name, span_id, parent_id, thread_id, start_ns, end_ns)
        self.counters = defaultdict(int)
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_started = 0
        self._local = threading.local()
        self._ids = count()
        self._restore = []  # (namespace, attribute, original)
        self.missing = []  # span names whose function the program no longer has

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name, fn):
        spans = self.spans
        counters = self.counters
        ids = self._ids
        stack_of = self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((name, span_id, parent, threading.get_ident(), start, end))
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_started = perf_counter_ns()
        elif self._gc_started:
            self.gc_pause_ns += perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = 0

    def install(self):
        """Wrap every traced function in every vsorank namespace that binds it."""
        modules = _vsorank_modules()
        for module_name, attribute, name in TRACED:
            owner = sys.modules.get(module_name)
            *owner_path, attribute = attribute.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attribute)
            if original is None:
                # Gone from this version of the program: the layer reports zero.
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if owner_path:
                self._patch(owner, attribute, wrapper)
                continue
            for namespace in modules:
                for bound_name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, bound_name, wrapper)
        gc.callbacks.append(self._gc_callback)

    def _patch(self, namespace, attribute, value):
        self._restore.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def uninstall(self):
        gc.callbacks.remove(self._gc_callback)
        for namespace, attribute, original in reversed(self._restore):
            setattr(namespace, attribute, original)
        self._restore.clear()

    def mark(self):
        """A position in the span and counter record, for splitting phases."""
        return (len(self.spans), dict(self.counters), self.gc_collections, self.gc_pause_ns)

    def since(self, mark):
        """Spans, counters and GC totals recorded after ``mark``."""
        first, counters, collections, pause_ns = mark
        return {
            "spans": self.spans[first:],
            "counters": {k: v - counters.get(k, 0) for k, v in self.counters.items()},
            "gc_collections": self.gc_collections - collections,
            "gc_pause_ns": self.gc_pause_ns - pause_ns,
        }


def layer_table(spans):
    """Per span name: calls, total ns and self ns.

    Self time is a span's duration minus the time its child spans cover.
    Children run on their parent's thread and nest inside it, so the time
    they cover is the sum of their durations.
    """
    covered = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    table = defaultdict(lambda: [0, 0, 0])
    for name, span_id, _, _, start, end in spans:
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[span_id]
    return dict(table)


def self_ns_on_thread(spans, thread_id):
    """Sum of self times of the spans of one thread."""
    return sum(row[2] for row in layer_table(
        [span for span in spans if span[3] == thread_id]).values())
