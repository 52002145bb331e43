"""Spans around the calls into each pathfield module, for the traced run.

A module resolves a name it imports through its own globals, so the
tracer replaces module attributes, one binding at a time:
`pathfield.trainer.hungarian` is the binding the trainer calls, and
wrapping only `pathfield.matching.hungarian` would miss it, because the
trainer imports the name directly.

Spans stay in memory as (name, start, end, parent, run id) and are
written out once the benchmark ends. Nothing under `src/` changes, and
the wrappers pass arguments and results through untouched, so traced
and untraced runs write the same bytes.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from pathfield.neural_field import named_parameters


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run_id: str


def _head_bytes(args, kwargs, result) -> dict:
    # zero_gradients(params) allocates one array per parameter plus the codeword
    params = args[0]
    floats = sum(arr.size for arr in named_parameters(params).values()) + params.config.code_dim
    return {"neural_field.grad_alloc_bytes": 8 * floats}


def _dtw_cells(args, kwargs, result) -> dict:
    return {"metrics.dtw_align.cells": len(args[0]) * len(args[1])}


def _adam_floats(args, kwargs, result) -> dict:
    gradients = args[1] if len(args) > 1 else kwargs["gradients"]
    return {"trainer.adam_step.floats": sum(g.size for g in gradients.values())}


def _saved_checkpoint(args, kwargs, result) -> dict:
    return {"trainer.save_checkpoint.bytes": os.path.getsize(args[1])}


def _dataio_written(args, kwargs, result) -> dict:
    return {"dataio.bytes_written": os.path.getsize(args[1])}


# (module, attribute, span name, counter). Each row is one binding that
# the workloads call through: the module named first holds the calling
# code. The benchmark's own calls go through `pathfield.trainer`.
TRACE_POINTS = (
    ("matching", "resample", "paths.resample", None),
    ("metrics", "resample", "paths.resample", None),
    ("trainer", "pad_targets", "matching.pad_targets", None),
    ("trainer", "position_cost_matrix", "matching.position_cost_matrix", None),
    ("trainer", "hungarian", "matching.hungarian", None),
    ("matching", "_lex_smallest_tight_matching", "matching.lex_tight", None),
    ("trainer", "_forward_with_cache", "neural_field.forward", None),
    ("trainer", "_confidence_with_cache", "neural_field.forward", None),
    ("trainer", "_backward_from_cache", "neural_field.backward", None),
    ("trainer", "_conf_backward_from_cache", "neural_field.conf_backward", None),
    ("trainer", "accumulate_gradients", "neural_field.accumulate", None),
    ("trainer", "zero_gradients", "neural_field.zero_gradients", _head_bytes),
    ("neural_field", "zero_gradients", "neural_field.zero_gradients", _head_bytes),
    ("trainer", "head_forward_batch", "neural_field.predict_forward", None),
    ("trainer", "confidence_forward", "neural_field.predict_forward", None),
    # train_epoch holds every optimizer step of one epoch
    ("trainer", "train_epoch", "trainer.step", None),
    ("trainer", "_object_gradients", "trainer.object_gradients", None),
    ("trainer", "adam_step", "trainer.adam_step", _adam_floats),
    ("trainer", "predict", "trainer.predict", None),
    ("cli", "predict", "trainer.predict", None),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint", _saved_checkpoint),
    ("cli", "save_checkpoint", "trainer.save_checkpoint", _saved_checkpoint),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("cli", "load_checkpoint", "trainer.load_checkpoint", None),
    ("metrics", "dtw_align", "metrics.dtw_align", _dtw_cells),
    ("metrics", "pose_fscore", "metrics.pose_fscore", None),
    ("metrics", "_ap_from_entries", "metrics.ap_sweep", None),
    ("metrics", "pcd", "metrics.pcd", None),
    ("cli", "evaluate_dataset", "metrics.evaluate_dataset", None),
    ("cli", "load_dataset", "dataio.load_dataset", None),
    ("cli", "save_dataset", "dataio.save_dataset", _dataio_written),
    ("cli", "save_report", "dataio.save_report", _dataio_written),
    ("cli", "_cmd_gen", "cli.gen", None),
    ("cli", "_cmd_fit", "cli.fit", None),
    ("cli", "_cmd_predict", "cli.predict", None),
    ("cli", "_cmd_evaluate", "cli.evaluate", None),
)

# Per-layer metrics of the traced run: (name, unit, how it is computed).
# "s" sums span durations, "self_s" subtracts the time of child spans,
# "calls" counts spans, "counter" reads a counter kept by the wrappers.
PER_LAYER = (
    ("paths.resample.calls", "count", ("calls", "paths.resample")),
    ("paths.resample.s", "s", ("s", "paths.resample")),
    ("matching.pad_targets.s", "s", ("s", "matching.pad_targets")),
    ("matching.position_cost_matrix.s", "s", ("s", "matching.position_cost_matrix")),
    ("matching.hungarian.calls", "count", ("calls", "matching.hungarian")),
    ("matching.hungarian.s", "s", ("s", "matching.hungarian")),
    ("matching.lex_tight.s", "s", ("s", "matching.lex_tight")),
    ("matching.hungarian.tie_share", "share", ("tie_share", None)),
    ("neural_field.forward.calls", "count", ("calls", "neural_field.forward")),
    ("neural_field.forward.s", "s", ("s", "neural_field.forward")),
    ("neural_field.backward.calls", "count", ("calls", "neural_field.backward")),
    ("neural_field.backward.s", "s", ("s", "neural_field.backward")),
    ("neural_field.conf_backward.calls", "count", ("calls", "neural_field.conf_backward")),
    ("neural_field.conf_backward.s", "s", ("s", "neural_field.conf_backward")),
    ("neural_field.accumulate.calls", "count", ("calls", "neural_field.accumulate")),
    ("neural_field.accumulate.s", "s", ("s", "neural_field.accumulate")),
    ("neural_field.zero_gradients.calls", "count", ("calls", "neural_field.zero_gradients")),
    ("neural_field.zero_gradients.s", "s", ("s", "neural_field.zero_gradients")),
    ("neural_field.grad_alloc_mb", "MB", ("counter_mb", "neural_field.grad_alloc_bytes")),
    ("neural_field.predict_forward.s", "s", ("s", "neural_field.predict_forward")),
    ("trainer.step.s", "s", ("s", "trainer.step")),
    ("trainer.step.covered_share", "share", ("covered_share", None)),
    ("trainer.object_gradients.self_s", "s", ("self_s", "trainer.object_gradients")),
    ("trainer.adam_step.s", "s", ("s", "trainer.adam_step")),
    ("trainer.adam_step.floats", "count", ("counter", "trainer.adam_step.floats")),
    ("trainer.predict.s", "s", ("s", "trainer.predict")),
    ("trainer.save_checkpoint.s", "s", ("s", "trainer.save_checkpoint")),
    ("trainer.save_checkpoint.mb", "MB", ("counter_mb", "trainer.save_checkpoint.bytes")),
    ("trainer.load_checkpoint.s", "s", ("s", "trainer.load_checkpoint")),
    ("metrics.dtw_align.calls", "count", ("calls", "metrics.dtw_align")),
    ("metrics.dtw_align.cells", "count", ("counter", "metrics.dtw_align.cells")),
    ("metrics.dtw_align.s", "s", ("s", "metrics.dtw_align")),
    ("metrics.pose_fscore.self_s", "s", ("self_s", "metrics.pose_fscore")),
    ("metrics.ap_sweep.calls", "count", ("calls", "metrics.ap_sweep")),
    ("metrics.ap_sweep.s", "s", ("s", "metrics.ap_sweep")),
    ("metrics.pcd.s", "s", ("s", "metrics.pcd")),
    ("metrics.evaluate_dataset.s", "s", ("s", "metrics.evaluate_dataset")),
    ("dataio.load_dataset.s", "s", ("s", "dataio.load_dataset")),
    ("dataio.save_dataset.s", "s", ("s", "dataio.save_dataset")),
    ("dataio.save_report.s", "s", ("s", "dataio.save_report")),
    ("dataio.bytes_written", "bytes", ("counter", "dataio.bytes_written")),
    ("cli.gen.s", "s", ("s", "cli.gen")),
    ("cli.fit.s", "s", ("s", "cli.fit")),
    ("cli.predict.s", "s", ("s", "cli.predict")),
    ("cli.evaluate.s", "s", ("s", "cli.evaluate")),
    ("tracing.overhead_share", "share", ("overhead_share", None)),
)


class Tracer:
    """Records one span per call through every binding in TRACE_POINTS."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, Counter] = defaultdict(Counter)  # run id -> counts
        self.run_id = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding; a binding the program no longer has is listed in `missing`."""
        for module_name, attr, span_name, counter in TRACE_POINTS:
            module = importlib.import_module(f"pathfield.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"pathfield.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span_name, counter))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, span_name: str, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(span_name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                self.counters[self.run_id].update(counter(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.run_id]) + "\n")

    def layer_metrics(self, run_id: str, overhead_share: float) -> dict:
        """Every PER_LAYER metric over the spans of one run id."""
        chosen = [i for i, span in enumerate(self.spans) if span.run_id == run_id]
        total = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for i in chosen:
            span = self.spans[i]
            duration = span.end - span.start
            total[span.name] += duration
            calls[span.name] += 1
            if span.parent >= 0:
                child_time[span.parent] += duration
        self_time = defaultdict(float)
        for i in chosen:
            span = self.spans[i]
            self_time[span.name] += span.end - span.start - child_time[i]

        step = total["trainer.step"]
        uncovered = self_time["trainer.step"] + self_time["trainer.object_gradients"]
        derived = {
            "tie_share": calls["matching.lex_tight"] / max(calls["matching.hungarian"], 1),
            "covered_share": (step - uncovered) / step if step > 0 else 0.0,
            "overhead_share": overhead_share,
        }
        counters = self.counters[run_id]
        out = {}
        for name, unit, (kind, key) in PER_LAYER:
            if kind == "calls":
                value = calls[key]
            elif kind == "s":
                value = total[key]
            elif kind == "self_s":
                value = self_time[key]
            elif kind == "counter":
                value = counters[key]
            elif kind == "counter_mb":
                value = counters[key] / 1e6
            else:
                value = derived[kind]
            out[name] = {"value": value, "unit": unit}
        return out
