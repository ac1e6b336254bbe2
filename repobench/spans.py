"""Spans around the program's public entry points, from outside ``src/``.

:func:`traced` patches each wrapped name where its callers look it up
(``repro.backend.glue.time_launch``, not ``repro.opencl.timing``; the
frontend through ``repro.apps.base``), records one span per call and
restores every name on exit. Spans stay in memory: a list of
``[name, parent, segment, cpu0, cpu1, wall0, wall1]``. ``segment`` is
the id of the timed segment (one unit, or one phase of a fleet-journal
unit) the span belongs to; its root span is opened by
:meth:`SpanRecorder.segment`.

A span's self time is its CPU time minus the CPU time of its direct
children; :func:`self_times` sums it per span name, and ``LAYER_OF``
maps names to layer metrics. A launch is renamed by the tier it ran
on; one that raises (an injected fault, before any work-item runs)
keeps the name ``executor.launch`` and belongs to no layer.
"""

import contextlib
import functools
import importlib
import time

# Span name -> layer metric its self time counts towards. The root
# span of each segment is the engine: interpreter, task graph and
# everything the wrapped entry points do not cover.
LAYER_OF = {
    "segment": "engine.self_ms",
    "frontend.parse": "frontend.parse_ms",
    "frontend.check": "frontend.check_ms",
    "compiler.compile_filter": "compiler.compile_ms",
    "compiler.fusion": "compiler.compile_ms",
    "kernel_cache.lookup": "kernel_cache.codegen_ms",
    "executor.per_item": "executor.per_item_ms",
    "executor.batch": "executor.batch_ms",
    "timing.time_launch": "timing.ms",
    "marshal.serialize": "marshal.ms",
    "marshal.deserialize": "marshal.ms",
    "glue.prepare": "glue.self_ms",
    "glue.run_prepared": "glue.self_ms",
    "resilience.call": "resilience.self_ms",
    "journal.call": "journal.ms",
    "journal.record": "journal.ms",
    "fleet.call": "fleet.self_ms",
}

_NAME, _PARENT, _SEGMENT, _CPU0, _CPU1, _WALL0, _WALL1 = range(7)


class SpanRecorder:
    """In-memory spans plus the counts the program does not report."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._segment = None
        # Per segment: sites timed, work-items launched, bytes marshalled.
        self.counts = {}
        # When a list, run_prepared outputs are appended as (task, value).
        self.capture = None

    @contextlib.contextmanager
    def segment(self, segment_id):
        """Root span of one timed segment."""
        self._segment = segment_id
        self.counts[segment_id] = {
            "timing.sites": 0,
            "executor.work_items": 0,
            "marshal.bytes": 0,
        }
        sid = self._open("segment")
        try:
            yield
        finally:
            self._close(sid)
            self._segment = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self._segment, time.process_time(), 0.0,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, sid):
        span = self.spans[sid]
        span[_CPU1] = time.process_time()
        span[_WALL1] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs, on_result=None):
        sid = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid)
        if on_result is not None:
            on_result(self, self.spans[sid], args, result)
        return result

    def count(self, key, n):
        if self._segment is not None:
            self.counts[self._segment][key] += n


def _on_launch(rec, span, args, trace):
    span[_NAME] = "executor.batch" if trace.tier == "batch" else "executor.per_item"
    rec.count("executor.work_items", trace.global_size)


def _on_time_launch(rec, span, args, timing):
    rec.count("timing.sites", len(args[0].sites))


def _on_serialize(rec, span, args, result):
    rec.count("marshal.bytes", len(result[0]))


def _on_run_prepared(rec, span, args, result):
    if rec.capture is not None:
        rec.capture.append((args[0].name, result))


# (module, owner attribute or None for a module function, name, span,
# result hook)
_PATCHES = (
    ("repro.apps.base", None, "parse_program", "frontend.parse", None),
    ("repro.apps.base", None, "check_program", "frontend.check", None),
    ("repro.compiler.pipeline", "Offloader", "compile_filter",
     "compiler.compile_filter", None),
    ("repro.compiler.pipeline", "FleetOffloader", "compile_filter",
     "compiler.compile_filter", None),
    ("repro.compiler.fusion", "FusionPlanner", "apply", "compiler.fusion",
     None),
    ("repro.compiler.pipeline", None, "cached_compile_kernel",
     "kernel_cache.lookup", None),
    ("repro.opencl.executor", "CompiledKernel", "launch", "executor.launch",
     _on_launch),
    ("repro.backend.glue", None, "time_launch", "timing.time_launch",
     _on_time_launch),
    ("repro.runtime.marshal", None, "serialize", "marshal.serialize",
     _on_serialize),
    ("repro.runtime.marshal", None, "deserialize", "marshal.deserialize",
     None),
    ("repro.backend.glue", "CompiledFilter", "prepare", "glue.prepare", None),
    ("repro.backend.glue", "CompiledFilter", "run_prepared",
     "glue.run_prepared", _on_run_prepared),
    ("repro.runtime.resilience", "ResilientWorker", "__call__",
     "resilience.call", None),
    ("repro.runtime.journal", "JournaledWorker", "__call__", "journal.call",
     None),
    ("repro.runtime.journal", "RunJournal", "record_inflight",
     "journal.record", None),
    ("repro.runtime.journal", "RunJournal", "record_item", "journal.record",
     None),
    ("repro.runtime.journal", "RunJournal", "record_aborted",
     "journal.record", None),
    ("repro.runtime.journal", "RunJournal", "record_complete",
     "journal.record", None),
    ("repro.runtime.fleet", "FleetWorker", "__call__", "fleet.call", None),
)


def _wrapper(rec, name, fn, on_result):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, on_result)

    return wrapped


@contextlib.contextmanager
def traced(rec):
    """Route every wrapped entry point through ``rec`` for the duration."""
    restore = []
    try:
        for module_name, owner_name, attr, name, on_result in _PATCHES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            setattr(owner, attr, _wrapper(rec, name, original, on_result))
            restore.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans):
    """``{segment: {span name: (self CPU seconds, calls)}}`` over closed
    spans."""
    child_cpu = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_cpu[span[_PARENT]] += span[_CPU1] - span[_CPU0]
    out = {}
    for i, span in enumerate(spans):
        per_name = out.setdefault(span[_SEGMENT], {})
        cpu, calls = per_name.get(span[_NAME], (0.0, 0))
        per_name[span[_NAME]] = (
            cpu + span[_CPU1] - span[_CPU0] - child_cpu[i],
            calls + 1,
        )
    return out


def wall_minus_cpu(spans, name):
    """Per segment, summed wall minus CPU seconds of spans named
    ``name``: the time those calls spent waiting (an fsync)."""
    out = {}
    for span in spans:
        if span[_NAME] == name:
            waited = (span[_WALL1] - span[_WALL0]) - (span[_CPU1] - span[_CPU0])
            out[span[_SEGMENT]] = out.get(span[_SEGMENT], 0.0) + waited
    return out
