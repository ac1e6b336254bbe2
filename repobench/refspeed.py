"""CPU time at reference speed.

On a shared VM the same work takes up to twice as long depending on
the minute, and the vCPU's speed also wobbles within a second. Raw CPU
totals of one run therefore land up to a quarter away from the median
of many runs. This module divides every timed segment by the speed of
the machine at the time, measured with a fixed reference loop timed
with ``time.process_time`` right before and right after each segment.

The loop is shaped like the program's two hot layers, not like a
textbook pure-Python loop. Half of it is a generator per "work-item"
appending events to lists, as the per-item executor does; the other
half is ``np.unique`` over the event keys, as the timing model does.
A small pure-Python loop whose data fits in L1 slowed only 0.5 to 0.6
times as much as the program did when the machine slowed: memory
contention from other tenants hurts the program's big traces more.
This loop tracked the program's slowdown with a slope of 0.9 to 1.05.

A segment's yardstick is the mean of every loop whose midpoint falls
within ``WINDOW_S`` seconds of the segment. That always includes the
two adjacent loops; for long segments (seconds) the caller runs extra
loops before them, because one sample is a poor estimate of the speed
over several seconds. Reported times are
``cpu_s * REF_NOMINAL_MS / yardstick_ms``: the CPU time the segment
would take on a machine where the loop takes exactly
``REF_NOMINAL_MS``.
"""

import gc
import os
import statistics
import sys
import threading
import time

import numpy as np

REF_ITEMS = 4000
REF_EVENTS = 40
REF_UNIQUE = 64000
REF_NOMINAL_MS = 40.0
WINDOW_S = 5.0


def _events(n):
    for i in range(n):
        yield (i * 7919) % 100003


def _ref_work(items=REF_ITEMS):
    lanes = []
    indices = []
    for item in range(items):
        for index in _events(REF_EVENTS):
            lanes.append(item)
            indices.append(index)
    keys = np.asarray(indices, dtype=np.int64) * 4096 + np.asarray(
        lanes, dtype=np.int64
    )
    return len(np.unique(keys[:REF_UNIQUE]))


def reference_loop_ms(items=REF_ITEMS):
    """Time one reference loop, in milliseconds of process CPU time.

    Refuses to run while anything could slow the loop and not the
    program, or the other way round: a trace or profile hook, or a
    second thread sharing the interpreter. Pending garbage is collected
    first and the collector is off during the loop.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("reference loop: a trace or profile hook is set")
    if threading.active_count() != 1:
        raise RuntimeError(
            "reference loop: {} threads alive, want 1".format(
                threading.active_count()
            )
        )
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _ref_work(items)
        cpu = time.process_time() - start
    finally:
        if enabled:
            gc.enable()
    return cpu * 1000.0


def pin_to_one_cpu():
    """Pin this process to one CPU, so the loop and the program it
    measures run on the same vCPU (each drifts on its own). Returns the
    CPU, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def window(refs, start, end, width=WINDOW_S):
    """Loop times (ms) of ``refs``, a list of ``(wall_midpoint, ms)``,
    whose midpoint lies within ``width`` seconds of ``[start, end]``."""
    return [ms for t, ms in refs if start - width <= t <= end + width]


def scale_to_reference(cpu_s, ref_ms):
    """``cpu_s`` at reference speed, given the loop times around it."""
    if not ref_ms:
        raise ValueError("no reference loop around the segment")
    return cpu_s * REF_NOMINAL_MS / statistics.fmean(ref_ms)


class Segment:
    """One timed piece of work: wall interval and raw CPU seconds."""

    __slots__ = ("start", "end", "cpu_s")

    def __init__(self, start, end, cpu_s):
        self.start = start
        self.end = end
        self.cpu_s = cpu_s


class Yardstick:
    """Interleaves reference loops with timed segments and scales each
    segment to reference speed once the run is over (a segment's window
    also holds loops that run after it)."""

    def __init__(self):
        self.refs = []

    def reference(self, loops=1):
        for _ in range(loops):
            start = time.perf_counter()
            ms = reference_loop_ms()
            self.refs.append(((start + time.perf_counter()) / 2, ms))

    def measure(self, fn, *args):
        """Run ``fn(*args)`` and a ``gc.collect()`` as one segment, so
        the next loop neither absorbs nor hides the program's garbage.
        Returns ``(result, segment)``."""
        wall = time.perf_counter()
        cpu = time.process_time()
        result = fn(*args)
        gc.collect()
        cpu = time.process_time() - cpu
        return result, Segment(wall, time.perf_counter(), cpu)

    def scaled_s(self, segment):
        return scale_to_reference(
            segment.cpu_s, window(self.refs, segment.start, segment.end)
        )

    def ref_ms(self):
        return statistics.median(ms for _, ms in self.refs)
