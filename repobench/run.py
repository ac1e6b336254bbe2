"""Steady end-to-end and per-layer benchmark of the Lime->OpenCL simulator.

Run from the root of a checkout::

    python3 repobench/run.py --workload tiled --seed 1 --seconds 25 --trace 0

It drives the program from outside, through
``repro.evaluation.harness.run_configuration`` (the function behind
``repro run``), in this one single-threaded process:

1. set-up, repeated ``SETUP_REPEATS`` times: import the program, draw
   the seeded inputs, make the fixture directory;
2. a check pass: one traced unit per program (plus, on
   ``fleet-journal``, a single-device run of the same stream) whose
   filter outputs must match the app's NumPy reference; it fixes the
   checksum and simulated time every later unit must reproduce;
3. whole rounds of units, each round in a seeded order, until
   ``--seconds`` have passed. With ``--trace 1`` every program runs one
   untraced and one traced unit per round.

Every time is CPU time at reference speed (``refspeed.py``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (units) and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. Rows above
it give each program's median and, on ``fleet-journal``, the resume
time. Spans of a traced run are written to ``.repobench/``.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import refspeed
from inputs import make_inputs
from spans import LAYER_OF, SpanRecorder, self_times, traced, wall_minus_cpu
from workloads import (
    SCALE,
    WORKLOADS,
    check_outputs,
    fleet_phase,
    solo_unit,
    steps_for,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".repobench")

SETUP_REPEATS = 5

# What a `repro run` process imports before its first unit, fleet and
# journal included, so set-up is the same on every workload.
SETUP_MODULES = (
    "repro.apps.registry",
    "repro.evaluation.harness",
    "repro.opencl.kernel_cache",
    "repro.runtime.resilience",
    "repro.runtime.journal",
    "repro.runtime.fleet",
    "repro.compiler.fusion",
)

# name -> unit, in the order printed. BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "run_ms.gmean": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "frontend.parse_ms": "ms",
    "frontend.check_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.filters": "count",
    "fusion.elisions": "count",
    "fusion.rematerialized": "count",
    "kernel_cache.codegen_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.disk_hits": "count",
    "executor.per_item_ms": "ms",
    "executor.batch_ms": "ms",
    "executor.launches.per-item": "count",
    "executor.launches.batch": "count",
    "executor.work_items": "count",
    "timing.ms": "ms",
    "timing.sites": "count",
    "timing.sim_ns": "ns",
    "marshal.ms": "ms",
    "marshal.bytes": "B",
    "glue.self_ms": "ms",
    "glue.items": "count",
    "engine.self_ms": "ms",
    "resilience.self_ms": "ms",
    "recovery.faults": "count",
    "recovery.retries": "count",
    "recovery.failovers": "count",
    "recovery.fallbacks": "count",
    "resilience.useful_frac": "fraction",
    "journal.record_ms": "ms",
    "journal.fsync_wait_ms": "ms",
    "journal.records": "count",
    "journal.bytes": "B",
    "journal.replay_ms": "ms",
    "journal.items_skipped": "count",
    "fleet.self_ms": "ms",
    "fleet.attempts": "count",
    "bench.ref_ms": "ms",
    "bench.trace_overhead_frac": "fraction",
    "bench.coverage_frac": "fraction",
}

# Counts the record (or only) phase reports in RunResult.metrics. The
# resume phase re-applies the journaled deltas of these, so it would
# count them twice.
_RECORD_COUNTS = (
    "fusion.elisions",
    "fusion.rematerialized",
    "executor.launches.per-item",
    "executor.launches.batch",
    "recovery.faults",
    "recovery.retries",
    "recovery.failovers",
    "recovery.fallbacks",
)
_CACHE_COUNTS = ("cache.hits", "cache.misses", "cache.disk_hits")


def gmean(values):
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Unit:
    """One timed unit: its segments (one per phase) and results."""

    def __init__(self, app, traced_unit):
        self.app = app
        self.traced = traced_unit
        self.phases = {}  # phase -> (segment, segment id or None)
        self.results = {}  # phase -> RunResult
        self.journal_bytes = 0


class Run:
    def __init__(self, workload, seed, trace):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.rng = np.random.default_rng([seed, 0x5EED])
        self.fault_seed = int(self.rng.integers(0, 2**31 - 1))
        self.ys = refspeed.Yardstick()
        self.rec = SpanRecorder()
        self.work = os.path.join(OUT_DIR, "work-{}".format(os.getpid()))
        self.inputs = {}
        self.expected = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.units = []
        self._last_cpu = {}
        self._journals = 0

    # -- set-up ----------------------------------------------------------

    def _setup_once(self):
        stale = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
        for name in stale:
            del sys.modules[name]
        for name in SETUP_MODULES:
            importlib.import_module(name)
        inputs = {
            app: make_inputs(app, self.seed, SCALE) for app in self.wl.programs
        }
        os.makedirs(self.work)
        return inputs

    def setup(self):
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.ys.reference()
            self.inputs, segment = self.ys.measure(self._setup_once)
            self.setups.append(segment)

    # -- check pass ------------------------------------------------------

    def _journal_dir(self):
        self._journals += 1
        path = os.path.join(self.work, "journal-{}".format(self._journals))
        os.makedirs(path)
        return path

    def _fleet_problems(self, app, solo_checksum, record, resume):
        problems = []
        sums = (record.checksum, resume.checksum, solo_checksum)
        if len(set(sums)) != 1:
            problems.append(
                "{}: record/resume/solo checksums differ: {!r}".format(app, sums)
            )
        recorded = record.journal.get("items_journaled", 0)
        skipped = resume.journal.get("items_skipped", -1)
        if recorded == 0 or skipped != recorded:
            problems.append(
                "{}: resume skipped {} of {} journaled items".format(
                    app, skipped, recorded
                )
            )
        return problems

    def _check_program(self, app, rec):
        arrays = self.inputs[app]
        steps = steps_for(self.wl, app)
        rec.capture = []
        with traced(rec), rec.segment((app, "solo")):
            solo = solo_unit(app, arrays, steps)
        captured, rec.capture = rec.capture, None
        problems = check_outputs(app, arrays, captured, steps)
        expected = {"run": (solo.checksum, solo.total_ns)}
        if self.wl.fleet:
            path = self._journal_dir()
            try:
                with traced(rec):
                    with rec.segment((app, "record")):
                        record = fleet_phase(
                            app, arrays, steps, self.fault_seed, path, False
                        )
                    with rec.segment((app, "resume")):
                        resume = fleet_phase(
                            app, arrays, steps, self.fault_seed, path, True
                        )
            finally:
                shutil.rmtree(path, ignore_errors=True)
            problems += self._fleet_problems(app, solo.checksum, record, resume)
            expected = {
                "record": (record.checksum, record.total_ns),
                "resume": (resume.checksum, resume.total_ns),
            }
        self.expected[app] = expected
        return problems

    def _missing_layers(self, rec, what):
        calls = {}
        for span in rec.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        return [
            "{}: no {} call on {}".format(what, name, self.wl.name)
            for name in self.wl.required
            if not calls.get(name)
        ]

    def check_pass(self):
        rec = SpanRecorder()
        for app in self.wl.programs:
            self._attempt(self._check_program, app, rec)
        self.problems += self._missing_layers(rec, "check pass")

    # -- timed units -----------------------------------------------------

    def _attempt(self, fn, *args):
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception:
            problems = ["{} {}: raised\n{}".format(
                fn.__name__, args[0], traceback.format_exc())]
        if problems:
            self.failed += 1
            self.problems += problems

    def _measure(self, unit, phase, fn, *args):
        """Time ``fn(*args)`` as ``unit``'s ``phase``, traced when the
        unit is; the root span covers the same region as the timer."""
        key = (unit.app, phase)
        # Long units get more loops before them: one 40 ms sample is a
        # poor estimate of the speed over several seconds.
        self.ys.reference(1 + int(self._last_cpu.get(key, 0.0)))
        sid = None
        if unit.traced:
            sid = len(self.rec.counts)
            with traced(self.rec), self.rec.segment(sid):
                result, segment = self.ys.measure(fn, *args)
        else:
            result, segment = self.ys.measure(fn, *args)
        self._last_cpu[key] = segment.cpu_s
        unit.phases[phase] = (segment, sid)
        unit.results[phase] = result

    def _timed_unit(self, app, traced_unit):
        unit = Unit(app, traced_unit)
        arrays = self.inputs[app]
        steps = steps_for(self.wl, app)
        expected = self.expected.get(app)
        if expected is None:
            return ["{}: no check-pass result to compare with".format(app)]
        if not self.wl.fleet:
            self._measure(unit, "run", solo_unit, app, arrays, steps)
        else:
            path = self._journal_dir()
            try:
                for phase in ("record", "resume"):
                    self._measure(
                        unit, phase, fleet_phase, app, arrays, steps,
                        self.fault_seed, path, phase == "resume",
                    )
                unit.journal_bytes = os.path.getsize(
                    os.path.join(path, "journal.wal")
                )
            finally:
                shutil.rmtree(path, ignore_errors=True)
        problems = []
        for phase, want in expected.items():
            result = unit.results[phase]
            got = (result.checksum, result.total_ns)
            if got != want:
                problems.append(
                    "{} {}: (checksum, total_ns) {!r}, check pass had "
                    "{!r}".format(app, phase, got, want)
                )
        if self.wl.fleet:
            problems += self._fleet_problems(
                app, expected["record"][0], unit.results["record"],
                unit.results["resume"],
            )
        if not problems:
            self.units.append(unit)
        return problems

    def timed_rounds(self, seconds):
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            order = self.rng.permutation(len(self.wl.programs))
            for index in order:
                app = self.wl.programs[index]
                kinds = (False,) if not self.trace else (
                    (False, True) if rounds % 2 == 0 else (True, False)
                )
                for traced_unit in kinds:
                    self._attempt(self._timed_unit, app, traced_unit)
            rounds += 1
        self.ys.reference()
        if self.trace:
            self.problems += self._missing_layers(self.rec, "traced run")
        return rounds

    # -- metrics ---------------------------------------------------------

    def program_medians(self, traced_units):
        """app -> (median record/only phase s, median resume s or None,
        median unit s) over the successful units of one kind."""
        out = {}
        for app in self.wl.programs:
            units = [u for u in self.units if u.app == app and u.traced == traced_units]
            if not units:
                continue
            first = "record" if self.wl.fleet else "run"
            runs = [self.ys.scaled_s(u.phases[first][0]) for u in units]
            resumes = None
            totals = runs
            if self.wl.fleet:
                resumes = [self.ys.scaled_s(u.phases["resume"][0]) for u in units]
                totals = [a + b for a, b in zip(runs, resumes)]
            out[app] = (
                statistics.median(runs),
                statistics.median(resumes) if resumes else None,
                statistics.median(totals),
                len(units),
            )
        return out

    def end_to_end(self, medians):
        return {
            "setup_s": statistics.median(self.ys.scaled_s(s) for s in self.setups),
            "cpu_s": sum(m[0] for m in medians.values()),
            "run_ms.gmean": gmean([m[2] * 1000.0 for m in medians.values()]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def sim_ns(self):
        """Simulated total over programs, as the check pass ran them."""
        return float(sum(
            (want.get("run") or want["record"])[1]
            for want in self.expected.values()
        ))

    def _unit_layers(self, unit, selfs, waits):
        """Per-layer values of one traced unit: self times at reference
        speed (ms) plus the counts its RunResults and spans report."""
        ms = {}
        covered = 0.0
        cpu = 0.0
        counts = {"compiler.filters": 0, "journal.records": 0,
                  "timing.sites": 0, "executor.work_items": 0,
                  "marshal.bytes": 0}
        fsync = 0.0
        for phase, (segment, sid) in unit.phases.items():
            factor = self.ys.scaled_s(segment) / max(segment.cpu_s, 1e-9)
            cpu += segment.cpu_s
            for name, (self_cpu, calls) in selfs.get(sid, {}).items():
                if name != "segment":
                    covered += self_cpu
                if name == "compiler.compile_filter":
                    counts["compiler.filters"] += calls
                if name == "journal.record":
                    counts["journal.records"] += calls
                metric = LAYER_OF.get(name)
                if metric is None:
                    continue
                if metric == "journal.ms":
                    metric = (
                        "journal.replay_ms" if phase == "resume"
                        else "journal.record_ms"
                    )
                ms[metric] = ms.get(metric, 0.0) + self_cpu * factor * 1000.0
            for key, n in self.rec.counts[sid].items():
                counts[key] += n
            fsync += waits.get(sid, 0.0) * 1000.0
        first = unit.results.get("record") or unit.results["run"]
        metrics = first.metrics
        for key in _RECORD_COUNTS:
            counts[key] = metrics.get(key, 0)
        for key in _CACHE_COUNTS:
            counts[key] = sum(r.metrics.get(key, 0) for r in unit.results.values())
        counts["glue.items"] = metrics.get("task.invoke_ns.count", 0)
        attempts = sum(
            v for k, v in metrics.items() if k.startswith("queue.submitted.")
        )
        counts["fleet.attempts"] = attempts
        counts["timing.sim_ns"] = first.total_ns
        counts["journal.bytes"] = unit.journal_bytes
        resume = unit.results.get("resume")
        counts["journal.items_skipped"] = (
            resume.journal.get("items_skipped", 0) if resume else 0
        )
        ms["journal.fsync_wait_ms"] = fsync
        return ms, counts, (covered, cpu)

    def per_layer(self, medians_untraced, medians_traced):
        selfs = self_times(self.rec.spans)
        waits = wall_minus_cpu(self.rec.spans, "journal.record")
        values = {name: 0.0 for name in PER_LAYER}
        covered = cpu = 0.0
        for app in self.wl.programs:
            units = [u for u in self.units if u.app == app and u.traced]
            if not units:
                continue
            layers = [self._unit_layers(u, selfs, waits) for u in units]
            for name in set().union(*(ms for ms, _, _ in layers)):
                values[name] += statistics.median(
                    ms.get(name, 0.0) for ms, _, _ in layers
                )
            # Counts repeat exactly from unit to unit: take the last.
            for name, n in layers[-1][1].items():
                values[name] += n
            covered += sum(c for _, _, (c, _) in layers)
            cpu += sum(t for _, _, (_, t) in layers)
        apps = [a for a in medians_traced if a in medians_untraced]
        if apps:
            values["bench.trace_overhead_frac"] = (
                sum(medians_traced[a][2] for a in apps)
                / sum(medians_untraced[a][2] for a in apps)
                - 1.0
            )
        values["bench.coverage_frac"] = covered / cpu if cpu else 0.0
        if values["fleet.attempts"]:
            values["resilience.useful_frac"] = (
                values["glue.items"] / values["fleet.attempts"]
            )
        values["bench.ref_ms"] = self.ys.ref_ms()
        return values

    def write_spans(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, "spans-{}-seed{}.json".format(self.wl.name, self.seed)
        )
        segments = {
            sid: {"app": u.app, "phase": phase}
            for u in self.units
            for phase, (_, sid) in u.phases.items()
            if sid is not None
        }
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "segment", "cpu0", "cpu1",
                               "wall0", "wall1"],
                    "segments": segments,
                    "spans": self.rec.spans,
                },
                fh,
            )
        return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("repobench: no program at {}".format(SRC), file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    refspeed.pin_to_one_cpu()

    run = Run(args.workload, args.seed, args.trace)
    try:
        run.setup()
        run.check_pass()
        rounds = run.timed_rounds(args.seconds)
        untraced = run.program_medians(False)
        traced_medians = run.program_medians(True)
        if args.trace:
            metrics = run.per_layer(untraced, traced_medians)
            names = PER_LAYER
            print("spans: {}".format(os.path.relpath(run.write_spans(), ROOT)))
        else:
            metrics = run.end_to_end(untraced)
            names = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if len(untraced) < len(run.wl.programs):
        run.problems.append("a program has no successful timed unit")
    for problem in run.problems:
        print("repobench: FAILED {}".format(problem), file=sys.stderr)
    print("workload {}  seed {}  trace {}  rounds {}  units {}  failed {}  "
          "fault seed {}".format(args.workload, args.seed, args.trace, rounds,
                                 run.attempted, run.failed, run.fault_seed))
    for app, (first, resume, total, n) in sorted(untraced.items()):
        print("program.{}.run_ms {:.3f} ms (median of {})".format(
            app, total * 1000.0, n))
    if run.wl.fleet and untraced:
        print("resume_s {:.6f} s".format(
            sum(m[1] for m in untraced.values())))
    print("timing.sim_ns {!r} ns".format(run.sim_ns()))
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
