"""Executor micro-benchmark: host interpreter vs per-item vs batch.

The batch tier's reason to exist is wall-clock speed of the simulator
itself (the simulated nanoseconds are identical by construction — see
``tests/integration/test_tier_differential.py``). This module measures
that speed per app with a capture-and-replay harness:

1. **Capture** — run the app end to end once against a GPU target with
   ``CompiledKernel.launch`` wrapped to record every launch payload
   (buffers, scalars, NDRange) before it executes.
2. **Replay** — for each captured kernel, re-execute the recorded
   launches under each tier on fresh buffer copies, timing with
   ``time.perf_counter``. Compilation is warmed (and one untimed replay
   runs) before timing so codegen and tracing caches are excluded.
3. **Host interpreter** — the ``bytecode`` target's full-run wall time,
   as the no-offload baseline for the app.

Results are written as ``BENCH_executor.json`` (see
``benchmarks/perf/``), which CI's perf-smoke job gates on: the batch
tier must not be slower than per-item on any eligible kernel.

By default the benchmark compiles with ``use_local=False`` so that
local-memory tiling does not exclude the compute-heavy apps from the
batch tier (the tier declines kernels with barriers or LOCAL arrays);
``config=None`` on the entry points means "nolocal", not the compiler
default.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from dataclasses import replace as _dc_replace

from repro.apps.registry import BENCHMARKS
from repro.compiler.options import OptimizationConfig
from repro.evaluation.harness import RunSpec, run_configuration
from repro.ioutil import atomic_write_json
from repro.opencl import executor as ex

DEFAULT_MAX_SIM_ITEMS = 4096

# The app the warm-restart measurement journals and resumes.
WARM_RESTART_APP = "jg-series-single"


def nolocal_config():
    """The benchmark's default config: local-memory staging off so the
    batch tier is eligible for every app's kernels."""
    return _dc_replace(OptimizationConfig(), use_local=False)


@contextlib.contextmanager
def capture_launches():
    """Record every ``CompiledKernel.launch`` while the block runs.

    Yields a dict kernel-name -> ``{"kernel": CompiledKernel,
    "launches": [(buffers, scalars, global_size, local_size), ...]}``
    with buffer snapshots taken *before* each launch mutates them.
    """
    captured = {}
    orig = ex.CompiledKernel.launch

    def recording(
        self,
        buffers,
        scalars,
        global_size,
        local_size,
        injector=None,
        guard=None,
        tier=None,
        tracer=None,
        index_base=0,
        device=None,
    ):
        rec = captured.setdefault(
            self.kernel.name, {"kernel": self, "launches": []}
        )
        rec["launches"].append(
            (
                {name: buf.copy() for name, buf in buffers.items()},
                dict(scalars),
                global_size,
                local_size,
            )
        )
        return orig(
            self,
            buffers,
            scalars,
            global_size,
            local_size,
            injector=injector,
            guard=guard,
            tier=tier,
            tracer=tracer,
            index_base=index_base,
            device=device,
        )

    ex.CompiledKernel.launch = recording
    try:
        yield captured
    finally:
        ex.CompiledKernel.launch = orig


def _replay_once(compiled, launches, tier):
    payloads = [
        ({name: buf.copy() for name, buf in bufs.items()}, scalars, gsz, lsz)
        for bufs, scalars, gsz, lsz in launches
    ]
    start = time.perf_counter()
    for bufs, scalars, gsz, lsz in payloads:
        compiled.launch(bufs, scalars, gsz, lsz, tier=tier)
    return time.perf_counter() - start


def _time_replay(compiled, launches, tier, repeats):
    """Best-of-``repeats`` wall time replaying ``launches`` under
    ``tier`` (one untimed warm-up pass first)."""
    _replay_once(compiled, launches, tier)
    return min(_replay_once(compiled, launches, tier) for _ in range(repeats))


def bench_app(
    name,
    scale=1.0,
    max_sim_items=DEFAULT_MAX_SIM_ITEMS,
    repeats=3,
    config=None,
    target="gtx580",
    tracer=None,
):
    """Benchmark one app; returns a plain-dict result.

    ``tracer`` traces the capture run (the end-to-end pass that records
    the launch payloads) — one shared tracer across apps gives
    ``bench --trace-out`` a per-app view of where the simulator spends
    its time.
    """
    bench = BENCHMARKS[name]
    config = config or nolocal_config()
    with capture_launches() as captured:
        run_configuration(
            bench,
            target,
            scale=scale,
            steps=1,
            config=config,
            max_sim_items=max_sim_items,
            tracer=tracer,
        )
    start = time.perf_counter()
    run_configuration(bench, "bytecode", scale=scale, steps=1)
    host_s = time.perf_counter() - start

    kernels = {}
    best = 0.0
    for kname, rec in sorted(captured.items()):
        compiled = rec["kernel"]
        launches = rec["launches"]
        entry = {
            "launches": len(launches),
            "global_size": launches[0][2],
            "eligible": bool(compiled.batch_supported),
        }
        # _batch_callable() can demote after codegen; check it before
        # trusting the static eligibility bit.
        if compiled.batch_supported and compiled._batch_callable() is None:
            entry["eligible"] = False
        if not entry["eligible"]:
            entry["reason"] = compiled.batch_reason
            kernels[kname] = entry
            continue
        per_item_s = _time_replay(compiled, launches, "per-item", repeats)
        batch_s = _time_replay(compiled, launches, "batch", repeats)
        entry["per_item_s"] = per_item_s
        entry["batch_s"] = batch_s
        entry["speedup"] = (
            per_item_s / batch_s if batch_s > 0 else float("inf")
        )
        best = max(best, entry["speedup"])
        kernels[kname] = entry
    return {
        "app": name,
        "target": target,
        "scale": scale,
        "max_sim_items": max_sim_items,
        "host_interp_s": host_s,
        "kernels": kernels,
        "best_batch_speedup": best,
    }


def run_bench(
    apps=None,
    scale=1.0,
    max_sim_items=DEFAULT_MAX_SIM_ITEMS,
    repeats=3,
    config=None,
    target="gtx580",
    out_path=None,
    trace_out=None,
):
    """Benchmark ``apps`` (default: all nine) and optionally write the
    ``BENCH_executor.json`` payload to ``out_path``.

    ``trace_out`` writes one trace file covering every app's capture
    run (Chrome JSON, or JSONL when the path ends in ``.jsonl``).
    """
    from repro.runtime.tracing import Tracer

    tracer = Tracer() if trace_out is not None else None
    apps = list(apps) if apps else sorted(BENCHMARKS)
    results = {
        "target": target,
        "scale": scale,
        "max_sim_items": max_sim_items,
        "repeats": repeats,
        "apps": {},
    }
    for name in apps:
        results["apps"][name] = bench_app(
            name,
            scale=scale,
            max_sim_items=max_sim_items,
            repeats=repeats,
            config=config,
            target=target,
            tracer=tracer,
        )
    results["apps_with_5x_batch_speedup"] = sorted(
        name
        for name, app in results["apps"].items()
        if app["best_batch_speedup"] >= 5.0
    )
    results["warm_restart"] = warm_restart_metrics(
        app=WARM_RESTART_APP,
        target=target,
        scale=METRICS_PIN_SCALE,
        max_sim_items=METRICS_PIN_SIM_ITEMS,
    )
    if out_path is not None:
        atomic_write_json(out_path, results)
    if tracer is not None:
        if str(trace_out).endswith(".jsonl"):
            tracer.write_jsonl(trace_out)
        else:
            tracer.write_chrome(trace_out)
    return results


METRICS_PIN_SCALE = 0.3
METRICS_PIN_SIM_ITEMS = 256


def warm_restart_metrics(
    app=WARM_RESTART_APP,
    target="gtx580",
    scale=METRICS_PIN_SCALE,
    max_sim_items=METRICS_PIN_SIM_ITEMS,
):
    """Measure the crash-recovery warm restart: journal a full run into
    a temp directory (with the on-disk kernel store enabled), drop the
    in-memory kernel cache as a process restart would, resume, and
    report the resumed run's integer counters. The interesting ones:
    ``journal.items_skipped`` (every item served from the WAL) and
    ``cache.disk_hits`` with ``cache.misses`` absent — zero recompiles.
    """
    from repro.opencl import kernel_cache as kc

    bench = BENCHMARKS[app]
    spec = RunSpec(target, scale=scale, steps=1, max_sim_items=max_sim_items)
    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        journal_dir = os.path.join(tmp, "journal")
        kc.configure_disk_store(os.path.join(tmp, "kernels"))
        try:
            cold = run_configuration(bench, spec, journal=journal_dir)
            kc.reset_global_cache()
            warm = run_configuration(
                bench, spec, journal=journal_dir, resume=True
            )
        finally:
            kc.configure_disk_store(None)
            kc.reset_global_cache()
    metrics = {
        key: value
        for key, value in sorted(warm.metrics.items())
        if isinstance(value, int) and not isinstance(value, bool)
    }
    return {
        "app": app,
        "bit_exact": warm.checksum == cold.checksum,
        "metrics": metrics,
    }


def collect_metrics(
    apps=None,
    scale=METRICS_PIN_SCALE,
    max_sim_items=METRICS_PIN_SIM_ITEMS,
    target="gtx580",
):
    """Capture every app's canonical counters at a *pinned* config.

    Runs each app end to end (default compiler config, fixed scale and
    work-item cap — deliberately independent of the REPRO_BENCH_* env
    knobs) and keeps the integer-valued metrics from
    ``RunResult.metrics``: ``executor.launches.*``, ``cache.*``,
    ``transfer.bytes_*``, histogram ``.count``s, and any ``recovery.*``
    / ``guards.*`` activity. Simulated-nanosecond floats are dropped —
    they move legitimately with cost-model tuning, while a count that
    changes means the execution shape changed and should be an explicit
    commit (see ``benchmarks/perf/test_metrics_baseline.py``).
    """
    apps = list(apps) if apps else sorted(BENCHMARKS)
    out = {
        "target": target,
        "scale": scale,
        "max_sim_items": max_sim_items,
        "apps": {},
    }
    for name in apps:
        result = run_configuration(
            BENCHMARKS[name],
            target,
            scale=scale,
            steps=1,
            max_sim_items=max_sim_items,
        )
        out["apps"][name] = {
            key: value
            for key, value in sorted(result.metrics.items())
            if isinstance(value, int) and not isinstance(value, bool)
        }
    # A pseudo-app capturing the journaled warm restart at the same
    # pinned config: its journal.items_skipped / cache.disk_hits counts
    # are diffed against the committed baseline like any other app, so
    # a regression in crash recovery shows up as a CI metrics diff.
    out["apps"]["warm-restart({})".format(WARM_RESTART_APP)] = (
        warm_restart_metrics(
            app=WARM_RESTART_APP,
            target=target,
            scale=scale,
            max_sim_items=max_sim_items,
        )["metrics"]
    )
    return out


def format_bench(results):
    """Human-readable table for the CLI."""
    lines = [
        "executor bench — target {}, scale {}, max-sim-items {}".format(
            results["target"], results["scale"], results["max_sim_items"]
        )
    ]
    for name in sorted(results["apps"]):
        app = results["apps"][name]
        lines.append(
            "{:18s} host-interp {:8.3f}s".format(name, app["host_interp_s"])
        )
        for kname in sorted(app["kernels"]):
            entry = app["kernels"][kname]
            if not entry["eligible"]:
                lines.append(
                    "  {:32s} batch-ineligible: {}".format(
                        kname, entry.get("reason", "?")
                    )
                )
                continue
            lines.append(
                "  {:32s} per-item {:8.3f}s  batch {:8.3f}s  {:6.1f}x".format(
                    kname,
                    entry["per_item_s"],
                    entry["batch_s"],
                    entry["speedup"],
                )
            )
    winners = results.get("apps_with_5x_batch_speedup", [])
    lines.append(
        "apps with >=5x batch speedup: {}".format(
            ", ".join(winners) if winners else "(none)"
        )
    )
    return "\n".join(lines)
