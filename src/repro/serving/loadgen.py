"""The serving load generator behind ``repro serve-bench``.

Measures the daemon the way an operator would: two phases over the same
workload —

- **clean**: N sessions across T tenants on the shared device fleet,
  no faults;
- **chaos**: the same workload with fault injection and a device killed
  mid-serve (``--kill-device``), which exercises failover, demotion,
  and admission under degraded capacity.

Each phase reports sessions/sec, p50/p99 session wall latency, the
per-code rejection counts, and recovery totals. Every completed
session's checksum is compared against a *solo* run of the same
benchmark at the same shape (single target, no serving daemon, no
faults) — fault recovery and fleet placement affect only simulated
timing, never values, so ``bit_exact`` must hold in both phases.

Results land in ``BENCH_serving.json`` (same
:func:`repro.ioutil.atomic_write_json` convention as the executor and
recovery benches) for the CI artifact upload.
"""

from __future__ import annotations

from dataclasses import replace

from repro.apps.registry import BENCHMARKS
from repro.evaluation.harness import FaultFlags, run_configuration
from repro.ioutil import atomic_write_json
from repro.serving.server import ServeConfig, ServeDaemon
from repro.serving.session import COMPLETED, SessionSpec

# Fast stream apps first: the bench should spend its wall clock on
# concurrency, not on any one giant kernel.
DEFAULT_APPS = ["jg-series-single", "mosaic", "jg-crypt"]


def build_workload(
    sessions=8,
    tenants=2,
    apps=None,
    scale=0.2,
    steps=None,
    deadline_ms=None,
):
    """Round-robin ``sessions`` specs across ``tenants`` and ``apps``."""
    apps = list(apps or DEFAULT_APPS)
    for name in apps:
        if name not in BENCHMARKS:
            raise KeyError("unknown benchmark '{}'".format(name))
    specs = []
    for idx in range(sessions):
        specs.append(
            SessionSpec(
                name="s{:03d}".format(idx),
                benchmark=apps[idx % len(apps)],
                tenant="t{}".format(idx % max(1, tenants)),
                scale=scale,
                steps=steps,
                deadline_ms=deadline_ms,
            )
        )
    return specs


def quantile(values, q):
    """Nearest-rank quantile of ``values`` (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def solo_checksums(specs, run):
    """Ground-truth checksum per benchmark: a clean solo run of each
    session's workload shape under ``run`` (a single-device
    :class:`RunSpec`)."""
    out = {}
    for spec in specs:
        if spec.benchmark in out:
            continue
        result = run_configuration(
            BENCHMARKS[spec.benchmark], run, scale=spec.scale, steps=spec.steps
        )
        out[spec.benchmark] = result.checksum
    return out


def run_phase(config, specs, wall_clock):
    """Serve ``specs`` on a fresh daemon; returns the summarized phase
    plus the raw report."""
    daemon = ServeDaemon(config)
    start = wall_clock()
    report = daemon.serve(specs)
    wall_s = max(wall_clock() - start, 1e-9)
    sessions = report["sessions"]
    completed = [s for s in sessions.values() if s["state"] == COMPLETED]
    latencies = [
        s["wall_ms"] for s in sessions.values() if s["wall_ms"] is not None
    ]
    metrics = report["metrics"]
    rejected = {
        name.split("serving.rejected.", 1)[1]: value
        for name, value in metrics.items()
        if name.startswith("serving.rejected.")
    }
    return {
        "wall_s": wall_s,
        "counts": report["counts"],
        "sessions_per_sec": len(completed) / wall_s,
        "latency_ms": {
            "p50": quantile(latencies, 0.50),
            "p99": quantile(latencies, 0.99),
            "max": max(latencies) if latencies else None,
        },
        "rejected": rejected,
        "recovery": {
            "faults": metrics.get("recovery.faults", 0),
            "retries": metrics.get("recovery.retries", 0),
            "failovers": metrics.get("recovery.failovers", 0),
            "fallbacks": metrics.get("recovery.fallbacks", 0),
            "demotions": metrics.get("recovery.demotions", 0),
        },
        "fleet": report["fleet"],
        "checksums": {
            name: s.get("checksum")
            for name, s in sessions.items()
            if s["state"] == COMPLETED
        },
        "benchmarks": {
            name: s["benchmark"] for name, s in sessions.items()
        },
    }


def check_bit_exact(phase, solo):
    """Every completed session's checksum must equal its benchmark's
    solo ground truth; returns the mismatch list (empty = bit-exact)."""
    mismatches = []
    for name, checksum in phase["checksums"].items():
        expected = solo.get(phase["benchmarks"][name])
        if expected is None or checksum != expected:
            mismatches.append(
                {"session": name, "got": checksum, "want": expected}
            )
    return mismatches


def serving_bench(
    run,
    sessions=8,
    tenants=2,
    apps=None,
    max_concurrency=4,
    queue_depth=16,
    out_path=None,
    wall_clock=None,
):
    """Run the clean and chaos phases and return (optionally writing)
    the ``BENCH_serving.json`` payload.

    ``run`` is the chaos phase's :class:`RunSpec`: the fleet devices,
    target, session scale and steps, work-item cap and fault flags.
    Without a kill switch the chaos phase kills the first fleet device
    after 3 launches. The clean phase runs the same spec without fault
    flags; the solo baselines run it on the single target."""
    if wall_clock is None:
        import time

        wall_clock = time.monotonic
    if not run.faults.kill_devices:
        run = replace(
            run, faults=replace(run.faults, kill_devices={run.devices[0]: 3})
        )
    specs = build_workload(
        sessions=sessions,
        tenants=tenants,
        apps=apps,
        scale=run.scale,
        steps=run.steps,
    )

    def config(run):
        # No tenant cap below the session count: the bench measures
        # throughput, not quota shedding.
        return ServeConfig(
            run=run,
            max_concurrency=max_concurrency,
            queue_depth=queue_depth,
            tenant_max_inflight=sessions,
        )

    clean_run = replace(run, faults=FaultFlags())
    solo = solo_checksums(specs, replace(clean_run, devices=None))
    clean = run_phase(config(clean_run), specs, wall_clock)
    chaos = run_phase(config(run), specs, wall_clock)
    payload = {
        "bench": "serving",
        "workload": {
            "sessions": sessions,
            "tenants": tenants,
            "apps": sorted({s.benchmark for s in specs}),
            "scale": run.scale,
            "devices": list(run.devices),
            "max_concurrency": max_concurrency,
            "queue_depth": queue_depth,
            "kill_devices": dict(run.faults.kill_devices),
            "fault_rate": run.faults.fault_rate,
        },
        "solo_checksums": solo,
        "clean": clean,
        "chaos": chaos,
        "bit_exact": {
            "clean": check_bit_exact(clean, solo),
            "chaos": check_bit_exact(chaos, solo),
        },
    }
    payload["ok"] = not payload["bit_exact"]["clean"] and not payload[
        "bit_exact"
    ]["chaos"]
    if out_path:
        atomic_write_json(out_path, payload)
    return payload
