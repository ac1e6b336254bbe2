"""The serving chaos acceptance test.

ISSUE 7's bar: >= 4 concurrent sessions on a 2-device fleet with one
device killed mid-serve — every admitted session finishes bit-exact
with a solo run, the daemon never crashes, and overload produces typed
``AdmissionRejected`` errors instead of queue growth.
"""

from repro.apps.registry import BENCHMARKS
from repro.evaluation.harness import FaultFlags, RunSpec, run_configuration
from repro.runtime.resilience import FleetPolicy
from repro.serving.loadgen import serving_bench
from repro.serving.server import ServeConfig, ServeDaemon
from repro.serving.session import SessionSpec

SCALE = 0.15
STEPS = 3
MAX_ITEMS = 128
KNOWN_CODES = {
    "queue_full",
    "tenant_inflight",
    "tenant_budget",
    "draining",
    "duplicate",
}


def chaos_run(**fields):
    return RunSpec(
        devices=["gtx580", "hd5970"],
        max_sim_items=MAX_ITEMS,
        faults=FaultFlags(
            fault_rate=0.05,
            seed=99,
            kill_devices={"gtx580": 1},  # dies after its first launch
        ),
        **fields
    )


def chaos_config(**kw):
    base = dict(
        run=chaos_run(),
        max_concurrency=4,
        queue_depth=16,
        tenant_max_inflight=16,
    )
    base.update(kw)
    return ServeConfig(**base)


def workload(n, benchmarks=("jg-series-single", "mosaic")):
    return [
        SessionSpec(
            name="s{}".format(i),
            benchmark=benchmarks[i % len(benchmarks)],
            tenant="t{}".format(i % 2),
            scale=SCALE,
            steps=STEPS,
        )
        for i in range(n)
    ]


def test_device_death_mid_serve_keeps_sessions_bit_exact():
    # Each session injects its own faults, so the kill fires only on a
    # session's second launch on gtx580. The sequential schedule
    # follows the health order, which keeps placing on gtx580 until the
    # kill fires; under the concurrent schedule, EFT placement over the
    # shared queues could give every session at most one launch there,
    # and then nothing failed over.
    daemon = ServeDaemon(
        chaos_config(run=chaos_run(fleet_policy=FleetPolicy(
            schedule="sequential"
        )))
    )
    specs = workload(4)
    report = daemon.serve(specs)
    assert report["counts"] == {"completed": 4}
    # Ground truth: clean solo runs, single device, no faults.
    want = {
        b: run_configuration(
            BENCHMARKS[b],
            "gtx580",
            scale=SCALE,
            steps=STEPS,
            max_sim_items=MAX_ITEMS,
        ).checksum
        for b in ("jg-series-single", "mosaic")
    }
    for s in specs:
        assert report["sessions"][s.name]["checksum"] == want[s.benchmark]
    # The kill actually bit: launches failed over to the survivor.
    assert report["metrics"].get("recovery.failovers", 0) > 0


def test_overload_under_chaos_sheds_typed_not_crashes():
    daemon = ServeDaemon(chaos_config(max_concurrency=1, queue_depth=1))
    report = daemon.serve(workload(6, benchmarks=("jg-series-single",)))
    counts = report["counts"]
    assert counts.get("failed", 0) == 0
    assert set(counts) <= {"completed", "rejected"}
    assert counts.get("rejected", 0) >= 1  # the bounded queue shed
    for name, s in report["sessions"].items():
        if s["state"] == "rejected":
            assert s["error"] in KNOWN_CODES, name
    rejected_metrics = {
        k: v
        for k, v in report["metrics"].items()
        if k.startswith("serving.rejected.")
    }
    assert sum(rejected_metrics.values()) == counts.get("rejected", 0)


def test_serving_bench_clean_vs_chaos_is_bit_exact(tmp_path):
    out = tmp_path / "BENCH_serving.json"
    payload = serving_bench(
        RunSpec(
            devices=["gtx580", "hd5970"],
            scale=SCALE,
            steps=STEPS,
            max_sim_items=MAX_ITEMS,
            faults=FaultFlags(
                fault_rate=0.05, seed=1234, kill_devices={"gtx580": 1}
            ),
        ),
        sessions=4,
        tenants=2,
        apps=["jg-series-single", "mosaic"],
        max_concurrency=3,
        out_path=str(out),
    )
    assert payload["ok"], payload["bit_exact"]
    assert out.exists()
    for phase in ("clean", "chaos"):
        stats = payload[phase]
        assert stats["counts"] == {"completed": 4}
        assert stats["sessions_per_sec"] > 0
        assert stats["latency_ms"]["p99"] is not None
    assert payload["chaos"]["recovery"]["failovers"] > 0
