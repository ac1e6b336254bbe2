"""Executor-tier micro-benchmark: host interpreter vs per-item vs batch.

Unlike the figure benchmarks (which report *simulated* nanoseconds),
this harness measures the simulator's own wall-clock speed: the batch
tier exists to make the pure-Python executor usable at larger NDRanges,
and this is where that claim is checked. Capture-and-replay (see
:mod:`repro.evaluation.perfbench`) records every kernel launch of an
end-to-end run, then replays the identical payloads under each tier.

Writes ``benchmarks/results/BENCH_executor.json`` — CI's perf-smoke
job uploads it and fails when the batch tier is slower than per-item
on any eligible (branch-free) kernel.

Scale knobs: REPRO_BENCH_SCALE (workload size, default 0.5) and
REPRO_BENCH_SIM_ITEMS (NDRange cap during capture, default 4096 —
larger NDRanges amortize per-launch overhead and show the batch tier's
advantage).
"""

import os

from conftest import SCALE, record_result

from repro.evaluation.harness import RunSpec
from repro.evaluation.perfbench import format_bench, nolocal_config, run_bench

SIM_ITEMS = int(os.environ.get("REPRO_BENCH_SIM_ITEMS", "4096"))


def test_executor_bench(benchmark):
    spec = RunSpec(
        "gtx580", scale=SCALE, max_sim_items=SIM_ITEMS, config=nolocal_config()
    )
    results = benchmark.pedantic(
        lambda: run_bench(spec, repeats=2),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_bench(results))
    record_result("BENCH_executor", results)

    timed = [
        (app_name, kernel_name, entry)
        for app_name, app in results["apps"].items()
        for kernel_name, entry in app["kernels"].items()
        if entry["eligible"]
    ]
    assert timed, "no kernel was batch-eligible under the nolocal config"

    # The batch tier must never lose to per-item on an eligible kernel.
    for app_name, kernel_name, entry in timed:
        assert entry["batch_s"] <= entry["per_item_s"], (
            "batch tier slower than per-item on {} ({}): "
            "{:.4f}s vs {:.4f}s".format(
                app_name,
                kernel_name,
                entry["batch_s"],
                entry["per_item_s"],
            )
        )

    # The headline claim: >=5x on at least three apps.
    winners = results["apps_with_5x_batch_speedup"]
    assert len(winners) >= 3, (
        "expected >=5x batch speedup on >=3 apps, got: {}".format(winners)
    )
