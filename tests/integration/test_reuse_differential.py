"""Launch reuse is invisible end to end.

A launch that repeats an earlier launch's inputs copies that launch's
results (``tests/opencl/test_launch_reuse.py``). Every app, pipeline3
under each fuse mode, and a faulted, journaled four-device pipeline3
run with its resume therefore run twice here: as they run, and with
every launch executing, through a wrapper that drops the device model
only a reusable launch is given. Checksums, simulated totals, stages,
fault and fleet reports and every metric but ``executor.reused`` must
be identical.
"""

import pytest

from repro.apps.registry import ALL_BENCHMARKS
from repro.evaluation.harness import run_configuration
from repro.opencl import kernel_cache
from repro.opencl.executor import CompiledKernel
from repro.runtime.resilience import ResiliencePolicy

SCALE = 0.05
MAX_SIM_ITEMS = 256
FLEET = ["gtx580", "hd5970", "gtx8800", "core-i7"]


def twice(monkeypatch, run):
    """``run()`` as it runs, then with every launch executing; each
    starts from an empty kernel cache."""
    kernel_cache.reset_global_cache()
    reused = run()
    real = CompiledKernel.launch

    def executing(self, *args, **kwargs):
        kwargs["model"] = None
        return real(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledKernel, "launch", executing)
        kernel_cache.reset_global_cache()
        executed = run()
    return reused, executed


def without_reused(counts):
    return {k: v for k, v in counts.items() if k != "executor.reused"}


def assert_same_run(reused, executed):
    assert reused.checksum == executed.checksum
    assert reused.total_ns == executed.total_ns
    assert reused.stages == executed.stages
    assert reused.faults == executed.faults
    assert reused.fleet == executed.fleet
    assert without_reused(reused.metrics) == without_reused(executed.metrics)
    assert without_reused(reused.executor) == without_reused(executed.executor)
    assert executed.metrics.get("executor.reused", 0) == 0


RUNS = [(name, "off") for name in sorted(ALL_BENCHMARKS)] + [
    ("pipeline3", "resident"),
    ("pipeline3", "kernel"),
]


@pytest.mark.parametrize("name,fuse", RUNS, ids=["-".join(r) for r in RUNS])
def test_reuse_is_invisible(monkeypatch, name, fuse):
    reused, executed = twice(
        monkeypatch,
        lambda: run_configuration(
            ALL_BENCHMARKS[name],
            "gtx580",
            scale=SCALE,
            max_sim_items=MAX_SIM_ITEMS,
            fuse=fuse,
        ),
    )
    assert_same_run(reused, executed)
    # Every app re-sends one value, so its later launches reuse.
    assert reused.metrics["executor.reused"] > 0


def test_reuse_is_invisible_in_a_faulted_journaled_fleet(monkeypatch, tmp_path):
    def phase(journal, resume):
        kernel_cache.configure_disk_store(str(journal / "kernels"))
        kernel_cache.reset_global_cache()
        return run_configuration(
            ALL_BENCHMARKS["pipeline3"],
            "gtx580",
            scale=SCALE,
            steps=24,
            max_sim_items=MAX_SIM_ITEMS,
            resilience=ResiliencePolicy.from_flags(
                fault_rate=0.05, seed=11, kill_devices={"hd5970": 5}
            ),
            devices=FLEET,
            fleet_policy="health",
            journal=str(journal),
            resume=resume,
            fuse="resident",
        )

    runs = iter(["reused", "executed"])

    def record_then_resume():
        journal = tmp_path / next(runs)
        return phase(journal, False), phase(journal, True)

    try:
        reused, executed = twice(monkeypatch, record_then_resume)
    finally:
        kernel_cache.configure_disk_store(None)
    for got, want in zip(reused, executed):
        assert_same_run(got, want)
    record, resume = reused
    assert record.metrics["executor.reused"] > 0
    assert record.metrics["recovery.faults"] > 0
    assert record.metrics["recovery.failovers"] > 0
    assert resume.metrics["journal.items_skipped"] > 0
