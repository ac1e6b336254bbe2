"""The run's MetricsRegistry is its only counter store.

The failure ledger's totals and per-task records, and the executor's
tier and cache counters, are views of registry counters: a count cannot
disagree with its metric, and a journal resume restores every count
from the one metrics delta each item record carries.
"""

import os

import pytest

from repro.apps.registry import ALL_BENCHMARKS
from repro.evaluation.harness import FaultFlags, RunSpec, run_configuration
from repro.opencl import kernel_cache as kc
from repro.runtime.journal import JOURNAL_FILENAME, scan_frames

LEDGER_PREFIXES = ("recovery.", "guards.")


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    yield
    kc.configure_disk_store(None)
    kc.reset_global_cache()


def task_twin_sums(metrics):
    """``{canonical name: sum of its <name>:<task> twins}``."""
    sums = {}
    for name, value in metrics.items():
        base, _, task = name.partition(":")
        if task:
            sums[base] = sums.get(base, 0) + value
    return sums


def test_ledger_totals_are_the_metrics_and_the_sum_of_their_twins():
    result = run_configuration(
        ALL_BENCHMARKS["parboil-rpes"],
        RunSpec(scale=0.2, faults=FaultFlags(fault_rate=0.2, seed=3)),
    )
    faults, metrics = result.faults, result.metrics
    assert faults["recovery.faults"] > 0
    for name, value in faults.items():
        if name == "guards.trips":
            for kind, count in value.items():
                assert count == metrics["guards.trips." + kind], kind
        elif name.startswith(LEDGER_PREFIXES):
            assert value == metrics.get(name, 0), name
    sums = task_twin_sums(metrics)
    canonical = [
        name
        for name in metrics
        if name.startswith(LEDGER_PREFIXES)
        and ":" not in name
        and not name.startswith("recovery.failovers.from.")
    ]
    assert canonical
    for name in canonical:
        total = sums[name]
        # A float total adds its events in run order, the twins per
        # task: the two sums may round differently in the last place.
        expected = pytest.approx(total) if isinstance(total, float) else total
        assert metrics[name] == expected, name


def test_faulted_fleet_journal_resumes_exactly(tmp_path):
    spec = RunSpec(
        devices=("gtx580", "hd5970", "gtx8800", "core-i7"),
        scale=0.2,
        faults=FaultFlags(fault_rate=0.1, seed=5, kill_devices={"hd5970": 2}),
    )
    journal = os.fspath(tmp_path / "journal")
    bench = ALL_BENCHMARKS["pipeline3"]
    record = run_configuration(bench, spec, journal=journal)
    resumed = run_configuration(bench, spec, journal=journal, resume=True)
    assert record.faults["recovery.failovers"] > 0
    assert resumed.journal["items_skipped"] > 0
    assert resumed.journal["items_journaled"] == 0
    assert resumed.checksum == record.checksum
    assert resumed.faults == record.faults
    # The resume compiles its kernels again, so only its cache traffic
    # may differ; every launch count comes back from the journal.
    launches = "executor.launches"
    assert resumed.executor[launches] == record.executor[launches]

    def replayable(metrics):
        return {
            name: value
            for name, value in metrics.items()
            if not name.startswith(("cache.", "journal."))
        }

    assert replayable(resumed.metrics) == replayable(record.metrics)

    with open(os.path.join(journal, JOURNAL_FILENAME), "rb") as fh:
        records, _, torn = scan_frames(fh.read())
    assert not torn
    items = [rec for rec in records if rec["type"] == "item"]
    assert items
    for rec in items:
        assert "profile_delta" not in rec
        assert "ledger_delta" not in rec
    # The per-task twins travel in the metrics delta.
    assert any(
        ":" in name for rec in items for name in rec["metrics_delta"]
    )
