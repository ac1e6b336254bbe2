"""Byte-stable snapshots: the report/ledger JSON must not depend on
dict insertion order.

The run journal's digest (``run_key_for``) and CI's baseline diffs
both serialize these structures; an ordering that leaks insertion
history would make bit-identical runs produce different bytes.
"""

import json

from repro.runtime.profiler import ExecutionProfile, FailureLedger
from repro.runtime.tracing import MetricsRegistry


def dump(obj):
    return json.dumps(obj, sort_keys=True)


def test_ledger_summary_is_insertion_order_independent():
    a = FailureLedger()
    a.record_fault("t1", "launch")
    a.record_fault("t2", "transfer")
    a.record_trip("t1", "bounds")
    a.record_trip("t1", "nan")

    b = FailureLedger()
    b.record_trip("t1", "nan")  # reversed discovery order
    b.record_trip("t1", "bounds")
    b.record_fault("t2", "transfer")
    b.record_fault("t1", "launch")

    assert dump(a.summary()) == dump(b.summary())


def test_summary_nested_dicts_are_sorted():
    ledger = FailureLedger()
    ledger.record_fault("t", "zeta")
    ledger.record_fault("t", "alpha")
    ledger.record_trip("t", "zeta")
    ledger.record_trip("t", "alpha")
    summary = ledger.summary()
    per_task = summary["per_task"]["t"]
    assert list(per_task["by_stage"]) == ["alpha", "zeta"]
    assert list(per_task["trips"]) == ["alpha", "zeta"]
    assert list(summary["guards.trips"]) == ["alpha", "zeta"]


def test_ledger_metrics_delta_round_trips_summary_bytes():
    # The ledger is a view of its registry: a journaled metrics delta,
    # JSON-encoded as in the WAL and merged into a fresh registry, must
    # reproduce the original summary byte-for-byte. This is what makes
    # a resumed run's ``faults`` block bit-exact.
    src = FailureLedger()
    before = src.metrics.snapshot()
    src.record_fault("t", "launch")
    src.record_retry("t")
    src.record_trip("t", "bounds", 2)
    src.record_demotion("t")
    src.add_time_lost("t", 123.5)
    src.record_failover("u", "gtx580", "hd5970")
    delta = json.loads(dump(src.metrics.delta(before)))

    dst = FailureLedger()
    dst.metrics.merge_delta(delta)
    assert dump(dst.summary()) == dump(src.summary())


def test_metrics_as_dict_is_sorted():
    reg = MetricsRegistry()
    reg.inc("zeta.count")
    reg.inc("alpha.count")
    assert list(reg.as_dict()) == sorted(reg.as_dict())


def test_metrics_delta_merge_round_trips():
    src = MetricsRegistry()
    before = src.snapshot()
    src.inc("recovery.failovers", 2)
    src.gauge("fleet.score.a").set(42.0)
    src.histogram("kernel.launch_ns").observe(10.0)
    delta = src.delta(before)
    assert dump(delta)  # JSON-able

    dst = MetricsRegistry()
    dst.merge_delta(delta)
    assert dump(dst.as_dict()) == dump(src.as_dict())


def test_executor_summary_is_json_stable():
    profile = ExecutionProfile()
    profile.metrics.inc("cache.misses")
    profile.metrics.inc("cache.disk_hits")
    summary = profile.executor_summary()
    assert dump(summary)
    assert summary["cache.disk_hits"] == 1
    assert summary["cache.misses"] == 1
