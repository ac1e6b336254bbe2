"""Per-tenant metrics isolation (ISSUE 7 satellite).

Each session runs in its own engine with a private
``MetricsRegistry``; its final ``RunResult.metrics_delta`` is merged
exactly once into its tenant's registry and exactly once into the
daemon's global registry. The invariant under concurrency: for every
session-scoped metric, the per-tenant registries sum to the daemon's
global value *exactly* — no double counting, no lost updates.

Daemon-only namespaces (``serving.*`` from the controller,
``fleet.*`` from the shared health monitor) must never leak into a
tenant registry.
"""

import pytest

from repro.evaluation.harness import FaultFlags, RunSpec
from repro.serving.server import ServeConfig, ServeDaemon
from repro.serving.session import SessionSpec

SCALE = 0.15
STEPS = 3
MAX_ITEMS = 128


def run_daemon(n_sessions=6, tenants=3, validate_every=0):
    run = RunSpec(
        devices=["gtx580", "hd5970"],
        max_sim_items=MAX_ITEMS,
        faults=FaultFlags(
            fault_rate=0.08, seed=5, validate_every=validate_every
        ),
    )
    daemon = ServeDaemon(
        ServeConfig(
            run=run,
            max_concurrency=4,
            queue_depth=16,
            tenant_max_inflight=16,
        )
    )
    specs = [
        SessionSpec(
            name="s{}".format(i),
            benchmark=("jg-series-single", "mosaic")[i % 2],
            tenant="t{}".format(i % tenants),
            scale=SCALE,
            steps=STEPS,
        )
        for i in range(n_sessions)
    ]
    report = daemon.serve(specs)
    assert report["counts"] == {"completed": n_sessions}
    return daemon, report


def additive_items(registry_dict):
    """The summable view of a flattened registry: counters plus
    histogram ``.count``/``.sum`` flats (min/max and gauges don't
    add)."""
    return {
        k: v
        for k, v in registry_dict.items()
        if not k.endswith(".min") and not k.endswith(".max")
    }


def test_tenant_registries_sum_to_global_exactly():
    daemon, report = run_daemon()
    tenant_dicts = [
        additive_items(t["metrics"]) for t in report["tenants"].values()
    ]
    summed = {}
    for d in tenant_dicts:
        for k, v in d.items():
            summed[k] = summed.get(k, 0) + v
    assert summed, "sessions produced no metrics?"
    global_dict = additive_items(report["metrics"])
    for name, value in summed.items():
        assert name in global_dict, "tenant metric {} missing globally".format(
            name
        )
        got = global_dict[name]
        if isinstance(value, float) or isinstance(got, float):
            # Histogram sums are floats; merge order across tenants may
            # differ from the global merge order, so allow float
            # associativity noise (counters stay integer-exact below).
            assert got == pytest.approx(value, rel=1e-9), name
        else:
            assert got == value, (
                "metric {}: tenants sum to {} but global says {}".format(
                    name, value, got
                )
            )


def test_daemon_namespaces_never_leak_into_tenants():
    daemon, report = run_daemon(n_sessions=4, tenants=2)
    for tenant, t in report["tenants"].items():
        leaked = [
            k
            for k in t["metrics"]
            if k.startswith("serving.") or k.startswith("fleet.")
        ]
        assert not leaked, "tenant {} has daemon metrics: {}".format(
            tenant, leaked
        )


def test_faults_are_attributed_to_the_tenant_that_hit_them():
    daemon, report = run_daemon(n_sessions=4, tenants=2)
    total_faults = report["metrics"].get("recovery.faults", 0)
    per_tenant = sum(
        t["metrics"].get("recovery.faults", 0)
        for t in report["tenants"].values()
    )
    assert total_faults == per_tenant
    assert total_faults > 0, "fault injection at 8% produced no faults?"


def test_guard_and_cache_counters_partition_exactly():
    daemon, report = run_daemon(n_sessions=4, tenants=2, validate_every=2)
    for name in ("guards.validations", "cache.hits", "cache.misses"):
        per_tenant = sum(
            t["metrics"].get(name, 0) for t in report["tenants"].values()
        )
        assert report["metrics"].get(name, 0) == per_tenant, name
