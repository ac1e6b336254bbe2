"""Daemon behavior: concurrency, shedding, deadlines, drain + resume.

The serving acceptance bar (see docs/SERVING.md): every admitted
session's checksum is bit-exact with a solo ``run_configuration`` of
the same benchmark at the same shape — concurrency, shared-fleet
placement, and drain/resume may change *timing*, never *values*.
"""

import dataclasses

import pytest

from repro.apps.registry import BENCHMARKS
from repro.errors import AdmissionRejected
from repro.evaluation.harness import RunSpec, run_configuration
from repro.serving.server import ServeConfig, ServeDaemon
from repro.serving.session import SessionSpec

SCALE = 0.15
STEPS = 2
MAX_ITEMS = 128


def spec(name, benchmark="jg-series-single", tenant="default", steps=STEPS, **kw):
    return SessionSpec(
        name=name,
        benchmark=benchmark,
        tenant=tenant,
        scale=SCALE,
        steps=steps,
        **kw,
    )


def solo_checksum(benchmark, steps=STEPS):
    return run_configuration(
        BENCHMARKS[benchmark],
        "gtx580",
        scale=SCALE,
        steps=steps,
        max_sim_items=MAX_ITEMS,
    ).checksum


def fleet_config(**kw):
    base = dict(
        run=RunSpec(devices=["gtx580", "hd5970"], max_sim_items=MAX_ITEMS),
        max_concurrency=4,
        queue_depth=16,
        tenant_max_inflight=16,
    )
    base.update(kw)
    return ServeConfig(**base)


def test_concurrent_sessions_complete_bit_exact():
    daemon = ServeDaemon(fleet_config())
    specs = [
        spec("a", "jg-series-single", "t0"),
        spec("b", "mosaic", "t1"),
        spec("c", "jg-series-single", "t0"),
        spec("d", "mosaic", "t1"),
    ]
    report = daemon.serve(specs)
    assert report["counts"] == {"completed": 4}
    want = {b: solo_checksum(b) for b in ("jg-series-single", "mosaic")}
    for s in specs:
        got = report["sessions"][s.name]
        assert got["checksum"] == want[s.benchmark], s.name
    # Both tenants settled: no leaked in-flight slots.
    for tenant in ("t0", "t1"):
        assert report["tenants"][tenant]["inflight"] == 0
        assert report["tenants"][tenant]["completed"] == 2


def test_bounded_queue_sheds_queue_full():
    daemon = ServeDaemon(fleet_config(queue_depth=1))
    # No scheduler workers: submissions purely fill the bounded queue.
    daemon.submit(spec("s0"))
    with pytest.raises(AdmissionRejected) as exc:
        daemon.submit(spec("s1"))
    assert exc.value.code == "queue_full"
    assert daemon.sessions["s1"].state == "rejected"
    # The shed released its slot: the tenant can submit elsewhere.
    assert daemon.controller.tenant("default").inflight == 1


def test_tenant_inflight_quota_enforced_at_submit():
    daemon = ServeDaemon(fleet_config(tenant_max_inflight=1))
    daemon.submit(spec("s0"))
    session, rejection = daemon.try_submit(spec("s1"))
    assert session is None
    assert rejection.code == "tenant_inflight"
    # A different tenant is unaffected.
    other, err = daemon.try_submit(spec("s2", tenant="other"))
    assert err is None and other.state == "queued"


def test_duplicate_session_name_rejected():
    daemon = ServeDaemon(fleet_config())
    daemon.submit(spec("same"))
    with pytest.raises(AdmissionRejected) as exc:
        daemon.submit(spec("same"))
    assert exc.value.code == "duplicate"


def test_session_deadline_aborts_and_journals(tmp_path):
    cfg = fleet_config(serve_dir=str(tmp_path))
    daemon = ServeDaemon(cfg)
    report = daemon.serve([spec("slow", "mosaic", deadline_ms=0.0)])
    got = report["sessions"]["slow"]
    assert got["state"] == "aborted"
    assert "deadline" in got["error"]
    # The abort was journaled at an item boundary; a resumed daemon
    # (without the deadline) finishes the session bit-exactly.
    daemon2 = ServeDaemon(dataclasses.replace(cfg, resume=True))
    report2 = daemon2.serve([spec("slow", "mosaic")])
    got2 = report2["sessions"]["slow"]
    assert got2["state"] == "completed"
    assert got2["journal"]["resumed"]
    assert got2["journal"]["prior_aborts"] >= 1
    assert got2["checksum"] == solo_checksum("mosaic")


# Deep enough that the mosaic sessions cannot finish before the drain:
# every item after the first repeats its inputs, and a launch that
# repeats them runs in a few milliseconds.
DRAIN_STEPS = {"jg-series-single": STEPS, "mosaic": 400}


def test_drain_then_resume_restores_every_session(tmp_path):
    cfg = fleet_config(serve_dir=str(tmp_path), max_concurrency=2)
    daemon = ServeDaemon(cfg)
    specs = [
        spec(name, bench, steps=DRAIN_STEPS[bench])
        for name, bench in (
            ("s0", "jg-series-single"),
            ("s1", "mosaic"),
            ("s2", "mosaic"),
            ("s3", "jg-series-single"),
        )
    ]
    report = daemon.serve(specs, drain_after_ms=200)
    assert report["drained"]
    states = {n: s["state"] for n, s in report["sessions"].items()}
    assert all(v in ("completed", "drained") for v in states.values())
    # The drain landed mid-stream.
    assert "drained" in states.values()
    # New work is refused while draining.
    _, rejection = daemon.try_submit(spec("late"))
    assert rejection is not None and rejection.code == "draining"

    daemon2 = ServeDaemon(dataclasses.replace(cfg, resume=True))
    resumed = daemon2.resume_specs()
    assert {s.name for s in resumed} == {s.name for s in specs}
    report2 = daemon2.serve(resumed)
    assert report2["counts"] == {"completed": 4}
    want = {b: solo_checksum(b, steps) for b, steps in DRAIN_STEPS.items()}
    for s in specs:
        assert report2["sessions"][s.name]["checksum"] == want[s.benchmark]


def test_single_target_daemon_needs_no_fleet():
    daemon = ServeDaemon(
        ServeConfig(
            run=RunSpec(target="cpu-6", max_sim_items=MAX_ITEMS),
            max_concurrency=2,
            tenant_max_inflight=8,
        )
    )
    report = daemon.serve([spec("a"), spec("b")])
    assert report["counts"] == {"completed": 2}
    assert report["fleet"] == {}
