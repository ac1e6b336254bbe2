"""Unit tests for the per-device command queues and the concurrent
dispatcher's placement: queue arithmetic, earliest-finish ranking,
failover re-enqueue accounting, and the canonical sorting of every
fleet-facing snapshot."""

import pytest

from repro.runtime.fleet import DeviceFleet, FleetWorker
from repro.runtime.queues import CommandQueue
from repro.runtime.resilience import FleetPolicy, HealthMonitor

DEVS = ["gtx8800", "gtx580", "hd5970"]


# -- CommandQueue ------------------------------------------------------------


class TestCommandQueue:
    def test_submit_to_idle_queue_starts_immediately(self):
        q = CommandQueue("d")
        start = q.submit(0.0)
        assert start == 0.0
        assert q.wait_ns == 0.0
        assert q.inflight == 1
        end = q.finish(start, 100.0, True)
        assert end == 100.0
        assert q.cursor_ns == 100.0
        assert q.inflight == 0
        assert (q.submitted, q.completed, q.faulted) == (1, 1, 0)

    def test_submit_behind_busy_queue_waits(self):
        q = CommandQueue("d")
        q.finish(q.submit(0.0), 100.0, True)
        start = q.submit(30.0)
        assert start == 100.0
        assert q.wait_ns == 70.0
        q.finish(start, 50.0, True)
        assert q.cursor_ns == 150.0

    def test_submit_after_cursor_starts_at_submit(self):
        q = CommandQueue("d")
        q.finish(q.submit(0.0), 10.0, True)
        start = q.submit(500.0)
        assert start == 500.0
        assert q.wait_ns == 0.0

    def test_failed_attempt_counts_faulted_and_advances(self):
        q = CommandQueue("d")
        q.finish(q.submit(0.0), 40.0, False)
        assert (q.completed, q.faulted) == (0, 1)
        assert q.cursor_ns == 40.0
        assert q.busy_ns == 40.0

    def test_finish_never_moves_cursor_backward(self):
        # Two serving sessions share a queue: B finishing an earlier
        # interval after A must not rewind A's cursor.
        q = CommandQueue("d")
        s1 = q.submit(0.0)
        s2 = q.submit(0.0)
        q.finish(s2, 200.0, True)
        assert q.cursor_ns == 200.0
        q.finish(s1, 10.0, True)
        assert q.cursor_ns == 200.0

    def test_restore_reproduces_cursor_trajectory(self):
        live = CommandQueue("d")
        attempts = []
        for submit, busy, ok in [(0.0, 50.0, True), (0.0, 30.0, False),
                                 (60.0, 25.0, True)]:
            start = live.submit(submit)
            live.finish(start, busy, ok)
            attempts.append((submit, start, busy, ok))
        replayed = CommandQueue("d")
        for submit, start, busy, ok in attempts:
            replayed.restore(submit, start, busy, ok)
        assert replayed.snapshot() == live.snapshot()

    def test_cancel_unstarted_rolls_cursor_back(self):
        # The losing side of a hedge that never started: the cursor
        # returns to the pre-hedge value, so a cancelled hedge never
        # advances the shared serving cursor.
        q = CommandQueue("d")
        q.finish(q.submit(0.0), 100.0, True)
        prior = q.cursor_ns
        start = q.submit(150.0)
        assert start == 150.0
        end = q.cancel(prior, start, 0.0)
        assert end == prior
        assert q.cursor_ns == prior
        assert q.cancelled == 1
        assert q.inflight == 0
        assert q.busy_ns == 100.0  # nothing burned

    def test_cancel_started_bills_burned_time(self):
        q = CommandQueue("d")
        start = q.submit(0.0)
        end = q.cancel(0.0, start, 40.0)
        assert end == 40.0
        assert q.cursor_ns == 40.0
        assert q.busy_ns == 40.0
        assert (q.completed, q.faulted, q.cancelled) == (0, 0, 1)

    def test_cancel_rollback_skipped_when_cursor_moved(self):
        # Another serving session already advanced the cursor past the
        # attempt's start: rolling back would rewind *their* work.
        q = CommandQueue("d")
        start = q.submit(50.0)
        q.submit(50.0)  # a second session's attempt holds the cursor
        q.finish(start, 200.0, True)
        assert q.cursor_ns == 250.0
        q.cancel(0.0, 50.0, 0.0)
        assert q.cursor_ns == 250.0  # no rollback
        assert q.cancelled == 1

    def test_restore_cancelled_reproduces_snapshot(self):
        # Replay a live trajectory containing both cancel flavors:
        # rolled-back (burned == 0) and billed (burned > 0).
        live = CommandQueue("d")
        live.finish(live.submit(0.0), 100.0, True)
        prior = live.cursor_ns
        s = live.submit(120.0)
        live.cancel(prior, s, 0.0)  # rolled back
        s = live.submit(100.0)
        live.cancel(prior, s, 30.0)  # billed
        live.finish(live.submit(0.0), 10.0, True)

        replayed = CommandQueue("d")
        replayed.restore(0.0, 0.0, 100.0, True)
        replayed.restore_cancelled(120.0, 120.0, 0.0)
        replayed.restore_cancelled(100.0, 100.0, 30.0)
        replayed.restore(0.0, 130.0, 10.0, True)
        assert replayed.snapshot() == live.snapshot()

    def test_snapshot_fields(self):
        q = CommandQueue("d")
        q.finish(q.submit(0.0), 10.0, True)
        snap = q.snapshot()
        assert snap == {
            "submitted": 1,
            "completed": 1,
            "faulted": 0,
            "cancelled": 0,
            "busy_ns": 10.0,
            "wait_ns": 0.0,
            "cursor_ns": 10.0,
        }


# -- fleet-level accessors ---------------------------------------------------


def make_fleet(schedule="concurrent", dispatch_seed=0, min_samples=1,
               keys=DEVS):
    return DeviceFleet(
        keys,
        policy=FleetPolicy(
            schedule=schedule,
            dispatch_seed=dispatch_seed,
            min_samples=min_samples,
        ),
    )


def make_worker(fleet):
    # _dispatch_order only consults filter *membership*, never the
    # compiled filters themselves.
    filters = {key: object() for key in fleet.keys}
    return FleetWorker("t", filters, fleet, profile=None)


class TestFleetAccessors:
    def test_makespan_is_furthest_cursor(self):
        fleet = make_fleet()
        assert fleet.makespan_ns() == 0.0
        fleet.queues["gtx580"].finish(
            fleet.queues["gtx580"].submit(0.0), 120.0, True
        )
        fleet.queues["hd5970"].finish(
            fleet.queues["hd5970"].submit(0.0), 80.0, True
        )
        assert fleet.makespan_ns() == 120.0

    def test_queues_snapshot_sorted_even_if_registered_unsorted(self):
        fleet = DeviceFleet(["hd5970", "gtx8800", "gtx580"])
        assert list(fleet.queues_snapshot()) == sorted(fleet.keys)

    def test_health_snapshot_sorted_even_if_registered_unsorted(self):
        monitor = HealthMonitor(["hd5970", "gtx8800", "gtx580"])
        assert list(monitor.snapshot()) == ["gtx580", "gtx8800", "hd5970"]


# -- earliest-finish placement -----------------------------------------------


class TestDispatchOrder:
    def _score(self, fleet, medians):
        for key, ns in medians.items():
            fleet.monitor.observe_success(key, ns)

    def test_concurrent_ranks_by_estimated_finish(self):
        fleet = make_fleet()
        # Medians within the slow-factor band so nobody gets demoted.
        self._score(
            fleet, {"gtx8800": 10.0, "gtx580": 20.0, "hd5970": 30.0}
        )
        # gtx8800 is fastest but its queue is deep; the idle queues
        # win on earliest finish despite slower medians.
        q = fleet.queues["gtx8800"]
        q.finish(q.submit(0.0), 200.0, True)
        worker = make_worker(fleet)
        order = worker._dispatch_order(0.0, seq=0)
        assert order == ["gtx580", "hd5970", "gtx8800"]

    def test_sequential_keeps_health_order(self):
        fleet = make_fleet(schedule="sequential")
        self._score(
            fleet, {"gtx8800": 10.0, "gtx580": 20.0, "hd5970": 30.0}
        )
        q = fleet.queues["gtx8800"]
        q.finish(q.submit(0.0), 200.0, True)
        worker = make_worker(fleet)
        # Health order ignores cursors: fastest median first.
        assert worker._dispatch_order(0.0, seq=0) == [
            "gtx8800",
            "gtx580",
            "hd5970",
        ]

    def test_submit_time_caps_idle_advantage(self):
        # An item submitted late sees max(cursor, submit): a queue
        # busy until before the submit time is as good as idle.
        fleet = make_fleet()
        self._score(
            fleet, {"gtx8800": 10.0, "gtx580": 10.0, "hd5970": 10.0}
        )
        q = fleet.queues["gtx580"]
        q.finish(q.submit(0.0), 40.0, True)
        worker = make_worker(fleet)
        # Submitting at 100: every queue starts at 100, ties break on
        # health rank — gtx8800 (registration order on equal medians).
        assert worker._dispatch_order(100.0, seq=0)[0] == "gtx8800"

    def test_dispatch_seed_permutes_deterministically(self):
        orders = {}
        for seed in (3, 4):
            fleet = make_fleet(dispatch_seed=seed)
            self._score(
                fleet, {"gtx8800": 10.0, "gtx580": 20.0, "hd5970": 30.0}
            )
            worker = make_worker(fleet)
            orders[seed] = [
                worker._dispatch_order(0.0, seq=i) for i in range(6)
            ]
            fleet2 = make_fleet(dispatch_seed=seed)
            self._score(
                fleet2, {"gtx8800": 10.0, "gtx580": 20.0, "hd5970": 30.0}
            )
            worker2 = make_worker(fleet2)
            repeat = [
                worker2._dispatch_order(0.0, seq=i) for i in range(6)
            ]
            assert repeat == orders[seed]
        assert orders[3] != orders[4]

    def test_benched_devices_stay_last(self):
        fleet = make_fleet()
        self._score(
            fleet, {"gtx8800": 10.0, "gtx580": 20.0, "hd5970": 30.0}
        )
        for _ in range(3):  # trip the breaker -> demotion
            fleet.monitor.observe_fault("gtx8800", "device")
        worker = make_worker(fleet)
        order = worker._dispatch_order(0.0, seq=0)
        assert order[-1] == "gtx8800"
        assert set(order) == set(DEVS)


# -- failover accounting through real runs -----------------------------------


class TestFailoverQueues:
    def test_killed_device_keeps_its_lost_time(self):
        from tests.runtime.schedutil import run_workload

        result, _ = run_workload(
            "jg-series-single",
            devices=["gtx580", "hd5970"],
            kill_devices={"gtx580": 1},
        )
        killed = result.queues["gtx580"]
        survivor = result.queues["hd5970"]
        assert killed["faulted"] >= 1
        # The failed attempts' time stays on the killed queue.
        assert killed["busy_ns"] > 0.0
        assert survivor["faulted"] == 0
        assert (
            result.metrics["recovery.failovers.from.gtx580"]
            == killed["faulted"]
        )
        # Conservation: every item completed somewhere.
        completed = killed["completed"] + survivor["completed"]
        submitted = killed["submitted"] + survivor["submitted"]
        assert submitted == completed + killed["faulted"]

    def test_failover_resubmits_at_failed_cursor(self):
        """The re-enqueued attempt cannot start before the fault was
        observed on the failed queue."""
        from tests.runtime.schedutil import run_workload

        result, tracer = run_workload(
            "jg-series-single",
            devices=["gtx580", "hd5970"],
            kill_devices={"gtx580": 0},
            traced=True,
        )
        spans = [
            e
            for e in tracer.events
            if e.kind == "span" and e.name == "queue"
        ]
        by_item = {}
        for s in spans:
            key = (s.args["task"], s.args["seq"])
            by_item.setdefault(key, []).append(s)
        resubmitted = 0
        for attempts in by_item.values():
            attempts.sort(key=lambda s: s.args["attempt"])
            for prev, nxt in zip(attempts, attempts[1:]):
                assert nxt.args["submit_ns"] >= prev.end_ns() - 1e-6
                resubmitted += 1
        assert resubmitted > 0


class TestHedgedConservation:
    """The hedged-run conservation law: every submission retires as
    exactly one of completed / faulted / cancelled, and every hedge
    launched accounts for exactly one cancellation fleet-wide (the
    losing side, wherever it ran)."""

    KWARGS = dict(
        devices=["gtx580", "hd5970", "gtx8800"],
        slow_devices={"gtx580": (10.0, 2)},
        hedge="on",
        hedge_min_samples=4,
        hedge_factor=2.0,
        steps=12,
    )

    def test_every_submission_retires_exactly_once(self):
        from tests.runtime.schedutil import run_workload

        result, _ = run_workload("jg-series-single", **self.KWARGS)
        assert result.metrics["hedge.launched"] >= 1
        for snap in result.queues.values():
            assert snap["submitted"] == (
                snap["completed"] + snap["faulted"] + snap["cancelled"]
            )

    def test_cancellations_equal_hedges_launched(self):
        from tests.runtime.schedutil import run_workload

        result, _ = run_workload("jg-series-single", **self.KWARGS)
        cancelled = sum(q["cancelled"] for q in result.queues.values())
        assert cancelled == result.metrics["hedge.launched"]
        # ... split between the two losing flavors.
        assert result.metrics["hedge.launched"] == (
            result.metrics.get("hedge.won", 0)
            + result.metrics.get("hedge.cancelled", 0)
        )

    def test_items_complete_exactly_once_despite_hedges(self):
        from tests.runtime.schedutil import (
            item_value_bits,
            journal_items,
            run_workload,
        )

        def completions(tmpdir):
            result, _ = run_workload(
                "jg-series-single", journal=tmpdir, **self.KWARGS
            )
            items = len(item_value_bits(journal_items(tmpdir)))
            completed = sum(
                q["completed"] for q in result.queues.values()
            )
            return items, completed, result

        import tempfile

        with tempfile.TemporaryDirectory() as tmpdir:
            items, completed, result = completions(tmpdir)
        assert result.metrics["hedge.launched"] >= 1
        fallbacks = int(result.metrics.get("recovery.fallbacks", 0))
        assert completed + fallbacks == items


class TestServingReport:
    def test_report_exposes_sorted_queue_snapshot(self):
        from repro.evaluation.harness import RunSpec
        from repro.serving.server import ServeConfig, ServeDaemon

        daemon = ServeDaemon(
            ServeConfig(run=RunSpec(devices=["hd5970", "gtx580"]))
        )
        assert daemon.fleet.policy.schedule == "concurrent"
        report = daemon.report()
        assert list(report["queues"]) == ["gtx580", "hd5970"]
        assert list(report["fleet"]) == ["gtx580", "hd5970"]
        for snap in report["queues"].values():
            assert snap["submitted"] == 0

    def test_sequential_schedule_propagates(self):
        from repro.evaluation.harness import RunSpec, resolve_fleet_policy
        from repro.serving.server import ServeConfig, ServeDaemon

        policy = resolve_fleet_policy(schedule="sequential")
        daemon = ServeDaemon(
            ServeConfig(run=RunSpec(devices=["gtx580"], fleet_policy=policy))
        )
        assert daemon.fleet.policy.schedule == "sequential"


def test_run_result_single_device_makespan_equals_total():
    from tests.runtime.schedutil import run_workload

    result, _ = run_workload("jg-series-single")
    assert result.queues == {}
    assert result.makespan_ns == pytest.approx(result.total_ns)
