"""Health-aware multi-device scheduling with transparent failover and
per-device command queues.

A :class:`DeviceFleet` registers several simulated devices behind one
offloaded task. Every device owns a :class:`repro.runtime.queues
.CommandQueue` — its own simulated-time cursor plus submission/
completion bookkeeping — so independent stream items dispatched to
different devices advance *in parallel* on the simulated timeline
(the paper's asynchronous OpenCL command-queue model). Each stream
item is placed on the device with the earliest estimated finish among
the healthy candidates (:class:`repro.runtime.resilience
.HealthMonitor` supplies the health-preference plan and observed
medians); when the placed device faults mid-item, the
:class:`FleetWorker` re-enqueues the item's already-marshalled
:class:`repro.backend.glue.LaunchRecord` on the next-best queue — the
marshal work is reused, only the bus transfer is paid again, and only
the failing device's cursor absorbed the lost time. Only when *every*
fleet device fails does the fault surface to the wrapping
:class:`repro.runtime.resilience.ResilientWorker`, whose retry/
breaker/host-interpreter fallback remains the terminal tier.

The degradation ladder for one stream item is therefore::

    best queue -> next-best queue -> ... -> retry -> host interpreter

with every rung accounted in simulated time (failover re-transfers,
retry backoff) and in the run's :class:`FailureLedger`
(``recovery.failovers``, ``recovery.failovers.from.<device>``).

Two dispatch schedules (``FleetPolicy.schedule``, see
docs/CONCURRENCY.md):

- ``"concurrent"`` (default): independent items are submitted at
  dispatch time; queues drain in parallel and the run's makespan is
  the maximum cursor, merged into the global clock at the reduce.
- ``"sequential"``: each item is submitted when the previous one
  completed anywhere in the fleet — one item in flight, the makespan
  equals the summed stage time. The bit-exact comparison baseline.

Either way the *values* are schedule-invariant: placement only moves
simulated timestamps, never results, so a 4-device concurrent run is
bit-exact with the 1-device sequential run.
"""

from __future__ import annotations

import hashlib
import random

from repro.errors import RuntimeFault, VoteMismatchFault
from repro.opencl.device import get_device
from repro.runtime.queues import CommandQueue
from repro.runtime.resilience import FleetPolicy, HealthMonitor


class DeviceFleet:
    """A named set of simulated devices plus their shared health state
    and per-device command queues.

    Args:
        keys: device short keys (``repro.opencl.device.DEVICES``), in
            registration order — the deterministic tiebreak for equal
            health scores.
        policy: a :class:`repro.runtime.resilience.FleetPolicy`.
    """

    def __init__(self, keys, policy=None):
        self.keys = list(keys)
        self.devices = {key: get_device(key) for key in self.keys}
        self.policy = policy or FleetPolicy()
        self.monitor = HealthMonitor(self.keys, policy=self.policy)
        self.queues = {key: CommandQueue(key) for key in self.keys}
        # The sequential schedule's global serialization point: the
        # completion time of the last finished item anywhere in the
        # fleet, which is the next item's submission time.
        self.stream_cursor_ns = 0.0

    def snapshot(self):
        return self.monitor.snapshot()

    def queues_snapshot(self):
        """Per-device queue statistics, canonically sorted."""
        return {
            key: self.queues[key].snapshot() for key in sorted(self.queues)
        }

    def makespan_ns(self):
        """The fleet's offload makespan: the furthest cursor across the
        per-device queues (the time the last queue drained)."""
        return max(
            (q.cursor_ns for q in self.queues.values()), default=0.0
        )


class FleetWorker:
    """The offloaded worker for one filter task across a device fleet.

    Holds one compiled :class:`~repro.backend.glue.CompiledFilter` per
    device (same kernel, device-specific timing model and ``device_key``
    tagging) and dispatches every stream item onto a device command
    queue. Drop-in replacement for a single ``CompiledFilter`` as the
    engine's device worker: exposes the same ``injector``/``retry``
    attributes (fanned out to every per-device filter) so
    ``ResiliencePolicy.wrap`` composes unchanged.
    """

    def __init__(self, name, filters, fleet, profile):
        self.name = name
        self.filters = dict(filters)  # device key -> CompiledFilter
        self.fleet = fleet
        self.monitor = fleet.monitor
        self.profile = profile
        self._injector = None
        self._retry = None
        self.items = 0
        # When the recovery journal wraps this worker it installs
        # lists here; the placement events and queue attempt
        # timestamps of the current item are appended so a resumed run
        # can replay them into the HealthMonitor and the CommandQueues
        # (repro.runtime.journal).
        self.journal_log = None
        self.attempt_log = None
        # Set by the fusion planner on chain consumers (--fuse): an
        # item whose stream value is device-resident is routed to the
        # holding device first, so the elision actually fires; every
        # other device stays a failover target (the record then
        # re-materializes from the host mirror).
        self.pin_resident = False
        # Deadline-aware hedging (serving): when set, a zero-argument
        # callable returning the session's deadline fraction (0.0 fresh
        # -> 1.0 at the deadline). The hedge budget shrinks as the
        # fraction grows, so near-deadline sessions hedge eagerly.
        self.hedge_urgency = None

    @property
    def injector(self):
        return self._injector

    @injector.setter
    def injector(self, value):
        self._injector = value
        for filt in self.filters.values():
            filt.injector = value

    @property
    def retry(self):
        return self._retry

    @retry.setter
    def retry(self, value):
        self._retry = value
        for filt in self.filters.values():
            filt.retry = value

    # -- placement -----------------------------------------------------------

    def _dispatch_order(self, submit_ns, seq, value=None):
        """The per-item device attempt order.

        Sequential schedule: the monitor's health-preference order,
        unchanged. Concurrent schedule: the healthy candidates are
        re-ranked by *earliest estimated finish* — queue cursor (or the
        submission time, whichever is later) plus the device's observed
        median launch time — so independent items spread across idle
        queues instead of piling onto one device; health semantics are
        preserved (a due probe keeps first claim on the item, benched
        devices stay failover targets of last resort). A non-zero
        ``dispatch_seed`` deterministically permutes the healthy
        ranking per item (the schedule-exploration knob).
        """
        plan = [
            entry
            for entry in self.monitor.placement_plan()
            if entry[0] in self.filters
        ]
        if self.journal_log is not None:
            self.journal_log.append(["order"])
        if self.fleet.policy.schedule != "concurrent":
            return self._pin_first([key for key, _kind, _est in plan], value)
        head = [e for e in plan if e[1] == "probe"][:1]
        tail_probes = [e for e in plan if e[1] == "probe"][1:]
        benched = [e for e in plan if e[1] == "benched"]
        healthy = [e for e in plan if e[1] == "healthy"]
        queues = self.fleet.queues
        rank = {e[0]: i for i, e in enumerate(plan)}
        healthy.sort(
            key=lambda e: (
                max(queues[e[0]].cursor_ns, submit_ns) + e[2],
                queues[e[0]].inflight,
                rank[e[0]],
            )
        )
        if self.fleet.policy.dispatch_seed:
            # Mix the per-item sequence number into the seed so every
            # item gets its own deterministic permutation.
            rng = random.Random(
                self.fleet.policy.dispatch_seed * 0x9E3779B1 + seq
            )
            rng.shuffle(healthy)
        return self._pin_first(
            [
                key
                for key, _kind, _est in head + healthy + tail_probes + benched
            ],
            value,
        )

    def _pin_first(self, order, value):
        """Move the device holding ``value``'s resident buffer to the
        front of the attempt order (--fuse chain consumers): elision
        only fires on the holding device, and a transfer skipped
        outright beats any queue-balancing gain. No-op unless the
        planner pinned this worker and the value is live-resident on a
        dispatchable device."""
        if not self.pin_resident or not order:
            return order
        from repro.runtime import marshal

        meta = marshal.resident_meta(value)
        if meta is None or meta.settled or meta.device_key not in order:
            return order
        order.remove(meta.device_key)
        return [meta.device_key] + order

    # -- dispatch ------------------------------------------------------------

    def __call__(self, value=None):
        profile = self.profile
        ledger = profile.faults
        tracer = profile.tracer
        metrics = profile.metrics
        concurrent = self.fleet.policy.schedule == "concurrent"
        seq = self.items
        # Independent items are submitted the moment they are
        # dispatched (the stream source costs no offload time), so
        # concurrent queues overlap; the sequential baseline submits
        # each item when the previous one completed anywhere.
        submit_ns = 0.0 if concurrent else self.fleet.stream_cursor_ns
        order = self._dispatch_order(submit_ns, seq, value)
        record = None
        last_err = None
        failed = None
        attempt = 0
        for key in order:
            filt = self.filters[key]
            queue = self.fleet.queues[key]
            if failed is not None:
                ledger.record_failover(self.name, failed, key)
                # A failover re-enqueues onto the next-best queue; the
                # item is re-submitted at the moment the fault was
                # observed (the failed queue's cursor), not at the
                # original submission time.
                submit_ns = max(
                    submit_ns, self.fleet.queues[failed].cursor_ns
                )
            start_ns = queue.submit(submit_ns)
            metrics.inc("queue.submitted.{}".format(key))
            stages_before = (
                record.stages.total() if record is not None else 0.0
            )
            recovery_before = profile.stages.recovery
            ok = False
            result = None
            err_this = None
            kernel_delta = 0.0
            hedge = None
            with tracer.queue_context(queue.clock, key):
                if failed is not None:
                    tracer.instant(
                        "failover",
                        cat="recovery",
                        task=self.name,
                        device=failed,
                        to=key,
                    )
                # One "queue" span per attempt, on the device's own
                # track at queue-local time: submit -> (wait) -> start
                # -> complete. The attempt's stage charges nest inside.
                with tracer.span(
                    "queue",
                    cat="queue",
                    task=self.name,
                    seq=seq,
                    attempt=attempt,
                    submit_ns=submit_ns,
                    wait_ns=start_ns - submit_ns,
                ):
                    try:
                        if record is None:
                            record = filt.prepare(value)
                        elif failed is not None:
                            # Replaying marshalled inputs on a new
                            # device: pay the bus transfer again, skip
                            # the marshal.
                            filt.charge_failover(record)
                        kernel_before = record.stages.kernel
                        # The latency budget is quoted from the
                        # pre-launch histogram: the straggler must not
                        # get to judge itself against a distribution
                        # its own outlier sample already widened.
                        hedge_budget = self._hedge_budget()
                        result = filt.run_prepared(record)
                        kernel_delta = record.stages.kernel - kernel_before
                        ok = True
                    except RuntimeFault as err:
                        err_this = err
                        stage = getattr(err, "stage", None) or "device"
                        if self.journal_log is not None:
                            self.journal_log.append(["fault", key, stage])
                        self.monitor.observe_fault(key, stage)
                        ledger.record_fault(self.name, stage)
                        if record is None or record.device_values is None:
                            # The marshal itself failed; its time is
                            # lost (the next device re-marshals from
                            # scratch).
                            partial = getattr(err, "partial_stages", None)
                            if partial is not None:
                                ledger.add_time_lost(
                                    self.name, partial.total()
                                )
                                profile.record_recovery(
                                    self.name, partial.total()
                                )
                            record = None
                    # Device time this attempt consumed, measured from
                    # the stage deltas (identical traced or untraced):
                    # the record's own stage growth plus any recovery
                    # charged inside (partitioned-relaunch backoff, or
                    # a failed marshal's lost partial stages).
                    stages_now = (
                        record.stages.total() if record is not None else 0.0
                    )
                    attempt_ns = (stages_now - stages_before) + (
                        profile.stages.recovery - recovery_before
                    )
                    if ok:
                        hedge = self._plan_hedge(
                            key, order, record, kernel_delta,
                            attempt_ns, start_ns, hedge_budget,
                        )
                    if hedge is not None and hedge["won"]:
                        # The duplicate finished first: the straggling
                        # primary is cancelled where it ran. Its burned
                        # time stays billed to this queue, but the
                        # attempt retires as a cancellation, not a
                        # completion.
                        queue.cancel(start_ns, start_ns, attempt_ns)
                    else:
                        queue.finish(start_ns, attempt_ns, ok)
            metrics.counter("queue.busy_ns.{}".format(key)).inc(attempt_ns)
            if start_ns > submit_ns:
                metrics.counter("queue.wait_ns.{}".format(key)).inc(
                    start_ns - submit_ns
                )
            if self.attempt_log is not None:
                if hedge is not None and hedge["won"]:
                    self.attempt_log.append(
                        [key, submit_ns, start_ns, attempt_ns, False,
                         "hedge-lost"]
                    )
                else:
                    self.attempt_log.append(
                        [key, submit_ns, start_ns, attempt_ns, ok]
                    )
            attempt += 1
            if not ok:
                last_err = err_this
                failed = key
                continue
            if hedge is not None and hedge["won"]:
                metrics.inc("queue.cancelled.{}".format(key))
            else:
                metrics.inc("queue.completed.{}".format(key))
            # Score this device on its own kernel time, not on time
            # accumulated by earlier failed attempts. A hedge-lost
            # primary still scores: the straggler sample is exactly
            # what drives the health demotion.
            if self.journal_log is not None:
                self.journal_log.append(["success", key, kernel_delta])
            self.monitor.observe_success(key, kernel_delta)
            end_ns = start_ns + attempt_ns
            if hedge is not None:
                end_ns = self._settle_hedge(hedge, record)
            if self.fleet.policy.redundancy == "vote":
                end_v = self._vote(
                    key, order, result, value, submit_ns, seq
                )
                if end_v is not None:
                    end_ns = max(end_ns, end_v)
            self.items += 1
            if end_ns > self.fleet.stream_cursor_ns:
                self.fleet.stream_cursor_ns = end_ns
            return result
        # Every fleet device failed this item: surface the last fault to
        # the resilience layer (retry, then host interpreter).
        raise last_err

    # -- hedged launches -----------------------------------------------------

    def _hedge_budget(self):
        """The launch-latency budget quoted *before* a launch runs:
        ``hedge_factor`` × the ``hedge_quantile`` of the fleet-wide
        ``kernel.launch_ns`` histogram, scaled down by the caller's
        deadline urgency. None while hedging is off or the histogram
        holds fewer than ``hedge_min_samples`` observations."""
        policy = self.fleet.policy
        if policy.hedge != "on" or policy.schedule != "concurrent":
            return None
        hist = self.profile.metrics.histogram("kernel.launch_ns")
        if hist.count < policy.hedge_min_samples:
            return None
        budget = hist.quantile(policy.hedge_quantile) * policy.hedge_factor
        if self.hedge_urgency is not None:
            # Deadline-aware serving: a session at fraction u of its
            # deadline shrinks the budget toward 10%, hedging eagerly.
            budget *= max(0.1, 1.0 - float(self.hedge_urgency()))
        return budget if budget > 0.0 else None

    def _plan_hedge(self, key, order, record, kernel_delta, attempt_ns,
                    start_ns, budget):
        """Decide whether the attempt that just finished should have
        been hedged, and if so submit the duplicate.

        Simulated time is only known after the fact, so the decision is
        made at completion but *backdated*: the duplicate is submitted
        at ``start + budget`` — the instant the straggler exceeded the
        latency budget quoted before its launch
        (:meth:`_hedge_budget`) — on the next-best queue in this item's
        dispatch order. Whichever side finishes first wins;
        :meth:`_settle_hedge` retires the loser. Returns the hedge
        ticket, or None when no hedge fires.
        """
        if budget is None or kernel_delta <= budget:
            return None
        metrics = self.profile.metrics
        hist = metrics.histogram("kernel.launch_ns")
        idx = order.index(key)
        cand = next(
            (k for k in order[idx + 1:] if k in self.filters), None
        )
        if cand is None:
            return None
        queue_h = self.fleet.queues[cand]
        submit_h = start_ns + budget
        prior_ns = queue_h.cursor_ns
        start_h = queue_h.submit(submit_h)
        metrics.inc("queue.submitted.{}".format(cand))
        metrics.inc("hedge.launched")
        # The duplicate's execution-time estimate: the candidate's
        # observed median launch (falling back to the fleet median)
        # plus re-transferring the already-marshalled payload.
        est = self.monitor.devices[cand].median_ns() or hist.quantile(0.5)
        est += self.filters[cand].options.comm.transfer_ns(
            record.payload_bytes
        )
        won = (start_h + est) < (start_ns + attempt_ns)
        return {
            "key": cand,
            "queue": queue_h,
            "prior_ns": prior_ns,
            "submit_ns": submit_h,
            "start_ns": start_h,
            "est_ns": est,
            "end_p": start_ns + attempt_ns,
            "burned_p": attempt_ns,
            "won": won,
        }

    def _settle_hedge(self, hedge, record):
        """Retire the losing side of a hedged launch and return the
        item's completion time.

        Primary won: the duplicate is cancelled. Device time it burned
        before the cancel stays billed to its queue (and to the run's
        recovery/time-lost ledgers — hedging spends real fleet time);
        a duplicate that never started is rolled back outright, its
        queue cursor credited to the pre-hedge value.

        Duplicate won: any ``--fuse`` device-resident inputs the
        duplicate needed re-materialize exactly once (the producer's
        deferred d2h settles), the duplicate's estimated execution is
        billed to its queue, and the primary's full attempt counts as
        wasted hedge time. The primary's result object is returned to
        the caller either way — values are device-invariant, so the
        winner only moves *time*; the primary's device buffers stay
        authoritative for output residency.
        """
        from repro.runtime import marshal

        profile = self.profile
        tracer = profile.tracer
        metrics = profile.metrics
        ledger = profile.faults
        cand = hedge["key"]
        queue_h = hedge["queue"]
        start_h = hedge["start_ns"]
        if not hedge["won"]:
            burned = max(0.0, hedge["end_p"] - start_h)
            if burned > 0.0:
                with tracer.queue_context(queue_h.clock, cand):
                    tracer.charge(
                        "hedge", burned, cat="recovery", task=self.name,
                        outcome="cancelled",
                    )
                profile.record_recovery(self.name, burned)
                ledger.add_time_lost(self.name, burned)
                metrics.counter("queue.busy_ns.{}".format(cand)).inc(
                    burned
                )
            queue_h.cancel(hedge["prior_ns"], start_h, burned)
            metrics.inc("hedge.cancelled")
            metrics.counter("hedge.wasted_ns").inc(burned)
            metrics.inc("queue.cancelled.{}".format(cand))
            if self.attempt_log is not None:
                self.attempt_log.append(
                    [cand, hedge["submit_ns"], start_h, burned, False,
                     "hedge-cancelled"]
                )
            return hedge["end_p"]
        settle_ns = sum(
            (meta.d2h_c_ns or 0.0) + meta.d2h_j_ns + meta.d2h_t_ns
            for _param, meta in record.elided
            if not meta.settled
        )
        with tracer.queue_context(queue_h.clock, cand):
            for _param, meta in record.elided:
                marshal.settle_resident_meta(
                    meta, profile, reason="hedge"
                )
            tracer.charge(
                "hedge", hedge["est_ns"], cat="recovery", task=self.name,
                outcome="won",
            )
        profile.record_recovery(self.name, hedge["est_ns"])
        busy_h = settle_ns + hedge["est_ns"]
        end_h = queue_h.finish(start_h, busy_h, True)
        ledger.add_time_lost(self.name, hedge["burned_p"])
        metrics.inc("hedge.won")
        metrics.counter("hedge.wasted_ns").inc(hedge["burned_p"])
        metrics.inc("queue.completed.{}".format(cand))
        metrics.counter("queue.busy_ns.{}".format(cand)).inc(busy_h)
        if self.attempt_log is not None:
            self.attempt_log.append(
                [cand, hedge["submit_ns"], start_h, busy_h, True,
                 "hedge-won"]
            )
        return end_h

    # -- redundant voting ----------------------------------------------------

    def _vote(self, key, order, result, value, submit_ns, seq):
        """Execute the item again on a second device and compare the
        marshalled output digests (``--redundancy vote``).

        The replica is a real launch: it marshals, transfers, runs, and
        is accounted on its own queue exactly like a primary attempt
        (its clean sample scores the device's health). A faulted
        replica cannot vote — the primary result stands. A digest
        disagreement raises :class:`~repro.errors.VoteMismatchFault`
        through the normal retry/breaker/host-fallback machinery, and
        both participants take the health fault (neither side is
        trusted). Items with a live device-resident input skip the
        vote: re-materializing just to vote would defeat the fusion
        elision. Returns the replica's completion time, or None when no
        replica ran.
        """
        from repro.runtime import marshal

        profile = self.profile
        tracer = profile.tracer
        metrics = profile.metrics
        ledger = profile.faults
        cand = next(
            (k for k in order if k != key and k in self.filters), None
        )
        if cand is None:
            return None
        meta = marshal.resident_meta(value) if value is not None else None
        if meta is not None and not meta.settled:
            metrics.inc("vote.skipped")
            return None
        filt_v = self.filters[cand]
        queue_v = self.fleet.queues[cand]
        start_v = queue_v.submit(submit_ns)
        metrics.inc("queue.submitted.{}".format(cand))
        metrics.inc("vote.launched")
        recovery_before = profile.stages.recovery
        ok = False
        res_v = None
        kd_v = 0.0
        attempt_ns = 0.0
        rec_v = None
        with tracer.queue_context(queue_v.clock, cand):
            with tracer.span(
                "queue",
                cat="queue",
                task=self.name,
                seq=seq,
                attempt="vote",
                submit_ns=submit_ns,
                wait_ns=start_v - submit_ns,
            ):
                try:
                    rec_v = filt_v.prepare(value)
                    kernel_before = rec_v.stages.kernel
                    res_v = filt_v.run_prepared(rec_v)
                    kd_v = rec_v.stages.kernel - kernel_before
                    ok = True
                except RuntimeFault as err:
                    stage = getattr(err, "stage", None) or "device"
                    if self.journal_log is not None:
                        self.journal_log.append(["fault", cand, stage])
                    self.monitor.observe_fault(cand, stage)
                    ledger.record_fault(self.name, stage)
                    metrics.inc("vote.errors")
                stages_v = (
                    rec_v.stages.total() if rec_v is not None else 0.0
                )
                attempt_ns = stages_v + (
                    profile.stages.recovery - recovery_before
                )
                queue_v.finish(start_v, attempt_ns, ok)
        metrics.counter("queue.busy_ns.{}".format(cand)).inc(attempt_ns)
        if start_v > submit_ns:
            metrics.counter("queue.wait_ns.{}".format(cand)).inc(
                start_v - submit_ns
            )
        if self.attempt_log is not None:
            self.attempt_log.append(
                [cand, submit_ns, start_v, attempt_ns, ok, "vote"]
            )
        end_v = start_v + attempt_ns
        if not ok:
            return end_v
        if self.journal_log is not None:
            self.journal_log.append(["vote", cand, kd_v])
        self.monitor.observe_success(cand, kd_v)
        digest_p = hashlib.sha256(
            self.filters[key].result_wire(result)
        ).hexdigest()
        digest_v = hashlib.sha256(filt_v.result_wire(res_v)).hexdigest()
        if digest_p == digest_v:
            metrics.inc("vote.agreed")
            return end_v
        metrics.inc("vote.mismatch")
        tracer.instant(
            "vote_mismatch",
            cat="recovery",
            task=self.name,
            seq=seq,
            primary=key,
            replica=cand,
        )
        for dev in (key, cand):
            if self.journal_log is not None:
                self.journal_log.append(["fault", dev, "vote"])
            self.monitor.observe_fault(dev, "vote")
        raise VoteMismatchFault(
            "{}: devices {} and {} disagree on item {}".format(
                self.name, key, cand, seq
            )
        )
