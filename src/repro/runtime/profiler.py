"""Execution profiling: the Figure 9 stage breakdown.

The profiler aggregates simulated time per stage of offloaded execution
(Java marshal, C marshal, OpenCL setup, PCIe transfer, device kernel)
plus host compute, and provides the communication cost model that converts
:class:`repro.runtime.marshal.MarshalStats` and transfer sizes into
nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.cost import StageTimes
from repro.runtime.tracing import NULL_TRACER, MetricsRegistry


@dataclass(frozen=True)
class CommCostModel:
    """Costs of moving a value between the JVM and the device.

    The constants reflect the paper's measurements qualitatively:

    - Java-side marshalling is the most expensive stage ("Marshaling
      objects in Java suffers from significant overheads due to array
      bounds checking and object allocation") — high per-element cost on
      the generic path, and a per-byte cost plus allocation overhead on
      the specialized path.
    - C-side marshalling is cheaper ("simply use malloc/free").
    - OpenCL setup is per-buffer/per-launch API overhead ("typically 5%").
    - Raw PCIe transfer "does not play a major role".
    """

    # Java serializer: bounds checks and allocation make this the most
    # expensive stage (the paper's ~30% share).
    java_element_ns: float = 25.0  # generic path: per element walked
    java_byte_ns: float = 1.1  # specialized path: per bulk byte
    # Byte-element arrays pay extra: "the cost of byte-array accesses in
    # Lime are more expensive than in Java" (Section 5.1) — this is what
    # makes JG-Crypt marshalling-bound.
    java_byte_array_extra_ns: float = 12.0
    java_alloc_ns: float = 300.0

    # C serializer: "simply use malloc/free" — cheaper.
    c_element_ns: float = 6.0
    c_byte_ns: float = 0.45
    c_alloc_ns: float = 120.0

    # OpenCL API ("typically 5%").
    setup_per_buffer_ns: float = 500.0
    setup_per_launch_ns: float = 2_500.0

    # PCIe: "raw data transfer does not play a major role".
    pcie_byte_ns: float = 0.125
    pcie_latency_ns: float = 700.0

    @staticmethod
    def for_cpu():
        """The CPU OpenCL runtime shares memory with the JVM: no PCIe.
        Marshalling across the JNI boundary still happens (the paper's
        Figure 9(a) shows JG-Crypt dominated by it), but transfers are
        cache-speed copies and buffer setup is cheaper."""
        return CommCostModel(
            setup_per_buffer_ns=250.0,
            setup_per_launch_ns=900.0,
            pcie_byte_ns=0.02,
            pcie_latency_ns=120.0,
        )

    def java_marshal_ns(self, stats):
        return (
            self.java_element_ns * stats.elements
            + self.java_byte_ns * stats.bulk_bytes
            + self.java_byte_array_extra_ns * stats.byte_array_bytes
            + self.java_alloc_ns * stats.allocations
        )

    def c_marshal_ns(self, stats):
        return (
            self.c_element_ns * stats.elements
            + self.c_byte_ns * stats.bulk_bytes
            + self.c_alloc_ns * stats.allocations
        )

    def setup_ns(self, buffers, launches):
        return (
            self.setup_per_buffer_ns * buffers
            + self.setup_per_launch_ns * launches
        )

    def transfer_ns(self, nbytes, transfers=1):
        return self.pcie_byte_ns * nbytes + self.pcie_latency_ns * transfers


# Per-task summary fields and the canonical counter each one reads; a
# name ending in "." reads every counter under that prefix as a dict.
_TASK_FIELDS = (
    ("faults", "recovery.faults"),
    ("retries", "recovery.retries"),
    ("fallbacks", "recovery.fallbacks"),
    ("demoted", "recovery.demotions"),
    ("time_lost_ns", "recovery.time_lost_ns"),
    ("by_stage", "recovery.faults."),
    ("trips", "guards.trips."),
    ("validations", "guards.validations"),
    ("mismatches", "guards.mismatches"),
    ("promotions", "recovery.promotions"),
    ("failovers", "recovery.failovers"),
    ("partitioned_launches", "recovery.partitioned_launches"),
)


def _under(counts, prefix):
    """The entries of ``counts`` named ``<prefix><key>``, as
    ``{key: value}`` sorted by key."""
    return {
        name[len(prefix):]: value
        for name, value in sorted(counts.items())
        if name.startswith(prefix)
    }


def _ledger_fields(counts):
    """Read :data:`_TASK_FIELDS` out of ``{counter name: value}`` (one
    task's twins, or the canonical totals)."""
    out = {
        field_name: _under(counts, name) if name.endswith(".")
        else counts.get(name, 0)
        for field_name, name in _TASK_FIELDS
    }
    out["demoted"] = bool(out["demoted"])
    out["time_lost_ns"] = float(out["time_lost_ns"])
    return out


class FailureLedger:
    """The run's fault accounting, kept in the shared
    :class:`~repro.runtime.tracing.MetricsRegistry` and nowhere else.

    Every ``record_*`` call bumps the canonical ``recovery.*`` /
    ``guards.*`` counter and its per-task twin ``<name>:<task>`` (for
    example ``recovery.faults.transfer:RPES.normalize``);
    ``recovery.failovers.from.<device>`` is global only. :meth:`summary`
    and :meth:`tasks` are views of those counters, so the totals and the
    metrics cannot disagree, and a journal resume restores the ledger
    through the metrics delta it replays anyway.

    Per task: ``faults`` counts injected-or-real device faults, split by
    the Figure 6 stage that failed (``by_stage``); ``retries`` counts
    device re-attempts; ``fallbacks`` counts stream items completed on
    the host after retries were exhausted; ``demoted`` is set when the
    circuit breaker moved the whole task to its host worker;
    ``time_lost_ns`` is simulated time burned on failed attempts plus
    retry backoff. Guarded execution adds ``trips`` (sanitizer
    violations by kind — ``bounds``/``race``/``divergence``/
    ``deadline``/``nan``/``validate`` — which may exceed the fault count
    because one race fault can batch many conflicting addresses),
    ``validations``/``mismatches`` (differential-validation samples and
    how many disagreed with the host) and ``promotions`` (half-open
    breaker probes that returned the task to the device). Fleet
    scheduling adds ``failovers`` (items replayed on another fleet
    device after the placed device faulted: the item still completed on
    *a* device, so it is not a fallback) and ``partitioned_launches``
    (chunk launches run because a device OOM split the NDRange).
    """

    def __init__(self, metrics=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def _inc(self, name, task_name, n=1):
        self.metrics.inc(name, n)
        self.metrics.inc("{}:{}".format(name, task_name), n)

    def record_fault(self, task_name, stage):
        self._inc("recovery.faults", task_name)
        self._inc("recovery.faults.{}".format(stage), task_name)

    def record_retry(self, task_name):
        self._inc("recovery.retries", task_name)

    def record_fallback(self, task_name):
        self._inc("recovery.fallbacks", task_name)

    def record_demotion(self, task_name):
        """Count a task's demotion once, however often its breaker
        opens."""
        if not self.metrics.get("recovery.demotions:" + task_name):
            self._inc("recovery.demotions", task_name)

    def record_trip(self, task_name, kind, count=1):
        """Count ``count`` sanitizer violations of ``kind`` (a
        :data:`repro.runtime.sanitizer.TRIP_KINDS` key)."""
        self._inc("guards.trips.{}".format(kind), task_name, count)

    def record_validation(self, task_name, ok):
        self._inc("guards.validations", task_name)
        if not ok:
            self._inc("guards.mismatches", task_name)

    def record_promotion(self, task_name):
        """A half-open breaker probe succeeded: the task moved back from
        the host to the device."""
        self._inc("recovery.promotions", task_name)

    def record_failover(self, task_name, from_device, to_device):
        """A stream item was transparently replayed on ``to_device``
        after ``from_device`` faulted — the fleet absorbed the fault
        without involving the host."""
        self._inc("recovery.failovers", task_name)
        self.metrics.inc(
            "recovery.failovers.from.{}".format(from_device)
        )

    def record_partition(self, task_name, chunks):
        """A device-OOM launch completed as ``chunks`` partitioned chunk
        launches instead of failing the task."""
        self._inc("recovery.partitioned_launches", task_name, chunks)

    def add_time_lost(self, task_name, ns):
        self._inc("recovery.time_lost_ns", task_name, ns)

    def _counts(self):
        """``(totals, per_task)``: the canonical ledger counters, and
        the ``<name>:<task>`` twins grouped by task."""
        totals, per_task = {}, {}
        for name, value in self.metrics.as_dict().items():
            if name.startswith(("recovery.", "guards.")):
                metric, _, task = name.partition(":")
                counts = per_task.setdefault(task, {}) if task else totals
                counts[metric] = value
        return totals, per_task

    def tasks(self):
        """``{task: fields}`` for every task the ledger recorded, sorted
        by task name: the ``per_task`` block of :meth:`summary`."""
        return self.summary()["per_task"]

    def any_activity(self):
        """True when the ledger holds anything worth reporting — faults,
        sanitizer trips, validation samples, re-promotions, fleet
        failovers, or partitioned relaunches."""
        totals = _ledger_fields(self._counts()[0])
        reported = ("faults", "trips", "validations", "promotions",
                    "failovers", "partitioned_launches")
        return any(totals[name] for name in reported)

    def summary(self):
        """A plain-dict view (stable across runs with the same seed).

        Aggregate keys are the canonical ``recovery.*`` / ``guards.*``
        metric names. ``demoted_tasks`` lists the tasks the breaker
        moved to the host, sorted (``recovery.demotions`` is the count).
        """
        totals, per_task = self._counts()
        fields = _ledger_fields(totals)
        tasks = {
            task: _ledger_fields(counts)
            for task, counts in sorted(per_task.items())
        }
        return {
            "recovery.faults": fields["faults"],
            "recovery.retries": fields["retries"],
            "recovery.fallbacks": fields["fallbacks"],
            "recovery.demotions": totals.get("recovery.demotions", 0),
            "recovery.promotions": fields["promotions"],
            "recovery.failovers": fields["failovers"],
            "recovery.partitioned_launches": fields["partitioned_launches"],
            "recovery.time_lost_ns": fields["time_lost_ns"],
            "guards.trips": fields["trips"],
            "guards.validations": fields["validations"],
            "guards.mismatches": fields["mismatches"],
            "demoted_tasks": [
                task for task, rec in tasks.items() if rec["demoted"]
            ],
            "per_task": tasks,
        }

    def report(self):
        """Render the ledger as text for the CLI, in the one format of
        :func:`render_failure_summary`."""
        return render_failure_summary(self.summary())


def render_failure_summary(summary):
    """The single canonical text rendering of a failure-ledger summary,
    used by ``FailureLedger.report()`` and the ``run`` CLI. The header
    keys are the canonical ``recovery.*`` metric leaf names.
    """
    per_task = (summary or {}).get("per_task") or {}
    if not per_task:
        return "failure ledger: no device faults recorded"
    header = (
        "failure ledger: faults={} retries={} fallbacks={} demotions={} "
        "time_lost_ns={:.0f}".format(
            summary.get("recovery.faults", 0),
            summary.get("recovery.retries", 0),
            summary.get("recovery.fallbacks", 0),
            summary.get("recovery.demotions", 0),
            summary.get("recovery.time_lost_ns", 0.0),
        )
    )
    failovers = summary.get("recovery.failovers", 0)
    partitioned = summary.get("recovery.partitioned_launches", 0)
    if failovers or partitioned:
        header += "\n  fleet: failovers={} partitioned_launches={}".format(
            failovers, partitioned
        )
    trips = summary.get("guards.trips", {}) or {}
    validations = summary.get("guards.validations", 0)
    mismatches = summary.get("guards.mismatches", 0)
    promotions = summary.get("recovery.promotions", 0)
    if trips or validations or promotions:
        parts = [
            "{}={}".format(kind, count) for kind, count in sorted(trips.items())
        ]
        parts.append("validations={}".format(validations))
        parts.append("mismatches={}".format(mismatches))
        if promotions:
            parts.append("promotions={}".format(promotions))
        header += "\n  guards: " + " ".join(parts)
    lines = [header]
    for name, rec in sorted(per_task.items()):
        stages = ", ".join(
            "{}={}".format(stage, count)
            for stage, count in sorted(rec.get("by_stage", {}).items())
        )
        extra = ""
        if rec.get("validations"):
            extra += " validations={} mismatches={}".format(
                rec["validations"], rec.get("mismatches", 0)
            )
        if rec.get("promotions"):
            extra += " promotions={}".format(rec["promotions"])
        if rec.get("failovers"):
            extra += " failovers={}".format(rec["failovers"])
        if rec.get("partitioned_launches"):
            extra += " partitioned={}".format(rec["partitioned_launches"])
        lines.append(
            "  {}: faults={} ({}) retries={} fallbacks={}{}{} "
            "time_lost={:.0f}ns".format(
                name,
                rec.get("faults", 0),
                stages or "-",
                rec.get("retries", 0),
                rec.get("fallbacks", 0),
                extra,
                " DEMOTED-TO-HOST" if rec.get("demoted") else "",
                rec.get("time_lost_ns", 0.0),
            )
        )
    return "\n".join(lines)


def render_executor_summary(summary):
    """The single canonical text rendering of executor-tier and
    kernel-cache counters, keyed by the canonical metric names."""
    if not summary:
        return ""
    tiers = summary.get("executor.launches", {}) or {}
    hits = summary.get("cache.hits", 0)
    misses = summary.get("cache.misses", 0)
    disk_hits = summary.get("cache.disk_hits", 0)
    if not tiers and not hits and not misses and not disk_hits:
        return ""
    parts = [
        "launches.{}={}".format(tier, count)
        for tier, count in sorted(tiers.items())
    ]
    reused = summary.get("executor.reused", 0)
    if reused:
        parts.append("reused={}".format(reused))
    parts.append("cache.hits={}".format(hits))
    if disk_hits:
        parts.append("cache.disk_hits={}".format(disk_hits))
    parts.append("cache.misses={}".format(misses))
    return "executor: " + " ".join(parts)


class ExecutionProfile:
    """Aggregated stage times for one end-to-end run, plus per-task
    detail, the run's metrics registry, the failure ledger and executor
    counters read from it, and the tracer every instrumented layer
    reaches through ``profile.tracer`` (the
    :data:`~repro.runtime.tracing.NULL_TRACER` no-op unless the run
    asked for a trace). All figures are simulated nanoseconds.

    Counts live only in :attr:`metrics`: launches per execution tier
    (``executor.launches.<tier>``: ``batch`` / ``per-item`` /
    ``sanitized``), launches that reused an earlier launch's results
    (``executor.reused``), kernel-cache traffic (``cache.*``) and transfer
    volume (``transfer.bytes_*``), bumped by the glue, the marshaller
    and the kernel cache."""

    def __init__(self, tracer=None):
        self.stages = StageTimes()
        self.per_task = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.faults = FailureLedger(metrics=self.metrics)

    @property
    def kernel_launches(self):
        """Kernel launches on every tier."""
        return sum(self.executor_summary()["executor.launches"].values())

    def executor_summary(self):
        """Tier and compilation-cache counters for reports, keyed by the
        canonical metric names."""
        metrics = self.metrics
        return {
            "executor.launches": _under(
                metrics.as_dict(), "executor.launches."
            ),
            "executor.reused": metrics.get("executor.reused"),
            "cache.hits": metrics.get("cache.hits"),
            "cache.disk_hits": metrics.get("cache.disk_hits"),
            "cache.misses": metrics.get("cache.misses"),
        }

    def task_stages(self, task_name):
        if task_name not in self.per_task:
            self.per_task[task_name] = StageTimes()
        return self.per_task[task_name]

    def record(self, task_name, stage_times):
        self.stages.add(stage_times)
        self.task_stages(task_name).add(stage_times)
        self.metrics.histogram("task.invoke_ns").observe(stage_times.total())

    def restore(self, task_name, stage_dict):
        """Journal replay: re-apply a completed item's stage times
        without re-observing metrics (counters and histograms are
        restored separately via :meth:`MetricsRegistry.merge_delta`)."""
        st = StageTimes(
            **{k: v for k, v in stage_dict.items() if k != "total"}
        )
        self.stages.add(st)
        self.task_stages(task_name).add(st)

    def record_recovery(self, task_name, ns):
        """Charge fault-recovery overhead (failed partial attempts,
        retry backoff) to the ``recovery`` stage."""
        if ns <= 0:
            return
        self.stages.recovery += ns
        self.task_stages(task_name).recovery += ns

    def total_ns(self):
        return self.stages.total()

    def communication_ns(self):
        return self.stages.communication()

    def breakdown(self):
        """Fractions per stage — the bars of Figure 9."""
        total = self.total_ns()
        if total == 0:
            return {name: 0.0 for name in self.stages.as_dict()}
        return {
            name: value / total for name, value in self.stages.as_dict().items()
        }
