"""Execution targets, the run specification, and the end-to-end
measurement loop.

A *target* is one column of Figure 7: the Lime-bytecode baseline
(host interpreter only), the OpenCL multicore runtime on 1 or 6 Core i7
cores, or one of the GPUs. A :class:`RunSpec` holds everything that
shapes one run; ``run_configuration`` executes a benchmark's full
task-graph program under a spec and reports simulated times with the
Figure 9 stage breakdown.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.compiler.options import OptimizationConfig
from repro.compiler.pipeline import FleetOffloader, OffloadOptions, Offloader
from repro.opencl.device import CORE_I7, get_device
from repro.runtime.engine import Engine
from repro.runtime.profiler import CommCostModel
from repro.runtime.resilience import FleetPolicy, ResiliencePolicy
from repro.runtime.sanitizer import SanitizerConfig


@dataclass(frozen=True)
class Target:
    """One execution configuration."""

    name: str
    kind: str  # "bytecode" | "cpu" | "gpu"
    device_name: Optional[str] = None
    cores: Optional[int] = None


TARGETS = {
    "bytecode": Target(name="bytecode", kind="bytecode"),
    "cpu-1": Target(name="cpu-1", kind="cpu", cores=1),
    "cpu-6": Target(name="cpu-6", kind="cpu", cores=6),
    "gtx8800": Target(name="gtx8800", kind="gpu", device_name="gtx8800"),
    "gtx580": Target(name="gtx580", kind="gpu", device_name="gtx580"),
    "hd5970": Target(name="hd5970", kind="gpu", device_name="hd5970"),
}


def resolve_fleet_policy(policy=None, **knobs):
    """One :class:`FleetPolicy` from a policy, a placement strategy
    name (``"health"`` / ``"round-robin"``) or None (the defaults),
    with every knob that is not None (``schedule``, ``hedge``,
    ``redundancy``, ...) folded in."""
    if isinstance(policy, str):
        policy, knobs = None, dict(knobs, policy=policy)
    knobs = {key: value for key, value in knobs.items() if value is not None}
    return replace(policy or FleetPolicy(), **knobs)


@dataclass(frozen=True)
class FaultFlags:
    """A run's fault configuration: the arguments of
    :meth:`ResiliencePolicy.from_flags` (``--faults``, ``--fault-seed``,
    ``--silent-faults``, ``--validate-every``, ``--breaker-cooloff``,
    ``--kill-device``, ``--oom-bytes``, ``--slow-device``,
    ``--slow-ramp``, ``--latency-jitter``). ``kill_devices`` maps a
    device key to the launches it survives and ``slow_devices`` to its
    ``(factor, first slow launch)``; both become sorted tuples, so equal
    flags compare equal."""

    fault_rate: float = 0.0
    seed: int = 0
    silent_rate: float = 0.0
    validate_every: int = 0
    cooloff: Optional[int] = None
    kill_devices: tuple = ()
    oom_bytes: int = 0
    slow_devices: tuple = ()
    slow_ramp: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        kill = sorted(dict(self.kill_devices).items())
        slow = sorted(dict(self.slow_devices).items())
        object.__setattr__(self, "kill_devices", tuple(kill))
        object.__setattr__(
            self, "slow_devices", tuple((k, tuple(v)) for k, v in slow)
        )


@dataclass(frozen=True)
class RunSpec:
    """Everything that shapes one run, resolved once.

    ``repro run``, ``serve`` and ``serve-bench`` build it from their
    flags in one place (``repro.cli.run_spec``); :func:`run_configuration`,
    the serving daemon and the serving bench consume it. The journal's
    run key hashes every field (:meth:`journal_descriptor`), so a field
    added here is part of the key without anyone listing it.

    Construction canonicalizes — ``devices`` to a tuple, a ``Target`` to
    its name, a fleet's policy (a :class:`FleetPolicy`, a strategy name
    or None) to a resolved :class:`FleetPolicy`, and to None without
    ``devices`` — so equal runs compare, and key, equal.
    """

    # A TARGETS name; with ``devices`` only the result's fallback label.
    target: str = "gtx580"
    # Fleet device keys: offload to a health-scheduled multi-device
    # fleet (FleetOffloader) instead of the single target.
    devices: Optional[tuple] = None
    # The fleet's placement strategy, dispatch schedule ("concurrent",
    # or "sequential" as the bit-exact baseline), hedging and
    # redundancy, folded into one policy.
    fleet_policy: Optional[FleetPolicy] = None
    # Workload scale (1.0 = the default simulated size; the paper-scale
    # sizes are far larger, see DESIGN.md); stream depth override.
    scale: float = 1.0
    steps: Optional[int] = None
    # Optimization toggles for the offloaded kernels.
    config: OptimizationConfig = OptimizationConfig()
    # Simulated work-item cap override.
    max_sim_items: Optional[int] = None
    # "auto"/"batch"/"per-item"; None defers to REPRO_EXEC_TIER, then
    # auto.
    exec_tier: Optional[str] = None
    # Guarded (instrumented) kernel execution, or None.
    sanitizer: Optional[SanitizerConfig] = None
    # Graph-level fusion: "off" (the byte-identical seed path),
    # "resident" (intermediates stay on the device across => seams) or
    # "kernel" (legal chains also fuse into composite kernels); None
    # defers to REPRO_FUSE, then off. See docs/FUSION.md.
    fuse: Optional[str] = None
    # Fault injection, validation and breaker cooloff.
    faults: FaultFlags = FaultFlags()

    def __post_init__(self):
        devices = tuple(self.devices) if self.devices else None
        canonical = {
            "target": getattr(self.target, "name", self.target),
            "devices": devices,
            "fleet_policy": (
                resolve_fleet_policy(self.fleet_policy) if devices else None
            ),
            "config": self.config or OptimizationConfig(),
        }
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    @property
    def label(self):
        """The target label a result reports."""
        if self.devices:
            return "fleet:" + "+".join(self.devices)
        return self.target

    def resilience(self):
        """A fresh :class:`ResiliencePolicy` for the fault flags (None
        when every one is off). Fresh per call: each run — each serving
        session — draws its own seeded fault stream, so its schedule is
        identical to a solo run with the same flags."""
        sanitizer = self.sanitizer
        return ResiliencePolicy.from_flags(
            sanitize=sanitizer is not None and sanitizer.instruments_launch(),
            **vars(self.faults),
        )

    def offloader(self, fleet=None):
        """A fresh offloader: a :class:`FleetOffloader` over
        ``devices`` — or over the shared ``fleet`` (a
        :class:`repro.runtime.fleet.DeviceFleet`) when given — the
        target's :class:`Offloader`, or None for the bytecode
        baseline. Its :class:`OffloadOptions` are built here, once."""
        options = OffloadOptions(
            config=self.config,
            max_sim_items=self.max_sim_items,
            sanitizer=self.sanitizer,
            exec_tier=self.exec_tier,
        )
        if self.devices:
            return FleetOffloader(
                list(self.devices),
                policy=self.fleet_policy,
                fleet=fleet,
                options=options,
            )
        target = TARGETS[self.target]
        if target.kind == "bytecode":
            return None
        if target.kind == "cpu":
            return Offloader(
                CORE_I7.with_cores(target.cores),
                options,
                comm=CommCostModel.for_cpu(),
            )
        return Offloader(get_device(target.device_name), options)

    def journal_descriptor(self, benchmark, resilience):
        """What the journal's run key hashes: the benchmark name, every
        field of this spec, and the configuration of the effective
        ``resilience`` policy — built from the fault flags or passed in
        as an object."""
        return {
            "benchmark": benchmark,
            "spec": asdict(self),
            "resilience": resilience.describe() if resilience else None,
        }


@dataclass
class RunResult:
    benchmark: str
    target: str
    checksum: float
    total_ns: float
    host_compute_ns: float
    stages: dict
    offloaded: list
    rejections: list = field(default_factory=list)
    faults: dict = field(default_factory=dict)  # FailureLedger.summary()
    executor: dict = field(default_factory=dict)  # executor_summary()
    metrics: dict = field(default_factory=dict)  # MetricsRegistry.as_dict()
    fleet: dict = field(default_factory=dict)  # HealthMonitor.snapshot()
    journal: dict = field(default_factory=dict)  # RunJournal.stats()
    # Fleet command-queue accounting: per-device queue statistics
    # (DeviceFleet.queues_snapshot()) and the run's makespan — host
    # compute plus the furthest queue cursor. For single-device runs
    # the makespan equals total_ns (one implicit queue, no overlap).
    queues: dict = field(default_factory=dict)
    makespan_ns: float = 0.0
    # The run's full metrics in MetricsRegistry.delta() form — a
    # mergeable carve-out the serving daemon folds into per-tenant and
    # global registries (MetricsRegistry.merge_delta).
    metrics_delta: dict = field(default_factory=dict)
    # Graph-level fusion report (FusionPlanner.summary()): mode,
    # chains, fused kernels, elisions, bytes saved, declined seams by
    # typed reason. Empty at --fuse off, so existing JSON consumers
    # and the metrics baseline are unchanged.
    fusion: dict = field(default_factory=dict)

    @property
    def communication_ns(self):
        return sum(
            v
            for k, v in self.stages.items()
            if k not in ("kernel", "host_compute")
        )


def run_configuration(
    bench,
    spec="gtx580",
    resilience=None,
    tracer=None,
    journal=None,
    resume=False,
    offloader=None,
    item_guard=None,
    hedge_urgency=None,
    fleet_schedule=None,
    **fields,
):
    """Run one benchmark end to end under one :class:`RunSpec`.

    Args:
        bench: a :class:`repro.apps.base.Benchmark`.
        spec: a :class:`RunSpec`, or a :class:`Target` or its name.
            Keyword ``fields`` set (or override) the spec's fields:
            ``scale=0.2, devices=[...], fleet_policy="health", ...``;
            ``fleet_schedule`` is folded into the fleet policy.
        resilience: optional
            :class:`repro.runtime.resilience.ResiliencePolicy` to use
            instead of :meth:`RunSpec.resilience` (fault injection +
            retry/fallback for the offloaded filters).
        tracer: optional :class:`repro.runtime.tracing.Tracer`; the run
            emits spans for every offload stage, and a final synthetic
            ``host_compute`` span (interpreter time is only known at
            the end of the run) so the trace covers the full reported
            simulated total.
        journal: optional directory path — write-ahead-log every
            offloaded stream item to a crash-consistent
            :class:`repro.runtime.journal.RunJournal` there, keyed by
            :meth:`RunSpec.journal_descriptor`.
        resume: with ``journal``, recover the existing WAL (CRC-scan,
            torn-tail truncation, run-key check) and skip journaled
            items bit-exactly instead of recomputing them.
        offloader: a pre-built offloader (e.g. a
            :class:`repro.compiler.pipeline.FleetOffloader` over a
            *shared* :class:`repro.runtime.fleet.DeviceFleet` from the
            serving daemon) instead of :meth:`RunSpec.offloader`.
        item_guard: optional callable ``guard(task_name)`` invoked
            before every task-worker item — the serving layer's
            deadline/budget/drain propagation point. May raise to abort
            the run at an item boundary; the exception is journaled as
            an ``aborted`` record before it propagates.
        hedge_urgency: optional zero-argument callable returning the
            caller's deadline fraction (0.0 fresh → 1.0 at the
            deadline); installed on every fleet device worker so
            near-deadline serving sessions hedge eagerly
            (docs/HEDGING.md).

    Returns a :class:`RunResult` with simulated nanoseconds.
    """
    from repro.backend.glue import resolve_max_sim_items
    from repro.compiler.fusion import resolve_fuse_mode
    from repro.opencl.executor import resolve_exec_tier

    if not isinstance(spec, RunSpec):
        spec = RunSpec(target=spec)
    if fleet_schedule is not None:
        fields["fleet_policy"] = resolve_fleet_policy(
            fields.get("fleet_policy", spec.fleet_policy),
            schedule=fleet_schedule,
        )
    spec = replace(spec, **fields)
    # Settings that fall back to the environment are resolved here, so
    # the journal's run key hashes the values the run actually uses.
    spec = replace(
        spec,
        steps=spec.steps if spec.steps is not None else bench.steps,
        max_sim_items=resolve_max_sim_items(spec.max_sim_items),
        exec_tier=resolve_exec_tier(spec.exec_tier),
        fuse=resolve_fuse_mode(spec.fuse),
    )
    checked = bench.checked()
    inputs = bench.make_input(scale=spec.scale)
    if offloader is None:
        offloader = spec.offloader()
    if resilience is None:
        resilience = spec.resilience()
    run_journal = None
    if journal is not None:
        from repro.runtime.journal import RunJournal

        # Everything that shapes the item stream goes into the run key:
        # resuming against a different configuration is refused rather
        # than producing silently wrong "skips".
        run_journal = RunJournal.open(
            journal,
            spec.journal_descriptor(bench.name, resilience),
            resume=resume,
        )
    try:
        engine = Engine(
            checked,
            offloader=offloader,
            resilience=resilience,
            tracer=tracer,
            journal=run_journal,
            item_guard=item_guard,
            fuse=spec.fuse,
            hedge_urgency=hedge_urgency,
        )
        checksum = engine.run_static(
            bench.main_class, bench.run_method, list(inputs) + [spec.steps]
        )
        if run_journal is not None:
            run_journal.record_complete(float(checksum))
            journal_stats = run_journal.stats()
        else:
            journal_stats = {}
    except Exception as err:
        # A run dying mid-stream still leaves a recoverable journal:
        # the abort record marks a clean boundary for a later --resume
        # (the wall-deadline watchdog and SIGTERM paths do the same).
        if run_journal is not None:
            run_journal.record_aborted(
                "{}: {}".format(type(err).__name__, err)
            )
        raise
    finally:
        if run_journal is not None:
            run_journal.close()
    stages = engine.profile.stages.as_dict()
    stages["host_compute"] = engine.host_compute_ns()
    fleet = getattr(offloader, "fleet", None)
    if fleet is not None:
        # The reduce point: merge the per-device queue cursors into the
        # global clock so the synthetic host_compute span starts after
        # the last queue drained and the trace covers the makespan.
        clock = getattr(engine.profile.tracer, "clock", None)
        if clock is not None:
            clock.ns = max(clock.ns, fleet.makespan_ns())
    engine.profile.tracer.charge(
        "host_compute",
        engine.host_compute_ns(),
        cat="host",
        benchmark=bench.name,
    )
    ledger = engine.profile.faults
    return RunResult(
        benchmark=bench.name,
        target=spec.label,
        checksum=float(checksum),
        total_ns=engine.total_ns(),
        host_compute_ns=engine.host_compute_ns(),
        stages=stages,
        offloaded=list(engine.offloaded_tasks),
        rejections=list(offloader.rejections) if offloader else [],
        faults=ledger.summary() if ledger.any_activity() else {},
        executor=engine.profile.executor_summary(),
        metrics=engine.profile.metrics.as_dict(),
        fleet=fleet.snapshot() if fleet is not None else {},
        journal=journal_stats,
        queues=fleet.queues_snapshot() if fleet is not None else {},
        makespan_ns=engine.makespan_ns(),
        metrics_delta=engine.profile.metrics.delta({}),
        fusion=engine.fusion_summary(),
    )
